"""Convex-combination eavesdropping on the parity-game conference key protocol.

The eavesdropper splits the key-setting behavior of the noisy device into a
GHZ part she cannot read and a biseparable part she knows completely:

    P(a,b1,b2,e) = (1-nu)^3 P_GHZ(a,b1,b2) [e = ?]
                 + (1-(1-nu)^3) P_L(a,b1,b2) [e = (a,b1,b2)]

Everything refers to the key-generating setting, where all parties measure
sigma_z.  Its outcome table is the computational-basis diagonal of the
state, since the sigma_z projectors are the diagonal 0/1 matrices.  GHZ's
diagonal is written in closed form, and the weight and chi_nu's diagonal
come from `states.biseparable_split`, so no density matrix is built.  The
Eve alphabet has 9 symbols: index 0 is the ignorance symbol '?', index
1 + 4a + 2b1 + b2 records the triple (a,b1,b2).  Her post-processing keeps
only triples that mimic an honest key round: the channel `_MIMICRY` maps
(a,a,a) to a and every other symbol to '?' (output alphabet 0, 1, '?'=2).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import behaviors, states
from .secrecy import ClassicalChannel, JointDistribution, apply_channel, integer, unit_interval

MARGINAL_TOL = 1e-10

EVE_IGNORANT = 0
EVE_ALPHABET = 9


def eve_symbol(a: int, b1: int, b2: int) -> int:
    """Eve-alphabet index recording the output triple; each bit is 0 or 1."""
    a, b1, b2 = (integer(bit, name, 0, 1) for name, bit in (("a", a), ("b1", b1), ("b2", b2)))
    return 1 + 4 * a + 2 * b1 + b2


#: Eve's symbol for each output triple, in the row-major order of a (2, 2, 2) table
_RECORDED = [eve_symbol(*t) for t in itertools.product(range(2), repeat=3)]
#: honest mimicry: (0,0,0) -> 0, (1,1,1) -> 1, '?' and every other triple -> '?'
_MIMICRY = ClassicalChannel.from_partition(
    [[_RECORDED[0]], [_RECORDED[7]], [EVE_IGNORANT] + _RECORDED[1:7]], EVE_ALPHABET)


#: GHZ's all-sigma_z outcome table, flat and read-only: (1/sqrt 2)^2 = 0x1.ffffffffffffep-2,
#: the bits of the GHZ state's diagonal and not 0.5, on 000 and on 111
_GHZ_KEY = np.array([1.0, 0, 0, 0, 0, 0, 0, 1.0]) * (1.0 / math.sqrt(2.0)) ** 2
_GHZ_KEY.flags.writeable = False


@dataclass(frozen=True)
class CcAttack:
    """Convex-combination attack at the key-generating setting.

    `joint` is the distribution over (a, b1, b2, e) with the 9-symbol Eve
    alphabet.  Construction checks `nu` as a noise level below 1 and verifies, to
    1e-10, that dropping Eve gives the device's key table, GHZ's table
    `behaviors.depolarized` by `nu`, and that P(e = '?') is 1 - local_weight.
    """

    nu: float
    local_weight: float
    joint: JointDistribution

    def __post_init__(self):
        object.__setattr__(self, "nu", unit_interval(self.nu, "nu"))
        if self.nu == 1.0:
            raise ValueError("attack construction needs nu < 1, got 1.0")
        device = behaviors.depolarized(_GHZ_KEY.reshape(2, 2, 2), self.nu)
        if not np.abs(self.joint.probs.sum(axis=-1) - device).max() <= MARGINAL_TOL:
            raise ValueError("attack joint does not reproduce the device's key-setting behavior")
        p_ignorant = self.joint.probs[..., EVE_IGNORANT].sum()
        if not abs(p_ignorant - (1.0 - self.local_weight)) <= MARGINAL_TOL:
            raise ValueError("P(e = '?') does not match the nonlocal weight")


def build_cc_attack(nu: float) -> CcAttack:
    """The convex-combination attack for noise level `nu` < 1: the biseparable
    split of the depolarized GHZ state fixes the local weight 1-(1-nu)^3 and
    the local table, the key-setting table of chi."""
    _, local_weight, _, chi = states.biseparable_split(nu)
    probs = np.zeros((8, EVE_ALPHABET))
    probs[:, EVE_IGNORANT] = (1.0 - local_weight) * _GHZ_KEY
    probs[range(8), _RECORDED] = local_weight * chi
    joint = JointDistribution(probs.reshape(2, 2, 2, EVE_ALPHABET))
    return CcAttack(nu=nu, local_weight=local_weight, joint=joint)


def local_fraction(nu: float) -> float:
    """The largest local weight of a convex-combination attack on the device at noise `nu`,
    (w(0) - w(nu)) / (w(0) - 3/4) for the parity-game value w: a local box wins with
    probability at most 3/4 and a quantum box at most w(0).  With u = 1 - nu this is
    clip((1 + 1/sqrt 2)(2 - u^2 - u^3), 0, 1), which is 1 from nu = 0.1302966."""
    u = 1.0 - unit_interval(nu, "nu")
    return min(1.0, max(0.0, (1.0 + 1.0 / math.sqrt(2.0)) * (2.0 - u ** 2 - u ** 3)))


def eve_postprocess(attack: CcAttack) -> JointDistribution:
    """Apply Eve's honest-mimicry channel, collapsing her alphabet to {0, 1, ?}.

    '?' stays '?'; a recorded triple maps to the shared bit when all three
    outputs agree and to '?' otherwise.  The party marginal is untouched
    because the channel acts on Eve's symbol alone.
    """
    return apply_channel(attack.joint, _MIMICRY)
