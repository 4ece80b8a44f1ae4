"""Convex-combination eavesdropping on the parity-game conference key protocol.

The eavesdropper splits the key-setting behavior of the noisy device into a
GHZ part she cannot read and a biseparable part she knows completely:

    P(a,b1,b2,e) = (1-nu)^3 P_GHZ(a,b1,b2) [e = ?]
                 + (1-(1-nu)^3) P_L(a,b1,b2) [e = (a,b1,b2)]

Everything refers to the key-generating setting, where all parties measure
sigma_z.  Its outcome table is the computational-basis diagonal of the
state, since the sigma_z projectors are the diagonal 0/1 matrices, so
`_key_slice` reads it directly.  The weight and chi_nu of the split come
from one `states.noisy_ghz3` decomposition.  The Eve alphabet has 9
symbols: index 0 is the ignorance symbol '?', index 1 + 4a + 2b1 + b2
records the triple (a,b1,b2).  Her post-processing keeps only triples that
mimic an honest key round: the channel `_MIMICRY` maps (a,a,a) to a and
every other symbol to '?' (output alphabet 0, 1, '?'=2).

The attack carries the one decomposition it was built from, and is checked
against that device: `noisy_ghz3` runs once per attack.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import states
from .qmat import DensityMatrix
from .secrecy import ClassicalChannel, JointDistribution, apply_channel

MARGINAL_TOL = 1e-10

EVE_IGNORANT = 0
EVE_ALPHABET = 9
POST_IGNORANT = 2


def eve_symbol(a: int, b1: int, b2: int) -> int:
    """Eve-alphabet index recording the output triple."""
    return 1 + 4 * a + 2 * b1 + b2


#: Eve's symbol for each output triple, in the row-major order of a (2, 2, 2) table
_RECORDED = [eve_symbol(*t) for t in itertools.product(range(2), repeat=3)]
#: honest mimicry: (0,0,0) -> 0, (1,1,1) -> 1, '?' and every other triple -> '?'
_MIMICRY = ClassicalChannel.from_partition(
    [[_RECORDED[0]], [_RECORDED[7]], [EVE_IGNORANT] + _RECORDED[1:7]], EVE_ALPHABET)


def _key_slice(state: DensityMatrix) -> np.ndarray:
    """All-sigma_z outcome probabilities of a three-qubit state, shape (2, 2, 2)."""
    return state.matrix.diagonal().real.reshape(2, 2, 2)


@dataclass(frozen=True)
class CcAttack:
    """Convex-combination attack at the key-generating setting.

    `joint` is the distribution over (a, b1, b2, e) with the 9-symbol Eve
    alphabet; `decomposition` is the device it attacks, the noisy GHZ state
    whose biseparable weight is the local weight.  Construction verifies
    that dropping Eve reproduces the decomposition state's key-setting
    behavior and that P(e = '?') equals 1 minus the local weight, both to
    1e-10.
    """

    joint: JointDistribution
    decomposition: states.GhzDecomposition

    def __post_init__(self):
        device = _key_slice(self.decomposition.state)
        marginal = self.joint.probs.sum(axis=-1)
        if np.abs(marginal - device).max() > MARGINAL_TOL:
            raise ValueError("attack joint does not reproduce the device's key-setting behavior")
        p_ignorant = self.joint.probs[..., EVE_IGNORANT].sum()
        if abs(p_ignorant - (1.0 - self.local_weight)) > MARGINAL_TOL:
            raise ValueError("P(e = '?') does not match the nonlocal weight")

    @property
    def nu(self) -> float:
        return self.decomposition.nu

    @property
    def local_weight(self) -> float:
        return self.decomposition.biseparable_weight


def build_cc_attack(nu: float) -> CcAttack:
    """Assemble the convex-combination attack for noise level `nu` < 1.

    The biseparable split of the depolarized GHZ state fixes the local
    weight 1-(1-nu)^3 and the local table, the key-setting table of chi.
    """
    nu = float(nu)
    if not 0.0 <= nu < 1.0:
        raise ValueError(f"attack construction needs 0 <= nu < 1, got {nu}")
    dec = states.noisy_ghz3(nu)
    local_weight = dec.biseparable_weight
    probs = np.zeros((8, EVE_ALPHABET))
    probs[:, EVE_IGNORANT] = (1.0 - local_weight) * _key_slice(states.ghz3()).ravel()
    probs[range(8), _RECORDED] = local_weight * _key_slice(dec.chi).ravel()
    joint = JointDistribution((2, 2, 2), EVE_ALPHABET, probs.reshape(2, 2, 2, EVE_ALPHABET))
    return CcAttack(joint=joint, decomposition=dec)


def eve_postprocess(attack: CcAttack) -> JointDistribution:
    """Apply Eve's honest-mimicry channel, collapsing her alphabet to {0, 1, ?}.

    '?' stays '?'; a recorded triple maps to the shared bit when all three
    outputs agree and to '?' otherwise.  The party marginal is untouched
    because the channel acts on Eve's symbol alone.
    """
    return apply_channel(attack.joint, _MIMICRY)
