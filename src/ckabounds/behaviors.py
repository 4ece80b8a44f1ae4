"""Conditional-probability behaviors, the parity-game value, and error rates.

A `Behavior` stores the full table p(a_1..a_N | x_1..x_N) of a multi-party
box.  The first party is Alice, the second the distinguished Bob of the
parity game, the remaining parties are the extra Bobs whose game inputs are
fixed.  The honest device measures GHZ with the observables returned by
`default_measurements`, and `depolarized` adds its noise; the key-generating
setting is `KEY_SETTING`, where every party measures sigma_z.  The parity
game is the only game played, so `parity_chsh_value` evaluates its win
condition directly on the table.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import states
from .qmat import HERMITICITY_TOL, DensityMatrix, Povm
from .secrecy import TOTAL_TOL, integer, probability_table, unit_interval

_SQRT2 = math.sqrt(2.0)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)

#: inputs of the key-generating round (all parties measure sigma_z)
KEY_SETTING = (0, 2, 0)
#: fixed inputs of the extra Bobs during game rounds
GAME_FIXED_INPUTS = (1,)


@dataclass(frozen=True)
class Behavior:
    """Conditional distribution table p(a_1..a_N | x_1..x_N) over per-party finite alphabets.

    `table` has one input axis per party, then one output axis per party, and one
    distribution per joint input, checked by `probability_table`.
    """

    table: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.table, dtype=float)
        if t.ndim < 2 or t.ndim % 2:
            raise ValueError(f"need one input and one output axis per party, got shape {t.shape}")
        object.__setattr__(self, "table", probability_table(
            t, t.ndim // 2, TOTAL_TOL, "conditional distributions"))

    @property
    def parties(self) -> int:
        return self.table.ndim // 2

    @property
    def input_alphabets(self) -> tuple[int, ...]:
        return self.table.shape[:self.parties]

    @property
    def output_alphabets(self) -> tuple[int, ...]:
        return self.table.shape[self.parties:]

    def conditional(self, inputs: Sequence[int]) -> np.ndarray:
        """Output distribution for one joint input, shape = output_alphabets."""
        if len(inputs) != self.parties:
            raise ValueError(f"expected {self.parties} inputs, got {len(inputs)}")
        return self.table[tuple(integer(x, "input", 0, size - 1)
                                for x, size in zip(inputs, self.input_alphabets))]


def povm_from_observable(obs: np.ndarray) -> Povm:
    """Two-outcome projective POVM ((I+O)/2, (I-O)/2) of a +-1 observable O.

    Outcome 0 is the +1 eigenspace.  O must be Hermitian (checked by `Povm`)
    and square to the identity within 1e-10.
    """
    obs = np.asarray(obs, dtype=complex)
    if obs.ndim != 2 or obs.shape[0] != obs.shape[1]:
        raise ValueError(f"observable must be a square matrix, got shape {obs.shape}")
    eye = np.eye(obs.shape[0])
    if np.abs(obs @ obs - eye).max() > HERMITICITY_TOL:
        raise ValueError("observable does not square to the identity within 1e-10")
    return Povm(((eye + obs) / 2, (eye - obs) / 2))


@functools.cache
def default_measurements() -> tuple[tuple[Povm, ...], ...]:
    """Per-party, per-input POVMs of the honest three-party device.

    Alice: x=0 -> Z, x=1 -> X.  Bob1: y=0 -> (Z+X)/sqrt2, y=1 -> (Z-X)/sqrt2,
    y=2 -> Z.  Bob2: y=0 -> Z, y=1 -> X.  The Z settings at `KEY_SETTING`
    generate the key; the remaining settings are the CHSH-optimal angles for
    the branch states left after Bob2's X measurement.  The POVMs are built
    on the first call and shared by every later one.
    """
    return tuple(tuple(povm_from_observable(o) for o in party) for party in (
        (PAULI_Z, PAULI_X),
        ((PAULI_Z + PAULI_X) / _SQRT2, (PAULI_Z - PAULI_X) / _SQRT2, PAULI_Z),
        (PAULI_Z, PAULI_X),
    ))


def behavior_from_measurement(rho: DensityMatrix,
                              povms: Sequence[Sequence[Povm]]) -> Behavior:
    """Born-rule behavior of measuring each tensor factor with its own POVM set.

    p(a|x) = Tr[(E^1_{a_1|x_1} (x) ... (x) E^N_{a_N|x_N}) rho], computed by
    contracting the reshaped state with each party's stack of effects in turn.
    """
    if len(povms) != rho.n_factors:
        raise ValueError(f"got POVMs for {len(povms)} parties, state has {rho.n_factors} factors")
    for i, party in enumerate(povms):
        if len({p.n_outcomes for p in party}) != 1:
            raise ValueError(f"party {i} needs at least one input, all with one outcome count")
        for p in party:
            if p.dim != rho.dims[i]:
                raise ValueError(
                    f"party {i} POVM dimension {p.dim} does not match factor dim {rho.dims[i]}")
    n = rho.n_factors
    # axes (row_1, col_1, ..., row_N, col_N).  Tr(E rho) = sum_jk E[j, k] rho[k, j],
    # so each step sums the leading (row, col) pair against the (col, row) axes
    # of the party's stack E[x, a, :, :] and appends (x, a) at the end.
    t = rho.matrix.reshape(rho.dims * 2).transpose([k for i in range(n) for k in (i, n + i)])
    for party in povms:
        t = np.tensordot(t, np.array([p.effects for p in party]), axes=([0, 1], [3, 2]))
    table = t.real.transpose(list(range(0, 2 * n, 2)) + list(range(1, 2 * n, 2)))
    return Behavior(table)


def depolarized(table, nu: float) -> np.ndarray:
    """The device's noise: each of `table`'s last three binary output axes flipped with
    probability nu/2, as depolarizing a qubit by `nu` flips a +-1 observable's outcome."""
    e = unit_interval(nu, "nu") / 2
    flip = np.array([[1.0 - e, e], [e, 1.0 - e]])
    return np.einsum("...abc,ax,by,cz->...xyz", table, flip, flip, flip)


@functools.cache
def _ghz_table() -> np.ndarray:
    """GHZ's noiseless default-measurement Born table, built once and shared read-only."""
    return behavior_from_measurement(states.ghz3(), default_measurements()).table


def honest_behavior(nu: float = 0.0) -> Behavior:
    """GHZ's default-measurement Born table, `depolarized` by `nu`."""
    return Behavior(depolarized(_ghz_table(), nu))


def parity_chsh_value(p: Behavior, fixed_inputs: Sequence[int] = GAME_FIXED_INPUTS) -> float:
    """Winning probability of the parity game under uniform x, y in {0,1}^2.

    Alice and the first Bob receive uniformly random bits; the remaining
    Bobs sit at `fixed_inputs`, which `Behavior.conditional` checks as part
    of each joint input.  With bbar the parity of the extra Bobs' answers,
    the players win iff a + b_1 = x (y + bbar) mod 2.
    """
    n = p.parties
    if n < 2:
        raise ValueError(f"parity game needs at least two parties, got {n}")
    if any(o != 2 for o in p.output_alphabets):
        raise ValueError("parity game requires binary outputs")
    # Summed entry by entry, inputs then outcomes row-major, so the value is
    # reproducible to the last bit (the `game` command prints its residual).
    total = 0.0
    for x, y in itertools.product(range(2), repeat=2):
        cond = p.conditional((x, y) + tuple(fixed_inputs))
        for outcome in itertools.product(range(2), repeat=n):
            bbar = sum(outcome[2:]) % 2
            if (outcome[0] + outcome[1]) % 2 == x * (y + bbar) % 2:
                total += 0.25 * cond[outcome]
    return total


def expected_winning_probability(nu: float, n_parties: int) -> float:
    """Reference noise curve for the parity game on the depolarized GHZ state.

    Evaluates 1/2 + (1-nu)^N / (2 sqrt2) + (1-nu)^2 (1 - (1-nu)^(N-2)) / (8 sqrt2).
    Note this reference undercounts the surviving Alice-Bob1 correlations of
    the actual default-measurement device: the measured game value exceeds it
    by exactly (1-nu)^2 (1 - (1-nu)^(N-2)) / (8 sqrt2).
    """
    n_parties = integer(n_parties, "n_parties", 3)
    u = 1.0 - unit_interval(nu, "nu")
    return 0.5 + u ** n_parties / (2 * _SQRT2) + u ** 2 * (1 - u ** (n_parties - 2)) / (8 * _SQRT2)


def critical_noise(n_parties: int) -> float:
    """Noise level where the reference curve crosses the classical bound 3/4.

    With u = 1 - nu the crossing is 3 u^N + u^2 = 2 sqrt2, whose left side
    increases on u > 0 from 0 to 4 at u = 1: exactly one root lies in (0, 1), and it
    is bisected until the midpoint stops moving.
    """
    n_parties = integer(n_parties, "n_parties", 3)
    lo, hi = 0.0, 1.0
    while lo < (u := 0.5 * (lo + hi)) < hi:
        if 3.0 * u ** n_parties + u * u < 2 * _SQRT2:
            lo = u
        else:
            hi = u
    return 1.0 - u


def qber(p: Behavior, key_inputs: Sequence[int] = KEY_SETTING) -> float:
    """Worst pairwise Alice-Bob disagreement probability at the key setting."""
    cond = p.conditional(key_inputs)
    n = p.parties
    worst = 0.0
    for i in range(1, n):
        err = 0.0
        for outcome in itertools.product(*(range(k) for k in p.output_alphabets)):
            if outcome[0] != outcome[i]:
                err += cond[outcome]
        worst = max(worst, err)
    return worst

