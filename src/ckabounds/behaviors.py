"""Conditional-probability behaviors, game evaluation, and error rates.

A `Behavior` stores the full table p(a_1..a_N | x_1..x_N) of a multi-party
box.  The first party is Alice, the second the distinguished Bob of the
parity game, the remaining parties are the extra Bobs whose game inputs are
fixed.  The honest device measures a (possibly depolarized) GHZ state with
the observables returned by `default_measurements`; the key-generating
setting is `KEY_SETTING`, where every party measures sigma_z.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import states
from .qmat import DensityMatrix, Povm, eig_hermitian
from .secrecy import table_from_csv, table_to_csv

CLAMP_WINDOW = 1e-12
NORMALIZATION_TOL = 1e-9

_SQRT2 = math.sqrt(2.0)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)

#: inputs of the key-generating round (all parties measure sigma_z)
KEY_SETTING = (0, 2, 0)
#: fixed inputs of the extra Bobs during game rounds
GAME_FIXED_INPUTS = (1,)


@dataclass(frozen=True)
class Behavior:
    """Conditional distribution table over per-party finite alphabets.

    `table` has shape input_alphabets + output_alphabets; entries within
    1e-12 of [0, 1] are clamped into the interval, every conditional slice
    must sum to 1 within 1e-9.
    """

    input_alphabets: tuple[int, ...]
    output_alphabets: tuple[int, ...]
    table: np.ndarray

    def __post_init__(self):
        ins = tuple(int(i) for i in self.input_alphabets)
        outs = tuple(int(o) for o in self.output_alphabets)
        if len(ins) != len(outs) or not ins:
            raise ValueError("need one input and one output alphabet per party")
        t = np.array(self.table, dtype=float)
        if t.shape != ins + outs:
            raise ValueError(f"table shape {t.shape} does not match alphabets {ins + outs}")
        if t.min() < -CLAMP_WINDOW or t.max() > 1.0 + CLAMP_WINDOW:
            raise ValueError("probabilities outside the clamping window [-1e-12, 1+1e-12]")
        t = np.clip(t, 0.0, 1.0)
        sums = t.reshape(ins + (-1,)).sum(axis=-1)
        if np.abs(sums - 1.0).max() > NORMALIZATION_TOL:
            raise ValueError("a conditional distribution does not sum to 1 within 1e-9")
        t.flags.writeable = False
        object.__setattr__(self, "input_alphabets", ins)
        object.__setattr__(self, "output_alphabets", outs)
        object.__setattr__(self, "table", t)

    @property
    def parties(self) -> int:
        return len(self.input_alphabets)

    def conditional(self, inputs: Sequence[int]) -> np.ndarray:
        """Output distribution for one joint input, shape = output_alphabets."""
        inputs = tuple(int(x) for x in inputs)
        if len(inputs) != self.parties:
            raise ValueError(f"expected {self.parties} inputs, got {len(inputs)}")
        for x, size in zip(inputs, self.input_alphabets):
            if not 0 <= x < size:
                raise ValueError(f"input {x} out of range for alphabet size {size}")
        return self.table[inputs]


@dataclass(frozen=True)
class GameSpec:
    """A nonlocal game: a joint-input distribution and a win predicate.

    `input_distribution` maps full joint-input tuples to their probability
    (must sum to 1 within 1e-12); `predicate` decides a win from the joint
    inputs and outputs.
    """

    input_distribution: dict
    predicate: Callable[[tuple[int, ...], tuple[int, ...]], bool]

    def __post_init__(self):
        dist = {tuple(int(x) for x in k): float(v)
                for k, v in self.input_distribution.items()}
        if not dist or any(v < 0.0 for v in dist.values()):
            raise ValueError("input distribution must be nonempty and nonnegative")
        if abs(sum(dist.values()) - 1.0) > 1e-12:
            raise ValueError("input distribution must sum to 1 within 1e-12")
        object.__setattr__(self, "input_distribution", dist)


def game_value(p: Behavior, spec: GameSpec) -> float:
    """Winning probability of `spec` played on the behavior."""
    total = 0.0
    for inputs, weight in spec.input_distribution.items():
        cond = p.conditional(inputs)
        for outcome in itertools.product(*(range(k) for k in p.output_alphabets)):
            if spec.predicate(inputs, outcome):
                total += weight * cond[outcome]
    return total


def parity_game_spec(n_parties: int, fixed_inputs: Sequence[int]) -> GameSpec:
    """Uniform x, y in {0,1}^2 for Alice and the first Bob, others fixed;
    win iff a + b_1 = x (y + bbar) mod 2, bbar the extra Bobs' parity."""
    fixed = tuple(int(f) for f in fixed_inputs)
    if len(fixed) != n_parties - 2:
        raise ValueError(f"expected {n_parties - 2} fixed inputs, got {len(fixed)}")
    dist = {(x, y) + fixed: 0.25 for x in range(2) for y in range(2)}

    def wins(inputs: tuple[int, ...], outputs: tuple[int, ...]) -> bool:
        bbar = 0
        for b in outputs[2:]:
            bbar ^= b
        return (outputs[0] + outputs[1]) % 2 == (inputs[0] * (inputs[1] + bbar)) % 2

    return GameSpec(dist, wins)


def povm_from_observable(obs: np.ndarray) -> Povm:
    """Two-outcome projective POVM of a +-1 observable; outcome 0 is the +1 eigenspace."""
    vals, vecs = eig_hermitian(obs)
    d = obs.shape[0]
    plus = np.zeros((d, d), dtype=complex)
    minus = np.zeros((d, d), dtype=complex)
    for v, col in zip(vals, vecs.T):
        proj = np.outer(col, col.conj())
        if v > 0:
            plus += proj
        else:
            minus += proj
    return Povm(d, (plus, minus))


def default_measurements() -> tuple[tuple[Povm, ...], ...]:
    """Per-party, per-input POVMs of the honest three-party device.

    Alice: x=0 -> Z, x=1 -> X.  Bob1: y=0 -> (Z+X)/sqrt2, y=1 -> (Z-X)/sqrt2,
    y=2 -> Z.  Bob2: y=0 -> Z, y=1 -> X.  The Z settings at `KEY_SETTING`
    generate the key; the remaining settings are the CHSH-optimal angles for
    the branch states left after Bob2's X measurement.
    """
    alice = (povm_from_observable(PAULI_Z), povm_from_observable(PAULI_X))
    bob1 = (
        povm_from_observable((PAULI_Z + PAULI_X) / _SQRT2),
        povm_from_observable((PAULI_Z - PAULI_X) / _SQRT2),
        povm_from_observable(PAULI_Z),
    )
    bob2 = (povm_from_observable(PAULI_Z), povm_from_observable(PAULI_X))
    return (alice, bob1, bob2)


def behavior_from_measurement(rho: DensityMatrix,
                              povms: Sequence[Sequence[Povm]]) -> Behavior:
    """Born-rule behavior of measuring each tensor factor with its own POVM set."""
    if len(povms) != rho.n_factors:
        raise ValueError(f"got POVMs for {len(povms)} parties, state has {rho.n_factors} factors")
    for i, party in enumerate(povms):
        if not party:
            raise ValueError(f"party {i} has no measurement settings")
        outcomes = {p.n_outcomes for p in party}
        if len(outcomes) != 1:
            raise ValueError(f"party {i} mixes outcome counts across inputs")
        for p in party:
            if p.dim != rho.dims[i]:
                raise ValueError(
                    f"party {i} POVM dimension {p.dim} does not match factor dim {rho.dims[i]}")
    ins = tuple(len(party) for party in povms)
    outs = tuple(party[0].n_outcomes for party in povms)
    table = np.zeros(ins + outs)
    for xs in itertools.product(*(range(k) for k in ins)):
        for outs_idx in itertools.product(*(range(k) for k in outs)):
            effect = np.array([[1.0 + 0j]])
            for party, x, a in zip(povms, xs, outs_idx):
                effect = np.kron(effect, party[x].effects[a])
            table[xs + outs_idx] = np.trace(effect @ rho.matrix).real
    return Behavior(ins, outs, table)


def honest_behavior(nu: float = 0.0) -> Behavior:
    """Default-measurement behavior of the triple-depolarized GHZ state."""
    return behavior_from_measurement(states.noisy_ghz3(nu).state, default_measurements())


def behavior_distance(p: Behavior, q: Behavior) -> float:
    """sup over joint inputs of the l1 distance between conditional distributions."""
    if p.input_alphabets != q.input_alphabets or p.output_alphabets != q.output_alphabets:
        raise ValueError("behaviors have mismatched alphabets")
    n_in = len(p.input_alphabets)
    diff = np.abs(p.table - q.table).reshape(p.input_alphabets + (-1,)).sum(axis=-1)
    return float(diff.max()) if n_in else 0.0


def is_nonsignaling(p: Behavior, tol: float = 1e-9) -> bool:
    """True iff every party's output marginal is independent of the others' inputs."""
    n = p.parties
    for i in range(n):
        out_axes = tuple(n + j for j in range(n) if j != i)
        marg = p.table.sum(axis=out_axes)  # shape inputs + (out_i,)
        m = np.moveaxis(marg, i, 0)
        flat = m.reshape(m.shape[0], -1, m.shape[-1])
        if np.abs(flat - flat[:, :1, :]).max() > tol:
            return False
    return True


def parity_chsh_value(p: Behavior, fixed_inputs: Sequence[int] = GAME_FIXED_INPUTS) -> float:
    """Winning probability of the parity game under uniform x, y in {0,1}^2.

    Alice and the first Bob receive uniformly random bits; the remaining
    Bobs sit at `fixed_inputs`.  With bbar the parity of the extra Bobs'
    answers, the players win iff a + b_1 = x (y + bbar) mod 2.
    """
    n = p.parties
    fixed = tuple(int(f) for f in fixed_inputs)
    if p.input_alphabets[0] < 2 or p.input_alphabets[1] < 2:
        raise ValueError("Alice and the first Bob need at least two inputs")
    if any(o != 2 for o in p.output_alphabets):
        raise ValueError("parity game requires binary outputs")
    for f, size in zip(fixed, p.input_alphabets[2:]):
        if not 0 <= f < size:
            raise ValueError(f"fixed input {f} out of range")
    return game_value(p, parity_game_spec(n, fixed))


def expected_winning_probability(nu: float, n_parties: int) -> float:
    """Reference noise curve for the parity game on the depolarized GHZ state.

    Evaluates 1/2 + (1-nu)^N / (2 sqrt2) + (1-nu)^2 (1 - (1-nu)^(N-2)) / (8 sqrt2).
    Note this reference undercounts the surviving Alice-Bob1 correlations of
    the actual default-measurement device: the measured game value exceeds it
    by exactly (1-nu)^2 (1 - (1-nu)^(N-2)) / (8 sqrt2).
    """
    if n_parties < 3:
        raise ValueError("the parity game needs at least three parties")
    nu = float(nu)
    if not 0.0 <= nu <= 1.0:
        raise ValueError(f"noise parameter must lie in [0, 1], got {nu}")
    u = 1.0 - nu
    return 0.5 + u ** n_parties / (2 * _SQRT2) + u ** 2 * (1 - u ** (n_parties - 2)) / (8 * _SQRT2)


def critical_noise(n_parties: int, tol: float = 1e-9) -> float:
    """Noise level where the reference curve crosses the classical bound 3/4."""
    lo, hi = 0.0, 1.0
    f_lo = expected_winning_probability(lo, n_parties) - 0.75
    f_hi = expected_winning_probability(hi, n_parties) - 0.75
    if f_lo <= 0.0 or f_hi >= 0.0:
        raise ValueError("no sign change of p_exp - 3/4 on (0, 1)")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if expected_winning_probability(mid, n_parties) - 0.75 > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


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


def behavior_to_csv(p: Behavior, fh) -> None:
    """Write rows `x1,...,xN,a1,...,aN,p` with full double precision."""
    n = p.parties
    table_to_csv(p.table, [f"x{i+1}" for i in range(n)] + [f"a{i+1}" for i in range(n)], fh)


def behavior_from_csv(fh) -> Behavior:
    """Inverse of `behavior_to_csv`; alphabets are inferred from the rows."""
    columns, table = table_from_csv(fh)
    if len(columns) % 2:
        raise ValueError("malformed behavior CSV header")
    n = len(columns) // 2
    return Behavior(table.shape[:n], table.shape[n:], table)
