"""Classical secrecy monotones and their channel minimizations.

Two correlation measures are computed for a joint distribution
P(a_1..a_N, e):

* the multipartite conditional mutual information
  I(A_1:...:A_N|E) = sum_i H(A_i|E) - H(A_1..A_N|E), and
* the telescoping sum
  S_N = I(A_1:A_2..A_N|E) + I(A_2:A_3..A_N|A_1 E) + ... +
  I(A_{N-1}:A_N|A_1..A_{N-2} E).

Minimizing either quantity over classical channels E -> F gives the
corresponding intrinsic-information value.  The search enumerates all
deterministic channels (set partitions of the Eve alphabet, exact for small
alphabets) and optionally refines the best one by coordinate descent over
stochastic channels.  Restricting the output alphabet to |F| <= |E| is a
standard sufficiency heuristic, not a theorem, so reported values are upper
bounds on the true infimum; the refinement stage can probe |F| = |E| + k
via `SearchBudget.extra_outputs`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .partitions import partitions_as_masks

PROB_FLOOR = 1e-15
TOTAL_TOL = 1e-9
ROW_TOL = 1e-10


def entropy_bits(vec: np.ndarray) -> float:
    """Shannon entropy in bits; probabilities below 1e-15 are treated as 0."""
    v = np.asarray(vec, dtype=float).ravel()
    v = v[v > PROB_FLOOR]
    return float(-(v * np.log2(v)).sum()) if v.size else 0.0


@dataclass(frozen=True)
class JointDistribution:
    """Joint distribution over N party symbols and one adversary symbol.

    `probs` has shape party_alphabets + (eve_alphabet,); entries must be
    nonnegative and sum to 1 within 1e-9.
    """

    party_alphabets: tuple[int, ...]
    eve_alphabet: int
    probs: np.ndarray

    def __post_init__(self):
        alphabets = tuple(int(a) for a in self.party_alphabets)
        ne = int(self.eve_alphabet)
        if len(alphabets) < 2 or any(a < 1 for a in alphabets) or ne < 1:
            raise ValueError("need at least two parties and nonempty alphabets")
        p = np.array(self.probs, dtype=float)
        if p.shape != alphabets + (ne,):
            raise ValueError(f"probs shape {p.shape} does not match alphabets")
        if p.min() < -1e-12:
            raise ValueError("negative probability entry")
        p = np.clip(p, 0.0, None)
        total = p.sum()
        if abs(total - 1.0) > TOTAL_TOL:
            raise ValueError(f"probabilities sum to {total}, expected 1 within 1e-9")
        p.flags.writeable = False
        object.__setattr__(self, "party_alphabets", alphabets)
        object.__setattr__(self, "eve_alphabet", ne)
        object.__setattr__(self, "probs", p)

    @property
    def parties(self) -> int:
        return len(self.party_alphabets)


@dataclass(frozen=True)
class ClassicalChannel:
    """Row-stochastic transition matrix from the Eve alphabet to a new alphabet."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
            raise ValueError("channel matrix must be 2-dimensional and nonempty")
        if m.min() < -1e-12 or m.max() > 1.0 + 1e-12:
            raise ValueError("channel entries must lie in [0, 1]")
        m = np.clip(m, 0.0, 1.0)
        if np.abs(m.sum(axis=1) - 1.0).max() > ROW_TOL:
            raise ValueError("channel rows must sum to 1 within 1e-10")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @property
    def in_alphabet(self) -> int:
        return self.matrix.shape[0]

    @property
    def out_alphabet(self) -> int:
        return self.matrix.shape[1]

    @staticmethod
    def identity(n: int) -> "ClassicalChannel":
        return ClassicalChannel(np.eye(n))

    @staticmethod
    def from_partition(blocks: Sequence[Sequence[int]], in_alphabet: int,
                       out_alphabet: int | None = None) -> "ClassicalChannel":
        """Deterministic channel mapping every symbol of block j to output j."""
        k = len(blocks)
        m = np.zeros((in_alphabet, out_alphabet or k))
        seen = set()
        for j, block in enumerate(blocks):
            for e in block:
                if e in seen:
                    raise ValueError("blocks are not disjoint")
                seen.add(e)
                m[e, j] = 1.0
        if seen != set(range(in_alphabet)):
            raise ValueError("blocks do not cover the input alphabet")
        return ClassicalChannel(m)


def _monotone_terms(n_parties: int, kind: str) -> list[list[tuple[tuple[int, ...], float]]]:
    """The one definition of each monotone: groups of (party subset X, c_X).

    The value is sum_X c_X * H(X, E), summed group by group in this order.
    "cmi" is I(A_1:...:A_N|E) = sum_i H(A_i E) - H(A_1..A_N E) - (N-1) H(E),
    one group.  "sn" is the telescoping sum S_N, one group per term
    I(A_k:A_{k+1}..A_N|A_1..A_{k-1} E).  S_N is the dual total correlation
    H(A|E) - sum_k H(A_k|A_{!=k} E), so its value does not depend on the
    party ordering used to write it down.
    """
    everyone = tuple(range(n_parties))
    if kind == "cmi":
        return [[((i,), 1.0) for i in everyone] + [(everyone, -1.0), ((), -(n_parties - 1.0))]]
    if kind == "sn":
        return [[(everyone[:k + 1], 1.0),
                 (everyone[:k] + everyone[k + 1:], 1.0),
                 (everyone[:k], -1.0),
                 (everyone, -1.0)] for k in range(n_parties - 1)]
    raise ValueError(f"unknown objective {kind!r}")


@lru_cache(maxsize=None)
def _plan(n_parties: int, kind: str):
    """Sum axes of each distinct subset, and the groups as (subset index, c_X)."""
    index: dict[tuple[int, ...], int] = {}
    groups = tuple(
        tuple((index.setdefault(parties, len(index)), c) for parties, c in group)
        for group in _monotone_terms(n_parties, kind))
    axes = tuple(tuple(j for j in range(n_parties) if j not in parties) for parties in index)
    return axes, groups


def _objective(p: np.ndarray, n_parties: int, kind: str) -> float:
    """Monotone `kind` of a raw array with party axes first and Eve's last."""
    axes, groups = _plan(n_parties, kind)
    h = [entropy_bits(p.sum(axis=a)) for a in axes]
    total = 0.0
    for group in groups:
        part = 0.0
        for i, c in group:
            part += c * h[i]
        total += part
    return total


def shannon_cmi(dist: JointDistribution) -> float:
    """Multipartite conditional mutual information I(A_1:...:A_N|E) in bits."""
    return _objective(dist.probs, dist.parties, "cmi")


def total_correlation(dist: JointDistribution) -> float:
    """I(A_1:...:A_N) with no conditioning (the adversary symbol is ignored)."""
    marg = dist.probs.sum(axis=-1)[..., np.newaxis]
    return _objective(marg, dist.parties, "cmi")


def s_n(dist: JointDistribution) -> float:
    """Telescoping secrecy quantity S_N in bits; invariant under party reordering."""
    return _objective(dist.probs, dist.parties, "sn")


def apply_channel(dist: JointDistribution, channel: ClassicalChannel) -> JointDistribution:
    """Process the adversary symbol: P'(a, f) = sum_e P(a, e) L(f|e)."""
    if channel.in_alphabet != dist.eve_alphabet:
        raise ValueError(
            f"channel input alphabet {channel.in_alphabet} does not match "
            f"eve alphabet {dist.eve_alphabet}")
    out = dist.probs @ channel.matrix
    return JointDistribution(dist.party_alphabets, channel.out_alphabet, out)


@dataclass(frozen=True)
class SearchBudget:
    """Configuration of the channel search.

    exhaustive_limit: largest Eve alphabet for which all deterministic
        channels (set partitions) are enumerated; beyond it only the
        refinement stage runs, started from the identity channel.
    refine: run coordinate descent over stochastic channels from the best
        deterministic point.
    extra_outputs: number of output symbols added beyond the deterministic
        optimum, to probe whether |F| <= |E| was too restrictive.
    """

    exhaustive_limit: int = 10
    refine: bool = True
    refine_sweeps: int = 200
    refine_step: float = 0.5
    refine_tol: float = 1e-9
    extra_outputs: int = 0


def _merged_terms(n_parties: int, kind: str) -> list[tuple[tuple[int, ...], float]]:
    """The monotone with one coefficient per party subset (zeros dropped)."""
    coeffs: dict[tuple[int, ...], float] = {}
    for group in _monotone_terms(n_parties, kind):
        for parties, c in group:
            coeffs[parties] = coeffs.get(parties, 0.0) + c
    return [(k, c) for k, c in coeffs.items() if c != 0.0]


def _block_values(dist: JointDistribution, kind: str) -> np.ndarray:
    """Per-subset contribution phi[mask] of each Eve-symbol block to the objective.

    Both objectives are sums of entropies of (X, F) marginals, and those
    entropies split additively over the blocks of a deterministic channel,
    so the objective of any partition is the sum of phi over its blocks.
    """
    ne = dist.eve_alphabet
    n = dist.parties
    masks = np.arange(1, 1 << ne)
    # indicator matrix: column m-1 selects the symbols of mask m
    sel = ((masks[np.newaxis, :] >> np.arange(ne)[:, np.newaxis]) & 1).astype(float)
    phi = np.zeros(masks.size)
    for parties, coeff in _merged_terms(n, kind):
        axes = tuple(j for j in range(n) if j not in parties)
        marg = dist.probs.sum(axis=axes).reshape(-1, ne)  # (x-range, eve)
        agg = marg @ sel
        with np.errstate(divide="ignore", invalid="ignore"):
            logs = np.where(agg > PROB_FLOOR, np.log2(np.where(agg > 0, agg, 1.0)), 0.0)
        phi += coeff * (-(agg * logs)).sum(axis=0)
    return phi


def _best_partition(dist: JointDistribution, kind: str) -> tuple[float, list[list[int]]]:
    ne = dist.eve_alphabet
    phi = _block_values(dist, kind)
    best_val = math.inf
    best_masks: tuple[int, ...] = ()
    for masks in partitions_as_masks(ne):
        val = 0.0
        for m in masks:
            val += phi[m - 1]
        if val < best_val:
            best_val = val
            best_masks = masks
    blocks = [[i for i in range(ne) if mask >> i & 1] for mask in best_masks]
    return best_val, blocks


def _refine(dist: JointDistribution, channel: np.ndarray, kind: str,
            budget: SearchBudget) -> np.ndarray:
    """Coordinate descent on channel rows; step halves when a sweep stalls."""
    n = dist.parties
    probs = dist.probs

    def objective(mat: np.ndarray) -> float:
        return _objective(probs @ mat, n, kind)

    mat = channel.copy()
    best = objective(mat)
    step = budget.refine_step
    for _ in range(budget.refine_sweeps):
        gained = 0.0
        for e in range(mat.shape[0]):
            for f in range(mat.shape[1]):
                saved = mat[e].copy()
                mat[e] = (1.0 - step) * saved
                mat[e, f] += step
                val = objective(mat)
                if val < best - 1e-15:
                    gained += best - val
                    best = val
                else:
                    mat[e] = saved
        if gained < budget.refine_tol:
            step *= 0.5
            if step < 1e-9:
                break
    return mat


def _minimize_over_channels(dist: JointDistribution, kind: str,
                            budget: SearchBudget | None) -> tuple[float, ClassicalChannel]:
    budget = budget or SearchBudget()
    ne = dist.eve_alphabet
    if ne <= budget.exhaustive_limit:
        _, blocks = _best_partition(dist, kind)
    else:
        blocks = [[e] for e in range(ne)]  # alphabet too large: identity start
    out = len(blocks) + max(0, budget.extra_outputs)
    mat = ClassicalChannel.from_partition(blocks, ne, out).matrix.copy()
    if budget.refine:
        mat = _refine(dist, mat, kind, budget)
    witness = ClassicalChannel(mat)
    value = _objective(apply_channel(dist, witness).probs, dist.parties, kind)
    return value, witness


def intrinsic_information(dist: JointDistribution,
                          budget: SearchBudget | None = None) -> tuple[float, ClassicalChannel]:
    """Minimize I(A_1:...:A_N|F) over searched channels E -> F.

    Returns the best value found and the channel attaining it.  The identity
    channel is always part of the search, so the value never exceeds
    `shannon_cmi(dist)`.
    """
    return _minimize_over_channels(dist, "cmi", budget)


def dual_intrinsic(dist: JointDistribution,
                   budget: SearchBudget | None = None) -> tuple[float, ClassicalChannel]:
    """Minimize the telescoping quantity S_N over searched channels E -> F."""
    return _minimize_over_channels(dist, "sn", budget)


def g(eps: float) -> float:
    """Continuity overhead (1+eps) log2(1+eps) - eps log2(eps), with g(0) = 0."""
    if eps == 0.0:
        return 0.0
    return (1.0 + eps) * math.log2(1.0 + eps) - eps * math.log2(eps)


def continuity_envelope(eps: float, log_dim: float, flavor: str) -> float:
    """Trace-distance continuity envelope for conditional entropies or CMIs.

    `flavor` selects 2 eps log_dim + g(eps) for "conditional-entropy" or
    2 eps log_dim + 2 g(eps) for "cmi".
    """
    eps = float(eps)
    if not 0.0 <= eps <= 1.0:
        raise ValueError(f"eps must lie in [0, 1], got {eps}")
    if flavor == "conditional-entropy":
        return 2.0 * eps * log_dim + g(eps)
    if flavor == "cmi":
        return 2.0 * eps * log_dim + 2.0 * g(eps)
    raise ValueError(f"unknown flavor {flavor!r}")


def table_to_csv(table: np.ndarray, columns: Sequence[str], fh) -> None:
    """Write header `columns,p`, then one row `i1,...,ik,p` per entry, row-major.

    Values carry 15 significant digits.
    """
    fh.write(",".join(list(columns) + ["p"]) + "\n")
    for idx in itertools.product(*(range(k) for k in table.shape)):
        fh.write(",".join(str(v) for v in idx) + f",{table[idx]:.15g}\n")


def table_from_csv(fh) -> tuple[list[str], np.ndarray]:
    """Inverse of `table_to_csv`: the index columns and the table.

    Each axis is as long as its largest index plus one; absent rows are 0.
    """
    header = fh.readline().strip().split(",")
    if len(header) < 2 or header[-1] != "p":
        raise ValueError("malformed CSV header: expected index columns then p")
    rows = [line.split(",") for line in map(str.strip, fh) if line]
    if not rows or any(len(row) != len(header) for row in rows):
        raise ValueError("CSV rows missing or not as wide as the header")
    idx = np.array([[int(v) for v in row[:-1]] for row in rows])
    table = np.zeros(tuple(idx.max(axis=0) + 1))
    table[tuple(idx.T)] = [float(row[-1]) for row in rows]
    return header[:-1], table


def distribution_to_csv(dist: JointDistribution, fh) -> None:
    """Write rows `a1,...,aN,e,p` with full double precision."""
    table_to_csv(dist.probs, [f"a{i+1}" for i in range(dist.parties)] + ["e"], fh)


def distribution_from_csv(fh) -> JointDistribution:
    """Inverse of `distribution_to_csv`; alphabets are inferred from the rows."""
    columns, probs = table_from_csv(fh)
    if len(columns) < 2 or columns[-1] != "e":
        raise ValueError("malformed distribution CSV header")
    return JointDistribution(probs.shape[:-1], probs.shape[-1], probs)
