"""Classical secrecy monotones and their channel minimizations.

Two correlation measures are computed for a joint distribution
P(a_1..a_N, e):

* the multipartite conditional mutual information
  I(A_1:...:A_N|E) = sum_i H(A_i|E) - H(A_1..A_N|E), and
* the telescoping sum
  S_N = I(A_1:A_2..A_N|E) + I(A_2:A_3..A_N|A_1 E) + ... +
  I(A_{N-1}:A_N|A_1..A_{N-2} E).

Minimizing either quantity over classical channels E -> F gives the
corresponding intrinsic-information value.  A search reads top to bottom.  Its
exact stage takes a stack of tables and objectives at once: each party
subset's marginals (`_subset_marginals`) and their p log2 p sums are taken
once for all objectives, each objective's block table (`_block_values`) adds
those sums up, and one pass of an exact dynamic program over the set
partitions of Eve's alphabet (`_best_partition`, at most EXHAUSTIVE_LIMIT
symbols), run on the tables laid out as (mask, row), solves every (table,
objective) row and reads back together the rows that stand at one subset, found
in the layer of its popcount, each row's partition as a tuple of block masks.
Each distinct partition of the stack becomes its deterministic start channel
once, the DP's own `_selector` columns of its blocks checked as a
`ClassicalChannel`, and the tables with a search from one channel are scored,
every objective, in one p log2 p pass over their stacked marginals
(`_objectives`), each table's entropy the sum of its own run of terms.  Each
start is optionally refined by coordinate descent (`_refine`) over its row of
the objective's `_run_terms`, which lay the marginals end to end once for the
whole stack.  The descent's first batch screens every move in one
`_screen` call, over a plan built once per start channel and support
(`_first_batch`).  After a kept move, a batch also
screens, from the channels they predict, the trials up to the next kept moves
`_predicted` by repeating the sweep before; they are used only while the
prediction proves true, so refined values do not depend on it.  The screen's
error bound (`_screen_bound`) rules trials out and also confirms passes, so
`_objective` scores only the trials the screen cannot settle and, lazily, the
states they are compared with.  A search that keeps no move returns its shared
start; only a refined channel is checked anew.

The search tries only that deterministic channel and a local descent from
it over stochastic channels with one output per block, so its values are
upper bounds on the infimum over all channels.  Christandl, Renner and
Wolf (ISIT 2003) show that |F| <= |E| outputs suffice for the bipartite
intrinsic information; nothing more is claimed here.
"""

from __future__ import annotations

import bisect
import itertools
import math
import numbers
import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np

PROB_FLOOR = 1e-15
TOTAL_TOL = 1e-9
ROW_TOL = 1e-10

EXHAUSTIVE_LIMIT = 10  # Eve symbols the channel search takes
REFINE_SWEEPS = 200
REFINE_STEP = 0.5
REFINE_TOL = 1e-9
MARGIN = 1e-12  # bits: `_screen_bound` of the attack's tables, rounded up
FIRST_BATCHES = 16  # (start channel, support) pairs whose first batch `_first_batch` keeps
LOOK_AHEAD = 9  # kept moves `_predicted` guesses after a kept move
REAL = (float, numbers.Real)  # what `real` reads; float first skips the ABC check


def entropy_bits(vec: np.ndarray) -> float:
    """Shannon entropy in bits; probabilities at or below PROB_FLOOR = 1e-15 are
    treated as 0."""
    v = np.asarray(vec, dtype=float).ravel()
    v = v[v > PROB_FLOOR]
    return float(-(v * np.log2(v)).sum()) if v.size else 0.0


def integer(value, name: str, lo: int | None = None, hi: int | None = None) -> int:
    """`value` by `operator.index`, at least `lo` and, if `hi` is given, in lo..hi;
    anything else, 2.5, "3" or a value outside the bounds, is a ValueError led by `name`."""
    try:
        v = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if hi is not None and not lo <= v <= hi:
        raise ValueError(f"{name} must lie in {lo}..{hi}, got {v}")
    if lo is not None and v < lo:
        raise ValueError(f"{name} must be at least {lo}, got {v}")
    return v


def boolean(value, name: str) -> bool:
    """`value` if it is True or False; anything else, "no", None, 1 or np.True_, is a
    ValueError led by `name`."""
    if not isinstance(value, bool):
        raise ValueError(f"{name} must be True or False, got {value!r}")
    return value


def real(value) -> float:
    """`value` as a float if it is a real number, NaN if not ("0.1", None); an int or
    fraction beyond the float range, such as 10**400, reads as inf or -inf."""
    if not isinstance(value, REAL):
        return math.nan
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def unit_interval(value, name: str) -> float:
    """`value` as a float in [0, 1], -0.0 read as +0.0; anything else, "0.1", None,
    an array, 1.5, 10**400 or NaN, is a ValueError led by `name`."""
    if not isinstance(value, REAL):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    if not 0.0 <= (x := real(value)) <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {x!r}")
    return x + 0.0  # -0.0 + 0.0 is +0.0


def probability_table(values, outcome_axes: int, tol: float, name: str) -> np.ndarray:
    """`values` as a read-only float table of at least `outcome_axes` axes, none empty,
    with finite entries within 1e-12 of [0, 1] (clamped into it) and each distribution
    over the last `outcome_axes` axes summing to 1 within `tol`.  `name`, a plural noun,
    leads errors."""
    t = np.array(values, dtype=float)
    if t.ndim < outcome_axes or 0 in t.shape:
        raise ValueError(f"{name} need every axis of length at least 1 and at least "
                         f"{outcome_axes} axes, got shape {t.shape}")
    lo, hi = t.min(), t.max()  # NaN propagates to both, and an infinity reaches one
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"{name} have a non-finite entry")
    if lo < -1e-12:
        raise ValueError(f"{name} have a negative entry beyond the 1e-12 clamping window")
    if hi > 1.0 + 1e-12:
        raise ValueError(f"{name} have an entry above 1 beyond the 1e-12 clamping window")
    t = np.clip(t, 0.0, 1.0)
    sums = t.reshape(t.shape[:t.ndim - outcome_axes] + (-1,)).sum(axis=-1)
    gaps = np.abs(sums - 1.0)
    if gaps.max() > tol:
        raise ValueError(f"{name} must sum to 1 within {tol:g}, got {sums.flat[gaps.argmax()]}")
    t.flags.writeable = False
    return t


@dataclass(frozen=True)
class JointDistribution:
    """Joint distribution P(a_1..a_N, e) over N >= 2 party symbols and one adversary symbol.

    `probs` has one axis per party, then Eve's axis, and is one distribution,
    checked by `probability_table`; the alphabets are its axis lengths.
    """

    probs: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        if p.ndim < 3:
            raise ValueError(f"need at least two party axes and Eve's axis, got shape {p.shape}")
        object.__setattr__(self, "probs", probability_table(p, p.ndim, TOTAL_TOL, "probabilities"))

    @property
    def parties(self) -> int:
        return self.probs.ndim - 1

    @property
    def eve_alphabet(self) -> int:
        return self.probs.shape[-1]


@dataclass(frozen=True)
class ClassicalChannel:
    """Row-stochastic transition matrix from the Eve alphabet to a new alphabet;
    each row is one distribution, checked by `probability_table`."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2:
            raise ValueError("channel matrix must be 2-dimensional")
        object.__setattr__(self, "matrix", probability_table(m, 1, ROW_TOL, "channel rows"))

    @property
    def in_alphabet(self) -> int:
        return self.matrix.shape[0]

    @staticmethod
    def from_partition(blocks: Sequence[Sequence[int]], in_alphabet: int) -> "ClassicalChannel":
        """Deterministic channel mapping every symbol of block j to output j."""
        in_alphabet = integer(in_alphabet, "in_alphabet", 1)
        m = np.zeros((in_alphabet, len(blocks)))
        seen = set()
        for j, block in enumerate(blocks):
            for e in block:
                e = integer(e, "symbol", 0, in_alphabet - 1)
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
    """Sum axes per distinct subset, groups of (subset index, c_X), merged nonzero (index, c_X)."""
    index: dict[tuple[int, ...], int] = {}
    groups = tuple(
        tuple((index.setdefault(parties, len(index)), c) for parties, c in group)
        for group in _monotone_terms(n_parties, kind))
    axes = tuple(tuple(j for j in range(n_parties) if j not in parties) for parties in index)
    coeffs = [0.0] * len(index)
    for group in groups:
        for i, c in group:
            coeffs[i] += c
    merged = tuple((i, c) for i, c in enumerate(coeffs) if c != 0.0)
    return axes, groups, merged


@lru_cache(maxsize=None)
def _plans(shape: tuple[int, ...], kinds: tuple[str, ...]):
    """For a stack of tables of `shape`, (tables, a_1..a_N, e): the stack's sum axes per
    distinct subset of the `_plan`s of `kinds`, in order of first use, each kind's groups
    of (subset index, c_X) over them, and where each (marginal, table) run ends when the
    marginals are flattened and laid end to end in that order, each marginal table by
    table.  One kind's axes, shifted past the stack's, and groups are its `_plan`'s."""
    index: dict[tuple[int, ...], int] = {}
    groups = tuple(
        tuple(tuple((index.setdefault(axes[i], len(index)), c) for i, c in group) for group in plan)
        for axes, plan, _ in (_plan(len(shape) - 2, kind) for kind in kinds))
    tables, shape = shape[0], shape[1:]
    ends, start = [], 0
    for a in index:
        size = math.prod(n for j, n in enumerate(shape) if j not in a)
        ends += range(start + size, start + tables * size + 1, size)
        start += tables * size
    return tuple(tuple(j + 1 for j in a) for a in index), groups, tuple(ends)


def _objectives(p: np.ndarray, kinds: tuple[str, ...]) -> list[list[float]]:
    """Each monotone of `kinds`, sum_X c_X H(X, E) group by group, of each table of the
    stack `p`, (tables, a_1..a_N, e), as values[table][kind].

    The marginals of all the kinds, each subset once for the whole stack, are laid end
    to end and their entries above PROB_FLOOR take p log2 p in one pass.  Each entropy
    H(X, E) of a table is then minus the 1-D sum of its own contiguous run of terms: the
    terms `entropy_bits` would sum, in its order, so its pairwise sum gives the same bits,
    whatever the other kinds and tables."""
    axes, groups, ends = _plans(p.shape, kinds)
    reduce = np.add.reduce
    # the all-party subset sums over no axes, which would only copy p: p is used as it is
    v = np.concatenate([(reduce(p, axis=a) if a else p).ravel() for a in axes])
    kept = v > PROB_FLOOR
    v = v[kept]
    terms = np.log2(v) * v
    at = kept.nonzero()[0].tolist()  # where each term came from, to split them by run
    ends = [bisect.bisect_left(at, end) for end in ends]
    h = [-float(reduce(terms[a:b])) for a, b in zip([0] + ends, ends)]
    m = len(p)
    values = []
    for j in range(m):
        h_j = h[j::m]  # H(X, E) of table j, subset by subset
        row = []
        for kind in groups:
            total = 0.0
            for group in kind:
                part = 0.0
                for i, c in group:
                    part += c * h_j[i]
                total += part
            row.append(total)
        values.append(row)
    return values


def _objective(p: np.ndarray, kind: str) -> float:
    """Monotone `kind` of a table with Eve's axis last: `_objectives` of a stack of one
    table and that kind alone."""
    return _objectives(p[np.newaxis], (kind,))[0][0]


def shannon_cmi(dist: JointDistribution) -> float:
    """Multipartite conditional mutual information I(A_1:...:A_N|E) in bits."""
    return _objective(dist.probs, "cmi")


def total_correlation(dist: JointDistribution) -> float:
    """I(A_1:...:A_N) with no conditioning (the adversary symbol is ignored)."""
    marg = dist.probs.sum(axis=-1)[..., np.newaxis]
    return _objective(marg, "cmi")


def s_n(dist: JointDistribution) -> float:
    """Telescoping secrecy quantity S_N in bits; invariant under party reordering."""
    return _objective(dist.probs, "sn")


def apply_channel(dist: JointDistribution, channel: ClassicalChannel) -> JointDistribution:
    """Process the adversary symbol: P'(a, f) = sum_e P(a, e) L(f|e)."""
    if channel.in_alphabet != dist.eve_alphabet:
        raise ValueError(
            f"channel input alphabet {channel.in_alphabet} does not match "
            f"eve alphabet {dist.eve_alphabet}")
    return JointDistribution(dist.probs @ channel.matrix)


@dataclass(frozen=True)
class SearchBudget:
    """Configuration of the channel search.

    The deterministic stage finds the best set partition of Eve's alphabet,
    of at most EXHAUSTIVE_LIMIT symbols, exactly (`_best_partition`).
    Refinement runs at most REFINE_SWEEPS sweeps and halves its step, from
    REFINE_STEP, after each sweep that gains less than REFINE_TOL bits.

    refine: run coordinate descent over stochastic channels from the best
        deterministic point, with one output symbol per block; True or False.
    """

    refine: bool = True

    def __post_init__(self):
        boolean(self.refine, "refine")


def _subset_marginals(p: np.ndarray, kinds: Sequence[str]) -> dict[tuple[int, ...], np.ndarray]:
    """P_X(x_X, e) of the stack `p` of tables as a (stack, x-range, eve) array, for each party
    subset X of a merged `_plan` term of `kinds`, keyed by its summed axes `_plan(...)[0][i]`."""
    n = p.ndim - 2
    axes = {_plan(n, kind)[0][i] for kind in kinds for i, _ in _plan(n, kind)[2]}
    return {a: p.sum(axis=tuple(j + 1 for j in a)).reshape(len(p), -1, p.shape[-1]) for a in axes}


def _plogp(p: np.ndarray) -> np.ndarray:
    """p log2 p entrywise, and 0 at or below PROB_FLOOR: the terms `entropy_bits` keeps.
    `p` is a temporary that it overwrites, its entries at or below PROB_FLOOR set to 1,
    so the largest table, `_block_values`' run of tables, is held twice, not four times."""
    np.putmask(p, p <= PROB_FLOOR, 1.0)
    terms = np.log2(p)
    terms *= p  # log2(p) * p and p * log2(p) are the same bits
    return terms


@lru_cache(maxsize=None)
def _selector(ne: int) -> np.ndarray:
    """ne x (2^ne - 1) 0/1 matrix whose column mask - 1 selects the symbols of mask."""
    masks = np.arange(1, 1 << ne)
    sel = ((masks[np.newaxis, :] >> np.arange(ne)[:, np.newaxis]) & 1).astype(float)
    sel.flags.writeable = False  # shared by every caller through the cache
    return sel


def _block_values(margs: dict, n_parties: int, kinds: Sequence[str]) -> np.ndarray:
    """phi[j, k, mask - 1]: the contribution of each block of Eve's symbols to objective
    kinds[k] of table j of the stack whose `_subset_marginals` are `margs`.  Both
    objectives are sums of entropies of (X, F) marginals, which split additively over
    the blocks of a deterministic channel, so a partition scores the sum of phi over its
    blocks.  Each subset's p log2 p sums are taken once, and added in `_plan` order."""
    sums = {a: _plogp(m @ _selector(m.shape[-1])).sum(axis=1) for a, m in margs.items()}
    phi = np.zeros((len(kinds),) + next(iter(sums.values())).shape)
    for phi_k, kind in zip(phi, kinds):
        axes, _, merged = _plan(n_parties, kind)
        for i, c in merged:
            phi_k -= c * sums[axes[i]]
    return phi.swapaxes(0, 1)


@lru_cache(maxsize=None)
def _partition_layers(ne: int) -> tuple[tuple[np.ndarray, ...], ...]:
    """The subsets S of {0..ne-1} that `_best_partition` solves, one popcount layer at
    a time: every nonempty subset of the symbols 1..ne-1, then the full set, so layer
    |S| - 1 holds S.  A layer is (subsets, blocks - 1, remainders): for each S, column i
    of the last two, the 2^(|S|-1) blocks T of S that hold S's lowest symbol, in
    descending order of the submask T - low(S), as the `phi` index T - 1 and as the
    remainder S - T.  No remainder holds symbol 0, so every remainder but 0 is solved in
    an earlier layer.

    Subsets come in ascending order within a layer, so S's column is where S sorts
    into its layer's subsets.  The submasks of S - low(S), descending, are its bits
    picked by the bits of 2^k - 1, 2^k - 2, ..., 0, with k = |S| - 1, since picking bits
    keeps the order of the pickers."""
    full = (1 << ne) - 1
    masks = np.append(np.arange(2, full, 2, dtype=np.intp), full)
    bits = masks[:, np.newaxis] >> np.arange(ne) & 1
    sizes = bits.sum(axis=1)
    layers = []
    for k in range(ne):
        subsets = masks[sizes == k + 1]
        symbols = np.nonzero(bits[sizes == k + 1])[1].reshape(subsets.size, k + 1)
        pickers = np.arange((1 << k) - 1, -1, -1)[:, np.newaxis] >> np.arange(k) & 1
        blocks = (pickers @ (1 << symbols[:, 1:]).T) | (1 << symbols[:, 0])
        layers.append((subsets, blocks - 1, subsets ^ blocks))
    for arrays in layers:
        for a in arrays:
            a.flags.writeable = False  # shared by every caller through the cache
    return tuple(layers)


def _best_partition(phi: np.ndarray) -> list[tuple[int, ...]]:
    """Per row of `phi`, a stack of `_block_values` tables, the block masks, ordered by
    lowest symbol, of the partition of Eve's alphabet with the least sum of the row:
    best[S] = min of phi[T] + best[S - T] over the blocks T of S that hold S's lowest
    symbol.  Block T of the row is column T - 1 of `_selector` and of the row.

    Only the full set and the subsets some S - T can be, which lack symbol 0, are solved:
    (3^(|E|-1) - 1)/2 + 2^(|E|-1) (subset, block) pairs, 3,536 at |E| = 9, against
    (3^|E| - 1)/2 for every subset.  One pass solves all rows a popcount layer at a time,
    since S - T has fewer symbols than S, over phi and best laid out as (mask, row): a
    layer gathers whole rows of them, block by block, and takes the minimum over its
    leading axis, the blocks.  The rows are then read back from the full set down, one
    step at a time, all the rows standing at one S together: S's layer is its popcount
    less one and its column where it sorts into that layer's subsets, and one gather of
    their (block, row) sums and one argmin over the blocks give each row the first of
    its minimal blocks, S - rest, as a mask."""
    ne = phi.shape[1].bit_length()  # a row has 2^ne - 1 entries
    layers = _partition_layers(ne)
    by_mask = np.ascontiguousarray(phi.T)
    best = np.zeros((1 << ne, len(phi)))
    for subsets, minus_one, remainders in layers:
        gathered = by_mask.take(minus_one, axis=0) + best.take(remainders, axis=0)
        best[subsets] = gathered.min(axis=0)
    found = [()] * len(phi)
    at = {(1 << ne) - 1: range(len(phi))}  # the rows standing at each subset S
    while at:
        rows_at = {}
        for s, rows in at.items():
            subsets, minus_one, remainders = layers[s.bit_count() - 1]
            i = subsets.searchsorted(s)
            rests = remainders[:, i]
            sums = by_mask.take(minus_one[:, i], axis=0) + best.take(rests, axis=0)
            for r, rest in zip(rows, rests.take(sums[:, rows].argmin(axis=0)).tolist()):
                found[r] += (s ^ rest,)
                if rest:
                    rows_at.setdefault(rest, []).append(r)
        at = rows_at
    return found


class _Plan(NamedTuple):
    """A block of trials and the entries they move: the part of a `_screen` call that
    depends on q only through its support.  Cell (k, c) sets row e[c] of channel ch[c]
    of a stack to rows[k, c] (rows is (R, C, |F|)) and moves entry (r[i], f[i]) of q @
    channel mats[chan[i]] by delta[k, i] q[r[i], col[i]], a term of cell[k, i] = k C + c."""

    ch: np.ndarray
    e: np.ndarray
    rows: np.ndarray
    r: np.ndarray
    chan: np.ndarray
    col: np.ndarray
    f: np.ndarray
    delta: np.ndarray
    cell: np.ndarray


def _screen_plan(support: np.ndarray, mats: np.ndarray, ch: np.ndarray, e: np.ndarray,
                 rows: np.ndarray) -> _Plan:
    """The `_Plan` of the block that sets row e[c] of channel mats[ch[c]] to rows[k, c],
    over a q whose nonzero entries are `support` = (q.T != 0).

    Entry (r, f) moves by delta[k, c, f] q[r, e[c]], delta = rows - mats[ch, e], so only
    the entries with q[r, e[c]] nonzero, in the (c, f) pairs that some row moves, are
    kept: pair by pair, rows ascending, and broadcast over the R rows.  A row that
    leaves a kept pair alone adds exact zeros there, and every entry outside the pairs
    adds exactly 0."""
    delta = rows - mats[ch, e]
    c, f = np.nonzero(delta.any(axis=0))
    col = e[c]
    pair, r = np.nonzero(support.take(col, axis=0))  # the pairs' entries end to end
    col, c, f = col[pair], c[pair], f[pair]
    cell = c + np.arange(0, len(rows) * e.size, e.size)[:, np.newaxis]  # k C + c
    return _Plan(ch, e, rows, r, ch[c], col, f, delta[:, c, f], cell)


def _screen(q: np.ndarray, coeffs: np.ndarray, mats: np.ndarray,
            plan: _Plan) -> tuple[np.ndarray, np.ndarray]:
    """Per cell (k, c) of the `_Plan`, the trial that sets row e[c] of channel mats[ch[c]]
    to rows[k, c]: the change of -sum_r coeffs[r] sum_f `_plogp`(q @ L)[r, f], and
    whether it moves an entry within 2x of PROB_FLOOR.  Each cell's terms are summed in
    (f, r) order, one after another."""
    _, _, rows, r, chan, col, f, delta, cell = plan
    moved = delta * q[r, col]
    p = np.empty((len(delta) + 1, r.size))  # each entry before, then after each row's move
    p[0] = np.matmul(q, mats)[chan, r, f]
    np.add(p[0], moved, out=p[1:])
    near = np.abs(p - 1.25 * PROB_FLOOR) <= 0.75 * PROB_FLOOR
    ambiguous = np.zeros(rows.shape[:2], dtype=bool)
    if near.any():  # seldom: most screens move no entry near the floor
        ambiguous.ravel()[cell[(near[:1] | near[1:]) & (moved != 0.0)]] = True
    p = _plogp(p)
    change = np.bincount(cell.ravel(), (coeffs[r] * (p[:1] - p[1:])).ravel(), ambiguous.size)
    return change.reshape(ambiguous.shape), ambiguous


@lru_cache(maxsize=None)
def _screen_bound(a: int, ne: int, nf: int, rows: int, entries: int, c_abs: float) -> float:
    """|screened - exact| of a trial in bits is at most C [(3 g(a + |E|) + g(3a + 2|E| + 3))
    (H + 1.5) + (24 u + 2 g(S/8 + 3) + 2 g(|F| rows + 1) + 4 g(entries)) H], where
    u = 2^-53, g(k) = k u / (1 - k u), S = a |F|, H = log2 S, C = c_abs = sum_X |c_X|: the
    relative errors of P_X L on both paths (a step <= 1/2 keeps half an entry) times
    H + log2 e; log2 (4 ulp) and rounding; pairwise sums; the screen's sum, one
    subtraction and one product per moved entry and then a sequential sum over at most
    |F| x rows of them; `_objective`'s sums of weight <= 2C.  Entries a move leaves alone
    are the same in both exact scores.  A block row that leaves a gathered (column, f)
    pair alone adds terms c_r (x - x) = +-0 to its cell's sum, and s + 0 = s exactly (the
    sum starts at +0, so it never reaches -0), so those terms add no rounding and the
    sequential sum keeps at most |F| x rows nonzero terms.  For the attack's tables
    (a = 8, |E| = 9, |F| <= 3) this is at most 9.9e-13.  `_refine` reads it both ways:
    a trial whose screened change is at least the bound above the pass threshold
    cannot pass, and an unflagged one more than twice the bound below it must, so
    neither is scored exactly.  Cached: a search's arguments depend only on the
    table's shape, the objective and |F|."""
    g = [k * 2.0 ** -53 / (1.0 - k * 2.0 ** -53)
         for k in (a + ne, 3 * a + 2 * ne + 3, a * nf // 8 + 3, nf * rows + 1, entries)]
    h = math.log2(max(a * nf, 2))
    return c_abs * ((3 * g[0] + g[1]) * (h + 1.5)
                    + (24 * 2.0 ** -53 + 2 * g[2] + 2 * g[3] + 4 * g[4]) * h)


@lru_cache(maxsize=None)
def _moves(ne: int, nf: int) -> tuple[np.ndarray, np.ndarray]:
    """The row each move e * nf + f replaces, and the column it raises as a row of eye(nf)."""
    every_e = np.repeat(np.arange(ne), nf)
    targets = np.tile(np.eye(nf), (ne, 1))
    for a in (every_e, targets):
        a.flags.writeable = False  # shared by every caller through the cache
    return every_e, targets


def _trial_rows(mat: np.ndarray, steps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row e of `mat` after move (e, f) at each step, as (step, e * nf + f, nf), and
    whether the move changes the row; for a stack of channels, `steps` holds a row of
    steps per channel and the result leads with the stack axis.  (1 - step) row +
    step 1_f adds an exact 0 off column f."""
    every_e, targets = _moves(*mat.shape[-2:])
    now = mat.take(every_e, axis=-2)[..., np.newaxis, :, :]
    steps = steps[..., np.newaxis, np.newaxis]
    rows = (1.0 - steps) * now + steps * targets
    return rows, (rows != now).any(axis=-1)


def _ladder(mat: np.ndarray, steps: np.ndarray, support: np.ndarray):
    """Every move of `mat` at each of `steps`, one row of trials per step: (at, rows,
    plan), trial i being move e * nf + f at step k, at[i] = k * |E| nf + e * nf + f,
    which sets row e to rows[i], and `plan` the `_screen_plan` over `support` of the
    block of every move, from `mat` as a stack of one; None if no move changes its row."""
    every_e, _ = _moves(*mat.shape)
    rows, changed = _trial_rows(mat, steps)
    at = np.flatnonzero(changed)
    if not at.size:
        return None
    plan = _screen_plan(support, mat[np.newaxis], np.zeros(every_e.size, dtype=np.intp),
                        every_e, rows)
    return at, rows.reshape(-1, mat.shape[1])[at], plan


@lru_cache(maxsize=FIRST_BATCHES)
def _first_batch(shape: tuple[int, int], start: bytes, steps: bytes,
                 support_shape: tuple[int, int], support: bytes):
    """The `_ladder` of the start channel, a float array of `shape` given by its bytes,
    over the float `steps` and the bool `support` of `support_shape`, also given by
    their bytes: the index part of the first batch of every search from that start whose
    q has that support, built once and read-only."""
    ladder = _ladder(np.frombuffer(start).reshape(shape), np.frombuffer(steps),
                     np.frombuffer(support, dtype=bool).reshape(support_shape))
    if ladder is not None:
        at, rows, plan = ladder
        for a in (at, rows, *plan):
            a.flags.writeable = False  # shared by every search from this start and support
    return ladder


def _predicted(kept: list[int], last: list[int], sweeps: int) -> list[tuple[int, int]]:
    """(sweep offset, move) of the next LOOK_AHEAD kept moves if the descent's sweeps
    repeat their kept moves at this step: the rest of `last`, the moves the sweep before
    kept, in this sweep, then all of `last` in each of the next `sweeps` sweeps.  No
    guess unless `kept`, the moves this sweep has kept so far, are the first of `last`."""
    if kept != last[:len(kept)]:
        return []
    now = ((0, move) for move in last[len(kept):])
    later = ((k, move) for k in range(1, sweeps + 1) for move in last)
    return list(itertools.islice(itertools.chain(now, later), LOOK_AHEAD))


def _predicted_channels(mat: np.ndarray, moves: list[int], step: float) -> np.ndarray:
    """`mat`, then the channel after each of `moves` at `step` in turn, as a stack: move
    e * nf + f sets row e to (1 - step) row + step 1_f by the one-move loop's expression,
    which is `_trial_rows`' (its step * 0 off column f adds an exact 0)."""
    nf = mat.shape[1]
    mats = np.repeat(mat[np.newaxis], len(moves) + 1, axis=0)
    for i, move in enumerate(moves, 1):
        e, f = divmod(move, nf)
        row = (1.0 - step) * mats[i - 1, e]
        row[f] += step
        mats[i:, e] = row
    return mats


def _gained(scores: list[float]) -> float:
    """The one-move loop's `gained` over a sweep whose states score `scores` in turn:
    best - val of each kept move, added up in order."""
    gained = 0.0
    for best, val in zip(scores, scores[1:]):
        gained += best - val
    return gained


def _refine(dist: JointDistribution, kind: str, q: np.ndarray, coeffs: np.ndarray,
            c_abs: float, channel: np.ndarray, best: float) -> tuple[np.ndarray, float]:
    """Coordinate descent on channel rows; step halves when a sweep stalls.  `q` is
    `dist`'s row of the stacked q of `kind`'s `_run_terms`, built once per run with
    `coeffs` and `c_abs`, and `best` the start's exact score, `_objective`(dist.probs @
    channel).  Returns the channel it ends at and that channel's exact score.

    A sweep tries the moves (e, f) in row-major order: row e becomes
    (1 - step) * row + step at column f, and the move is kept if it lowers
    the objective by more than 1e-15.  A move that leaves its row equal
    would re-score the current channel, which can never pass, so it is
    skipped.

    Trials come in batches, each trial from its own channel, and are taken in the
    one-move loop's order.  `_screen` rules out the ones that cannot pass and confirms
    the ones that must (`first_pass`); `_objective`, the oracle's own expression,
    scores the rest, and the first that passes is kept.  A state's exact score is
    taken only when a trial is compared with it, and at the end.  The loop halves its
    step after a sweep that gains less than REFINE_TOL; that test is read from the
    screened gains of the sweep's kept moves, or, within their error of REFINE_TOL,
    replayed from the exact scores of its states (`_gained`).  The first batch,
    before any move is kept, is every move at every step of the halving ladder, one
    row per step, in one `_screen` call: a start the descent cannot leave, as on the
    whole default grid, costs that one call, or none if it has no trial (one block).
    Its index part (`_ladder`) depends only on the start and on the support of q, the
    marginals laid end to end, so `_first_batch` builds it once per (start, support).

    After a kept move a batch holds the trials the loop would score before its next
    kept move in this sweep at `step` and in the next at `ahead` (= step if this sweep
    has gained REFINE_TOL, else step/2; at the same step the next sweep's moves from
    `start` on repeat this sweep's and are dropped), and a look-ahead: for each state the
    next LOOK_AHEAD kept moves reach if the sweeps repeat (`_predicted`), the trials from
    its channel (`_predicted_channels`) up to its predicted move, all in one `_screen`
    call.  A walk confirms them state by state in the loop's order and goes on to a
    predicted state only if the search holds its channel, step and start and, where its
    trials run into the next sweep, takes that sweep at their step within REFINE_SWEEPS:
    they are then the trials the loop scores next, so a wrong prediction costs screens,
    never a bit.  A predicted state with no passing trial is the true state, its trials
    up to the predicted move known to fail (`resume`).  If the current state's own
    trials have no pass, the later sweeps at ahead/2, ahead/4, ... down to 1e-9 are
    screened as one row per step over every move, and a batch with no pass ends the
    descent.
    """
    ne, nf = channel.shape
    width = ne * nf  # the moves of a sweep
    mat = channel.copy()
    support = q.T != 0.0
    entries = sum(map(len, _plan(dist.parties, kind)[1]))
    margin = max(MARGIN, _screen_bound(dist.probs.size // ne, ne, nf, len(q), entries, c_abs))

    clear = -1e-15 - 2.0 * margin  # an unflagged change below this passes exactly
    # this sweep's states from the one before its first kept move, their exact scores
    # (None until read) and the gain of its kept moves, exact where scored
    states, scores, est = [mat.copy()], [best], 0.0

    def score(j: int = -1) -> float:
        """The exact score of states[j], its `_objective` the first time it is read."""
        if scores[j] is None:
            scores[j] = _objective(dist.probs @ states[j], kind)
        return scores[j]

    def first_pass(trials: list[int], at: np.ndarray, rows: np.ndarray, change: np.ndarray,
                   ambiguous: np.ndarray):
        """(k, move, row, value, change) of the first trial i of `trials`, in the order
        given, that passes; or None.  Trial i is move e * nf + f in the k-th sweep from
        here, at[i] = k * width + move, setting row e of `mat` to rows[i].  An unflagged
        trial with change < `clear` passes unscored, with value None: its exact change is
        within margin of the screened one.  Any other trial is ruled out if the screen
        says it cannot beat the state's exact score, else scored by `_objective`, and a
        pass then returns its exact change."""
        for i in trials:
            k, move = divmod(int(at[i]), width)
            if change[i] < clear and not ambiguous[i]:
                return k, move, rows[i], None, float(change[i])
            best = score()
            if best + change[i] < best - 1e-15 + margin or ambiguous[i]:
                trial = mat.copy()
                trial[move // nf] = rows[i]
                val = _objective(dist.probs @ trial, kind)
                if val < best - 1e-15:
                    return k, move, rows[i], val, val - best
        return None

    def near(change: np.ndarray, ambiguous: np.ndarray) -> np.ndarray:
        """The trials `first_pass` might keep or score, whatever the state's score: best +
        change < best - 1e-15 + margin only if change < margin, and a confirmed pass has
        change < `clear` < margin."""
        return np.flatnonzero((change < margin) | ambiguous)

    def gained_enough() -> bool:
        """The loop's `gained >= REFINE_TOL` for this sweep: from `est` while that is
        further from REFINE_TOL than its error, under 2 margin a state; else from
        `_gained` of the states' exact scores."""
        if abs(est - REFINE_TOL) > 2.0 * margin * len(states):
            return est >= REFINE_TOL
        return _gained([score(j) for j in range(len(states))]) >= REFINE_TOL

    step = REFINE_STEP
    sweep = 0  # the sweep the next batch starts in, `start` and `kept` its own
    start = resume = 0  # the move after the last kept one; the first trial not known to fail
    kept, last = [], []  # the moves kept in this sweep so far and in the sweep before

    def keep(steps: np.ndarray, k: int, move: int, row: np.ndarray, val: float | None,
             change: float):
        """Keep `move`, of `first_pass`' value and change, in the k-th sweep after this
        one, at step steps[k]."""
        nonlocal sweep, step, start, resume, kept, last, states, scores, est
        if k:
            sweep, step = sweep + k, float(steps[k])
            kept, last = [], (kept if k == 1 else [])
            states, scores, est = states[-1:], scores[-1:], 0.0
        est -= change
        mat[move // nf] = row
        states.append(mat.copy())
        scores.append(val)
        kept.append(move)
        start = resume = move + 1

    while True:
        ahead = step if gained_enough() else 0.5 * step
        found = None
        if start:  # this sweep and the next, then each predicted state's trials
            guess = _predicted(kept, last, REFINE_SWEEPS - 1 - sweep) if resume == start else []
            # each state's trials are its positions k * width + move from lo to hi, move at
            # step paces[i, k]: the current state's two sweeps, then each predicted state's,
            # all at this step, up to its predicted move
            lo = [resume] + [move + 1 for _, move in guess[:-1]]
            hi = [(width + start if ahead == step else 2 * width) - 1
                  if ahead >= 1e-9 and sweep + 1 < REFINE_SWEEPS else width - 1]
            hi += [max((k1 - k0) * width + m1, m0)  # none if before lo
                   for (k0, m0), (k1, m1) in zip(guess, guess[1:])]
            paces = np.array([(step, ahead)] + [(step, step)] * len(guess[:-1]))
            mats = _predicted_channels(mat, [move for _, move in guess[:-1]], step)
            rows, changed = _trial_rows(mats, paces)
            frames = changed.reshape(len(mats), -1)
            for frame, a, b in zip(frames, lo, hi):
                frame[:a] = frame[b + 1:] = False
            ch, at = np.nonzero(frames)
            if at.size:
                rows = rows.reshape(len(mats), -1, nf)[ch, at]
                # position k * width + e * nf + f moves row e
                plan = _screen_plan(support, mats, ch, at // nf % ne, rows[np.newaxis])
                change, ambiguous = _screen(q, coeffs, mats, plan)
                change, ambiguous = change[0], ambiguous[0]
                trials = near(change, ambiguous)
                owner = ch[trials].tolist()  # ascending, as `ch` is
                trials = trials.tolist()
                for i, (a, b) in enumerate(zip(lo, hi)):
                    if i and (start != a or step != paces[i, 0]
                              or mat.tobytes() != mats[i].tobytes()):
                        break  # not the predicted state
                    if i and b >= width and (sweep + 1 >= REFINE_SWEEPS or not gained_enough()):
                        break  # its next sweep is not at this step, or not at all
                    mine = trials[bisect.bisect_left(owner, i):bisect.bisect_left(owner, i + 1)]
                    found = first_pass(mine, at, rows, change, ambiguous)
                    if found is None:
                        if i:  # no trial up to its predicted move passes
                            resume = b + 1
                        break
                    keep(paces[i], *found)
                if found is not None or i:  # the walk moved on: the next batch starts there
                    continue
        if found is None:  # the rest, each sweep at half the last step, one row per step
            screened = 2 if start else 0  # the steps screened already
            steps = np.ldexp(ahead, 1 - np.arange(REFINE_SWEEPS - sweep))  # 2 ahead, ahead, ...
            steps[0] = step
            steps = steps[steps >= 1e-9]
            ladder = (_ladder(mat, steps[screened:], support) if start
                      else _first_batch(mat.shape, mat.tobytes(), steps.tobytes(),
                                        support.shape, support.tobytes()))
            if ladder is not None:  # over every move
                at, rows, plan = ladder
                change, ambiguous = _screen(q, coeffs, mat[np.newaxis], plan)
                change, ambiguous = change.take(at), ambiguous.take(at)
                found = first_pass(near(change, ambiguous).tolist(), at + screened * width, rows,
                                   change, ambiguous)
        if found is None:
            return mat, score()
        keep(steps, *found)


def _run_terms(margs: dict, n_parties: int, kind: str) -> tuple[np.ndarray, np.ndarray, float]:
    """What `_refine` reads of monotone `kind` for a stack whose `_subset_marginals` are
    `margs`: q, the merged `_plan` terms' P_X laid end to end as (stack, rows, eve), each
    row's c_X, and sum_X |c_X|."""
    axes, _, merged = _plan(n_parties, kind)
    q = np.concatenate([margs[axes[i]] for i, _ in merged], axis=1)
    coeffs = np.concatenate([np.full(margs[axes[i]].shape[1], c) for i, c in merged])
    return q, coeffs, sum(abs(c) for _, c in merged)


def minimize_over_channels(dists: Sequence[JointDistribution], kinds: Sequence[str],
                           budget: SearchBudget | None = None,
                           ) -> list[tuple[float, ClassicalChannel]]:
    """The searched (value, channel) of each table of `dists`, all of one shape, for each
    objective of `kinds` ("cmi", "sn"), table by table.  The exact stage is one stack, and
    each kind's `_run_terms` and each distinct start channel are built once for the run,
    a start keyed by `_best_partition`'s tuple of block masks and its channel taken from
    those columns of `_selector`, in C order; the tables grouped by start are scored,
    every kind, in one stacked `_objectives` pass a start, and only a channel that
    `_refine` moves is checked anew."""
    if isinstance(kinds, str) or not len(kinds):
        raise ValueError(f"kinds must be a nonempty sequence of objectives, got {kinds!r}")
    if not len(dists):
        raise ValueError("dists must hold at least one distribution")
    budget, kinds = budget or SearchBudget(), tuple(kinds)
    p = np.stack([dist.probs for dist in dists])
    n, ne = p.ndim - 2, p.shape[-1]
    if ne > EXHAUSTIVE_LIMIT:
        raise ValueError(f"channel search takes at most {EXHAUSTIVE_LIMIT} Eve symbols, got {ne}")
    margs = _subset_marginals(p, kinds)
    phi = _block_values(margs, n, kinds).reshape(-1, (1 << ne) - 1)
    starts = _best_partition(phi)  # block masks of row j * len(kinds) + k
    runs = [_run_terms(margs, n, kind) for kind in kinds]
    shared: dict[tuple, list[int]] = {}  # the tables with a search from each start
    for j in range(len(dists)):
        for start in dict.fromkeys(starts[j * len(kinds):(j + 1) * len(kinds)]):
            shared.setdefault(start, []).append(j)
    channels = {start: ClassicalChannel(_selector(ne).take(np.subtract(start, 1), axis=1))
                for start in shared}
    values = [0.0] * len(starts)
    for start, js in shared.items():
        tables = p[js] @ channels[start].matrix
        for j, scores in zip(js, _objectives(tables, kinds)):
            for r, value in enumerate(scores, j * len(kinds)):
                if starts[r] == start:
                    values[r] = value
    found = []
    for r, (start, value) in enumerate(zip(starts, values)):
        j, k = divmod(r, len(kinds))
        channel = channels[start]
        if budget.refine and len(start) > 1:  # every channel to one output is the same
            q, coeffs, c_abs = runs[k]
            mat, value = _refine(dists[j], kinds[k], q[j], coeffs, c_abs, channel.matrix, value)
            if mat.tobytes() != channel.matrix.tobytes():  # kept a move; else mat is a copy
                channel = ClassicalChannel(mat)
        found.append((value, channel))
    return found


def intrinsic_information(dist: JointDistribution,
                          budget: SearchBudget | None = None) -> tuple[float, ClassicalChannel]:
    """Minimize I(A_1:...:A_N|F) over searched channels E -> F.

    Returns the best value found and the channel attaining it.  The identity
    channel is always part of the search, so the value never exceeds
    `shannon_cmi(dist)`.
    """
    return minimize_over_channels([dist], ["cmi"], budget)[0]


def dual_intrinsic(dist: JointDistribution,
                   budget: SearchBudget | None = None) -> tuple[float, ClassicalChannel]:
    """Minimize the telescoping quantity S_N over searched channels E -> F."""
    return minimize_over_channels([dist], ["sn"], budget)[0]


def g(eps: float) -> float:
    """Continuity overhead (1+eps) log2(1+eps) - eps log2(eps), with g(0) = 0, for eps in
    [0, 1] (`unit_interval`)."""
    eps = unit_interval(eps, "eps")
    if eps == 0.0:
        return 0.0
    return (1.0 + eps) * math.log2(1.0 + eps) - eps * math.log2(eps)


def continuity_envelope(eps: float, log_dim: float, flavor: str) -> float:
    """Trace-distance continuity envelope for conditional entropies or CMIs.

    `flavor` selects 2 eps log_dim + g(eps) for "conditional-entropy" or
    2 eps log_dim + 2 g(eps) for "cmi".  eps lies in [0, 1] and log_dim is a finite
    real number at least 0; anything else is a one-line ValueError.
    """
    eps = unit_interval(eps, "eps")
    if not 0.0 <= (dim := real(log_dim)) < math.inf:
        shown = dim if isinstance(log_dim, REAL) else repr(log_dim)
        raise ValueError(f"log_dim must be a finite real number at least 0, got {shown}")
    if flavor == "conditional-entropy":
        return 2.0 * eps * dim + g(eps)
    if flavor == "cmi":
        return 2.0 * eps * dim + 2.0 * g(eps)
    raise ValueError(f"unknown flavor {flavor!r}")


def distribution_to_csv(dist: JointDistribution, fh) -> None:
    """Write header `a1,...,aN,e,p`, then one row `a1,...,aN,e,p` per entry.

    Rows run row-major over the table; values carry 15 significant digits.
    """
    fh.write(",".join([f"a{i+1}" for i in range(dist.parties)] + ["e", "p"]) + "\n")
    for idx in itertools.product(*(range(k) for k in dist.probs.shape)):
        fh.write(",".join(str(v) for v in idx) + f",{dist.probs[idx]:.15g}\n")
