"""Independent reference implementations used as test oracles.

Everything here is deliberately written from scratch (plain loops, its own
entropy code, a different partition enumerator) so that agreement with the
package is meaningful.  The channel-search references (`objective_loop`,
`refine_loop`, `best_partition_loop`, `block_table`, `screen_dense`,
`screen_sparse`) are the exceptions: they run the package's own
`entropy_bits`, `_plan`, `_objective`, `_selector` and `_plogp` one entropy,
one move, one subset or one table and objective at a time, over every
(trial, f, r) entry, or over the entries each trial moves, gathered trial by
trial, so that its one-pass scoring, its stacked exact stage and its batched
and block-screened search can be checked against them.  `bench_grids` reads
the benchmark's noise levels from the committed golden CSVs, so a test over
them follows the workloads.  `WRONG_PREDICTORS` stand in for the refinement's
guesses of its next kept moves, so a test can check that no guess moves a bit.
The DP gives each partition as block masks; `mask_symbols` is the one place the
tests turn them into symbol lists, and `start_channel` builds a start from those
with `from_partition`, not from the search's own `_selector` columns.
"""

import csv
import functools
import itertools
import math
from pathlib import Path

import numpy as np

SQRT2 = math.sqrt(2.0)
GOLDEN = Path(__file__).resolve().parent / "golden"


def bench_grids() -> list[float]:
    """The noise levels of both `--minimize` benchmark workloads, in order: the `nu`
    column of the committed `curves_min.csv`, then of `curves_min_high_noise.csv`."""
    grid = []
    for name in ("curves_min", "curves_min_high_noise"):
        with open(GOLDEN / f"{name}.csv", newline="") as fh:
            grid += dict.fromkeys(float(row["nu"]) for row in csv.DictReader(fh))
    return grid


def entropy(vec) -> float:
    total = 0.0
    for p in np.asarray(vec, dtype=float).ravel():
        if p > 1e-15:
            total -= p * math.log2(p)
    return total


def cmi_of_table(p: np.ndarray) -> float:
    """I(A_1:...:A_N|E) for a table with party axes first and Eve axis last."""
    n = p.ndim - 1
    h_e = entropy(p.sum(axis=tuple(range(n))))
    h_all = entropy(p)
    total = 0.0
    for i in range(n):
        axes = tuple(j for j in range(n) if j != i)
        total += entropy(p.sum(axis=axes))
    return total - h_all - (n - 1) * h_e


def sn_of_table(p: np.ndarray) -> float:
    """Telescoping sum for a table with party axes first and Eve axis last."""
    n = p.ndim - 1

    def h(parties):
        axes = tuple(j for j in range(n) if j not in parties)
        return entropy(p.sum(axis=axes))

    h_all = entropy(p)
    total = 0.0
    for k in range(n - 1):
        prefix = list(range(k))
        total += h(prefix + [k]) + h(prefix + list(range(k + 1, n))) - h(prefix) - h_all
    return total


def partitions_recursive(items):
    """Insertion-based set-partition enumerator (independent of the package's)."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in partitions_recursive(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]
        yield [[first]] + part


def brute_channel_minimum(table: np.ndarray, objective) -> float:
    """Exhaustive minimum of `objective` over deterministic Eve channels.

    `table` has party axes first and the Eve axis last; every set partition
    of the Eve alphabet is applied by brute-force column aggregation.
    """
    ne = table.shape[-1]
    best = math.inf
    for blocks in partitions_recursive(range(ne)):
        agg = np.stack([table[..., block].sum(axis=-1) for block in blocks], axis=-1)
        best = min(best, objective(agg))
    return best


@functools.lru_cache(maxsize=None)
def attack_channel_minimum(nu: float, objective) -> float:
    """`brute_channel_minimum` of the attack's joint table at `nu`, computed once per
    (nu, objective): it enumerates every partition of the 9 Eve symbols."""
    from ckabounds.attacks import build_cc_attack

    return brute_channel_minimum(build_cc_attack(nu).joint.probs, objective)


def local_table(nu: float) -> np.ndarray:
    """Key-setting outcome table of the biseparable remainder, from its weights."""
    w_bis = 1.0 - (1.0 - nu) ** 3
    if w_bis <= 1e-15:
        w_pair = np.full(3, 1.0 / 3.0)
        w_mix = 0.0
    else:
        w_pair = np.full(3, (1.0 - nu) ** 2 * nu / w_bis)
        w_mix = (3.0 - 2.0 * nu) * nu ** 2 / w_bis
    t = np.zeros((2, 2, 2))
    for a, b1, b2 in itertools.product(range(2), repeat=3):
        t[a, b1, b2] = (w_pair[0] * 0.25 * (a == b1) + w_pair[1] * 0.25 * (a == b2)
                        + w_pair[2] * 0.25 * (b1 == b2) + w_mix / 8.0)
    return t


def cc_joint_table(nu: float) -> np.ndarray:
    """The convex-combination attack joint (a, b1, b2, e) with 9 Eve symbols."""
    probs = np.zeros((2, 2, 2, 9))
    w = 1.0 - (1.0 - nu) ** 3
    loc = local_table(nu)
    for a, b1, b2 in itertools.product(range(2), repeat=3):
        ghz_mass = 0.5 if a == b1 == b2 else 0.0
        probs[a, b1, b2, 0] = (1.0 - w) * ghz_mass
        probs[a, b1, b2, 1 + 4 * a + 2 * b1 + b2] = w * loc[a, b1, b2]
    return probs


def postprocessed_table(nu: float) -> np.ndarray:
    """Attack joint after the honest-mimicry channel (outputs 0, 1, '?')."""
    src = cc_joint_table(nu)
    out = np.zeros((2, 2, 2, 3))
    out[..., 2] += src[..., 0]
    for a, b1, b2 in itertools.product(range(2), repeat=3):
        mass = src[a, b1, b2, 1 + 4 * a + 2 * b1 + b2]
        if a == b1 == b2:
            out[a, b1, b2, a] += mass
        else:
            out[a, b1, b2, 2] += mass
    return out


def family_table(e: float, w: float) -> np.ndarray:
    """The symmetric convex-combination attack (a, b1, b2, e) at flip probability `e`
    and local weight `w`, with 9 Eve symbols.

    '?' (symbol 0) gets (1-w) G, with G = 1/2 on 000 and 111; the triple t, recorded
    as symbol 1 + 4a + 2b1 + b2, gets P_e(t) - (1-w) G(t), where
    P_e(t) = [e^k (1-e)^(3-k) + e^(3-k) (1-e)^k] / 2 and k is t's Hamming weight.
    w lies in [1 - (1-e)^3 - e^3, 1]; at the lower end the 000 and 111 entries are 0
    up to rounding.
    """
    probs = np.zeros((2, 2, 2, 9))
    for a, b1, b2 in itertools.product(range(2), repeat=3):
        k = a + b1 + b2
        ghz = 0.5 if a == b1 == b2 else 0.0
        device = 0.5 * (e ** k * (1.0 - e) ** (3 - k) + e ** (3 - k) * (1.0 - e) ** k)
        probs[a, b1, b2, 0] = (1.0 - w) * ghz
        probs[a, b1, b2, 1 + 4 * a + 2 * b1 + b2] = device - (1.0 - w) * ghz
    return probs


def leaky_channel(e: float, w: float) -> tuple[float, np.ndarray]:
    """Leaky mimicry on `family_table(e, w)` where 1 - w <= e(1-e): its parameter
    lambda = (e(1-e) - (1-w)) / ((1-e)^3 + e^3 - (1-w)) and its 9 x 3 matrix.

    000 goes to 0, and 111 to 1, with probability 1 - lambda, and to U (output 2)
    otherwise; '?' and the six other triples go to U.  Given U the key table is
    uniform, and given 0 or 1 it is a point mass, so both monotones are 0.

    The denominator is taken as the numerator plus (1-2e)^2, its value since
    (1-e)^3 + e^3 = 1 - 3e(1-e): taken as written, it cancels near e = 1/2 and can
    round below the numerator or to 0 or less, which puts lambda outside [0, 1].  It
    is 0 only at e = 1/2 and 1 - w = 1/4, where 000 and 111 have no mass and lambda is
    taken as 1.
    """
    leak = e * (1.0 - e) - (1.0 - w)
    spread = leak + (1.0 - 2.0 * e) ** 2
    lam = leak / spread if spread > 0.0 else 1.0
    channel = np.zeros((9, 3))
    channel[:, 2] = 1.0
    for bit, symbol in ((0, 1), (1, 8)):  # the symbols of 000 and 111
        channel[symbol] = 0.0
        channel[symbol, bit], channel[symbol, 2] = 1.0 - lam, lam
    return lam, channel


def born_table(rho: np.ndarray, effects) -> np.ndarray:
    """p(a|x) = Tr[(E_1 (x) ... (x) E_N) rho], one Kronecker product per entry.

    `effects[i][x][a]` is party i's effect for input x and outcome a.
    """
    ins = tuple(len(party) for party in effects)
    outs = tuple(len(party[0]) for party in effects)
    table = np.zeros(ins + outs)
    for xs in itertools.product(*(range(k) for k in ins)):
        for outcome in itertools.product(*(range(k) for k in outs)):
            op = np.array([[1.0 + 0j]])
            for party, x, a in zip(effects, xs, outcome):
                op = np.kron(op, party[x][a])
            table[xs + outcome] = np.trace(op @ rho).real
    return table


def depolarized_ghz_behavior(nu: float):
    """The honest device by the Born rule on the triple-depolarized GHZ density matrix
    `noisy_ghz3(nu).state`: the route `behaviors.depolarized`'s outcome flips replace."""
    from ckabounds.behaviors import behavior_from_measurement, default_measurements
    from ckabounds.states import noisy_ghz3

    return behavior_from_measurement(noisy_ghz3(nu).state, default_measurements())


def game_value(behavior, input_distribution, predicate) -> float:
    """Winning probability of a nonlocal game, one table entry at a time.

    `input_distribution` maps joint-input tuples to their probability and is
    summed in its own order, then the outcomes row-major; `predicate(inputs,
    outputs)` decides a win.
    """
    total = 0.0
    for inputs, weight in input_distribution.items():
        cond = behavior.table[tuple(inputs)]
        for outcome in itertools.product(*(range(k) for k in behavior.output_alphabets)):
            if predicate(inputs, outcome):
                total += weight * cond[outcome]
    return total


def measured_game_value(nu: float) -> float:
    """Closed form of the default-measurement game value on the noisy state."""
    u = 1.0 - nu
    return 0.5 + u ** 3 / (2.0 * SQRT2) + u ** 2 * nu / (4.0 * SQRT2)


def triple_depolarized_ghz(nu: float) -> np.ndarray:
    """Depolarize each qubit of the 3-qubit GHZ state, via raw index sums."""
    rho = np.zeros((8, 8), dtype=complex)
    rho[0, 0] = rho[7, 7] = rho[0, 7] = rho[7, 0] = 0.5
    for site in range(3):
        t = rho.reshape((2,) * 6)
        traced = np.trace(t, axis1=site, axis2=site + 3)
        full = np.zeros((2,) * 6, dtype=complex)
        rest = [i for i in range(3) if i != site]
        for b in range(2):
            for r0, r1, c0, c1 in itertools.product(range(2), repeat=4):
                ket = [0, 0, 0]
                bra = [0, 0, 0]
                ket[site] = bra[site] = b
                ket[rest[0]], ket[rest[1]] = r0, r1
                bra[rest[0]], bra[rest[1]] = c0, c1
                full[tuple(ket + bra)] += 0.5 * traced[r0, r1, c0, c1]
        rho = (1.0 - nu) * rho + nu * full.reshape(8, 8)
    return rho


def refine_loop(dist, channel: np.ndarray, kind: str, taken=None) -> np.ndarray:
    """Coordinate descent on channel rows, scoring one trial move at a time.

    If `taken` is a list, (sweep, e * n_out + f, step) of each kept move
    (e, f) is appended to it.
    """
    from ckabounds.secrecy import REFINE_STEP, REFINE_SWEEPS, REFINE_TOL, _objective

    n = dist.parties
    probs = dist.probs

    def objective(mat: np.ndarray) -> float:
        return _objective(probs @ mat, n, kind)

    mat = channel.copy()
    best = objective(mat)
    step = REFINE_STEP
    for sweep in range(REFINE_SWEEPS):
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
                    if taken is not None:
                        taken.append((sweep, e * mat.shape[1] + f, step))
                else:
                    mat[e] = saved
        if gained < REFINE_TOL:
            step *= 0.5
            if step < 1e-9:
                break
    return mat


def sweep_gains(dist, channel: np.ndarray, kind: str, taken) -> dict[int, float]:
    """`refine_loop`'s `gained` of each sweep that keeps a move, by sweep: the kept
    moves of its `taken` replayed from `channel` and scored in the loop's order."""
    from ckabounds.secrecy import _objective

    mat = channel.copy()
    best = _objective(dist.probs @ mat, dist.parties, kind)
    gains = {}
    for sweep, move, step in taken:
        e, f = divmod(move, mat.shape[1])
        mat[e] = (1.0 - step) * mat[e]
        mat[e, f] += step
        val = _objective(dist.probs @ mat, dist.parties, kind)
        gains[sweep] = gains.get(sweep, 0.0) + (best - val)
        best = val
    return gains


def screen_dense(q: np.ndarray, coeffs: np.ndarray, mat: np.ndarray, e: np.ndarray,
                 rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`secrecy._screen` over the whole (trial, f, r) array: the entries a trial
    leaves alone add p log p - p log p = 0.  Each trial's terms are summed over f,
    then dotted with `coeffs` over r."""
    from ckabounds.secrecy import PROB_FLOOR, _plogp

    marg = (q @ mat).T
    moved = (rows - mat[e])[:, :, np.newaxis] * q.T[e][:, np.newaxis, :]  # (t, f, r)
    after = marg + moved
    near = [np.abs(m - 1.25 * PROB_FLOOR) <= 0.75 * PROB_FLOOR for m in (marg, after)]
    ambiguous = ((near[0] | near[1]) & (moved != 0.0)).any(axis=(1, 2))
    return (_plogp(marg) - _plogp(after)).sum(axis=1) @ coeffs, ambiguous


def screen_sparse(q: np.ndarray, coeffs: np.ndarray, mat: np.ndarray, e: np.ndarray,
                  rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`secrecy._screen` one trial at a time: trial t sets row e[t] of `mat` to rows[t],
    and the entries it moves are gathered for it alone.

    Entry (r, f) moves by delta[t, f] q[r, e[t]], delta = rows - mat[e], so only the
    entries with both factors nonzero are gathered, from q's nonzeros listed column by
    column (column j's at bounds[j]:bounds[j + 1]); every other entry adds exactly 0.
    Each trial's terms are summed in (f, r) order, so the block screen, which adds
    exact zeros besides, must equal this bit for bit."""
    from ckabounds.secrecy import PROB_FLOOR, _plogp

    col, q_rows = np.nonzero(q.T)
    q_vals, bounds = q[q_rows, col], np.searchsorted(col, np.arange(q.shape[1] + 1))
    delta = rows - mat[e]
    moves = delta != 0.0
    t, f = np.nonzero(moves)  # the (trial, column) pairs the trials move
    first = bounds[e[t]]
    n = bounds[e[t] + 1] - first  # entries moved per pair
    # entry i of pair k is nonzero first[k] + i; the pairs' entries lie end to end
    at = np.repeat(first - (np.cumsum(n) - n), n) + np.arange(n.sum())
    r, t, f = q_rows[at], np.repeat(t, n), np.repeat(f, n)
    moved = np.repeat(delta[moves], n) * q_vals[at]
    p = np.empty((2, at.size))  # each entry before and after its move
    p[0] = (q @ mat).ravel()[r * mat.shape[1] + f]
    np.add(p[0], moved, out=p[1])
    near = np.abs(p - 1.25 * PROB_FLOOR) <= 0.75 * PROB_FLOOR
    ambiguous = np.zeros(e.size, dtype=bool)
    ambiguous[t[(near[0] | near[1]) & (moved != 0.0)]] = True
    p = _plogp(p)
    return np.bincount(t, coeffs[r] * (p[0] - p[1]), minlength=e.size), ambiguous


def screened_trials(mats: np.ndarray, plan) -> np.ndarray:
    """The cells (k, c) of a `_screen` block that are trials: those whose row
    plan.rows[k, c] differs from row plan.e[c] of channel mats[plan.ch[c]]."""
    return (plan.rows != mats[plan.ch, plan.e]).any(axis=2)


def screened_batches(dist, kind: str, start: np.ndarray) -> list:
    """Run `_refine` from `start` and return, for every batch it screened and every
    channel of its stack that the batch moves from, the arguments (q, coeffs, mat) of
    its `_screen` call, mat that channel, with its plan's (e, rows), and the result,
    all over that channel's trials only: the block's cells that are its trials, in
    (row, column) order, trial t setting row e[t] of mat to rows[t]."""
    import pytest

    from ckabounds import secrecy

    batches = []
    screen = secrecy._screen

    def recorded(q, coeffs, mats, plan):
        result = screen(q, coeffs, mats, plan)
        trials = screened_trials(mats, plan)
        ch, e = (np.broadcast_to(a, trials.shape) for a in (plan.ch, plan.e))
        for j in np.unique(ch[trials]):
            mine = trials & (ch == j)
            batches.append(((q, coeffs, mats[j].copy(), e[mine], plan.rows[mine]),
                            (result[0][mine], result[1][mine])))
        return result

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(secrecy, "_screen", recorded)
        refine(dist, start, kind)
    return batches


def screen_errors(dist, kind: str, start: np.ndarray) -> list[tuple[float, bool]]:
    """Run `_refine` from `start` and return, for every trial of every batch it
    screened, |best + screened change - `_objective` of the trial| and whether
    the screen called the trial ambiguous."""
    from ckabounds import secrecy

    n = dist.parties
    out = []
    for (_, _, mat, e, new), (change, ambiguous) in screened_batches(dist, kind, start):
        best = secrecy._objective(dist.probs @ mat, n, kind)
        for t in range(e.size):
            trial = mat.copy()
            trial[e[t]] = new[t]
            exact = secrecy._objective(dist.probs @ trial, n, kind)
            out.append((abs(best + change[t] - exact), bool(ambiguous[t])))
    return out


def screen_sum_gaps(dist, kind: str, start: np.ndarray) -> list[tuple[float, float, bool]]:
    """Run `_refine` from `start` and return, for every trial of every batch it
    screened, |screened change - `screen_dense` change|, the two screens' summation
    error bounds added, and whether both flag the trial ambiguous alike.

    Both screens sum the same terms c_r (p log p before - after), of total weight at
    most 2 C log2(a |F|) (C = sum_X |c_X|, a = the parties' table size); the sums
    carry 1 + (|F| - 1) + rows roundings on the dense path and at most
    2 + (|F| rows - 1) on the block one, whose exact-zero terms round nothing."""
    u = 2.0 ** -53
    c_abs = refine_inputs(dist, kind)[2]
    out = []
    for args, (change, ambiguous) in screened_batches(dist, kind, start):
        rows, nf = args[0].shape[0], args[2].shape[1]
        weight = 2.0 * c_abs * math.log2(max(dist.probs.size // dist.eve_alphabet * nf, 2))
        bound = sum(k * u / (1.0 - k * u) for k in (nf + rows, nf * rows + 1)) * weight
        dense, dense_ambiguous = screen_dense(*args)
        out += [(abs(s - d), bound, bool(a == b))
                for s, d, a, b in zip(change, dense, ambiguous, dense_ambiguous)]
    return out


def objective_loop(p: np.ndarray, n_parties: int, kind: str) -> float:
    """`secrecy._objective` one entropy at a time: sum_X c_X H(X, E) group by
    group, each H an `entropy_bits` call on its own marginal."""
    from ckabounds.secrecy import _plan, entropy_bits

    axes, groups, _ = _plan(n_parties, kind)
    h = [entropy_bits(p.sum(axis=a)) for a in axes]
    total = 0.0
    for group in groups:
        part = 0.0
        for i, c in group:
            part += c * h[i]
        total += part
    return total


def best_partition_loop(phi) -> tuple[int, ...]:
    """The set-partition DP over a `_block_values` table `phi`, solving every
    subset, one (subset, block) pair at a time; the blocks come back as masks,
    in order of their lowest symbol.

    best[S] = min of phi[T] + best[S - T] over the blocks T of S holding S's
    lowest symbol, tried in descending submask order; the first strict
    minimum wins.
    """
    phi = np.asarray(phi, dtype=float).tolist()
    ne = len(phi).bit_length()  # phi has 2^ne - 1 entries
    best = [0.0] * (1 << ne)
    choice = [0] * (1 << ne)
    for s in range(1, 1 << ne):
        low = s & -s
        rest = s ^ low
        best_val, best_block = math.inf, s
        t = rest
        for _ in range(1 << rest.bit_count()):
            block = t | low
            val = phi[block - 1] + best[s ^ block]
            if val < best_val:
                best_val, best_block = val, block
            t = (t - 1) & rest
        best[s], choice[s] = best_val, best_block
    blocks, s = [], (1 << ne) - 1
    while s:
        blocks.append(choice[s])
        s ^= choice[s]
    return tuple(blocks)


def partition_layers_loop(ne: int) -> tuple[list[tuple[np.ndarray, ...]], list]:
    """`secrecy._partition_layers` one subset at a time: for each solved S in
    ascending order, its blocks T holding S's lowest symbol, walked down the
    submasks of S - low(S) by t -> (t - 1) & (S - low(S)), as a column."""
    full = (1 << ne) - 1
    layers = [([], [], []) for _ in range(ne)]
    where = [None] * (full + 1)
    for s in [*range(2, full, 2), full]:
        low = s & -s
        rest = s ^ low
        blocks, t = [], rest
        for _ in range(1 << rest.bit_count()):
            blocks.append(t | low)
            t = (t - 1) & rest
        k = s.bit_count() - 1
        subsets, minus_one, remainders = layers[k]
        where[s] = (k, len(subsets))
        subsets.append(s)
        minus_one.append([b - 1 for b in blocks])
        remainders.append([s ^ b for b in blocks])
    return [tuple(np.array(a, dtype=np.intp).T for a in layer) for layer in layers], where


def refine_inputs(dist, kind: str) -> tuple[np.ndarray, np.ndarray, float]:
    """(q, coeffs, c_abs) of `dist` and `kind`: what `minimize_over_channels` hands
    `_refine` for `dist`, its row of the `_run_terms` of a stack of one."""
    from ckabounds import secrecy

    margs = secrecy._subset_marginals(dist.probs[np.newaxis], [kind])
    q, coeffs, c_abs = secrecy._run_terms(margs, dist.parties, kind)
    return q[0], coeffs, c_abs


def block_table(dist, kind: str) -> np.ndarray:
    """The `_block_values` row of `dist` and `kind`, one table and one objective at a
    time: each merged `_plan` term's marginal summed straight from `dist.probs`, its
    `_plogp` sums over the rows taken alone, and subtracted in merged order."""
    from ckabounds import secrecy

    axes, _, merged = secrecy._plan(dist.parties, kind)
    sel = secrecy._selector(dist.eve_alphabet)
    phi = np.zeros(sel.shape[1])
    for i, c in merged:
        marg = dist.probs.sum(axis=axes[i]).reshape(-1, dist.eve_alphabet)
        phi -= c * secrecy._plogp(marg @ sel).sum(axis=0)
    return phi


def best_partition(dist, kind: str) -> tuple[int, ...]:
    """`_best_partition` of `dist` for `kind`, on its `block_table` as a stack of one:
    the block masks, in order of their lowest symbol."""
    from ckabounds import secrecy

    return secrecy._best_partition(block_table(dist, kind)[np.newaxis])[0]


def mask_symbols(masks, ne: int) -> list[list[int]]:
    """The symbols of range(ne) in each block mask, ascending: the blocks as
    `ClassicalChannel.from_partition` takes them."""
    return [[e for e in range(ne) if m >> e & 1] for m in masks]


def start_channel(dist, kind: str) -> np.ndarray:
    """The deterministic start of `dist` and `kind`, a writable copy of the matrix
    `from_partition` builds from its `best_partition` blocks."""
    from ckabounds.secrecy import ClassicalChannel

    ne = dist.eve_alphabet
    blocks = mask_symbols(best_partition(dist, kind), ne)
    return ClassicalChannel.from_partition(blocks, ne).matrix.copy()


def refine(dist, start: np.ndarray, kind: str) -> tuple[np.ndarray, float]:
    """`_refine` from `start`, given what `minimize_over_channels` gives it: the
    `refine_inputs` and the start's exact score (one `_objective` call)."""
    from ckabounds import secrecy

    best = secrecy._objective(dist.probs @ start, dist.parties, kind)
    return secrecy._refine(dist, kind, *refine_inputs(dist, kind), start, best)


def _wrong_predictors() -> dict:
    """Stand-ins for `secrecy._predicted`, by name, each made from a random generator:
    its (sweep offset, move) guesses are moves of the channel, wrong in one way."""
    from ckabounds import secrecy

    true = secrecy._predicted  # taken before any test replaces it

    def reversed_(rng):
        return lambda *args: true(*args)[::-1]

    def shifted(rng):  # each move one earlier
        return lambda *args: [(k, max(move - 1, 0)) for k, move in true(*args)]

    def skipped(rng):  # each guess a sweep later
        return lambda *args: [(k + 1, move) for k, move in true(*args)]

    def always(rng):  # the last kept move again in every sweep, past the sweep cap too
        return lambda kept, last, sweeps: [(k, kept[-1]) for k in range(1, secrecy.LOOK_AHEAD + 1)]

    def random(rng):  # the true guesses up to a random one, then any kept move within
        def guess(kept, last, sweeps):  # three sweeps
            head = true(kept, last, sweeps)[:int(rng.integers(0, secrecy.LOOK_AHEAD))]
            ks = (head[-1][0] if head else 0) + np.sort(
                rng.integers(0, 3, size=secrecy.LOOK_AHEAD - len(head)))
            return head + [(int(k), int(rng.choice(kept + last))) for k in ks]
        return guess

    return {f.__name__.rstrip("_"): f for f in (reversed_, shifted, skipped, always, random)}


WRONG_PREDICTORS = _wrong_predictors()


def joint_table_from_csv(fh) -> tuple[list[str], np.ndarray]:
    """The header and the table of a `distribution_to_csv` file, read with the stdlib
    `csv` module.  Its rows must run row-major over every index tuple of the table
    that their largest indices span, one row each."""
    reader = csv.reader(fh)
    header = next(reader)
    rows = list(reader)
    idx = [tuple(int(v) for v in row[:-1]) for row in rows]
    shape = tuple(max(column) + 1 for column in zip(*idx))
    assert idx == list(itertools.product(*(range(k) for k in shape)))
    return header, np.array([float(row[-1]) for row in rows]).reshape(shape)
