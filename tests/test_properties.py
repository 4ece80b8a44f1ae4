"""Property tests (Hypothesis) for the channel search, S_N and the CSV writer.

Examples are derandomized and few, so runs are repeatable and quick.
"""

import io

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import oracles
from ckabounds import secrecy
from ckabounds.attacks import build_cc_attack, eve_postprocess
from ckabounds.secrecy import (ClassicalChannel, JointDistribution, distribution_to_csv,
                               dual_intrinsic, intrinsic_information, s_n, shannon_cmi)

FEW = settings(derandomize=True, deadline=None, max_examples=8, database=None)
MANY = settings(FEW, max_examples=60)


@st.composite
def joint_distributions(draw):
    """Two or three parties with alphabets 1..3 and an Eve alphabet 1..4."""
    parties = draw(st.lists(st.integers(1, 3), min_size=2, max_size=3))
    shape = tuple(parties) + (draw(st.integers(1, 4)),)
    raw = draw(arrays(np.float64, shape, elements=st.floats(0.0, 1.0)))
    assume(raw.sum() > 1e-6)
    return JointDistribution(raw / raw.sum())


@st.composite
def refine_inputs(draw):
    """A sparse table, an objective and a start channel for `_refine`.

    Two or three parties with alphabets 2..3 and an Eve alphabet 2..5; the
    entries come from a seeded generator, about 40% of them 0, so rows keep
    uneven entry counts.  The start is the DP partition or, so that most
    examples take moves, a random channel with 2..3 outputs.
    """
    parties = draw(st.lists(st.integers(2, 3), min_size=2, max_size=3))
    shape = tuple(parties) + (draw(st.integers(2, 5)),)
    kind = draw(st.sampled_from(["cmi", "sn"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    raw = rng.random(shape) ** 3
    raw[rng.random(shape) < 0.4] = 0.0
    raw.flat[0] += 1e-3
    dist = JointDistribution(raw / raw.sum())
    if draw(st.booleans()):
        return dist, kind, ClassicalChannel.from_partition(oracles.best_partition(dist, kind), shape[-1]).matrix
    start = rng.random((shape[-1], draw(st.integers(2, 3))))
    return dist, kind, start / start.sum(axis=1, keepdims=True)


@settings(FEW, max_examples=20)
@given(inputs=refine_inputs(), sweeps=st.integers(1, 6))
def test_refine_matches_the_one_move_loop(inputs, sweeps):
    dist, kind, start = inputs
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(secrecy, "REFINE_SWEEPS", sweeps)  # both read it at call time
        got, value = oracles.refine(dist, start, kind)
        assert got.tobytes() == oracles.refine_loop(dist, start, kind).tobytes()
        assert value == secrecy._objective(dist.probs @ got, dist.parties, kind)


@settings(FEW, max_examples=20)
@given(inputs=refine_inputs(), sweeps=st.integers(1, 6),
       predictor=st.sampled_from(sorted(oracles.WRONG_PREDICTORS)), seed=st.integers(0, 2 ** 32 - 1))
def test_refine_does_not_depend_on_the_prediction(inputs, sweeps, predictor, seed):
    # wrong guesses of the next kept moves cost screens, never a bit of the channel or
    # the value
    dist, kind, start = inputs
    wrong = oracles.WRONG_PREDICTORS[predictor](np.random.default_rng(seed))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(secrecy, "REFINE_SWEEPS", sweeps)
        mp.setattr(secrecy, "_predicted", wrong)
        got, value = oracles.refine(dist, start, kind)
        assert got.tobytes() == oracles.refine_loop(dist, start, kind).tobytes()
        assert value == secrecy._objective(dist.probs @ got, dist.parties, kind)


@settings(FEW, max_examples=20)
@given(inputs=refine_inputs(), above=st.booleans())
def test_stall_test_replays_the_loop_near_the_tolerance(inputs, above):
    # REFINE_TOL at the loop's gain over its first sweep that keeps a move, or the next
    # float up: the screened gains sum to within their error of it, so the stall test
    # is replayed from the exact scores and reads what the loop reads
    dist, kind, start = inputs
    taken = []
    oracles.refine_loop(dist, start, kind, taken)
    assume(taken)
    tol = oracles.sweep_gains(dist, start, kind, taken)[taken[0][0]]
    tol = np.nextafter(tol, np.inf) if above else tol
    replays, gained = [], secrecy._gained
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(secrecy, "REFINE_TOL", float(tol))
        mp.setattr(secrecy, "_gained", lambda scores: replays.append(scores) or gained(scores))
        got, value = oracles.refine(dist, start, kind)
        assert replays
        assert got.tobytes() == oracles.refine_loop(dist, start, kind).tobytes()
        assert value == secrecy._objective(dist.probs @ got, dist.parties, kind)


@st.composite
def screen_inputs(draw):
    """A sparse table with entries down to 1e-16, an objective and a stochastic start.

    Two to four parties with alphabets 1..3 and an Eve alphabet 1..6.  About
    40% of the entries are 0 and about 20% are set to 10^-16..10^-14, so
    marginal entries land on both sides of PROB_FLOOR; with one chance in
    three a whole Eve symbol is that small, so its moves change the marginals
    only at that scale.  The start has 1..3 outputs and about 30% zero entries.
    """
    parties = draw(st.lists(st.integers(1, 3), min_size=2, max_size=4))
    ne = draw(st.integers(1, 6))
    shape = tuple(parties) + (ne,)
    kind = draw(st.sampled_from(["cmi", "sn"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    raw = rng.random(shape) ** 3
    raw[rng.random(shape) < 0.4] = 0.0
    raw.flat[0] += 1e-3
    raw /= raw.sum()
    tiny = rng.random(shape) < 0.2
    if ne > 1 and draw(st.integers(0, 2)) == 0:
        tiny[..., int(rng.integers(ne))] = True
    raw[tiny] = 10.0 ** rng.uniform(-16, -14, size=int(tiny.sum()))
    dist = JointDistribution(raw / raw.sum())
    start = rng.random((ne, draw(st.integers(1, 3))))
    start[rng.random(start.shape) < 0.3] = 0.0
    start[:, 0] += 1e-3
    return dist, kind, start / start.sum(axis=1, keepdims=True)


@settings(FEW, max_examples=30)
@given(inputs=screen_inputs(), sweeps=st.integers(1, 4))
def test_screen_is_within_the_margin(inputs, sweeps):
    dist, kind, start = inputs
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(secrecy, "REFINE_SWEEPS", sweeps)
        errors = oracles.screen_errors(dist, kind, start)
    assert max((err for err, _ in errors), default=0.0) <= secrecy.MARGIN / 10


@settings(FEW, max_examples=30)
@given(inputs=screen_inputs(), sweeps=st.integers(1, 4))
def test_screen_matches_the_dense_screen(inputs, sweeps):
    dist, kind, start = inputs
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(secrecy, "REFINE_SWEEPS", sweeps)
        gaps = oracles.screen_sum_gaps(dist, kind, start)
        batches = oracles.screened_batches(dist, kind, start)
    assert all(gap <= bound and same_flags for gap, bound, same_flags in gaps)
    for args, (change, ambiguous) in batches:  # and the per-trial screen exactly
        want, want_ambiguous = oracles.screen_sparse(*args)
        assert np.array_equal(change, want) and np.array_equal(ambiguous, want_ambiguous)


@FEW
@given(nu=st.floats(0.0, 0.95))
def test_minimized_never_exceeds_fixed_postprocessing(nu):
    # the fixed map is deterministic, so the exact partition stage already beats it
    attack = build_cc_attack(nu)
    fixed = eve_postprocess(attack)
    assert intrinsic_information(attack.joint)[0] <= shannon_cmi(fixed) + 1e-12
    assert dual_intrinsic(attack.joint)[0] <= s_n(fixed) + 1e-12


@MANY
@given(dist=joint_distributions())
def test_s_n_is_nonnegative(dist):
    assert s_n(dist) >= -1e-12


@MANY
@given(dist=joint_distributions())
def test_distribution_survives_csv_round_trip(dist):
    buf = io.StringIO()
    distribution_to_csv(dist, buf)
    _, back = oracles.joint_table_from_csv(io.StringIO(buf.getvalue()))
    assert back.shape == dist.probs.shape
    assert np.abs(back - dist.probs).max() < 1e-14
