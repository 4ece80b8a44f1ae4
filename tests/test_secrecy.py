import functools
import io
import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest

from ckabounds import bounds, secrecy
from ckabounds.attacks import build_cc_attack
from ckabounds.bounds import (GRID_CHUNK, compute_curves, default_grid, noise_grid,
                              write_curves_csv)
from ckabounds.partitions import partitions_as_masks
from ckabounds.secrecy import (EXHAUSTIVE_LIMIT, PROB_FLOOR, ClassicalChannel,
                               JointDistribution, SearchBudget, _best_partition,
                               _block_values, _objective, _partition_layers,
                               apply_channel, continuity_envelope,
                               distribution_to_csv, dual_intrinsic, g,
                               intrinsic_information, minimize_over_channels, s_n,
                               shannon_cmi, total_correlation, unit_interval)
import oracles


def random_joint(rng, alphabets, eve):
    raw = rng.random(tuple(alphabets) + (eve,)) ** 2 + 1e-9
    return JointDistribution(raw / raw.sum())


def ideal_key_distribution(n=3, key=2, eve=2):
    """Uniform symbol copied to every party, adversary independent and uniform."""
    probs = np.zeros((key,) * n + (eve,))
    for k in range(key):
        for e in range(eve):
            probs[(k,) * n + (e,)] = 1.0 / (key * eve)
    return JointDistribution(probs)


class TestValidation:
    def test_rejects_negative(self):
        probs = np.full((2, 2, 2), 0.125)
        probs[0, 0, 0] = -0.1
        probs[1, 1, 1] = 0.35
        with pytest.raises(ValueError, match="negative"):
            JointDistribution(probs)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="sum"):
            JointDistribution(np.full((2, 2, 2), 0.2))

    def test_rejects_entry_above_one(self):
        # within the 1e-9 total, but beyond the 1e-12 window the other tables use
        probs = np.zeros((2, 2, 2))
        probs[0, 0, 0] = 1.0 + 5e-10
        with pytest.raises(ValueError, match="above 1"):
            JointDistribution(probs)
        probs[0, 0, 0] = 1.0 + 5e-13
        assert JointDistribution(probs).probs[0, 0, 0] == 1.0

    def test_rejects_non_finite_entry(self):
        probs = np.full((2, 2, 2), 0.125)
        probs[0, 0, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            JointDistribution(probs)

    def test_rejects_empty_axis(self):
        for alphabets, eve in (((2, 0), 1), ((2, 2), 0)):
            with pytest.raises(ValueError, match="^probabilities need every axis of length "
                                                 "at least 1"):
                JointDistribution(np.zeros(alphabets + (eve,)))
        for shape in ((0, 3), (3, 0)):
            with pytest.raises(ValueError, match="^channel rows need every axis of length "
                                                 "at least 1"):
                ClassicalChannel(np.zeros(shape))

    def test_rejects_fewer_than_three_axes(self):
        for probs in (np.full((2, 2), 0.25), np.ones(1), np.float64(1.0)):
            with pytest.raises(ValueError, match="^need at least two party axes and Eve's "
                                                 "axis") as err:
                JointDistribution(probs)
            assert "\n" not in str(err.value)

    def test_alphabets_are_read_from_the_shape(self):
        dist = JointDistribution(np.full((2, 3, 4), 1.0 / 24.0))
        assert (dist.parties, dist.eve_alphabet) == (2, 4)

    def test_table_needs_its_outcome_axes(self):
        with pytest.raises(ValueError, match="^rows need every axis of length at least 1 and "
                                             "at least 2 axes, got shape \\(2,\\)$"):
            secrecy.probability_table(np.full(2, 0.5), 2, 1e-9, "rows")

    def test_channel_rejects_non_finite_entry(self):
        with pytest.raises(ValueError, match="non-finite"):
            ClassicalChannel(np.array([[np.nan, 1.0], [0.5, 0.5]]))

    def test_channel_row_sums(self):
        with pytest.raises(ValueError, match="rows"):
            ClassicalChannel(np.array([[0.5, 0.4], [0.5, 0.5]]))

    def test_partition_channel(self):
        ch = ClassicalChannel.from_partition([[0, 2], [1]], 3)
        assert ch.matrix.shape[1] == 2
        assert ch.matrix[2, 0] == 1.0
        with pytest.raises(ValueError, match="cover"):
            ClassicalChannel.from_partition([[0], [1]], 3)
        with pytest.raises(ValueError, match="disjoint"):
            ClassicalChannel.from_partition([[0, 1], [1, 2]], 3)
        for blocks, bad in (([[0], [5]], 5), ([[0], [-1]], -1)):
            with pytest.raises(ValueError, match=rf"^symbol must lie in 0\.\.1, got {bad}$"):
                ClassicalChannel.from_partition(blocks, 2)
        with pytest.raises(ValueError, match="^symbol must be an integer, got 1.0$"):
            ClassicalChannel.from_partition([[0], [1.0]], 2)
        with pytest.raises(ValueError, match="^in_alphabet must be an integer, got 2.5$"):
            ClassicalChannel.from_partition([[0], [1]], 2.5)
        # numpy's "negative dimensions are not allowed"
        with pytest.raises(ValueError, match="^in_alphabet must be at least 1, got -1$"):
            ClassicalChannel.from_partition([[0]], -1)

    def test_partition_symbols_are_read_as_indices(self):
        # True is symbol 1, as Behavior.conditional reads it; numpy's boolean
        # indexing made it a row-sum error
        expect = ClassicalChannel.from_partition([[0], [1]], 2).matrix
        for blocks in ([[0], [True]], [[np.int64(0)], [np.uint8(1)]]):
            assert np.array_equal(ClassicalChannel.from_partition(blocks, 2).matrix, expect)


class TestShannonCmi:
    def test_independent_bits_and_eve(self):
        probs = np.full((2, 2, 2, 2), 1.0 / 16.0)
        dist = JointDistribution(probs)
        assert abs(shannon_cmi(dist)) < 1e-12

    def test_ghz_measurement_distribution(self):
        probs = np.zeros((2, 2, 2, 1))
        probs[0, 0, 0, 0] = probs[1, 1, 1, 0] = 0.5
        dist = JointDistribution(probs)
        assert shannon_cmi(dist) == pytest.approx(2.0, abs=1e-12)

    def test_eve_copy_removes_correlation(self):
        probs = np.zeros((2, 2, 2))
        probs[0, 0, 0] = probs[1, 1, 1] = 0.5
        dist = JointDistribution(probs)
        assert abs(shannon_cmi(dist)) < 1e-12

    def test_matches_oracle_on_randoms(self, rng):
        for _ in range(10):
            dist = random_joint(rng, (2, 3, 2), 3)
            assert shannon_cmi(dist) == pytest.approx(
                oracles.cmi_of_table(dist.probs), abs=1e-11)
            assert shannon_cmi(dist) >= -1e-9

    def test_permutation_invariance(self, rng):
        dist = random_joint(rng, (2, 2, 2), 3)
        for perm in itertools.permutations(range(3)):
            probs = np.transpose(dist.probs, perm + (3,))
            assert shannon_cmi(JointDistribution(probs)) == pytest.approx(
                shannon_cmi(dist), abs=1e-11)


class TestSn:
    def test_ideal_key_distribution(self):
        assert s_n(ideal_key_distribution()) == pytest.approx(1.0, abs=1e-12)

    def test_independent_parties(self, rng):
        marginals = [rng.random(2) + 0.1 for _ in range(3)]
        probs = np.einsum("a,b,c->abc", *[m / m.sum() for m in marginals])[..., None]
        dist = JointDistribution(probs)
        assert abs(s_n(dist)) < 1e-12

    def test_duality_identity(self, rng):
        # s_n + total correlation = sum_i I(A_i : rest), checked against
        # an entropy-by-entropy oracle on 60 random trivial-Eve distributions
        worst = 0.0
        for _ in range(60):
            alphabets = tuple(int(a) for a in rng.integers(2, 4, size=3))
            dist = random_joint(rng, alphabets, 1)
            lhs = s_n(dist) + total_correlation(dist)
            p = dist.probs[..., 0]
            rhs = 0.0
            for i in range(3):
                rest = tuple(j for j in range(3) if j != i)
                rhs += (oracles.entropy(p.sum(axis=rest)) + oracles.entropy(p.sum(axis=i))
                        - oracles.entropy(p))
            worst = max(worst, abs(lhs - rhs))
        assert worst < 1e-9

    def test_duality_holds_conditionally_too(self, rng):
        # the same identity with every term conditioned on a nontrivial Eve
        dist = random_joint(rng, (2, 2, 2), 3)
        p = dist.probs
        h_e = oracles.entropy(p.sum(axis=(0, 1, 2)))
        lhs = s_n(dist) + shannon_cmi(dist)
        rhs = 0.0
        for i in range(3):
            rest = tuple(j for j in range(3) if j != i)
            rhs += (oracles.entropy(p.sum(axis=rest)) - h_e
                    + oracles.entropy(p.sum(axis=i)) - h_e
                    - (oracles.entropy(p) - h_e))
        assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_value_is_independent_of_party_order(self, rng):
        dist = random_joint(rng, (2, 3, 2), 2)
        for perm in itertools.permutations(range(3)):
            probs = np.transpose(dist.probs, perm + (3,))
            shuffled = JointDistribution(probs)
            assert s_n(shuffled) == pytest.approx(oracles.sn_of_table(probs), abs=1e-11)
            assert s_n(shuffled) == pytest.approx(s_n(dist), abs=1e-12)

    def test_nonnegative(self, rng):
        for _ in range(10):
            assert s_n(random_joint(rng, (2, 2, 2), 2)) >= -1e-9


def floor_heavy_table(rng, shape, mode):
    """A nonnegative table of `shape`, not normalized, whose entries sit on the
    PROB_FLOOR cut in one of several ways: 0 random, 1 with exact zeros, 2 with
    entries at PROB_FLOOR, 3 just above it, 4 all at or below it (the table's own
    entropy term is empty), 5 all zero (every term is)."""
    p = rng.random(shape) ** 3 + 1e-300
    hit = rng.random(shape) < 0.5
    hit.flat[0] = False  # a normalized table keeps one entry it was drawn with
    if mode == 1:
        p[hit] = 0.0
    elif mode == 2:
        p[hit] = PROB_FLOOR
    elif mode == 3:
        p[hit] = np.nextafter(PROB_FLOOR, 1.0)
    elif mode == 4:
        p = np.where(hit, PROB_FLOOR, 0.0)
    elif mode == 5:
        p = np.zeros(shape)
    return p / p.sum() if mode < 4 else p


class TestObjective:
    """`_objectives` takes p log2 p of all its marginals, for a stack of tables, in one
    pass; it must give the bits of scoring one entropy at a time, `oracles.objective_loop`,
    and each table and kind the bits `_objective`, its one-table, one-kind case, gives."""

    def test_matches_loop_on_every_table_scored_on_bench_grids(self, monkeypatch):
        objectives, scored = secrecy._objectives, []

        def recorded(p, n_parties, kinds):
            values = objectives(p, n_parties, kinds)
            for table, row in zip(p, values):  # the stack, split per table
                scored.extend((table.copy(), n_parties, kind, value)
                              for kind, value in zip(kinds, row))
            return values

        # `_objective` is `_objectives` of a stack of one and one kind, so every exact
        # score passes here
        monkeypatch.setattr(secrecy, "_objectives", recorded)
        grid = oracles.bench_grids()
        for nu in grid:
            attack = build_cc_attack(nu)
            bounds._run_values([attack], True)
            bounds._run_values([attack], False)
        assert len(scored) > 4 * len(grid)  # the fixed curves, the starts and confirmations
        # serial curves score the starts of each run of GRID_CHUNK points as stacks
        for run in (default_grid(), noise_grid(0.3, 0.9, 0.025)):
            compute_curves(run, minimize=True)
        for p, n_parties, kind, value in scored:
            assert value.hex() == oracles.objective_loop(p, n_parties, kind).hex()

    def test_kinds_scored_together_are_each_scored_alone(self, rng):
        # one pass over the union of the kinds' marginals, taken once for a stack of 1-6
        # tables: each value is the bits its table and kind get alone, whatever the other
        # tables, their floor entries, the order of the kinds or a repeat among them.
        # Floor-heavy tables mostly give a marginal's runs, one a table, different
        # lengths, summed run by run; tables of one support give them one length, summed
        # as the rows of one 2-D reduce, with none, under 8, 8-128 and over 128 terms
        def check(stack, n):
            for kinds in (("cmi", "sn"), ("sn", "cmi"), ("sn",), ("cmi", "sn", "cmi")):
                got = secrecy._objectives(stack, n, kinds)
                assert len(got) == len(stack)
                for table, row in zip(stack, got):
                    assert all(type(v) is float for v in row)
                    assert [v.hex() for v in row] == \
                        [_objective(table, n, kind).hex() for kind in kinds]

        for i in range(300):  # floor-heavy stacks of 1-5 tables, |E| 1-10
            n = 2 + i % 3
            shape = tuple(int(a) for a in rng.integers(1, 4, size=n)) + (1 + i % 10,)
            check(np.stack([floor_heavy_table(rng, shape, int(mode))
                            for mode in rng.integers(0, 6, size=1 + i % 5)]), n)
        lengths = set()  # the run lengths of the one-support stacks
        for i in range(300):  # stacks of 2-6 tables, |E| 1-10 or 11-40
            n = 2 + i % 3
            eve = int(rng.integers(1, 11) if i % 4 < 2 else rng.integers(11, 41))
            shape = tuple(int(a) for a in rng.integers(1, 4, size=n)) + (eve,)
            size = int(rng.integers(2, 7))
            if i % 2:  # one zero pattern, every other entry far above PROB_FLOOR
                zero = rng.random(shape) < (1.0 if i % 7 == 0 else rng.random())
                stack = np.where(zero, 0.0, rng.random((size,) + shape) + 0.1) / (1.1 * zero.size)
                axes = secrecy._plans(stack.shape, n, KINDS)[0]
                lengths.update(int((stack[0].sum(axis=tuple(j - 1 for j in a)) > PROB_FLOOR).sum())
                               for a in axes)
            else:
                stack = np.stack([floor_heavy_table(rng, shape, int(mode))
                                  for mode in rng.integers(0, 6, size=size)])
            check(stack, n)
        # none, under 8, 8-128 and over 128 terms
        assert {(length > 0) + (length >= 8) + (length > 128) for length in lengths} == {0, 1, 2, 3}

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_one_kind_scores_its_own_plan(self, n):
        # `_objective`'s marginals and groups are its `_plan`'s, its axes shifted past
        # the stack's, so its cost is unchanged; both kinds together take each subset once
        shape = (1,) + (2,) * n + (3,)

        def shifted(axes):
            return tuple(tuple(j + 1 for j in a) for a in axes)

        for kind in ("cmi", "sn"):
            axes, (groups,), _ = secrecy._plans(shape, n, (kind,))
            plan_axes, plan_groups, _ = secrecy._plan(n, kind)
            assert (axes, groups) == (shifted(plan_axes), plan_groups)
        axes, groups, ends = secrecy._plans(shape, n, ("cmi", "sn"))
        assert ends[-1] == sum(3 * 2 ** (n - len(a)) for a in axes)
        both = {*shifted(secrecy._plan(n, "cmi")[0]), *shifted(secrecy._plan(n, "sn")[0])}
        assert len(axes) == len(both) and set(axes) == both
        for kind, kind_groups in zip(("cmi", "sn"), groups):
            plan_axes, plan_groups, _ = secrecy._plan(n, kind)
            plan_axes = shifted(plan_axes)
            assert [[(axes[i], c) for i, c in g] for g in kind_groups] == \
                [[(plan_axes[i], c) for i, c in g] for g in plan_groups]

    def test_matches_loop_on_random_tables(self, rng):
        for i in range(600):
            n = 2 + i % 3
            shape = tuple(int(a) for a in rng.integers(1, 4, size=n)) + (1 + i % 10,)
            p = floor_heavy_table(rng, shape, i % 6)
            for kind in ("cmi", "sn"):
                got = _objective(p, n, kind)
                assert type(got) is float
                assert got.hex() == oracles.objective_loop(p, n, kind).hex()

    def test_log2_terms_do_not_depend_on_position(self, rng):
        # `_objective` and `_plogp` take log2(x) * x over arrays that place an
        # entry elsewhere than one entropy at a time would: at every length and
        # offset (SIMD body and tail lanes alike) each entry must give the bits it
        # gives alone, and x * log2(x) the same bits
        x = np.concatenate([rng.random(40) ** 8, rng.random(40),
                            [PROB_FLOOR * 1.5, 0.5, 1.0, 2.0 ** -1000]])
        rng.shuffle(x)
        alone = np.array([(np.log2(x[i:i + 1]) * x[i:i + 1])[0] for i in range(x.size)])
        for length in range(1, 71):
            for offset in range(x.size - length + 1):
                v = x[offset:offset + length]
                want = alone[offset:offset + length].view(np.uint64)
                assert np.array_equal((np.log2(v) * v).view(np.uint64), want)
                assert np.array_equal((v * np.log2(v)).view(np.uint64), want)


class TestApplyChannel:
    def test_identity_channel(self, rng):
        dist = random_joint(rng, (2, 2), 3)
        out = apply_channel(dist, ClassicalChannel(np.eye(3)))
        assert np.abs(out.probs - dist.probs).max() < 1e-15

    def test_constant_channel_makes_cmi_unconditional(self, rng):
        dist = random_joint(rng, (2, 2, 2), 4)
        const = ClassicalChannel(np.tile([1.0, 0.0], (4, 1)))
        out = apply_channel(dist, const)
        assert out.probs[..., 1].sum() == pytest.approx(0.0, abs=1e-15)
        assert shannon_cmi(out) == pytest.approx(total_correlation(dist), abs=1e-10)

    def test_random_channel_preserves_normalization(self, rng):
        dist = random_joint(rng, (2, 2), 5)
        raw = rng.random((5, 4)) + 0.01
        ch = ClassicalChannel(raw / raw.sum(axis=1, keepdims=True))
        assert apply_channel(dist, ch).probs.sum() == pytest.approx(1.0, abs=1e-10)

    def test_alphabet_mismatch_rejected(self, rng):
        with pytest.raises(ValueError, match="alphabet"):
            apply_channel(random_joint(rng, (2, 2), 3), ClassicalChannel(np.eye(4)))


OBJECTIVES = {"cmi": shannon_cmi, "sn": s_n}


class TestBestPartition:
    """The subset DP of the deterministic search against every partition."""

    @pytest.mark.parametrize("kind", ["cmi", "sn"])
    def test_matches_enumeration_on_random_tables(self, rng, kind):
        objective = OBJECTIVES[kind]
        unique = 0
        for ne in range(1, 8):
            dist = random_joint(rng, (2, 3, 2), ne)
            got = oracles.best_partition(dist, kind)
            blocks = oracles.mask_symbols(got, ne)
            assert sorted(e for b in blocks for e in b) == list(range(ne))
            assert [b[0] for b in blocks] == sorted(b[0] for b in blocks)
            found = objective(apply_channel(dist, ClassicalChannel.from_partition(blocks, ne)))
            brute = min(objective(apply_channel(
                dist, ClassicalChannel.from_partition(oracles.mask_symbols(masks, ne), ne)))
                for masks in partitions_as_masks(ne))
            assert found == pytest.approx(brute, abs=1e-12)
            # a minimum of the block sums that is unique by more than 1e-9 is the DP's own
            # tuple, in the brute force's form: blocks ordered by lowest symbol
            phi = oracles.block_table(dist, kind)
            sums = sorted((sum(phi[m - 1] for m in masks), masks)
                          for masks in partitions_as_masks(ne))
            if len(sums) == 1 or sums[1][0] - sums[0][0] > 1e-9:
                assert got == sums[0][1]
                unique += 1
        assert unique >= 5  # random tables seldom tie, so the check is not vacuous

    @pytest.mark.parametrize("kind", ["cmi", "sn"])
    @pytest.mark.parametrize("nu", [0.05, 0.525, 0.7])  # 0.525: two partitions tie for cmi
    def test_matches_enumeration_on_the_attack(self, kind, nu):
        dist = build_cc_attack(nu).joint
        phi = oracles.block_table(dist, kind)
        [blocks] = _best_partition(phi[np.newaxis])
        value = sum(phi[m - 1] for m in blocks)
        brute = min(sum(phi[m - 1] for m in masks) for masks in partitions_as_masks(9))
        assert value == pytest.approx(brute, abs=1e-12)
        channel = ClassicalChannel.from_partition(oracles.mask_symbols(blocks, 9), 9)
        assert OBJECTIVES[kind](apply_channel(dist, channel)) == pytest.approx(value, abs=1e-12)

    @pytest.mark.parametrize("ne", range(1, EXHAUSTIVE_LIMIT + 1))
    def test_layers_solve_each_read_subset_once(self, ne):
        # the full set and every nonempty subset without symbol 0, each once, by
        # popcount; each remainder S - T is 0 or solved in an earlier layer, and
        # the blocks T, a column per S, are those holding S's lowest symbol,
        # descending in T - low(S)
        layers, where = _partition_layers(ne)
        full = (1 << ne) - 1
        solved, seen = {0}, []
        for k, (subsets, minus_one, remainders) in enumerate(layers):
            assert minus_one.shape == remainders.shape == (1 << k, subsets.size)
            for i, s in enumerate(subsets.tolist()):
                assert s.bit_count() == k + 1 and where[s] == (k, i)
                low = s & -s
                rest = s ^ low
                want = sorted((t | low for t in range(rest + 1) if t & rest == t), reverse=True)
                assert (minus_one[:, i] + 1).tolist() == want
                assert (remainders[:, i] ^ (minus_one[:, i] + 1)).tolist() == [s] * len(want)
                assert set(remainders[:, i].tolist()) <= solved
            solved |= set(subsets.tolist())
            seen += subsets.tolist()
            assert not any(a.flags.writeable for a in (subsets, minus_one, remainders))
        assert sorted(seen) == sorted({*range(2, full, 2), full})
        assert len(seen) == len(set(seen))
        assert [s for s, w in enumerate(where) if w is not None] == sorted(seen)
        pairs = sum(m.size for _, m, _ in layers)
        assert pairs == (3 ** (ne - 1) - 1) // 2 + 2 ** (ne - 1)

    @pytest.mark.parametrize("ne", range(1, EXHAUSTIVE_LIMIT + 1))
    def test_layers_match_the_submask_loop(self, ne):
        # the DP's ties go to the first minimal block, so the order must match too
        layers, where = _partition_layers(ne)
        want_layers, want_where = oracles.partition_layers_loop(ne)
        assert list(where) == want_where
        assert len(layers) == len(want_layers)
        for got, want in zip(layers, want_layers):
            for a, b in zip(got, want):
                assert a.dtype == b.dtype and np.array_equal(a, b)

    @pytest.mark.parametrize("ne", range(1, EXHAUSTIVE_LIMIT + 1))
    def test_matches_loop_on_tie_heavy_tables(self, rng, ne):
        # block values from a few small integers: many partitions tie exactly,
        # so the first minimal block of each subset decides the partition
        for top in (1, 2, 5):
            phi = rng.integers(-top, top + 1, size=(1 << ne) - 1).astype(float)
            assert _best_partition(phi[np.newaxis]) == [oracles.best_partition_loop(phi)]
        # all tie: the largest block, tried first, is kept
        assert _best_partition(np.zeros((1, (1 << ne) - 1))) == [((1 << ne) - 1,)]

    @pytest.mark.parametrize("ne", range(1, EXHAUSTIVE_LIMIT + 1))
    def test_stacks_of_tie_heavy_rows_are_the_loop_in_any_order(self, rng, ne):
        # the forward pass takes whole (mask, row) rows of phi and best: each row must
        # still be its own loop, ties to the first minimal block, whatever the other rows
        rows = [rng.integers(-top, top + 1, size=(1 << ne) - 1) for top in (1, 1, 2, 5)]
        stack = np.array(rows + [np.zeros((1 << ne) - 1, dtype=int)], dtype=float)
        got = _best_partition(stack)
        assert got == [oracles.best_partition_loop(row) for row in stack]
        for _ in range(2):
            order = rng.permutation(len(stack))
            assert _best_partition(stack[order]) == [got[i] for i in order]

    @pytest.mark.parametrize("ne", range(3, EXHAUSTIVE_LIMIT + 1))
    def test_rows_standing_at_different_subsets_are_each_the_loop(self, rng, ne):
        # the read-back takes the rows standing at one subset together: rows that part
        # ways, stand at one subset in a different order, or end at different steps
        # must each still be their own loop, ties to the first minimal block
        size = np.array([(m + 1).bit_count() for m in range((1 << ne) - 1)])
        singletons, whole, pairs = size ** 2, -size ** 2, (size - 2) ** 2
        ties = [rng.integers(-top, top + 1, size=(1 << ne) - 1) for top in (1, 1, 2)]
        rows = [singletons, ties[0], whole, pairs, singletons, ties[1], pairs, ties[2],
                singletons, ties[0]]
        for stack in (np.array(rows, dtype=float), np.array(rows[::-1], dtype=float)):
            got = _best_partition(stack)
            want = [oracles.best_partition_loop(row) for row in stack]
            assert got == want
            # after the first block, the rows stand at several subsets, one of them
            # holding some rows but not all, and the whole-set rows have ended
            standing = [(1 << ne) - 1 - blocks[0] for blocks in want]
            by_subset = {s: standing.count(s) for s in standing if s}
            assert len(by_subset) > 1 and max(by_subset.values()) > 1
            assert 0 in standing

    def test_rows_that_meet_again_keep_their_own_blocks(self):
        # rows that part at the first block all stand at {3, 4} after the second, where
        # they take different blocks; interleaved, they arrive there out of row order
        ne = 5
        apart = [(0b1, 0b110, 0b1000, 0b10000), (0b101, 0b10, 0b11000)]
        rows = []
        for partition in apart:
            row = np.ones((1 << ne) - 1)
            row[np.subtract(partition, 1)] = 0.0
            rows.append(row)
        stack = np.array([rows[0], rows[1], rows[0], rows[1], rows[1]])
        assert _best_partition(stack) == [apart[0], apart[1], apart[0], apart[1], apart[1]]


KINDS = ("cmi", "sn")


def stacked_phi(dists, kinds=KINDS):
    """The `_block_values` of `dists` stacked as one table, phi[j, k, mask - 1]."""
    p = np.stack([dist.probs for dist in dists])
    return _block_values(secrecy._subset_marginals(p, kinds), dists[0].parties, kinds)


class TestStackedStage:
    """The exact stage takes a stack of tables and objectives at once.  Each row must
    be, bit for bit, what its table and objective give alone, whatever the other rows."""

    @pytest.mark.parametrize("ne", range(1, 8))
    def test_block_values_are_the_single_table(self, rng, ne):
        for _ in range(4):
            alphabets, _ = random_shape(rng)
            dists = [sparse_joint(rng, alphabets, ne) for _ in range(int(rng.integers(1, 6)))]
            for kinds in (KINDS, ("sn", "cmi"), ("sn",)):
                phi = stacked_phi(dists, kinds)
                assert phi.shape == (len(dists), len(kinds), (1 << ne) - 1)
                for j, dist in enumerate(dists):
                    for k, kind in enumerate(kinds):
                        assert np.array_equal(phi[j, k], oracles.block_table(dist, kind))

    def test_block_values_are_the_single_table_on_bench_grids(self):
        for grid in (default_grid(), noise_grid(0.3, 0.9, 0.025)):
            dists = [build_cc_attack(nu).joint for nu in grid]
            for size in (1, GRID_CHUNK, len(dists)):
                for i in range(0, len(dists), size):
                    phi = stacked_phi(dists[i:i + size])
                    for j, dist in enumerate(dists[i:i + size]):
                        for k, kind in enumerate(KINDS):
                            assert np.array_equal(phi[j, k], oracles.block_table(dist, kind))

    def test_batched_rows_are_the_loop(self, rng):
        # one stack of both objectives' rows on both bench grids, with nu = 0.525's cmi tie,
        # all-zero rows and tie-heavy integer rows: the first minimal block decides each row
        grid = oracles.bench_grids()
        assert 0.525 in grid
        phi = stacked_phi([build_cc_attack(nu).joint for nu in grid]).reshape(-1, 511)
        ties = rng.integers(-2, 3, size=(8, 511)).astype(float)
        stack = np.concatenate([phi[:8], np.zeros((2, 511)), ties, phi[8:], np.zeros((1, 511))])
        got = _best_partition(stack)
        assert got == [oracles.best_partition_loop(row) for row in stack]
        assert got[8] == got[9] == got[-1] == (511,)
        for ne in range(1, EXHAUSTIVE_LIMIT):
            rows = rng.integers(-1, 2, size=(5, (1 << ne) - 1)).astype(float)
            rows[2] = 0.0
            assert _best_partition(rows) == [oracles.best_partition_loop(row) for row in rows]

    def test_permuting_the_stack_permutes_the_results(self, rng):
        # 0: one block, no descent; 0.05 and 0.125: mimicry; 0.45 to 0.7: moves kept
        dists = [build_cc_attack(nu).joint for nu in (0.0, 0.05, 0.125, 0.45, 0.525, 0.7)]
        perm = rng.permutation(len(dists))
        assert np.array_equal(stacked_phi([dists[i] for i in perm]), stacked_phi(dists)[perm])
        rows = stacked_phi(dists).reshape(-1, 511)
        order = rng.permutation(len(rows))
        assert _best_partition(rows[order]) == [_best_partition(rows)[i] for i in order]
        found = minimize_over_channels(dists, KINDS)
        want = [found[2 * i + k] for i in perm for k in range(2)]
        shuffled = [dists[i] for i in perm]

        def bits(pairs):
            return [(value.hex(), channel.matrix.tobytes()) for value, channel in pairs]

        assert bits(minimize_over_channels(shuffled, KINDS)) == bits(want)
        assert bits(minimize_over_channels(shuffled, ("sn",))) == bits(want[1::2])


def sparse_joint(rng, alphabets, eve):
    """A random joint with about 40% zero entries, so rows keep uneven entry counts."""
    raw = rng.random(tuple(alphabets) + (eve,)) ** 3
    raw[rng.random(raw.shape) < 0.4] = 0.0
    raw.flat[0] += 1e-3
    return JointDistribution(raw / raw.sum())


def random_shape(rng):
    n = int(rng.integers(2, 5))
    return tuple(int(a) for a in rng.integers(1, 4, size=n)), int(rng.integers(1, 7))


dp_start = oracles.start_channel


# About 14 points from each benchmark grid: curves_min's default grid, and
# curves_min_high_noise's 0.3..0.9 grid (step 0.025), where refinement takes
# moves in 14 of the 50 searches: at 0.45 to 0.575 (both objectives) and at
# 0.6 and 0.625 (cmi).
BENCH_POINTS = default_grid()[::5] + [0.3, 0.35, 0.425, 0.45, 0.475, 0.525, 0.55, 0.6,
                                      0.625, 0.65, 0.7, 0.8, 0.85, 0.9]


def loop_and_first_move(dist, start, kind, monkeypatch):
    """The oracle loop's result, and the sweep of the first move it takes or
    None: the least k such that the loop capped at k + 1 sweeps moves."""
    want = oracles.refine_loop(dist, start, kind)
    if np.array_equal(want, start):
        return want, None
    k = 0
    while True:
        monkeypatch.setattr(secrecy, "REFINE_SWEEPS", k + 1)
        if not np.array_equal(oracles.refine_loop(dist, start, kind), start):
            monkeypatch.undo()
            return want, k
        k += 1


def count_scores(monkeypatch):
    """Wrap `secrecy._screen` and `secrecy._objective`: the first returned list
    gets the number of trials of each screened batch (the cells of its block that
    are trials), the second one entry per exact score."""
    rows, exact = [], []
    screen, objective = secrecy._screen, secrecy._objective

    def screened(q, coeffs, mats, plan):
        rows.append(int(oracles.screened_trials(mats, plan).sum()))
        return screen(q, coeffs, mats, plan)

    def scored(p, n_parties, kind):
        exact.append(kind)
        return objective(p, n_parties, kind)

    monkeypatch.setattr(secrecy, "_screen", screened)
    monkeypatch.setattr(secrecy, "_objective", scored)
    return rows, exact


# (branch, nu, kind, sweep cap): a search whose kept moves force that branch
LOOK_AHEAD_CASES = [
    ("look-ahead at the same step", 0.55, "cmi", 2),
    ("look-ahead at a halved step", 0.5, "cmi", 21),
    ("nothing left ahead", 0.625, "cmi", 2),
    ("ladder after a look-ahead", 0.55, "cmi", 5),
    ("look-ahead cut by the cap", 0.575, "sn", 3),
]


def look_ahead_branches(taken, moves, sweeps):
    """The branches of `_refine`'s batching that the oracle's kept moves
    (sweep, move, step) force, with `moves` moves a sweep and `sweeps` the cap.

    The batch after a kept move a holds the rest of a's sweep and the next
    sweep, so where the next kept move b lies tells which part found it.
    """
    found = set()
    for (s1, m1, t1), (s2, _, t2) in zip(taken, taken[1:]):
        if s2 == s1 + 1 and t2 == t1 and m1 + 1 < moves:
            found.add("look-ahead at the same step")  # its moves from m1 + 1 on were dropped
        if s2 == s1 + 1 and t2 == t1 / 2:
            found.add("look-ahead at a halved step")
        if m1 == moves - 1:
            found.add("nothing left ahead")
        if s2 >= s1 + 2:
            found.add("ladder after a look-ahead")
    if taken and taken[-1][0] == sweeps - 1:
        found.add("look-ahead cut by the cap")
    return found


@functools.lru_cache(maxsize=None)
def refine_loop_of(nu: float, kind: str) -> np.ndarray:
    """The one-move loop's channel from the DP start of the attack at `nu`."""
    dist = build_cc_attack(nu).joint
    return oracles.refine_loop(dist, dp_start(dist, kind), kind)


class TestBatchedSearch:
    """The screen, the batched refinement and the DP against the one-at-a-time loops."""

    @pytest.mark.parametrize("nu", BENCH_POINTS)
    def test_screen_is_within_the_margin_on_bench_grids(self, nu):
        dist = build_cc_attack(nu).joint
        for kind in ("cmi", "sn"):
            errors = [err for err, _ in oracles.screen_errors(dist, kind, dp_start(dist, kind))]
            assert max(errors, default=0.0) <= secrecy.MARGIN / 10  # nf = 1: no moves

    @pytest.mark.parametrize("nu", BENCH_POINTS)
    def test_screen_matches_the_dense_screen_on_bench_grids(self, nu):
        dist = build_cc_attack(nu).joint
        for kind in ("cmi", "sn"):
            for gap, bound, same_flags in oracles.screen_sum_gaps(dist, kind, dp_start(dist, kind)):
                assert gap <= bound and same_flags

    @pytest.mark.parametrize("nu", BENCH_POINTS)
    def test_screen_is_the_sparse_screen_on_bench_grids(self, nu):
        # the block screen sums each trial's terms as the per-trial screen does
        dist = build_cc_attack(nu).joint
        for kind in ("cmi", "sn"):
            for args, (change, ambiguous) in oracles.screened_batches(dist, kind, dp_start(dist, kind)):
                q, coeffs, mat, e, rows = args
                want, want_ambiguous = oracles.screen_sparse(q, coeffs, mat, e, rows)
                assert np.array_equal(change, want) and np.array_equal(ambiguous, want_ambiguous)

    def test_screen_matches_the_dense_screen_near_the_floor(self, rng):
        # columns of q at 1e-17..1e-13 put marginal entries on both sides of the
        # PROB_FLOOR band before and after a move, so both tests of `near` decide;
        # each block puts its columns' moves at 1..4 steps; at the step 1e-17,
        # 1 - step rounds to 1 and a target entry above about 0.1 does not move
        # either, so rows leave at exact 0 the pairs that other rows move
        flagged, left_alone = [], 0
        for _ in range(40):
            n_rows, ne, nf, n_cols, n_steps = (
                int(k) for k in rng.integers([1, 1, 1, 1, 1], [8, 6, 4, 30, 5]))
            q = 10.0 ** rng.uniform(-17, -13, size=(n_rows, ne))
            q[rng.random(q.shape) < 0.4] = 0.0
            mat = rng.random((ne, nf))
            mat[rng.random(mat.shape) < 0.3] = 0.0
            mat[:, 0] += 1e-3
            mat /= mat.sum(axis=1, keepdims=True)
            e = rng.integers(ne, size=n_cols)
            step = rng.choice([0.5, 0.25, 1e-3, 1e-17], size=(n_steps, 1, 1))
            rows = (1.0 - step) * mat[e] + step * np.eye(nf)[rng.integers(nf, size=n_cols)]
            coeffs = rng.choice([-2.0, -1.0, 1.0], size=n_rows)
            plan = secrecy._screen_plan(q.T != 0.0, mat[np.newaxis], np.zeros_like(e), e, rows)
            change, ambiguous = secrecy._screen(q, coeffs, mat[np.newaxis], plan)
            assert change.shape == ambiguous.shape == (n_steps, n_cols)
            e_t, rows_t = np.broadcast_to(e, change.shape).ravel(), rows.reshape(-1, nf)
            change, ambiguous = change.ravel(), ambiguous.ravel()
            sparse, sparse_ambiguous = oracles.screen_sparse(q, coeffs, mat, e_t, rows_t)
            assert np.array_equal(change, sparse) and np.array_equal(ambiguous, sparse_ambiguous)
            dense, dense_ambiguous = oracles.screen_dense(q, coeffs, mat, e_t, rows_t)
            assert np.array_equal(ambiguous, dense_ambiguous)
            assert np.abs(change - dense).max() <= 1e-13 * np.abs(dense).max()
            flagged += ambiguous.tolist()
            moved = rows != mat[e]
            left_alone += np.count_nonzero(moved.any(axis=0) & ~moved)
        assert any(flagged) and not all(flagged)
        assert left_alone

    @pytest.mark.parametrize("kind", ["cmi", "sn"])
    @pytest.mark.parametrize("nf", [2, 3])
    def test_screen_bound_is_within_the_margin_at_the_attack_shapes(self, kind, nf):
        dist = build_cc_attack(0.05).joint
        q, _, c_abs = oracles.refine_inputs(dist, kind)
        rows = len(q)
        assert (dist.probs.size // dist.eve_alphabet, dist.eve_alphabet) == (8, 9)
        assert rows == {"cmi": 15, "sn": 21}[kind]
        entries = sum(map(len, secrecy._plan(dist.parties, kind)[1]))
        assert secrecy._screen_bound(8, 9, nf, rows, entries, c_abs) <= secrecy.MARGIN

    def test_default_grid_scores_only_the_starts(self, monkeypatch):
        # no trial of the default grid comes within the margin of passing, so
        # each search scores its start exactly and nothing else
        for nu in default_grid():
            dist = build_cc_attack(nu).joint
            for kind in ("cmi", "sn"):
                start = dp_start(dist, kind)
                _, exact = count_scores(monkeypatch)
                got, _ = oracles.refine(dist, start, kind)
                assert np.array_equal(got, start)
                assert len(exact) == 1
                monkeypatch.undo()

    @pytest.mark.parametrize("nu", BENCH_POINTS)
    def test_refine_matches_loop_on_bench_grids(self, nu):
        dist = build_cc_attack(nu).joint
        for kind in ("cmi", "sn"):
            start = dp_start(dist, kind)
            got, _ = oracles.refine(dist, start, kind)
            assert got.tobytes() == oracles.refine_loop(dist, start, kind).tobytes()

    def test_refine_takes_moves_at_high_noise(self):
        dist = build_cc_attack(0.55).joint
        start = dp_start(dist, "sn")
        got, _ = oracles.refine(dist, start, "sn")
        assert not np.array_equal(got, start)

    @pytest.mark.parametrize("kind", ["cmi", "sn"])
    def test_refine_matches_loop_on_sparse_tables(self, rng, kind):
        for i in range(8):
            alphabets, ne = random_shape(rng)
            dist = sparse_joint(rng, alphabets, ne)
            start = dp_start(dist, kind)
            if i % 2:  # a stochastic start: rows with no skipped move
                start = rng.random((ne, int(rng.integers(1, 4))))
                start /= start.sum(axis=1, keepdims=True)
            got, value = oracles.refine(dist, start, kind)
            assert got.tobytes() == oracles.refine_loop(dist, start, kind).tobytes()
            assert value == _objective(dist.probs @ got, dist.parties, kind)  # its last score

    @pytest.mark.parametrize("nu, kind, sweep", [(0.45, "cmi", 3), (0.45, "sn", 3),
                                                 (0.475, "cmi", 1), (0.475, "sn", 1),
                                                 (0.525, "cmi", 1)])
    def test_ladder_pass_resumes_the_loop(self, monkeypatch, nu, kind, sweep):
        dist = build_cc_attack(nu).joint
        start = dp_start(dist, kind)
        want, first = loop_and_first_move(dist, start, kind, monkeypatch)
        assert first == sweep
        got, _ = oracles.refine(dist, start, kind)
        assert got.tobytes() == want.tobytes()

    def test_ladder_matches_loop_on_sparse_tables(self, rng, monkeypatch):
        firsts = []
        for i in range(8):
            kind = ("cmi", "sn")[i % 2]
            alphabets, ne = random_shape(rng)
            dist = sparse_joint(rng, alphabets, ne)
            start = dp_start(dist, kind)
            want, first = loop_and_first_move(dist, start, kind, monkeypatch)
            got, _ = oracles.refine(dist, start, kind)
            assert got.tobytes() == want.tobytes()
            firsts.append(first)
        assert any(k is not None and k >= 2 for k in firsts)

    @pytest.mark.parametrize("sweeps", [1, 2, 3])
    def test_refine_matches_loop_under_a_sweep_cap(self, rng, monkeypatch, sweeps):
        monkeypatch.setattr(secrecy, "REFINE_SWEEPS", sweeps)  # the oracle reads it at call time
        tables = [build_cc_attack(nu).joint for nu in (0.45, 0.475, 0.525, 0.55)]
        for _ in range(8):
            alphabets, ne = random_shape(rng)
            tables.append(sparse_joint(rng, alphabets, ne))
        for dist in tables:
            for kind in ("cmi", "sn"):
                start = dp_start(dist, kind)
                got, _ = oracles.refine(dist, start, kind)
                assert got.tobytes() == oracles.refine_loop(dist, start, kind).tobytes()

    @pytest.mark.parametrize("kind", ["cmi", "sn"])
    def test_untouched_start_screens_its_whole_ladder_at_once(self, monkeypatch, kind):
        rows, exact = count_scores(monkeypatch)
        dist = build_cc_attack(0.05).joint
        start = dp_start(dist, kind)
        got, _ = oracles.refine(dist, start, kind)
        assert np.array_equal(got, start)
        assert rows == [522]  # sweeps 0..28 at 18 moves each, in one call
        assert len(exact) == 1  # the start's own value: no trial is near passing
        rows.clear()
        exact.clear()
        dist = build_cc_attack(0.0).joint
        start = dp_start(dist, kind)
        assert start.shape[1] == 1
        got, _ = oracles.refine(dist, start, kind)
        assert np.array_equal(got, start)
        assert rows == [] and len(exact) == 1
        dist = build_cc_attack(0.55).joint
        start = dp_start(dist, kind)
        got, _ = oracles.refine(dist, start, kind)
        assert rows and got.tobytes() == oracles.refine_loop(dist, start, kind).tobytes()
        # every default-grid search keeps no move: one call, or none from one block
        for nu in default_grid():
            dist = build_cc_attack(nu).joint
            start = dp_start(dist, kind)
            rows.clear()
            got, _ = oracles.refine(dist, start, kind)
            assert np.array_equal(got, start)
            assert len(rows) == (start.shape[1] > 1)

    @pytest.mark.parametrize("nu, kind", [(0.45, "cmi"), (0.45, "sn"), (0.5, "cmi"), (0.5, "sn")])
    def test_look_ahead_call_counts_at_high_noise(self, monkeypatch, nu, kind):
        # these searches keep 261, 256, 205 and 206 moves in 68, 91, 52 and 58 screened
        # batches (264, 259, 209 and 213 without the look-ahead): the first holds the
        # start's whole ladder, each batch after a move holds the next sweep and the
        # trials of the predicted states up to their predicted moves, and the walk keeps
        # a move per confirmed state; every kept move passes on the screen's word, so
        # the only exact scores are the start's and the end's
        calls = {(0.45, "cmi"): (68, 6916), (0.45, "sn"): (91, 7743),
                 (0.5, "cmi"): (52, 6984), (0.5, "sn"): (58, 8459)}
        confirmed = {(0.45, "cmi"): 261, (0.45, "sn"): 256, (0.5, "cmi"): 205, (0.5, "sn"): 206}
        rows, exact = count_scores(monkeypatch)
        dist = build_cc_attack(nu).joint
        start = dp_start(dist, kind)
        got, _ = oracles.refine(dist, start, kind)
        assert (len(rows), sum(rows)) == calls[nu, kind]
        assert len(exact) == 2
        monkeypatch.undo()
        taken = []
        assert got.tobytes() == oracles.refine_loop(dist, start, kind, taken).tobytes()
        assert len(taken) == confirmed[nu, kind]

    @pytest.mark.parametrize("branch, nu, kind, sweeps", LOOK_AHEAD_CASES)
    def test_look_ahead_branch_matches_loop(self, monkeypatch, branch, nu, kind, sweeps):
        monkeypatch.setattr(secrecy, "REFINE_SWEEPS", sweeps)
        dist = build_cc_attack(nu).joint
        start = dp_start(dist, kind)
        taken = []
        want = oracles.refine_loop(dist, start, kind, taken)
        assert branch in look_ahead_branches(taken, start.size, sweeps)
        got, _ = oracles.refine(dist, start, kind)
        assert got.tobytes() == want.tobytes()

    def test_confirming_every_trial_matches_loop(self, monkeypatch):
        # an infinite margin screens nothing out: every trial up to the first
        # that passes is scored exactly, which is the loop itself
        for _, nu, kind, sweeps in LOOK_AHEAD_CASES:
            monkeypatch.setattr(secrecy, "REFINE_SWEEPS", sweeps)
            dist = build_cc_attack(nu).joint
            start = dp_start(dist, kind)
            taken = []
            want = oracles.refine_loop(dist, start, kind, taken)
            monkeypatch.setattr(secrecy, "MARGIN", math.inf)
            _, exact = count_scores(monkeypatch)
            got, _ = oracles.refine(dist, start, kind)
            assert got.tobytes() == want.tobytes()
            assert taken and len(exact) > 1 + len(taken)  # failing trials were scored too
            monkeypatch.undo()

    @pytest.mark.parametrize("shift, flag", [(1.0, True), (1.5 * secrecy.MARGIN, False)],
                             ids=["flagged", "off-by-1.5-margins"])
    def test_passes_on_the_screens_word_keep_a_factor_two(self, monkeypatch, rng, shift, flag):
        # every change screened low by `shift`: a trial the screen flags is scored
        # whatever its change, and an unflagged one passes unscored only 2 margins
        # below the pass threshold, so a screen 1.5 margins off still moves no bit;
        # an Eve symbol of probability 0 gives moves of exact change 0 that fail
        dist = build_cc_attack(0.5).joint
        cases = [(dist, kind, dp_start(dist, kind)) for kind in ("cmi", "sn")]
        for kind in ("cmi", "sn"):
            probs = sparse_joint(rng, (2, 3), 3).probs.copy()
            probs[..., 1] = 0.0
            start = rng.random((3, 2))
            cases.append((JointDistribution(probs / probs.sum()), kind,
                          start / start.sum(axis=1, keepdims=True)))
        screen = secrecy._screen

        def low(q, coeffs, mats, plan):
            change, ambiguous = screen(q, coeffs, mats, plan)
            return change - shift, ambiguous | flag

        for dist, kind, start in cases:
            want = oracles.refine_loop(dist, start, kind)
            with monkeypatch.context() as mp:
                mp.setattr(secrecy, "_screen", low)
                got, value = oracles.refine(dist, start, kind)
            assert got.tobytes() == want.tobytes()
            assert value == _objective(dist.probs @ got, dist.parties, kind)

    @pytest.mark.parametrize("above", [False, True], ids=["at-the-gain", "one-ulp-above"])
    def test_stall_test_replays_the_loop_near_the_tolerance(self, monkeypatch, above):
        # REFINE_TOL set to the loop's gain over the first sweep that keeps a move, or
        # the next float up, so the loop reads gained >= REFINE_TOL as True, or False,
        # while the screened gains sum to within their error of it: the search must
        # replay the loop's sum from the exact scores
        dist = build_cc_attack(0.45).joint
        gained = secrecy._gained
        for kind in ("cmi", "sn"):
            start = dp_start(dist, kind)
            taken = []
            oracles.refine_loop(dist, start, kind, taken)
            tol = oracles.sweep_gains(dist, start, kind, taken)[taken[0][0]]
            tol = math.nextafter(tol, math.inf) if above else tol
            replays = []
            with monkeypatch.context() as mp:
                mp.setattr(secrecy, "REFINE_TOL", tol)  # the oracle reads it at call time
                mp.setattr(secrecy, "_gained", lambda scores: replays.append(scores)
                           or gained(scores))
                got, value = oracles.refine(dist, start, kind)
                want = oracles.refine_loop(dist, start, kind)
            assert replays
            assert got.tobytes() == want.tobytes()
            assert value == _objective(dist.probs @ want, dist.parties, kind)

    @pytest.mark.parametrize("predictor", sorted(oracles.WRONG_PREDICTORS))
    @pytest.mark.parametrize("nu", [0.45, 0.5, 0.575])
    def test_refine_does_not_depend_on_the_prediction(self, monkeypatch, nu, predictor):
        # a predictor that guesses wrong can only cost screens: the walk goes on to a
        # predicted state only if it is the true one, so channel and value stay the loop's
        dist = build_cc_attack(nu).joint
        guesses = []
        wrong = oracles.WRONG_PREDICTORS[predictor](np.random.default_rng(int(nu * 1000)))
        monkeypatch.setattr(secrecy, "_predicted", lambda *args: guesses.append(wrong(*args))
                            or guesses[-1])
        for kind in ("cmi", "sn"):
            start = dp_start(dist, kind)
            got, value = oracles.refine(dist, start, kind)
            assert got.tobytes() == refine_loop_of(nu, kind).tobytes()
            assert value == _objective(dist.probs @ got, dist.parties, kind)
        assert any(len(g) > 1 for g in guesses)  # some batch screened a predicted state

    def test_refine_screens_no_predicted_state_but_the_true_one(self, monkeypatch, rng):
        # predicted channels replaced by random ones: each predicted state's trials are
        # then screened from a channel the search never holds, and the walk must stop at it
        build = secrecy._predicted_channels

        def scrambled(mat, moves, step):
            mats = build(mat, moves, step)
            mats[1:] = rng.random(mats[1:].shape)
            mats[1:] /= mats[1:].sum(axis=2, keepdims=True)
            return mats

        monkeypatch.setattr(secrecy, "_predicted_channels", scrambled)
        for nu in (0.45, 0.5, 0.575):
            dist = build_cc_attack(nu).joint
            for kind in ("cmi", "sn"):
                got, _ = oracles.refine(dist, dp_start(dist, kind), kind)
                assert got.tobytes() == refine_loop_of(nu, kind).tobytes()

    @pytest.mark.parametrize("kind", ["cmi", "sn"])
    def test_best_partition_matches_loop(self, rng, kind):
        for nu in BENCH_POINTS:
            phi = oracles.block_table(build_cc_attack(nu).joint, kind)
            assert _best_partition(phi[np.newaxis]) == [oracles.best_partition_loop(phi)]
        for ne in range(1, EXHAUSTIVE_LIMIT + 1):
            for i in range(3):
                alphabets, _ = random_shape(rng)
                dist = sparse_joint(rng, alphabets, ne)
                if i:  # coarse entries make ties between partitions
                    probs = np.round(dist.probs * 4) + 0.0
                    probs.flat[0] += 1.0
                    dist = JointDistribution(probs / probs.sum())
                phi = oracles.block_table(dist, kind)
                assert _best_partition(phi[np.newaxis]) == [oracles.best_partition_loop(phi)]


def curves_csv(grid) -> str:
    fh = io.StringIO()
    write_curves_csv(compute_curves(grid, minimize=True), fh)
    return fh.getvalue()


class TestExactScores:
    """What the serial searches of a grid score exactly: `_objectives` passes, each over
    a stack of one or more tables and one or more kinds (`_objective` is a pass of one
    table and one kind), and the (table, kind) values they give."""

    @pytest.mark.parametrize("grid, passes, scores", [
        # the tables of a run with a search from one start partition are scored in one
        # pass, every kind: nu = 0 from its one block, then the other 7 of its run and
        # each later run of 8 from honest mimicry, and no trial comes near passing
        pytest.param(default_grid(), 8, 106, id="default"),
        # 50 starts in 7 passes, one per run and distinct start: the runs from nu = 0.3
        # and 0.7 and the run of nu = 0.9 alone take one each, and the run from nu = 0.5
        # takes 4; nu = 0.525, 0.6 and 0.625 start their kinds apart, so they are in two
        # passes each, which score both kinds, for 56 values; then the 287 trials the
        # screen cannot settle, 7 states they are compared with, 2 states replayed for
        # the stall test and 10 ends, one table and kind each, for 2,622 kept moves
        pytest.param(noise_grid(0.3, 0.9, 0.025), 313, 362, id="high_noise"),
    ])
    def test_exact_scores_of_serial_curves(self, monkeypatch, grid, passes, scores):
        scored, objectives = [], secrecy._objectives

        def counted(p, n_parties, kinds):
            scored.append(len(p) * len(kinds))
            return objectives(p, n_parties, kinds)

        monkeypatch.setattr(secrecy, "_objectives", counted)
        compute_curves(grid, minimize=True)
        assert (len(scored), sum(scored)) == (passes, scores)


class TestFirstBatch:
    """`_first_batch` keeps the index part of the first batch per start channel and
    support of the stacked marginals q."""

    def test_curves_do_not_depend_on_the_memo(self, monkeypatch):
        for grid, name in [(default_grid(), "curves_min.csv"),
                           (noise_grid(0.3, 0.9, 0.025), "curves_min_high_noise.csv")]:
            golden = (oracles.GOLDEN / name).read_bytes().decode()
            secrecy._first_batch.cache_clear()
            cleared = curves_csv(grid)
            warm = curves_csv(grid)
            with monkeypatch.context() as mp:
                mp.setattr(secrecy, "_first_batch", secrecy._first_batch.__wrapped__)
                unkept = curves_csv(grid)  # built afresh for every search
            assert cleared == warm == unkept == golden, name

    def test_cached_arrays_are_read_only(self, monkeypatch):
        kept, memo = [], secrecy._first_batch

        def recorded(*key):
            kept.append(memo(*key))
            return kept[-1]

        monkeypatch.setattr(secrecy, "_first_batch", recorded)
        dist = build_cc_attack(0.05).joint
        intrinsic_information(dist)
        dual_intrinsic(dist)
        intrinsic_information(dist)
        # both start at honest mimicry, but their marginal stacks differ
        assert len(kept) == 3 and kept[0] is not kept[1] and kept[0] is kept[2]
        for at, rows, plan in kept[:2]:
            arrays = [at, rows, *plan]
            assert len(arrays) == 11 and not any(a.flags.writeable for a in arrays)
            with pytest.raises(ValueError, match="read-only"):
                rows[0, 0] = 0.5
            with pytest.raises(ValueError, match="read-only"):
                plan.delta[0, 0] = 0.5

    def test_one_plan_per_start_and_support(self, rng):
        # two tables of one shape from one start channel, whose marginal stacks have
        # different supports: each gets its own plan, and a repeat hits the memo
        start = ClassicalChannel.from_partition([[0, 1], [2, 3]], 4).matrix
        tables = [sparse_joint(rng, (2, 2, 3), 4) for _ in range(2)]
        supports = [oracles.refine_inputs(d, "cmi")[0] != 0.0 for d in tables]
        assert supports[0].shape == supports[1].shape
        assert not np.array_equal(*supports)
        secrecy._first_batch.cache_clear()
        for dist in tables + tables[:1]:
            batches = oracles.screened_batches(dist, "cmi", start)
            assert batches
            for (q, coeffs, mat, e, rows), (change, ambiguous) in batches:
                want, want_ambiguous = oracles.screen_sparse(q, coeffs, mat, e, rows)
                assert np.array_equal(change, want) and np.array_equal(ambiguous, want_ambiguous)
            got, _ = oracles.refine(dist, start, "cmi")
            assert got.tobytes() == oracles.refine_loop(dist, start, "cmi").tobytes()
        info = secrecy._first_batch.cache_info()
        # each table's first run builds its plan; its second run and the repeat's two hit
        assert (info.misses, info.hits) == (2, 4)

    @pytest.mark.parametrize("grid, plans, searches, screens, built, bounds", [
        # 104 searches start at honest mimicry, 52 per objective, and nu = 0's two
        # start from one block; the cmi and sn stacks have 15 and 21 rows, so two
        # plans and two margins; no search keeps a move, so no other plan is built
        pytest.param(default_grid(), 2, 104, 104, 2, 2, id="default"),
        # curves_min_high_noise's grid: 19, 6 and 1 searches start from three
        # partitions, and 24 from one block; the starts and the two objectives
        # make five (start, support) pairs and four (objective, |F|) pairs; with
        # the look-ahead, the 2,622 kept moves take 1,258 screens in all
        pytest.param(noise_grid(0.3, 0.9, 0.025), 5, 26, 1258, 1237, 4, id="high_noise"),
    ])
    def test_one_plan_per_start_and_support_on_bench_grids(self, monkeypatch, grid, plans,
                                                           searches, screens, built, bounds):
        calls = {"_screen": 0, "_screen_plan": 0}
        for name in calls:
            def counted(*args, name=name, wrapped=getattr(secrecy, name)):
                calls[name] += 1
                return wrapped(*args)

            monkeypatch.setattr(secrecy, name, counted)
        secrecy._first_batch.cache_clear()
        secrecy._screen_bound.cache_clear()
        compute_curves(grid, minimize=True)
        info = secrecy._first_batch.cache_info()
        assert (info.misses, info.hits + info.misses) == (plans, searches)
        assert (calls["_screen"], calls["_screen_plan"]) == (screens, built)
        assert secrecy._screen_bound.cache_info().misses == bounds


class TestIntrinsicInformation:
    def test_correlated_pair_with_independent_eve(self):
        probs = np.zeros((2, 2, 2))
        for k in range(2):
            for e in range(2):
                probs[k, k, e] = 0.25
        dist = JointDistribution(probs)
        value, witness = intrinsic_information(dist)
        assert value == pytest.approx(1.0, abs=1e-10)
        assert witness.in_alphabet == 2

    def test_eve_determines_outputs(self):
        probs = np.zeros((2, 2, 2))
        probs[0, 0, 0] = probs[1, 1, 1] = 0.5
        dist = JointDistribution(probs)
        value, _ = intrinsic_information(dist)
        assert value == pytest.approx(0.0, abs=1e-10)

    def test_attack_fixture_matches_brute_force(self):
        dist = build_cc_attack(0.05).joint
        value, witness = intrinsic_information(dist)
        brute = oracles.attack_channel_minimum(0.05, oracles.cmi_of_table)
        assert value == pytest.approx(brute, abs=1e-9)
        # witness attains the reported value
        attained = shannon_cmi(apply_channel(dist, witness))
        assert abs(attained - value) < 1e-10

    def test_without_refinement_is_the_best_partition(self):
        dist = build_cc_attack(0.05).joint
        brute = oracles.attack_channel_minimum(0.05, oracles.cmi_of_table)
        value, witness = intrinsic_information(dist, SearchBudget(refine=False))
        assert abs(value - brute) < 1e-12
        assert set(np.unique(witness.matrix)) <= {0.0, 1.0}
        assert witness.matrix.shape[1] == len(oracles.best_partition(dist, "cmi"))

    @pytest.mark.parametrize("search", [intrinsic_information, dual_intrinsic])
    def test_rejects_eve_alphabet_over_the_limit(self, search):
        dist = JointDistribution(np.full((2, 2, 11), 1.0 / 44.0))  # a product
        with pytest.raises(ValueError, match="at most 10 Eve symbols, got 11"):
            search(dist)

    def test_never_exceeds_unprocessed_cmi(self, rng):
        for _ in range(5):
            dist = random_joint(rng, (2, 2), 4)
            value, _ = intrinsic_information(dist)
            assert value <= shannon_cmi(dist) + 1e-12


class TestSearchedValue:
    @pytest.mark.parametrize("refine", [True, False])
    @pytest.mark.parametrize("search, kind", [(intrinsic_information, "cmi"),
                                              (dual_intrinsic, "sn")])
    def test_value_is_the_witness_score_on_bench_grids(self, search, kind, refine):
        # the search returns the score it computed for its last channel, not a new
        # scoring of the witness; that must be the witness's own score, bit for bit
        for nu in oracles.bench_grids():
            dist = build_cc_attack(nu).joint
            value, witness = search(dist, SearchBudget(refine=refine))
            exact = _objective(apply_channel(dist, witness).probs, 3, kind)
            assert value.hex() == exact.hex()


class TestSearchInputs:
    @pytest.mark.parametrize("refine", [True, False])
    def test_one_marginal_table_and_one_channel_check_per_search(self, monkeypatch, refine):
        # a search takes a run of tables and objectives: its DP and every descent share
        # one `_subset_marginals` pass over the stacked tables, and only the channels a
        # run returns go through `probability_table`, one check per distinct channel
        dists = [build_cc_attack(nu).joint for nu in default_grid()]
        calls = []
        for name in ("_subset_marginals", "probability_table"):
            def counted(*args, _name=name, _wrapped=getattr(secrecy, name)):
                calls.append(_name)
                return _wrapped(*args)
            monkeypatch.setattr(secrecy, name, counted)
        budget = SearchBudget(refine=refine)
        checks = []
        for i in range(0, len(dists), GRID_CHUNK):
            run = dists[i:i + GRID_CHUNK]
            calls.clear()
            found = minimize_over_channels(run, KINDS, budget)
            assert len(found) == 2 * len(run)
            # no search here keeps a move, so a run returns its distinct starts
            checks.append(len({id(channel) for _, channel in found}))
            assert calls == ["_subset_marginals"] + ["probability_table"] * checks[-1]
        # the first run holds nu = 0, whose searches start from one block; every other
        # search starts from honest mimicry
        assert checks == [2] + [1] * 6
        for search in (intrinsic_information, dual_intrinsic):  # a stack of one
            calls.clear()
            search(dists[0], budget)
            assert calls == ["_subset_marginals", "probability_table"]
        # the curves: one marginal pass per run of GRID_CHUNK points, not per search
        calls.clear()
        compute_curves(default_grid(), minimize=True)
        assert calls.count("_subset_marginals") == -(-len(dists) // GRID_CHUNK)

    def test_unrefined_searches_share_their_start_channel(self, monkeypatch):
        # a run whose searches keep no move returns one read-only channel per distinct
        # partition, built and checked once; a search that keeps moves returns a channel
        # of its own, checked anew
        run = [build_cc_attack(nu).joint for nu in default_grid()[:GRID_CHUNK]]
        found = minimize_over_channels(run, KINDS)
        by_bytes = {}
        for _, channel in found:
            assert by_bytes.setdefault(channel.matrix.tobytes(), channel) is channel
            assert not channel.matrix.flags.writeable
        assert len(by_bytes) == 2  # nu = 0's one block, and honest mimicry
        assert found[0][1] is found[1][1] and found[2][1] is found[-1][1]
        assert np.array_equal(found[2][1].matrix, dp_start(run[1], "cmi"))
        # unrefined, every channel is its table and kind's DP start, built from the
        # `_selector` columns of its block masks: from_partition's bytes, shape and C order
        grids = (default_grid(), noise_grid(0.3, 0.9, 0.025), noise_grid(0.10, 0.13, 0.0005),
                 noise_grid(0.40, 0.46, 0.0005))
        for grid in grids:
            dists = [build_cc_attack(nu).joint for nu in grid]
            for i in range(0, len(dists), GRID_CHUNK):
                run = dists[i:i + GRID_CHUNK]
                found = minimize_over_channels(run, KINDS, SearchBudget(refine=False))
                for r, (_, channel) in enumerate(found):
                    want = dp_start(run[r // 2], KINDS[r % 2])
                    m = channel.matrix
                    assert m.shape == want.shape and m.tobytes() == want.tobytes()
                    assert m.flags.c_contiguous and not m.flags.writeable

        dist, checked, table = build_cc_attack(0.55).joint, [], secrecy.probability_table

        def counted(*args):
            checked.append(args[3])
            return table(*args)

        monkeypatch.setattr(secrecy, "probability_table", counted)
        [(_, start), _] = minimize_over_channels([dist], KINDS, SearchBudget(refine=False))
        assert checked == ["channel rows"]  # both kinds start from one partition
        checked.clear()
        [(value, refined), (_, dual)] = minimize_over_channels([dist], KINDS)
        assert checked == ["channel rows"] * 3  # the start, then each refined channel
        assert refined is not dual and not refined.matrix.flags.writeable
        assert refined.matrix.shape == start.matrix.shape
        assert not np.array_equal(refined.matrix, start.matrix)
        assert value.hex() == _objective(dist.probs @ refined.matrix, 3, "cmi").hex()

    @pytest.mark.parametrize("size", [1, 3, GRID_CHUNK])
    def test_run_terms_once_per_kind_and_call(self, monkeypatch, size):
        # each kind's stacked q, its coefficients and sum |c_X| are built once per call,
        # not once per table: every descent reads its q as a row of that one stack
        dists = [build_cc_attack(nu).joint for nu in noise_grid(0.3, 0.9, 0.025)[:size]]
        built, read = [], []
        run_terms, refine = secrecy._run_terms, secrecy._refine

        def spied_terms(margs, n, kind):
            built.append((kind, run_terms(margs, n, kind)))
            return built[-1][1]

        def spied_refine(dist, kind, q, coeffs, c_abs, channel, best):
            read.append((kind, q, coeffs, c_abs))
            return refine(dist, kind, q, coeffs, c_abs, channel, best)

        monkeypatch.setattr(secrecy, "_run_terms", spied_terms)
        monkeypatch.setattr(secrecy, "_refine", spied_refine)
        minimize_over_channels(dists, KINDS)
        assert [kind for kind, _ in built] == list(KINDS)
        assert len(read) == 2 * size  # no search here starts from one block
        terms = dict(built)
        for j, (kind, q, coeffs, c_abs) in enumerate(read):
            stack, want_coeffs, want_c_abs = terms[kind]
            assert kind == KINDS[j % 2] and q.base is stack and np.array_equal(q, stack[j // 2])
            assert coeffs is want_coeffs and c_abs == want_c_abs

    def test_warm_curves_stay_under_one_mebibyte(self):
        # the largest arrays, `_block_values`' p log p terms and the DP's layers, grow
        # with the run: a run of GRID_CHUNK = 8 points peaks near 0.8 MiB, and a stack
        # of the whole default grid near 5 MiB
        compute_curves(default_grid(), minimize=True)  # the memos, warm
        tracemalloc.start()
        try:
            compute_curves(default_grid(), minimize=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


    @pytest.mark.parametrize("dists, kinds, message", [
        ([build_cc_attack(0.55).joint], [], "kinds must be a nonempty sequence"),
        ([build_cc_attack(0.55).joint], "cmi", "kinds must be a nonempty sequence"),
        ([], ["cmi"], "dists must hold at least one distribution"),
    ])
    def test_malformed_arguments_are_one_line_errors(self, monkeypatch, dists, kinds, message):
        # an empty kinds list, a bare string read as its letters, and no tables at all
        # are refused before any marginal is taken
        monkeypatch.setattr(secrecy, "_subset_marginals", None)
        with pytest.raises(ValueError, match=message) as err:
            minimize_over_channels(dists, kinds)
        assert "\n" not in str(err.value)


class TestSearchBudget:
    @pytest.mark.parametrize("refine", ["no", "", 0, 1, None, np.True_])
    def test_refine_must_be_a_bool(self, refine):
        # a truthy string such as "no" used to refine
        with pytest.raises(ValueError, match=r"refine must be True or False, got "):
            SearchBudget(refine=refine)

    def test_refine_off_is_the_best_partition(self):
        dist = build_cc_attack(0.55).joint
        refined, _ = intrinsic_information(dist, SearchBudget(refine=True))
        fixed, _ = intrinsic_information(dist, SearchBudget(refine=False))
        assert refined < fixed  # 0.0104990 against the DP's 0.0195703 bits
        assert round(refined, 7) == 0.0104990 and round(fixed, 7) == 0.0195703


class TestDualIntrinsic:
    def test_ideal_key_distribution(self):
        value, _ = dual_intrinsic(ideal_key_distribution())
        assert value == pytest.approx(1.0, abs=1e-10)

    def test_eve_determines_outputs(self):
        probs = np.zeros((2, 2, 2))
        probs[0, 0, 0] = probs[1, 1, 1] = 0.5
        dist = JointDistribution(probs)
        value, _ = dual_intrinsic(dist)
        assert value == pytest.approx(0.0, abs=1e-10)

    def test_attack_fixture_matches_brute_force(self):
        dist = build_cc_attack(0.05).joint
        value, witness = dual_intrinsic(dist)
        brute = oracles.attack_channel_minimum(0.05, oracles.sn_of_table)
        assert value == pytest.approx(brute, abs=1e-9)
        attained = s_n(apply_channel(dist, witness))
        assert abs(attained - value) < 1e-10

    def test_never_exceeds_unprocessed_sn(self, rng):
        for _ in range(5):
            dist = random_joint(rng, (2, 2, 2), 3)
            value, _ = dual_intrinsic(dist)
            assert value <= s_n(dist) + 1e-12


class TestInteger:
    def test_bounds_are_inclusive(self):
        for value in (2, 5, np.int64(3), np.uint8(5)):
            out = secrecy.integer(value, "x", 2, 5)
            assert type(out) is int and out == value
        assert secrecy.integer(10**30, "x", 2) == 10**30
        assert secrecy.integer(-7, "x") == -7

    def test_outside_the_range_rejected(self):
        for value in (1, 6, np.int64(6), -(10**30)):
            with pytest.raises(ValueError, match=rf"^x must lie in 2\.\.5, got {value}$"):
                secrecy.integer(value, "x", 2, 5)

    def test_below_a_lower_bound_rejected(self):
        for value in (1, np.int32(-4)):
            with pytest.raises(ValueError, match=rf"^x must be at least 2, got {value}$"):
                secrecy.integer(value, "x", 2)

    def test_a_bool_is_its_integer(self):
        assert secrecy.integer(True, "x", 1, 1) == 1
        with pytest.raises(ValueError, match=r"^x must lie in 1\.\.5, got 0$"):
            secrecy.integer(False, "x", 1, 5)

    def test_non_integer_message_unchanged(self):
        for value, shown in ((2.5, "2.5"), ("3", "'3'"), (None, "None"), (3.0, "3.0")):
            with pytest.raises(ValueError, match=f"^x must be an integer, got {shown}$"):
                secrecy.integer(value, "x", 0, 5)


class TestReal:
    def test_reads_real_numbers_and_nothing_else(self):
        for value, want in ((0.25, 0.25), (3, 3.0), (np.float32(0.5), 0.5), (10**400, math.inf),
                            (-(10**400), -math.inf), (math.inf, math.inf)):
            out = secrecy.real(value)
            assert type(out) is float and out == want
        for value in ("0.5", None, 0.5 + 0j, math.nan):
            assert math.isnan(secrecy.real(value))


class TestUnitInterval:
    def test_real_numbers_keep_their_value(self):
        for value in (0, 1, True, False, 0.25, np.float64(0.1), np.float32(0.5), np.int64(1),
                      math.nextafter(1.0, 0.0), 5e-324):
            out = unit_interval(value, "x")
            assert type(out) is float and out == float(value)

    def test_negative_zero_is_positive_zero(self):
        assert not np.signbit(unit_interval(-0.0, "x"))
        assert not np.signbit(unit_interval(np.float64(-0.0), "x"))

    def test_not_a_real_number_rejected(self):
        for value, shown in (("0.1", "'0.1'"), (None, "None"), (0.1 + 0j, r"\(0.1\+0j\)"),
                             (np.array(0.1), r"array\(0.1\)"), ([0.1], r"\[0.1\]")):
            with pytest.raises(ValueError, match=f"^x must be a real number, got {shown}$"):
                unit_interval(value, "x")

    def test_outside_unit_interval_rejected(self):
        for value, shown in ((-0.1, "-0.1"), (1.5, "1.5"), (math.nan, "nan"),
                             (math.inf, "inf"), (np.float64(-1e-300), "-1e-300"),
                             (2, "2.0"), (math.nextafter(1.0, 2.0), "1.0000000000000002"),
                             (10**400, "inf"), (-(10**400), "-inf")):  # were OverflowErrors
            with pytest.raises(ValueError, match=rf"^x must lie in \[0, 1\], got {shown}$"):
                unit_interval(value, "x")


class TestContinuityEnvelope:
    def test_zero_epsilon(self):
        assert continuity_envelope(0.0, 3.0, "cmi") == 0.0
        assert g(0.0) == 0.0

    def test_unit_epsilon_conditional_entropy(self):
        assert g(1.0) == 2.0
        assert continuity_envelope(1.0, 1.0, "conditional-entropy") == pytest.approx(4.0)

    def test_half_epsilon_cmi_against_scalar_oracle(self):
        expect = 2 * 0.5 * 1.0 + 2 * (1.5 * math.log2(1.5) - 0.5 * math.log2(0.5))
        assert continuity_envelope(0.5, 1.0, "cmi") == pytest.approx(expect, abs=1e-12)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError, match=r"^eps must lie in \[0, 1\], got 1.5$"):
            continuity_envelope(1.5, 1.0, "cmi")
        with pytest.raises(ValueError, match="^eps must be a real number, got None$"):
            continuity_envelope(None, 1.0, "cmi")  # was a TypeError
        with pytest.raises(ValueError, match=r"^eps must lie in \[0, 1\], got inf$"):
            continuity_envelope(10**400, 1.0, "cmi")  # was an OverflowError
        with pytest.raises(ValueError):
            continuity_envelope(0.5, 1.0, "unknown")

    def test_rejects_bad_log_dim(self):
        for log_dim, shown in [(-3.0, "-3.0"),  # was -0.245 for cmi
                               (math.nan, "nan"),  # was nan
                               (math.inf, "inf"), (10**400, "inf"),
                               ("x", "'x'"),  # was a TypeError
                               (None, "None")]:
            for flavor in ("cmi", "conditional-entropy"):
                with pytest.raises(ValueError, match=rf"^log_dim must be a finite real number "
                                                     rf"at least 0, got {re.escape(shown)}$"):
                    continuity_envelope(0.5, log_dim, flavor)

    def test_log_dim_read_as_a_real_number(self):
        assert continuity_envelope(0.5, 1, "cmi") == continuity_envelope(0.5, 1.0, "cmi")
        assert continuity_envelope(0.5, np.int64(2), "cmi") == continuity_envelope(0.5, 2.0, "cmi")
        assert continuity_envelope(0.25, 0.0, "cmi") == 2.0 * g(0.25)

    def test_g_rejects_eps_outside_unit_interval(self):
        for eps, message in [(-0.5, r"must lie in \[0, 1\], got -0.5"),  # was "math domain error"
                             (2.0, r"must lie in \[0, 1\], got 2.0"),  # was returned silently
                             (math.nan, r"must lie in \[0, 1\], got nan"),  # was nan
                             ("0.1", "must be a real number, got '0.1'")]:
            with pytest.raises(ValueError, match=rf"^eps {message}$"):
                g(eps)


def csv_text(dist):
    buf = io.StringIO()
    distribution_to_csv(dist, buf)
    return buf.getvalue()


class TestCsv:
    def test_round_trip(self, rng):
        dist = random_joint(rng, (2, 3), 4)
        _, back = oracles.joint_table_from_csv(io.StringIO(csv_text(dist)))
        assert back.shape == dist.probs.shape
        assert np.abs(back - dist.probs).max() < 1e-12

    def test_header(self, rng):
        text = csv_text(random_joint(rng, (2, 2, 2), 9))
        assert text.splitlines()[0] == "a1,a2,a3,e,p"
