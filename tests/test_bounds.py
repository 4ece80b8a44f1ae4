import io
import itertools
import math
from collections import Counter

import numpy as np
import pytest

from ckabounds.bounds import (BoundCurve, PartitionBoundInput, Xorshift64Star,
                              compute_curves, enumerate_partitions, partition_bound,
                              relay_chain, relay_simulate, write_curves_csv)
from ckabounds.partitions import partitions_as_masks, set_partitions
import oracles

SHORT_GRID = [0.0, 0.02, 0.05, 0.08, 0.1189]
MONOTONE_GRID = [0.005 * i for i in range(25)]  # up to 0.12


class TestBoundCurveValidation:
    def test_rejects_non_increasing_nu(self):
        with pytest.raises(ValueError, match="increasing"):
            BoundCurve("x", ((0.1, 1.0), (0.1, 0.9)))

    def test_rejects_negative_values(self):
        with pytest.raises(ValueError, match="nonnegative"):
            BoundCurve("x", ((0.0, 1.0), (0.1, -0.5)))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            BoundCurve("x", ((0.0, math.inf),))


@pytest.fixture(scope="module")
def curve():
    """`curve(name, grid)`: one curve of a `compute_curves` run shared per grid."""
    runs = {}

    def get(name, grid):
        key = (tuple(grid), name.endswith("_min"))
        if key not in runs:
            runs[key] = {c.name: c for c in compute_curves(grid, minimize=key[1])}
        return runs[key][name]

    return get


class TestIntrinsicCurve:
    def test_left_edge_is_one(self, curve):
        assert curve("intrinsic_fixed", SHORT_GRID).values[0] == pytest.approx(1.0, abs=1e-8)

    def test_monotone_nonincreasing(self, curve):
        vals = curve("intrinsic_fixed", MONOTONE_GRID).values
        assert all(a >= b - 1e-9 for a, b in zip(vals, vals[1:]))

    def test_fixed_value_against_entropy_oracle(self, curve):
        expect = oracles.cmi_of_table(oracles.postprocessed_table(0.05)) / 2.0
        assert curve("intrinsic_fixed", SHORT_GRID).values[2] == pytest.approx(expect, abs=1e-9)

    def test_minimized_never_above_fixed(self, curve):
        fixed = curve("intrinsic_fixed", SHORT_GRID).values
        minimized = curve("intrinsic_min", SHORT_GRID).values
        for lo, hi in zip(minimized, fixed):
            assert lo <= hi + 1e-9

    def test_rejects_grid_outside_range(self):
        with pytest.raises(ValueError):
            compute_curves([0.5, 1.0])


class TestDualCurve:
    def test_left_edge_is_one(self, curve):
        assert curve("dual_fixed", SHORT_GRID).values[0] == pytest.approx(1.0, abs=1e-8)

    def test_fixed_value_against_entropy_oracle(self, curve):
        expect = oracles.sn_of_table(oracles.postprocessed_table(0.05))
        assert curve("dual_fixed", SHORT_GRID).values[2] == pytest.approx(expect, abs=1e-9)

    def test_comparison_with_intrinsic_reported_not_asserted(self, curve):
        # no ordering is claimed between the two bounds on mixed states;
        # differences are only reported for inspection
        dual = curve("dual_fixed", SHORT_GRID).values
        intr = curve("intrinsic_fixed", SHORT_GRID).values
        below = [(nu, d, i) for nu, d, i in zip(SHORT_GRID, dual, intr) if d < i - 1e-9]
        print(f"dual-below-intrinsic points: {below if below else 'none'}")
        assert len(dual) == len(intr)


class TestTrivialCurve:
    def test_values(self, curve):
        assert curve("trivial", [0.0, 0.5]).values == (1.0, 0.5)

    def test_dominates_fixed_intrinsic_up_to_critical_noise(self, curve):
        grid = [0.01 * i for i in range(12)]
        triv = curve("trivial", grid).values
        intr = curve("intrinsic_fixed", grid).values
        violations = [(nu, t, i) for nu, t, i in zip(grid, triv, intr) if t < i - 1e-9]
        print(f"trivial-below-intrinsic points: {violations if violations else 'none'}")


class TestProxyCurve:
    def test_left_edge_is_one(self, curve):
        assert curve("dw_lower_PROXY", SHORT_GRID).values[0] == pytest.approx(1.0, abs=1e-8)

    def test_below_intrinsic_curve(self, curve):
        proxy = curve("dw_lower_PROXY", SHORT_GRID).values
        intr = curve("intrinsic_fixed", SHORT_GRID).values
        for p, i in zip(proxy, intr):
            assert p <= i + 1e-9

    def test_monotone_nonincreasing(self, curve):
        vals = curve("dw_lower_PROXY", SHORT_GRID).values
        assert all(a >= b - 1e-9 for a, b in zip(vals, vals[1:]))

    def test_name_carries_proxy_label(self):
        assert "PROXY" in compute_curves([0.0])[-1].name


class TestComputeCurves:
    def test_four_curves_and_left_edge(self):
        curves = compute_curves([0.0, 0.05])
        assert [c.name for c in curves] == [
            "intrinsic_fixed", "dual_fixed", "trivial", "dw_lower_PROXY"]
        for c in curves:
            assert c.values[0] == pytest.approx(1.0, abs=1e-8)

    def test_worker_count_does_not_change_output(self):
        one = compute_curves(SHORT_GRID, workers=1)
        two = compute_curves(SHORT_GRID, workers=2)
        for a, b in zip(one, two):
            assert a.name == b.name
            assert a.samples == b.samples

    def test_csv_format(self):
        buf = io.StringIO()
        write_curves_csv(compute_curves([0.0, 0.05]), buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "nu,value,name"
        assert len(lines) == 1 + 4 * 2
        assert lines[1].split(",")[2] == "intrinsic_fixed"


class TestPartitionBound:
    def test_single_value(self):
        inp = PartitionBoundInput((((0,), (1, 2))), 0.7)
        assert partition_bound([inp]) == pytest.approx(0.7)

    def test_minimum_of_three(self):
        parts = enumerate_partitions(3)
        inputs = [PartitionBoundInput(p, v) for p, v in zip(parts, (0.7, 0.3, 0.9))]
        assert partition_bound(inputs) == pytest.approx(0.3)

    def test_path_state_cut_bounds(self):
        # chain A - B - C with per-edge rates v1, v2: the cut isolating A is
        # crossed only by the first edge, the cut isolating C only by the
        # second, the middle cut by both; the bound is min(v1, v2)
        v1, v2 = 0.42, 0.77
        per_cut = {
            frozenset({frozenset({0}), frozenset({1, 2})}): v1,
            frozenset({frozenset({2}), frozenset({0, 1})}): v2,
            frozenset({frozenset({1}), frozenset({0, 2})}): v1 + v2,
        }
        inputs = [PartitionBoundInput(p, per_cut[frozenset(frozenset(b) for b in p)])
                  for p in enumerate_partitions(3)]
        assert partition_bound(inputs) == pytest.approx(min(v1, v2))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            partition_bound([])

    def test_trivial_partitions_rejected(self):
        with pytest.raises(ValueError):
            PartitionBoundInput(((0, 1, 2),), 0.5)  # single block
        with pytest.raises(ValueError):
            PartitionBoundInput(((0,), (1,), (2,)), 0.5)  # all singletons
        with pytest.raises(ValueError):
            PartitionBoundInput(((0,), (0, 1)), 0.5)  # overlap


class TestEnumeratePartitions:
    def test_three_parties(self):
        parts = enumerate_partitions(3)
        as_sets = {frozenset(frozenset(b) for b in p) for p in parts}
        assert as_sets == {
            frozenset({frozenset({0}), frozenset({1, 2})}),
            frozenset({frozenset({1}), frozenset({0, 2})}),
            frozenset({frozenset({2}), frozenset({0, 1})}),
        }

    def test_four_parties_count_against_brute_force(self):
        parts = enumerate_partitions(4)
        brute = [p for p in oracles.partitions_recursive(range(4)) if 2 <= len(p) <= 3]
        assert len(parts) == len(brute) == 13

    def test_all_nontrivial(self):
        for n in (3, 4, 5):
            for p in enumerate_partitions(n):
                assert 2 <= len(p) <= n - 1
                assert sorted(i for b in p for i in b) == list(range(n))

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            enumerate_partitions(2)

    def test_bell_numbers(self):
        for n, bell in ((1, 1), (2, 2), (3, 5), (4, 15), (5, 52), (6, 203)):
            assert sum(1 for _ in set_partitions(range(n))) == bell
            assert len(partitions_as_masks(n)) == bell

    def test_generator_agrees_with_recursive_oracle(self):
        ours = {frozenset(frozenset(b) for b in p) for p in set_partitions(range(5))}
        brute = {frozenset(frozenset(b) for b in p)
                 for p in oracles.partitions_recursive(range(5))}
        assert ours == brute


class TestRelay:
    def test_all_parties_agree(self):
        for seed in (0, 1, 7, 123456):
            t = relay_simulate(3, 8, seed)
            assert all(k == t.r for k in t.final_keys)
            assert len(t.final_keys) == 3

    def test_message_count(self):
        for n in (3, 4, 6):
            assert len(relay_simulate(n, 8, 99).broadcasts) == n - 1

    def test_deterministic_in_seed(self):
        a = relay_simulate(3, 16, 42)
        b = relay_simulate(3, 16, 42)
        assert a == b
        assert relay_simulate(3, 16, 43) != a

    def test_exhaustive_agreement_and_transcript_counts(self):
        # every branch agrees; each (transcript, r) pair occurs exactly once,
        # so the transcript is uniform and exactly independent of r
        for key_len in (1, 2):
            n = 2 ** key_len
            counts = Counter()
            for r, k1, k2 in itertools.product(range(n), repeat=3):
                broadcasts, finals = relay_chain(r, (k1, k2))
                assert all(f == r for f in finals)
                counts[(broadcasts, r)] += 1
            assert len(counts) == n ** 3
            assert set(counts.values()) == {1}

    def test_monte_carlo_transcript_independence(self):
        # 1e4 seeded single-bit runs: empirical MI(transcript; r) ~ 0
        joint = Counter()
        runs = 10_000
        for seed in range(runs):
            t = relay_simulate(3, 1, seed)
            joint[(t.broadcasts, t.r)] += 1
        mi = 0.0
        t_marg = Counter()
        r_marg = Counter()
        for (tr, r), c in joint.items():
            t_marg[tr] += c
            r_marg[r] += c
        for (tr, r), c in joint.items():
            p = c / runs
            mi += p * math.log2(p / (t_marg[tr] / runs * r_marg[r] / runs))
        assert abs(mi) < 0.01

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            relay_simulate(2, 8, 1)
        with pytest.raises(ValueError):
            relay_simulate(3, 0, 1)

    def test_generator_determinism_and_range(self):
        gen = Xorshift64Star(2024)
        vals = [gen.bits(8) for _ in range(100)]
        assert all(0 <= v < 256 for v in vals)
        gen2 = Xorshift64Star(2024)
        assert [gen2.bits(8) for _ in range(100)] == vals

    def test_generator_zero_seed_is_usable(self):
        assert Xorshift64Star(0).bits(16) != 0
