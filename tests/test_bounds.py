import io
import itertools
import math
import re
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from ckabounds import bounds
from ckabounds.attacks import build_cc_attack
from ckabounds.bounds import (GRID_CHUNK, MAX_GRID_POINTS, MAX_KEY_LEN, MAX_RELAY_PARTIES,
                              MAX_WORKERS, BoundCurve, Xorshift64Star, compute_curves, default_grid,
                              enumerate_partitions, noise_grid, relay_chain, relay_simulate,
                              write_curves_csv)
from ckabounds.partitions import partitions_as_masks, set_partitions
import oracles

SHORT_GRID = [0.0, 0.02, 0.05, 0.08, 0.1189]
MONOTONE_GRID = [0.005 * i for i in range(25)]  # up to 0.12


@pytest.fixture
def pools(monkeypatch):
    """The max_workers of each process pool started; the pool maps in this process."""
    sizes = []

    class Pool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return None

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(bounds, "ProcessPoolExecutor", Pool)
    return sizes


@pytest.fixture
def no_points(monkeypatch):
    def worker(*job):
        raise AssertionError(f"computed the points {job}")

    monkeypatch.setattr(bounds, "_run_worker", worker)


class TestBoundCurveValidation:
    def test_rejects_non_increasing_nu(self):
        with pytest.raises(ValueError, match="increasing"):
            BoundCurve("x", ((0.1, 1.0), (0.1, 0.9)))

    def test_rejects_negative_values(self):
        # rounding residue down to VALUE_FLOOR = -1e-9 is accepted, and the message says so
        BoundCurve("x", ((0.0, 1.0), (0.1, -5e-10)))
        below = math.nextafter(bounds.VALUE_FLOOR, -math.inf)
        for value in (-0.5, below):
            with pytest.raises(ValueError, match="^curve values must be real, finite and at "
                                                 "least -1e-09$"):
                BoundCurve("x", ((0.0, 1.0), (0.1, value)))

    def test_rejects_non_finite(self):
        # "0.5" was read as 0.5, None was a TypeError and 10**400 an OverflowError
        for value in (math.inf, math.nan, "0.5", None, 10**400):
            with pytest.raises(ValueError, match="^curve values must be real, finite and at "
                                                 "least -1e-09$"):
                BoundCurve("x", ((0.0, value),))
        # nor a noise column that `compute_curves` would not take as a grid
        outside = r"^nu must lie in \[0, 1\], got "
        for samples, message in (
                (((math.nan, 0.0),), outside + "nan$"),
                (((math.inf, 0.0),), outside + "inf$"),
                (((-5.0, 0.0),), outside + "-5.0$"),
                (((1.0, 0.0),), "^invalid grid: curve evaluation requires nu < 1, got 1.0$"),
                (((0.1, 0.0), (math.nan, 0.0), (0.2, 0.0)), outside + "nan$"),
                (((None, 0.5),), "^nu must be a real number, got None$"),  # was a TypeError
                ((), "^empty noise grid$")):  # was accepted
            with pytest.raises(ValueError, match=message):
                BoundCurve("x", samples)


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
        with pytest.raises(ValueError, match="^invalid grid: curve evaluation requires nu < 1, "
                                             "got 1.0$"):
            compute_curves([0.5, 1.0])
        with pytest.raises(ValueError, match="^nu must be a real number, got None$"):
            compute_curves([None])  # was a TypeError


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


class TestMimicryAttainsTheMinimum:
    def test_minimized_is_the_fixed_post_processing_below_the_threshold(self):
        # on today's attack the channel search ends at honest mimicry, the fixed
        # post-processing, up to the zero threshold nu = 0.443307: the largest gap on
        # these 178 points is 2.7e-15 (dual, nu = 0.26), so --minimize moves no digit
        grid = noise_grid(0.0, 0.4425, 0.0025)
        assert len(grid) == 178
        found = {c.name: c.values for c in compute_curves(grid, minimize=True)}
        fixed = {c.name: c.values for c in compute_curves(grid, minimize=False)}
        for name in ("intrinsic", "dual"):
            for nu, lo, hi in zip(grid, found[f"{name}_min"], fixed[f"{name}_fixed"]):
                assert abs(lo - hi) <= 1e-14, f"{name} at nu = {nu}: {lo!r} != {hi!r}"


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

    @pytest.mark.parametrize("minimize", [False, True])
    def test_curves_are_the_point_records(self, minimize):
        record = bounds._run_values([build_cc_attack(0.05)], minimize)[0]
        assert list(record) == [c.name for c in compute_curves([0.05], minimize=minimize)]

    def test_readme_names_the_record_curves(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        bullet = readme.split("* `curves` ", 1)[1].split("\n* ", 1)[0]
        documented = re.findall(r"`([^`]+)`", bullet.split("Curve names are", 1)[1])
        attack = build_cc_attack(0.05)
        records = {**bounds._run_values([attack], False)[0],
                   **bounds._run_values([attack], True)[0]}
        assert sorted(documented) == sorted(records)

    def test_worker_count_does_not_change_output(self):
        one = compute_curves(SHORT_GRID, workers=1)
        two = compute_curves(SHORT_GRID, workers=2)
        for a, b in zip(one, two):
            assert a.name == b.name
            assert a.samples == b.samples

    @pytest.mark.parametrize("lo, hi", [(0.4, 0.46), (0.1, 0.13)])
    def test_pooled_minimized_csv_is_the_serial_csv(self, lo, hi):
        # a real two-process pool, not the `pools` fixture's in-process map; on 0.4-0.46 one
        # serial run of GRID_CHUNK points holds searches that refinement lowers and ones it
        # leaves, as refinement first lowers a value at nu = 0.4435
        grid = noise_grid(lo, hi, 0.0005)
        texts = []
        for workers in (1, 2):
            buf = io.StringIO()
            write_curves_csv(compute_curves(grid, minimize=True, workers=workers), buf)
            texts.append(buf.getvalue())
        assert texts[0] == texts[1]

    def test_one_point_starts_no_pool(self, pools):
        assert compute_curves([0.1], workers=4)[0].samples[0][0] == 0.1
        assert pools == []

    def test_pool_is_no_larger_than_the_grid(self, pools):
        assert compute_curves([0.0, 0.05], workers=MAX_WORKERS)[2].values == (1.0, 0.95)
        assert pools == [2]

    def test_csv_format(self):
        buf = io.StringIO()
        write_curves_csv(compute_curves([0.0, 0.05]), buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "nu,value,name"
        assert len(lines) == 1 + 4 * 2
        assert lines[1].split(",")[2] == "intrinsic_fixed"

    def test_negative_zero_is_written_as_zero(self):
        buf = io.StringIO()
        write_curves_csv(compute_curves([-0.0, 0.1]), buf)
        nus = [line.split(",")[0] for line in buf.getvalue().splitlines()[1:]]
        assert set(nus) == {"0", "0.1"}


class TestGridRuns:
    """`compute_curves` searches a serial grid in runs of GRID_CHUNK points as one stack,
    and gives a pool one point a task; either way each point gets the values of its attack
    evaluated alone."""

    @pytest.fixture
    def runs(self, monkeypatch):
        """The noise levels of each unit of work `compute_curves` hands out."""
        handed, worker = [], bounds._run_worker

        def recorded(nus, minimize):
            handed.append(list(nus))
            return worker(nus, minimize)

        monkeypatch.setattr(bounds, "_run_worker", recorded)
        return handed

    # grids shorter than one run, and around one and two runs
    @pytest.mark.parametrize("points", sorted({3, 4, 5, GRID_CHUNK - 1, GRID_CHUNK,
                                               GRID_CHUNK + 1, 2 * GRID_CHUNK + 1}))
    @pytest.mark.parametrize("pooled", [False, True], ids=["serial", "pooled"])
    def test_runs_are_the_point_values(self, request, runs, points, pooled):
        # from the mimicry regime, where no move is kept, to high noise, where refinement
        # lowers values, so that runs mix both kinds of search
        grid = [round(0.02 + 0.85 * i / points, 12) for i in range(points)]
        if pooled:
            pools = request.getfixturevalue("pools")
        curves = compute_curves(grid, minimize=True, workers=2 if pooled else 1)
        if pooled:
            assert pools == [2] and runs == [[nu] for nu in grid]
        else:
            assert runs == [grid[i:i + GRID_CHUNK] for i in range(0, points, GRID_CHUNK)]
        for i, nu in enumerate(grid):
            want = bounds._run_values([build_cc_attack(nu)], True)[0]
            assert [c.samples[i][1].hex() for c in curves] == [v.hex() for v in want.values()]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_no_points_stops_every_run(self, pools, no_points, workers):
        # the fixture replaces the one unit of work, serial or pooled
        with pytest.raises(AssertionError, match="computed the points"):
            compute_curves([0.1, 0.2], minimize=True, workers=workers)
        assert pools == [2][:workers - 1]


class TestValidators:
    """Checked without building a grid, computing a point or starting a process pool."""

    def test_noise_grid_of_default_size(self):
        assert len(noise_grid(0.0, 0.13, 0.0025)) == 53

    def test_noise_grid_counts_before_building(self):
        with pytest.raises(ValueError, match="more than"):
            noise_grid(0.0, 1.0, 1e-12)
        with pytest.raises(ValueError, match="more than"):
            noise_grid(0.0, 0.13, 5e-324)  # the span overflows to inf

    def test_noise_grid_at_the_cap(self):
        step = 1.0 / MAX_GRID_POINTS
        assert len(noise_grid(0.0, 1.0 - step, step)) == MAX_GRID_POINTS
        with pytest.raises(ValueError):
            noise_grid(0.0, 1.0, step)

    def test_noise_grid_stops_before_one(self):
        assert noise_grid(0.0, 1.0, 0.5) == [0.0, 0.5]
        assert noise_grid(0.9, 1.0, 0.05) == [0.9, 0.95]

    def test_noise_grid_rejects_nan_step(self):
        with pytest.raises(ValueError, match="invalid grid"):
            noise_grid(0.0, 0.13, math.nan)

    def test_noise_grid_rejects_infinite_step(self):
        # lo + 0 * inf is nan, which the rounding filter would silently drop
        with pytest.raises(ValueError, match="finite nu_step"):
            noise_grid(0.0, 0.13, math.inf)
        with pytest.raises(ValueError, match=r"finite nu_step > 0 \(got 0.0, 0.13, inf\)$"):
            noise_grid(0.0, 0.13, 10**400)  # was an OverflowError

    def test_noise_grid_rejects_a_value_that_is_not_a_number(self):
        # each was a TypeError
        with pytest.raises(ValueError, match="^nu_min must be a real number, got None$"):
            noise_grid(None, 1, 0.1)
        with pytest.raises(ValueError, match="^nu_min must be a real number, got '0'$"):
            noise_grid("0", 1, 0.1)
        with pytest.raises(ValueError, match="finite nu_step > 0 "):
            noise_grid(0, 1, None)
        with pytest.raises(ValueError, match=r"^nu_max must lie in \[0, 1\], got 1.5$"):
            noise_grid(0, 1.5, 0.1)

    def test_points_that_round_together_rejected_before_computing(self, pools, no_points):
        with pytest.raises(ValueError, match="collide after rounding to 12 decimals"):
            noise_grid(0.1, 0.1000000000005, 1e-13)
        grid = [round(0.1 + i * 1e-13, 12) for i in range(6)]  # the points that step makes
        with pytest.raises(ValueError, match="strictly increasing"):
            compute_curves(grid, workers=2)
        assert pools == []

    def test_bench_grids_are_the_workload_grids(self):
        # the tests that cover "the bench grids" read them from the committed CSVs
        grid = oracles.bench_grids()
        assert grid == default_grid() + noise_grid(0.3, 0.9, 0.025)
        assert len(grid) == 53 + 25

    def test_default_grid_is_a_noise_grid(self):
        grid = default_grid()
        assert grid == noise_grid(0.0, 0.13, 0.0025)
        assert len(grid) == 53 and grid[0] == 0.0 and grid[-1] == 0.13

    def test_workers_bounds(self, pools, no_points):
        for bad in (0, -3, MAX_WORKERS + 1):
            with pytest.raises(ValueError, match=rf"^workers must lie in 1\.\.64, got {bad}$"):
                compute_curves([0.1], workers=bad)
        assert pools == []

    def test_non_integer_workers_rejected(self, pools, no_points):
        with pytest.raises(ValueError, match="^workers must be an integer, got 2.5$"):
            compute_curves([0.1, 0.2], workers=2.5)
        assert pools == []

    @pytest.mark.parametrize("minimize", ["no", None, 1, np.True_])
    def test_minimize_must_be_a_bool(self, monkeypatch, pools, no_points, minimize):
        # any truthy value, "no" among them, used to run the channel search and name the
        # curves intrinsic_min and dual_min
        monkeypatch.setattr(bounds, "_run_values", None)
        message = rf"^minimize must be True or False, got {re.escape(repr(minimize))}$"
        with pytest.raises(ValueError, match=message):
            compute_curves([0.1, 0.2], minimize=minimize, workers=2)
        assert pools == []


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

    def test_non_integer_n_rejected(self):
        with pytest.raises(ValueError, match="^n_parties must be an integer, got 3.5$"):
            enumerate_partitions(3.5)
        with pytest.raises(ValueError, match="^n must be an integer, got 2.5$"):
            partitions_as_masks(2.5)
        # -1 gave ((),), the partitions of no items
        with pytest.raises(ValueError, match=r"^n must lie in 0\.\.10, got -1$"):
            partitions_as_masks(-1)

    def test_large_n_rejected_before_enumerating(self):
        with pytest.raises(ValueError, match=r"^n_parties must lie in 3\.\.10, got 1000000000$"):
            enumerate_partitions(10**9)
        # the brute-force reference enumerated Bell(n) partitions and cached them
        with pytest.raises(ValueError, match=r"^n must lie in 0\.\.10, got 1000000000$"):
            partitions_as_masks(10**9)
        assert len(partitions_as_masks(0)) == 1

    def test_bell_numbers(self):
        for n, bell in ((1, 1), (2, 2), (3, 5), (4, 15), (5, 52), (6, 203)):
            assert sum(1 for _ in set_partitions(range(n))) == bell
            assert len(partitions_as_masks(n)) == bell

    def test_order_is_lexicographic_in_restricted_growth_strings(self):
        # label strings a with a[0] = 0 and a[i] <= max(a[:i]) + 1, in lexicographic order
        for n in range(7):
            strings = [a for a in itertools.product(range(n), repeat=n)
                       if all(a[i] <= max(a[:i], default=-1) + 1 for i in range(n))]
            expected = [[[i for i in range(n) if a[i] == b] for b in range(max(a, default=-1) + 1)]
                        for a in strings]
            assert list(set_partitions(range(n))) == expected

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

    def test_rejects_non_integer_counts(self):
        with pytest.raises(ValueError, match="^n_parties must be an integer, got 3.5$"):
            relay_simulate(3.5, 8, 1)
        with pytest.raises(ValueError, match="^key_len must be an integer, got 8.5$"):
            relay_simulate(3, 8.5, 1)

    def test_rejects_non_integer_seed_and_keys(self):
        # int() read seed 1.9 as 1 and (r, keys) = (1.5, [2.7]) as (1, [2])
        with pytest.raises(ValueError, match="^seed must be an integer, got 1.9$"):
            relay_simulate(3, 8, 1.9)
        with pytest.raises(ValueError, match="^seed must be an integer, got '7'$"):
            Xorshift64Star("7")
        with pytest.raises(ValueError, match="^r must be an integer, got 1.5$"):
            relay_chain(1.5, [2])
        with pytest.raises(ValueError, match="^edge key must be an integer, got 2.7$"):
            relay_chain(1, [2.7])
        # keys are bit strings: (-1, [5]) gave final keys (-1, -1)
        with pytest.raises(ValueError, match="^r must be at least 0, got -1$"):
            relay_chain(-1, [5])
        with pytest.raises(ValueError, match="^edge key must be at least 0, got -5$"):
            relay_chain(1, [2, -5])
        # bits(2.5) was a TypeError and bits(-3) gave 0
        with pytest.raises(ValueError, match="^k must be an integer, got 2.5$"):
            Xorshift64Star(1).bits(2.5)
        with pytest.raises(ValueError, match="^k must be at least 0, got -3$"):
            Xorshift64Star(1).bits(-3)
        assert Xorshift64Star(1).bits(0) == 0

    def test_rejects_oversized_arguments_before_sampling(self):
        with pytest.raises(ValueError, match=r"^n_parties must lie in 3\.\.1024, got 1000000000$"):
            relay_simulate(10**9, 8, 1)
        with pytest.raises(ValueError, match=r"^key_len must lie in 1\.\.4096, got 1000000000$"):
            relay_simulate(3, 10**9, 1)
        assert len(relay_simulate(MAX_RELAY_PARTIES, 1, 1).final_keys) == MAX_RELAY_PARTIES
        assert relay_simulate(3, MAX_KEY_LEN, 1).r < 1 << MAX_KEY_LEN

    def test_generator_determinism_and_range(self):
        gen = Xorshift64Star(2024)
        vals = [gen.bits(8) for _ in range(100)]
        assert all(0 <= v < 256 for v in vals)
        gen2 = Xorshift64Star(2024)
        assert [gen2.bits(8) for _ in range(100)] == vals

    def test_generator_zero_seed_is_usable(self):
        assert Xorshift64Star(0).bits(16) != 0
