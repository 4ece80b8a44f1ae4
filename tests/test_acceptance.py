"""Acceptance suite: one test per release criterion, at the stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion; each test prints its PASS line only after every assertion in it
has held.
"""

import itertools
import math
import re
import time
from collections import Counter

import numpy as np
import pytest

from ckabounds.behaviors import (behavior_from_measurement, critical_noise,
                                 default_measurements, expected_winning_probability,
                                 honest_behavior, parity_chsh_value)
from ckabounds.bounds import compute_curves, default_grid, relay_chain
from ckabounds.cli import main
from ckabounds.attacks import build_cc_attack
from ckabounds.qmat import partial_trace, quantum_cmi
from ckabounds.secrecy import (JointDistribution, continuity_envelope, g,
                               intrinsic_information, s_n, shannon_cmi,
                               total_correlation)
from ckabounds.states import ghz, noisy_ghz3
from conftest import random_density
from test_behaviors import all_deterministic_game_behaviors
import oracles


def report(k, label):
    print(f"ACCEPTANCE {k} ({label}): PASS")


def test_criterion_1_critical_noise(capsys):
    start = time.perf_counter()
    code = main(["game"])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    assert code == 0
    match = re.search(r"nu_crit\s*=\s*([0-9.]+)", out)
    assert match is not None
    assert abs(float(match.group(1)) - 0.1189) <= 5e-4
    assert elapsed < 1.0
    with capsys.disabled():
        report(1, f"critical noise {float(match.group(1)):.6f}, {elapsed:.2f}s")


def test_criterion_2_game_values(capsys):
    assert expected_winning_probability(0.0, 3) == pytest.approx(0.8535534, abs=1e-6)
    measured = parity_chsh_value(honest_behavior(0.0))
    assert measured == pytest.approx(0.8535534, abs=1e-6)
    classical_max = max(parity_chsh_value(b, fixed_inputs=(0,))
                        for b in all_deterministic_game_behaviors())
    assert classical_max == 0.75
    with capsys.disabled():
        report(2, "quantum value and exact classical maximum")


def test_criterion_3_expansion_identity(capsys):
    start = time.perf_counter()
    rng = np.random.default_rng(31)
    worst = 0.0
    instances = 104
    for i in range(instances):
        n = 3 if i % 2 == 0 else 4
        rho = random_density(rng, (2,) * (n + 1))
        total = quantum_cmi(rho, [[k] for k in range(n)], (n,))
        tele = 0.0
        for k in range(1, n):
            red = partial_trace(rho, list(range(k + 1)) + [n])
            tele += quantum_cmi(red, [[k], list(range(k))], (k + 1,))
        worst = max(worst, abs(total - tele))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-9
    assert elapsed < 30.0
    with capsys.disabled():
        report(3, f"expansion identity, {instances} instances, max err {worst:.1e}")


def test_criterion_4_duality_identity(capsys):
    rng = np.random.default_rng(47)
    worst = 0.0
    instances = 220
    for _ in range(instances):
        alphabets = tuple(int(a) for a in rng.integers(2, 4, size=3))
        raw = rng.random(alphabets + (1,)) ** 2 + 1e-9
        dist = JointDistribution(raw / raw.sum())
        lhs = s_n(dist) + total_correlation(dist)
        p = dist.probs[..., 0]
        rhs = 0.0
        for i in range(3):
            rest = tuple(j for j in range(3) if j != i)
            rhs += (oracles.entropy(p.sum(axis=rest)) + oracles.entropy(p.sum(axis=i))
                    - oracles.entropy(p))
        worst = max(worst, abs(lhs - rhs))
    assert worst <= 1e-9
    with capsys.disabled():
        report(4, f"duality identity, {instances} instances, max err {worst:.1e}")


def test_criterion_5_normalization(capsys):
    key = np.zeros((2, 2, 2, 2))
    for k in range(2):
        for e in range(2):
            key[k, k, k, e] = 0.25
    dist = JointDistribution(key)
    assert shannon_cmi(dist) == pytest.approx(2.0, abs=1e-9)
    assert s_n(dist) == pytest.approx(1.0, abs=1e-9)
    with capsys.disabled():
        report(5, "ideal key normalization: cmi 2, telescoping 1")


def test_criterion_6_decomposition_reconstruction(capsys):
    ghz_mat = ghz(3, 2).matrix
    povms = default_measurements()
    worst_state = 0.0
    worst_behavior = 0.0
    ghz_table = behavior_from_measurement(ghz(3, 2), povms).table
    for nu in np.linspace(0.0, 0.95, 20):
        dec = noisy_ghz3(float(nu))
        recon = dec.ghz_weight * ghz_mat + dec.biseparable_weight * dec.chi.matrix
        worst_state = max(worst_state, float(np.abs(recon - dec.state.matrix).max()))
        chi_table = behavior_from_measurement(dec.chi, povms).table
        mixed = dec.ghz_weight * ghz_table + dec.biseparable_weight * chi_table
        measured = behavior_from_measurement(dec.state, povms).table
        worst_behavior = max(worst_behavior, float(np.abs(mixed - measured).max()))
    assert worst_state <= 1e-10
    assert worst_behavior <= 1e-10
    with capsys.disabled():
        report(6, f"reconstruction errs: state {worst_state:.1e}, behavior {worst_behavior:.1e}")


def test_criterion_7_curve_structure(capsys):
    start = time.perf_counter()
    grid = default_grid()
    fixed = compute_curves(grid, minimize=False)
    minimized = compute_curves(grid, minimize=True)
    elapsed = time.perf_counter() - start

    by_name = {c.name: c for c in fixed + minimized}
    for name in ("intrinsic_fixed", "dual_fixed", "trivial", "dw_lower_PROXY",
                 "intrinsic_min", "dual_min"):
        assert by_name[name].values[0] == pytest.approx(1.0, abs=1e-8)

    in_range = [i for i, nu in enumerate(grid) if nu <= 0.12 + 1e-12]
    for name in ("intrinsic_fixed", "trivial"):
        vals = [by_name[name].values[i] for i in in_range]
        assert all(a >= b - 1e-9 for a, b in zip(vals, vals[1:]))

    for t, i in zip(by_name["trivial"].values, by_name["intrinsic_fixed"].values):
        assert t >= i - 1e-9
    for m, f in zip(by_name["intrinsic_min"].values, by_name["intrinsic_fixed"].values):
        assert m <= f + 1e-9

    assert elapsed < 300.0
    with capsys.disabled():
        report(7, f"curve structure on {len(grid)}-point grid, {elapsed:.1f}s")


def test_criterion_8_intrinsic_oracle_equivalence(capsys):
    for nu in (0.02, 0.05, 0.1):
        dist = build_cc_attack(nu).joint
        value, _ = intrinsic_information(dist)
        brute = oracles.attack_channel_minimum(nu, oracles.cmi_of_table)
        assert value == pytest.approx(brute, abs=1e-9)
    with capsys.disabled():
        report(8, "channel search equals exhaustive partition minimum at 3 noise levels")


def test_criterion_9_relay_exhaustive(capsys):
    for key_len in (1, 2, 3):
        size = 2 ** key_len
        joint = Counter()
        for r, k1, k2 in itertools.product(range(size), repeat=3):
            broadcasts, finals = relay_chain(r, (k1, k2))
            assert all(f == r for f in finals)
            joint[(broadcasts, r)] += 1
        # every (transcript, r) pair occurs exactly once: the transcript is
        # exactly uniform and carries zero information about r
        assert len(joint) == size ** 3
        assert set(joint.values()) == {1}
        transcripts = Counter(tr for tr, _ in joint)
        assert set(transcripts.values()) == {size}
    with capsys.disabled():
        report(9, "relay agreement and exact transcript independence, key_len <= 3")


def test_criterion_10_continuity_envelope(capsys):
    assert g(0.0) == 0.0
    assert g(1.0) == 2.0
    spot = continuity_envelope(0.5, 1.0, "cmi")
    oracle = 2 * 0.5 * 1.0 + 2 * ((1 + 0.5) * math.log2(1 + 0.5) - 0.5 * math.log2(0.5))
    assert abs(spot - oracle) <= 1e-12
    with capsys.disabled():
        report(10, "continuity envelope endpoints and spot value")
