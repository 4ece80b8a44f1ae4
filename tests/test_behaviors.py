import io
import itertools
import math

import numpy as np
import pytest

from ckabounds.behaviors import (GAME_FIXED_INPUTS, KEY_SETTING, PAULI_X, PAULI_Z,
                                 Behavior, GameSpec, behavior_distance,
                                 behavior_from_csv, behavior_from_measurement,
                                 behavior_to_csv, critical_noise,
                                 default_measurements, expected_winning_probability,
                                 game_value, honest_behavior, is_nonsignaling,
                                 parity_chsh_value, parity_game_spec,
                                 povm_from_observable, qber)
from ckabounds.states import ghz, noisy_ghz3
from ckabounds.qmat import maximally_mixed
from conftest import random_density
import oracles

TSIRELSON = 0.5 + 1.0 / (2.0 * math.sqrt(2.0))


def uniform_behavior(ins=(2, 2, 2), outs=(2, 2, 2)):
    table = np.full(ins + outs, 1.0 / math.prod(outs))
    return Behavior(ins, outs, table)


def deterministic_behavior(ins, strategies):
    """Local deterministic behavior; strategies[i] maps input -> output bit."""
    outs = (2,) * len(ins)
    table = np.zeros(ins + outs)
    for xs in itertools.product(*(range(k) for k in ins)):
        outputs = tuple(strategies[i][x] for i, x in enumerate(xs))
        table[xs + outputs] = 1.0
    return Behavior(ins, outs, table)


def all_deterministic_game_behaviors():
    """Every local deterministic box with the 2/2/1-input binary-output shape."""
    ins = (2, 2, 1)
    singles = list(itertools.product(range(2), repeat=2))  # functions {0,1} -> {0,1}
    fixed = [(0,), (1,)]
    for sa, sb, sc in itertools.product(singles, singles, fixed):
        yield deterministic_behavior(ins, [sa, sb, sc])


class TestBehaviorValidation:
    def test_rejects_unnormalized(self):
        table = np.zeros((2, 2))
        table[0, 0] = 0.7
        table[1, 1] = 1.0
        with pytest.raises(ValueError, match="sum to 1"):
            Behavior((2,), (2,), table)

    def test_rejects_out_of_window(self):
        table = np.array([[1.1, -0.1]])
        with pytest.raises(ValueError, match="window"):
            Behavior((1,), (2,), table)

    def test_clamps_tiny_negatives(self):
        table = np.array([[1.0 + 5e-13, -5e-13]])
        b = Behavior((1,), (2,), table)
        assert b.table.min() >= 0.0


class TestBehaviorFromMeasurement:
    def test_ghz_all_z_correlations(self):
        z = povm_from_observable(PAULI_Z)
        b = behavior_from_measurement(ghz(3, 2), ((z,), (z,), (z,)))
        cond = b.conditional((0, 0, 0))
        assert cond[0, 0, 0] == pytest.approx(0.5, abs=1e-12)
        assert cond[1, 1, 1] == pytest.approx(0.5, abs=1e-12)
        assert cond.sum() == pytest.approx(1.0, abs=1e-12)

    def test_maximally_mixed_is_uniform(self):
        b = behavior_from_measurement(maximally_mixed((2, 2, 2)), default_measurements())
        assert np.abs(b.table - 1.0 / 8.0).max() < 1e-12

    def test_key_setting_matches_decomposition_oracle(self):
        nu = 0.1
        dec = noisy_ghz3(nu)
        b = behavior_from_measurement(dec.state, default_measurements())
        measured = b.conditional(KEY_SETTING)
        p_ghz = np.zeros((2, 2, 2))
        p_ghz[0, 0, 0] = p_ghz[1, 1, 1] = 0.5
        expect = dec.ghz_weight * p_ghz + dec.biseparable_weight * oracles.local_table(nu)
        assert np.abs(measured - expect).max() < 1e-10

    def test_dimension_mismatch_rejected(self, rng):
        z = povm_from_observable(PAULI_Z)
        with pytest.raises(ValueError, match="dimension"):
            behavior_from_measurement(random_density(rng, (3, 2)), ((z,), (z,)))


class TestBehaviorDistance:
    def test_identical_behaviors(self):
        b = honest_behavior(0.2)
        assert behavior_distance(b, b) == 0.0

    def test_disjoint_deterministic_outputs(self):
        p = deterministic_behavior((2, 2, 1), [(0, 0), (0, 0), (0,)])
        q = deterministic_behavior((2, 2, 1), [(1, 1), (0, 0), (0,)])
        assert behavior_distance(p, q) == pytest.approx(2.0)

    def test_epsilon_mixture(self):
        eps = 0.01
        p = honest_behavior(0.0)
        u = uniform_behavior(p.input_alphabets, p.output_alphabets)
        q = Behavior(p.input_alphabets, p.output_alphabets,
                     (1 - eps) * p.table + eps * u.table)
        assert behavior_distance(p, q) <= 2 * eps + 1e-12

    def test_metric_properties(self, rng):
        behaviors = []
        for _ in range(3):
            raw = rng.random((2, 2, 1, 2, 2, 2))
            raw /= raw.reshape(2, 2, 1, -1).sum(axis=-1)[..., None, None, None]
            behaviors.append(Behavior((2, 2, 1), (2, 2, 2), raw))
        p, q, r = behaviors
        assert behavior_distance(p, q) == pytest.approx(behavior_distance(q, p))
        assert behavior_distance(p, r) <= behavior_distance(p, q) + behavior_distance(q, r) + 1e-12

    def test_alphabet_mismatch_rejected(self):
        with pytest.raises(ValueError):
            behavior_distance(uniform_behavior(), uniform_behavior(ins=(2, 2, 1)))


class TestNonsignaling:
    def test_quantum_behavior_is_nonsignaling(self):
        assert is_nonsignaling(honest_behavior(0.07), 1e-9)

    def test_uniform_is_nonsignaling(self):
        assert is_nonsignaling(uniform_behavior(), 1e-9)

    def test_signaling_table_detected(self):
        # second party outputs the first party's input
        table = np.zeros((2, 2, 2, 2))
        for x, y in itertools.product(range(2), repeat=2):
            table[x, y, 0, x] = 1.0
        assert not is_nonsignaling(Behavior((2, 2), (2, 2), table), 1e-9)


class TestParityGame:
    def test_uniform_behavior_wins_half(self):
        assert parity_chsh_value(uniform_behavior()) == pytest.approx(0.5, abs=1e-12)

    def test_classical_deterministic_maximum(self):
        values = [parity_chsh_value(b, fixed_inputs=(0,))
                  for b in all_deterministic_game_behaviors()]
        assert max(values) == 0.75

    def test_classical_mixtures_bounded(self, rng):
        boxes = list(all_deterministic_game_behaviors())
        for _ in range(20):
            w = rng.random(len(boxes))
            w /= w.sum()
            table = sum(wi * b.table for wi, b in zip(w, boxes))
            mix = Behavior((2, 2, 1), (2, 2, 2), table)
            assert parity_chsh_value(mix, fixed_inputs=(0,)) <= 0.75 + 1e-9

    def test_honest_ghz_reaches_tsirelson(self):
        val = parity_chsh_value(honest_behavior(0.0))
        assert val == pytest.approx(TSIRELSON, abs=1e-6)

    def test_default_set_is_locally_optimal(self):
        # nudging any game observable by +-0.05 rad cannot beat the quantum maximum
        def obs(theta):
            return math.cos(theta) * PAULI_Z + math.sin(theta) * PAULI_X

        base = {"a0": 0.0, "a1": math.pi / 2, "b10": math.pi / 4,
                "b11": -math.pi / 4, "b21": math.pi / 2}
        for name in base:
            for delta in (-0.05, 0.05):
                angles = dict(base)
                angles[name] += delta
                povms = (
                    (povm_from_observable(obs(angles["a0"])),
                     povm_from_observable(obs(angles["a1"]))),
                    (povm_from_observable(obs(angles["b10"])),
                     povm_from_observable(obs(angles["b11"])),
                     povm_from_observable(PAULI_Z)),
                    (povm_from_observable(PAULI_Z),
                     povm_from_observable(obs(angles["b21"]))),
                )
                val = parity_chsh_value(behavior_from_measurement(ghz(3, 2), povms))
                assert val <= TSIRELSON + 1e-6

    def test_non_binary_outputs_rejected(self):
        table = np.full((2, 2, 3, 3), 1.0 / 9.0)
        with pytest.raises(ValueError, match="binary"):
            parity_chsh_value(Behavior((2, 2), (3, 3), table), fixed_inputs=())


class TestExpectedWinningProbability:
    def test_zero_noise(self):
        assert expected_winning_probability(0.0, 3) == pytest.approx(TSIRELSON, abs=1e-12)

    def test_full_noise(self):
        assert expected_winning_probability(1.0, 3) == pytest.approx(0.5, abs=1e-12)

    def test_critical_noise_hits_classical_bound(self):
        nu = critical_noise(3)
        assert expected_winning_probability(nu, 3) == pytest.approx(0.75, abs=1e-8)

    def test_rejects_two_parties(self):
        with pytest.raises(ValueError):
            expected_winning_probability(0.1, 2)

    def test_measured_value_exceeds_reference_by_exact_offset(self):
        # the reference curve undercounts the surviving A-B1 correlations;
        # the default-measurement device wins more by (1-nu)^2 nu / (8 sqrt2)
        for nu in np.linspace(0.0, 0.12, 9):
            nu = float(nu)
            measured = parity_chsh_value(honest_behavior(nu))
            offset = (1 - nu) ** 2 * nu / (8 * math.sqrt(2))
            assert measured == pytest.approx(
                expected_winning_probability(nu, 3) + offset, abs=1e-8)
            assert measured == pytest.approx(oracles.measured_game_value(nu), abs=1e-8)


class TestCriticalNoise:
    def test_three_party_band(self):
        assert critical_noise(3) == pytest.approx(0.1189, abs=5e-4)

    def test_root_property(self):
        nu = critical_noise(3)
        assert abs(expected_winning_probability(nu, 3) - 0.75) < 1e-8

    def test_monotone_in_parties(self):
        nu4 = critical_noise(4)
        assert 0.0 < nu4 < critical_noise(3)


class TestQber:
    def test_honest_ghz_has_no_errors(self):
        assert qber(honest_behavior(0.0)) == pytest.approx(0.0, abs=1e-12)

    def test_uniform_behavior(self):
        assert qber(uniform_behavior(), key_inputs=(0, 0, 0)) == pytest.approx(0.5, abs=1e-12)

    def test_invalid_key_inputs_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            qber(uniform_behavior(), key_inputs=(0, 2, 0))

    def test_noisy_value_matches_table_sum_oracle(self):
        nu = 0.1
        cond = honest_behavior(nu).conditional(KEY_SETTING)
        expect = 0.0
        for a, b1, b2 in itertools.product(range(2), repeat=3):
            if a != b1:
                expect += cond[a, b1, b2]
        assert qber(honest_behavior(nu)) == pytest.approx(expect, abs=1e-12)
        # closed form of the disagreement mass in the decomposition
        assert expect == pytest.approx((1 - nu) ** 2 * nu + (3 - 2 * nu) * nu ** 2 / 2,
                                       abs=1e-10)


class TestGameNoiseCurve:
    def test_fixed_inputs_constant(self):
        assert GAME_FIXED_INPUTS == (1,)
        assert KEY_SETTING == (0, 2, 0)


class TestGameSpec:
    def test_input_distribution_must_normalize(self):
        with pytest.raises(ValueError, match="sum to 1"):
            GameSpec({(0, 0): 0.5, (1, 1): 0.4}, lambda x, a: True)

    def test_parity_spec_inputs_are_uniform(self):
        spec = parity_game_spec(3, (1,))
        assert set(spec.input_distribution.values()) == {0.25}
        assert all(inp[2] == 1 for inp in spec.input_distribution)

    def test_generic_game_on_two_party_chsh(self):
        # plain CHSH (win iff a + b = xy) on the optimally measured Bell pair
        alice = (povm_from_observable(PAULI_Z), povm_from_observable(PAULI_X))
        bob = (povm_from_observable((PAULI_Z + PAULI_X) / math.sqrt(2)),
               povm_from_observable((PAULI_Z - PAULI_X) / math.sqrt(2)))
        b = behavior_from_measurement(ghz(2, 2), (alice, bob))
        spec = GameSpec({(x, y): 0.25 for x in range(2) for y in range(2)},
                        lambda xs, outs: (outs[0] + outs[1]) % 2 == xs[0] * xs[1])
        assert game_value(b, spec) == pytest.approx(TSIRELSON, abs=1e-10)

    def test_always_win_predicate(self):
        spec = GameSpec({(0, 0, 0): 1.0}, lambda xs, outs: True)
        assert game_value(uniform_behavior(), spec) == pytest.approx(1.0, abs=1e-12)


def csv_text(p):
    buf = io.StringIO()
    behavior_to_csv(p, buf)
    return buf.getvalue()


class TestCsv:
    def test_round_trip(self):
        b = honest_behavior(0.05)
        text = csv_text(b)
        back = behavior_from_csv(io.StringIO(text))
        assert back.input_alphabets == b.input_alphabets
        assert np.abs(back.table - b.table).max() < 1e-12

    def test_header_format(self):
        text = csv_text(honest_behavior(0.0))
        assert text.splitlines()[0] == "x1,x2,x3,a1,a2,a3,p"

    def test_significant_digits(self):
        buf = io.StringIO()
        behavior_to_csv(honest_behavior(0.0), buf)
        row = buf.getvalue().splitlines()[1]
        value = row.split(",")[-1]
        assert len(value.replace(".", "").replace("-", "").lstrip("0")) >= 12 or float(value) == 0.0
