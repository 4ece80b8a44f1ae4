import itertools
import math

import numpy as np
import pytest

from ckabounds import behaviors, qmat
from ckabounds.behaviors import (GAME_FIXED_INPUTS, KEY_SETTING, PAULI_X, PAULI_Z,
                                 Behavior, behavior_from_measurement,
                                 critical_noise, default_measurements, depolarized,
                                 expected_winning_probability, honest_behavior,
                                 parity_chsh_value,
                                 povm_from_observable, qber)
from ckabounds.states import ghz, ghz3, noisy_ghz3
from ckabounds.qmat import Povm
from conftest import maximally_mixed, random_density
import oracles

TSIRELSON = 0.5 + 1.0 / (2.0 * math.sqrt(2.0))


def uniform_behavior(ins=(2, 2, 2), outs=(2, 2, 2)):
    table = np.full(ins + outs, 1.0 / math.prod(outs))
    return Behavior(table)


def deterministic_behavior(ins, strategies):
    """Local deterministic behavior; strategies[i] maps input -> output bit."""
    outs = (2,) * len(ins)
    table = np.zeros(ins + outs)
    for xs in itertools.product(*(range(k) for k in ins)):
        outputs = tuple(strategies[i][x] for i, x in enumerate(xs))
        table[xs + outputs] = 1.0
    return Behavior(table)


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
            Behavior(table)

    def test_rejects_out_of_window(self):
        table = np.array([[1.1, -0.1]])
        with pytest.raises(ValueError, match="window"):
            Behavior(table)

    def test_rejects_non_finite_entry(self):
        with pytest.raises(ValueError, match="non-finite"):
            Behavior(np.array([[np.nan, 1.0]]))

    def test_rejects_empty_axis(self):
        # numpy cannot take the minimum of an empty table, so the axes are checked first
        for ins, outs in (((1,), (0,)), ((0, 2), (2, 2))):
            with pytest.raises(ValueError, match="^conditional distributions need every "
                                                 "axis of length at least 1") as err:
                Behavior(np.zeros(ins + outs))
            assert "\n" not in str(err.value)

    def test_rejects_odd_or_zero_axis_count(self):
        for table in (np.full((2, 2, 2), 0.25), np.ones(1), np.float64(1.0)):
            with pytest.raises(ValueError, match="^need one input and one output axis per "
                                                 "party") as err:
                Behavior(table)
            assert "\n" not in str(err.value)

    def test_alphabets_are_read_from_the_shape(self):
        b = uniform_behavior((2, 3, 1), (2, 2, 4))
        assert (b.parties, b.input_alphabets, b.output_alphabets) == (3, (2, 3, 1), (2, 2, 4))

    def test_conditional_rejects_non_integral_input(self):
        b = uniform_behavior()
        for bad in (1.7, 1.0, "1"):
            with pytest.raises(ValueError, match="^input must be an integer, got "):
                b.conditional((bad, 0, 0))
        assert b.conditional((np.int64(1), 0, 0)).shape == (2, 2, 2)

    def test_clamps_tiny_negatives(self):
        table = np.array([[1.0 + 5e-13, -5e-13]])
        b = Behavior(table)
        assert b.table.min() >= 0.0


def random_observable(rng, d):
    """U diag(+-1) U^dagger for a random unitary U and random signs."""
    q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return (q * rng.choice([-1.0, 1.0], size=d)) @ q.conj().T


def effects(povms):
    return [[p.effects for p in party] for party in povms]


class TestPovmFromObservable:
    def test_matches_eigenprojectors(self, rng):
        for d in (2, 3, 4):
            obs = random_observable(rng, d)
            vals, vecs = np.linalg.eigh(obs)
            plus = vecs[:, vals > 0] @ vecs[:, vals > 0].conj().T
            povm = povm_from_observable(obs)
            assert np.abs(povm.effects[0] - plus).max() < 1e-12
            assert np.abs(povm.effects[1] - (np.eye(d) - plus)).max() < 1e-12

    def test_rejects_non_involution(self):
        with pytest.raises(ValueError, match="square to the identity"):
            povm_from_observable(np.diag([1.0, 0.5]))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square matrix"):
            povm_from_observable(np.ones((2, 3)))

    def test_rejects_non_hermitian_involution(self):
        with pytest.raises(ValueError, match="Hermitian"):
            povm_from_observable(np.array([[1.0, 1.0], [0.0, -1.0]]))

    def test_default_measurements_built_once(self):
        assert default_measurements() is default_measurements()


class TestBehaviorFromMeasurement:
    def test_povms_for_too_few_parties_rejected(self):
        with pytest.raises(ValueError, match="^got POVMs for 2 parties, state has 3 factors$"):
            behavior_from_measurement(ghz3(), default_measurements()[:2])

    def test_honest_device_against_kron_loop(self):
        povms = default_measurements()
        for nu in np.linspace(0.0, 1.0, 21):
            rho = noisy_ghz3(float(nu)).state
            table = behavior_from_measurement(rho, povms).table
            assert np.abs(table - oracles.born_table(rho.matrix, effects(povms))).max() < 1e-14

    def test_random_states_against_kron_loop(self, rng):
        for _ in range(10):
            rho = random_density(rng, (2, 2, 2))
            povms = [[povm_from_observable(random_observable(rng, 2)) for _ in range(k)]
                     for k in rng.integers(1, 4, size=3)]
            table = behavior_from_measurement(rho, povms).table
            assert table.shape == tuple(len(p) for p in povms) + (2, 2, 2)
            assert np.abs(table - oracles.born_table(rho.matrix, effects(povms))).max() < 1e-14

    def test_qutrit_qubit_state_against_kron_loop(self, rng):
        # a (3, 2) state; both qutrit inputs have three outcomes
        rho = random_density(rng, (3, 2))
        plus, minus = povm_from_observable(random_observable(rng, 3)).effects
        qutrit = (Povm(tuple(np.diag(row) for row in np.eye(3))),
                  Povm((plus, minus, np.zeros((3, 3)))))
        qubit = (povm_from_observable(PAULI_Z), povm_from_observable(PAULI_X))
        table = behavior_from_measurement(rho, (qutrit, qubit)).table
        assert table.shape == (2, 2, 3, 2)
        expect = oracles.born_table(rho.matrix, effects((qutrit, qubit)))
        assert np.abs(table - expect).max() < 1e-14

    def test_two_party_chsh_box_against_kron_loop(self):
        povms = ((povm_from_observable(PAULI_Z), povm_from_observable(PAULI_X)),
                 (povm_from_observable((PAULI_Z + PAULI_X) / math.sqrt(2)),
                  povm_from_observable((PAULI_Z - PAULI_X) / math.sqrt(2))))
        rho = ghz(2, 2)
        table = behavior_from_measurement(rho, povms).table
        assert np.abs(table - oracles.born_table(rho.matrix, effects(povms))).max() < 1e-14


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

    def test_party_without_inputs_or_with_mixed_outcome_counts_rejected(self):
        z = povm_from_observable(PAULI_Z)
        three = Povm((np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), np.zeros((2, 2))))
        for bob in ((), (z, three)):
            with pytest.raises(ValueError, match="party 1 needs at least one input"):
                behavior_from_measurement(ghz(2, 2), ((z,), bob))

    def test_dimension_mismatch_rejected(self, rng):
        z = povm_from_observable(PAULI_Z)
        with pytest.raises(ValueError, match="dimension"):
            behavior_from_measurement(random_density(rng, (3, 2)), ((z,), (z,)))


def _flip_tables(rng, lead=(4, 3)):
    """Random conditional tables with leading input axes and three binary outputs."""
    raw = rng.random(lead + (2, 2, 2))
    return raw / raw.sum(axis=(-3, -2, -1), keepdims=True)


class TestDepolarized:
    """The device's noise as per-party outcome flips, against the Born rule on the
    depolarized GHZ density matrix it replaced."""

    def test_matches_born_route(self):
        for nu in np.linspace(0.0, 0.99, 199):
            born = oracles.depolarized_ghz_behavior(float(nu)).table
            assert np.abs(honest_behavior(float(nu)).table - born).max() <= 1e-15, nu

    def test_noiseless_at_zero(self, rng):
        noiseless = behavior_from_measurement(ghz3(), default_measurements()).table
        assert np.array_equal(depolarized(noiseless, 0.0), noiseless)
        assert np.array_equal(honest_behavior(0.0).table, noiseless)
        # the `game` command reads this table: it equals the old route bit for bit
        assert np.array_equal(noiseless, oracles.depolarized_ghz_behavior(0.0).table)
        tables = _flip_tables(rng)
        assert np.array_equal(depolarized(tables, 0.0), tables)

    def test_conditionals_sum_to_one(self, rng):
        tables = _flip_tables(rng)
        for nu in np.linspace(0.0, 1.0, 21):
            for t in (honest_behavior(float(nu)).table, depolarized(tables, float(nu))):
                assert np.abs(t.sum(axis=(-3, -2, -1)) - 1.0).max() <= 1e-15

    def test_point_mass_flips_each_party_independently(self):
        # from 000, k flipped outcomes have probability e^k (1-e)^(3-k), e = nu/2
        point = np.zeros((2, 2, 2))
        point[0, 0, 0] = 1.0
        for nu in (0.1, 0.5, 1.0):
            e = nu / 2
            out = depolarized(point, nu)
            for outcome in itertools.product(range(2), repeat=3):
                k = sum(outcome)
                assert out[outcome] == pytest.approx(e ** k * (1 - e) ** (3 - k), abs=1e-16)

    def test_leading_axes_broadcast(self, rng):
        tables = _flip_tables(rng)
        out = depolarized(tables, 0.3)
        assert out.shape == tables.shape
        for idx in np.ndindex(tables.shape[:2]):
            assert np.abs(out[idx] - depolarized(tables[idx], 0.3)).max() <= 1e-16

    def test_rejects_nu_outside_unit_interval(self):
        point = np.full((2, 2, 2), 0.125)
        for nu in (-0.1, 1.1, math.nan):
            message = rf"^nu must lie in \[0, 1\], got {nu}$"
            with pytest.raises(ValueError, match=message):
                depolarized(point, nu)
            with pytest.raises(ValueError, match=message):
                honest_behavior(nu)
        with pytest.raises(ValueError, match="^nu must be a real number, got '0.1'$"):
            honest_behavior("0.1")  # was parsed

    def test_honest_behavior_builds_no_density_matrix(self, monkeypatch):
        # beyond the GHZ state, cached on first use
        honest_behavior(0.1)
        built = []
        validate = qmat.DensityMatrix.__post_init__

        def counting(self):
            built.append(self)
            validate(self)

        monkeypatch.setattr(qmat.DensityMatrix, "__post_init__", counting)
        for nu in (0.0, 0.05, 0.5):
            honest_behavior(nu)
        assert built == []

    def test_noiseless_table_is_built_once(self, monkeypatch):
        built = []

        def counting(rho, povms):
            built.append(rho)
            return behavior_from_measurement(rho, povms)

        monkeypatch.setattr(behaviors, "behavior_from_measurement", counting)
        behaviors._ghz_table.cache_clear()
        tables = [honest_behavior(nu).table for nu in (0.0, 0.05, 0.0)]
        assert len(built) == 1
        assert np.array_equal(tables[0], tables[2])
        assert not behaviors._ghz_table().flags.writeable


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
            mix = Behavior(table)
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
            parity_chsh_value(Behavior(table), fixed_inputs=())

    def test_one_party_rejected(self):
        with pytest.raises(ValueError, match="at least two parties"):
            parity_chsh_value(Behavior(np.full((2, 2), 0.5)), fixed_inputs=())


class TestExpectedWinningProbability:
    def test_zero_noise(self):
        assert expected_winning_probability(0.0, 3) == pytest.approx(TSIRELSON, abs=1e-12)

    def test_full_noise(self):
        assert expected_winning_probability(1.0, 3) == pytest.approx(0.5, abs=1e-12)

    def test_critical_noise_hits_classical_bound(self):
        nu = critical_noise(3)
        assert expected_winning_probability(nu, 3) == pytest.approx(0.75, abs=1e-8)

    def test_rejects_two_parties(self):
        with pytest.raises(ValueError, match="^n_parties must be at least 3, got 2$"):
            expected_winning_probability(0.1, 2)

    def test_rejects_nu_that_is_not_a_real_number(self):
        # "0.1" was parsed
        with pytest.raises(ValueError, match="^nu must be a real number, got '0.1'$"):
            expected_winning_probability("0.1", 3)

    def test_rejects_non_integral_parties(self):
        # 3.5 parties gave a number, 0.75498 at nu = 0.1
        with pytest.raises(ValueError, match="^n_parties must be an integer, got 3.5$"):
            expected_winning_probability(0.1, 3.5)

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
        for n in range(3, 11):
            assert abs(expected_winning_probability(critical_noise(n), n) - 0.75) <= 1e-13

    def test_monotone_in_parties(self):
        nus = [critical_noise(n) for n in range(3, 11)]
        assert 0.0 < nus[-1] and all(b < a for a, b in zip(nus, nus[1:]))

    def test_many_parties(self):
        # bisection needs no degree-N polynomial: a million parties take microseconds
        sizes = (100, 10**4, 10**6)
        nus = [critical_noise(n) for n in sizes]
        assert all(0.0 < nu < 1.0 for nu in nus)
        assert all(b < a for a, b in zip(nus, nus[1:]))
        for n, nu in zip(sizes, nus):
            u = 1.0 - nu
            assert abs(3.0 * u ** n + u * u - 2.0 * math.sqrt(2.0)) <= 1e-13 * n

    def test_rejects_two_parties(self):
        with pytest.raises(ValueError, match="^n_parties must be at least 3, got 2$"):
            critical_noise(2)

    def test_rejects_non_integral_parties(self):
        with pytest.raises(ValueError, match="^n_parties must be an integer, got 3.5$"):
            critical_noise(3.5)


class TestQber:
    def test_honest_ghz_has_no_errors(self):
        assert qber(honest_behavior(0.0)) == pytest.approx(0.0, abs=1e-12)

    def test_uniform_behavior(self):
        assert qber(uniform_behavior(), key_inputs=(0, 0, 0)) == pytest.approx(0.5, abs=1e-12)

    def test_invalid_key_inputs_rejected(self):
        with pytest.raises(ValueError, match=r"^input must lie in 0\.\.1, got 2$"):
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


def parity_game(fixed_inputs):
    """The parity game written out for the oracle: uniform (x, y), fixed extra Bobs."""
    inputs = {(x, y) + tuple(fixed_inputs): 0.25 for x in range(2) for y in range(2)}

    def wins(xs, outs):
        bbar = 0
        for b in outs[2:]:
            bbar ^= b
        return (outs[0] + outs[1]) % 2 == (xs[0] * (xs[1] + bbar)) % 2

    return inputs, wins


class TestGameSpec:
    """The parity game as specified: its inputs, its win condition, the oracle loop."""

    def test_parity_spec_inputs_are_uniform(self):
        # each (x, y) carries weight 1/4 and only the fixed extra-Bob input is read:
        # a box that wins exactly at one (x, y), and only when Bob2 gets input 1
        for x, y in itertools.product(range(2), repeat=2):
            table = np.zeros((2, 2, 2, 2, 2, 2))
            for xs in itertools.product(range(2), repeat=3):
                win = xs[:2] == (x, y) and xs[2] == 1
                a = xs[0] * xs[1] % 2 if win else 1 - xs[0] * xs[1] % 2
                table[xs + (a, 0, 0)] = 1.0
            box = Behavior(table)
            assert parity_chsh_value(box, fixed_inputs=(1,)) == 0.25
            assert parity_chsh_value(box, fixed_inputs=(0,)) == 0.0

    def test_generic_game_on_two_party_chsh(self):
        # with no extra Bobs the parity game is plain CHSH (win iff a + b = xy)
        alice = (povm_from_observable(PAULI_Z), povm_from_observable(PAULI_X))
        bob = (povm_from_observable((PAULI_Z + PAULI_X) / math.sqrt(2)),
               povm_from_observable((PAULI_Z - PAULI_X) / math.sqrt(2)))
        b = behavior_from_measurement(ghz(2, 2), (alice, bob))
        assert parity_chsh_value(b, fixed_inputs=()) == pytest.approx(TSIRELSON, abs=1e-10)

    def test_wrong_number_of_fixed_inputs_rejected(self):
        for fixed, count in (((), 2), ((1, 1), 4)):
            with pytest.raises(ValueError, match=f"^expected 3 inputs, got {count}$"):
                parity_chsh_value(honest_behavior(0.0), fixed_inputs=fixed)

    def test_non_integral_fixed_input_rejected(self):
        with pytest.raises(ValueError, match="^input must be an integer, got 1.7$"):
            parity_chsh_value(honest_behavior(0.0), fixed_inputs=(1.7,))

    def test_fixed_input_out_of_range_rejected(self):
        with pytest.raises(ValueError, match=r"^input must lie in 0\.\.1, got 2$"):
            parity_chsh_value(honest_behavior(0.0), fixed_inputs=(2,))

    def test_slices_are_read_through_conditional(self, monkeypatch):
        # one rule for joint inputs: the game reads each (x, y) slice as Behavior.conditional
        seen = []
        read = Behavior.conditional

        def recording(self, inputs):
            seen.append(tuple(inputs))
            return read(self, inputs)

        monkeypatch.setattr(Behavior, "conditional", recording)
        parity_chsh_value(honest_behavior(0.0))
        assert seen == [(x, y, 1) for x in range(2) for y in range(2)]

    def test_honest_behavior_equals_oracle_bit_for_bit(self):
        game = parity_game(GAME_FIXED_INPUTS)
        for nu in np.linspace(0.0, 1.0, 21):
            b = honest_behavior(float(nu))
            assert parity_chsh_value(b) == oracles.game_value(b, *game)

    def test_deterministic_boxes_equal_oracle_bit_for_bit(self):
        boxes = list(all_deterministic_game_behaviors())
        assert len(boxes) == 32
        game = parity_game((0,))
        for b in boxes:
            assert parity_chsh_value(b, fixed_inputs=(0,)) == oracles.game_value(b, *game)
