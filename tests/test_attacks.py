import dataclasses
import itertools
import math

import numpy as np
import pytest

from ckabounds.attacks import (_GHZ_KEY, _RECORDED, EVE_IGNORANT, POST_IGNORANT,
                               build_cc_attack, eve_postprocess, eve_symbol)
from ckabounds.behaviors import (KEY_SETTING, PAULI_Z, behavior_from_measurement,
                                 default_measurements, honest_behavior, povm_from_observable)
from ckabounds import qmat, states
from ckabounds.secrecy import JointDistribution, intrinsic_information, shannon_cmi, s_n
from ckabounds.states import ghz, noisy_ghz3
import oracles


class TestBuildCcAttack:
    def test_zero_noise_eve_is_ignorant(self):
        attack = build_cc_attack(0.0)
        assert attack.joint.probs[..., EVE_IGNORANT].sum() == pytest.approx(1.0, abs=1e-12)
        value, _ = intrinsic_information(attack.joint)
        assert value / 2 == pytest.approx(1.0, abs=1e-10)

    def test_ignorance_probability_formula(self):
        attack = build_cc_attack(0.1)
        assert attack.joint.probs[..., EVE_IGNORANT].sum() == pytest.approx(0.729, abs=1e-10)

    def test_near_full_noise_reveals_everything(self):
        attack = build_cc_attack(0.999)
        assert attack.local_weight == pytest.approx(1.0, abs=1e-8)
        value, _ = intrinsic_information(attack.joint)
        assert value < 1e-7

    def test_rejects_nu_one(self):
        with pytest.raises(ValueError):
            build_cc_attack(1.0)

    def test_marginal_consistency_over_grid(self):
        for nu in oracles.bench_grids():
            marginal = build_cc_attack(nu).joint.probs.sum(axis=-1)
            expect = honest_behavior(nu).conditional(KEY_SETTING)
            assert np.abs(marginal - expect).max() <= 1e-15, nu

    def test_override_with_wrong_weight_rejected(self):
        # a joint that overrides the split at nu = 0.2 with local weight 0.9, not 1 - 0.8^3
        attack = build_cc_attack(0.2)
        probs = np.zeros((8, 9))
        probs[[0, 7], EVE_IGNORANT] = 0.1 * 0.5
        probs[range(8), range(1, 9)] = 0.9 * oracles.local_table(0.2).ravel()
        wrong = JointDistribution(probs.reshape(2, 2, 2, 9))
        with pytest.raises(ValueError, match="reproduce"):
            dataclasses.replace(attack, joint=wrong)

    def test_ignorance_mass_off_the_weight_rejected(self):
        # moving mass from '?' to the recorded (0,0,0) keeps the device but not P(e = '?')
        attack = build_cc_attack(0.2)
        probs = attack.joint.probs.copy()
        probs[0, 0, 0, EVE_IGNORANT] -= 0.01
        probs[0, 0, 0, eve_symbol(0, 0, 0)] += 0.01
        moved = JointDistribution(probs)
        with pytest.raises(ValueError, match="nonlocal weight"):
            dataclasses.replace(attack, joint=moved)

    def test_nu_and_weight_match_noisy_ghz3(self):
        for nu in oracles.bench_grids() + [-0.0, 0.999]:
            attack, dec = build_cc_attack(nu), noisy_ghz3(nu)
            assert attack.nu.hex() == dec.nu.hex(), nu
            assert attack.local_weight.hex() == dec.biseparable_weight.hex(), nu

    def test_builds_no_noisy_ghz3(self, monkeypatch):
        def refuse(nu):
            raise AssertionError("build_cc_attack called noisy_ghz3")

        monkeypatch.setattr(states, "noisy_ghz3", refuse)
        build_cc_attack(0.2)

    def test_builds_no_density_matrix(self, monkeypatch):
        # not even the GHZ state: its key table is written in closed form
        states.ghz3.cache_clear()
        built = []
        validate = qmat.DensityMatrix.__post_init__

        def counting(self):
            built.append(self)
            validate(self)

        monkeypatch.setattr(qmat.DensityMatrix, "__post_init__", counting)
        for nu in (0.0, 0.05, 0.5):
            build_cc_attack(nu)
        assert built == []

    def test_fields_at_another_nu_or_weight_rejected(self):
        attack = build_cc_attack(0.2)
        with pytest.raises(ValueError, match="reproduce"):
            dataclasses.replace(attack, nu=0.3)
        with pytest.raises(ValueError, match="nonlocal weight"):
            dataclasses.replace(attack, local_weight=0.5)

    def test_nan_fields_rejected(self):
        attack = build_cc_attack(0.1)
        with pytest.raises(ValueError, match="nonlocal weight"):
            dataclasses.replace(attack, local_weight=math.nan)
        with pytest.raises(ValueError, match="noise parameter"):
            dataclasses.replace(attack, nu=math.nan)


class TestEvePostprocess:
    def test_zero_noise_all_question_marks(self):
        post = eve_postprocess(build_cc_attack(0.0))
        assert post.probs[..., POST_IGNORANT].sum() == pytest.approx(1.0, abs=1e-12)

    def test_key_bit_mass_matches_table_sum_oracle(self):
        for nu in (0.05, 0.2, 0.5):
            attack = build_cc_attack(nu)
            post = eve_postprocess(attack)
            w = attack.local_weight
            p000 = oracles.local_table(nu)[0, 0, 0]
            assert post.probs[..., 0].sum() == pytest.approx(w * p000, abs=1e-10)

    def test_question_mark_mass_formula(self):
        for nu in (0.05, 0.3):
            attack = build_cc_attack(nu)
            post = eve_postprocess(attack)
            loc = _local_table(nu)
            not_equal = sum(loc[a, b1, b2]
                            for a, b1, b2 in itertools.product(range(2), repeat=3)
                            if not a == b1 == b2)
            expect = (1 - nu) ** 3 + attack.local_weight * not_equal
            assert post.probs[..., POST_IGNORANT].sum() == pytest.approx(expect, abs=1e-10)

    def test_party_marginal_untouched(self):
        attack = build_cc_attack(0.15)
        post = eve_postprocess(attack)
        assert np.abs(post.probs.sum(axis=-1) - attack.joint.probs.sum(axis=-1)).max() < 1e-12

    def test_postprocessing_is_a_feasible_channel(self):
        # the mimicry channel can never beat the channel search
        for nu in (0.02, 0.1):
            attack = build_cc_attack(nu)
            fixed = shannon_cmi(eve_postprocess(attack))
            best, _ = intrinsic_information(attack.joint)
            assert fixed >= best - 1e-10

    def test_entropy_evaluation_oracle_at_low_noise(self):
        nu = 0.05
        post = eve_postprocess(build_cc_attack(nu))
        assert shannon_cmi(post) == pytest.approx(
            oracles.cmi_of_table(oracles.postprocessed_table(nu)), abs=1e-10)
        assert s_n(post) == pytest.approx(
            oracles.sn_of_table(oracles.postprocessed_table(nu)), abs=1e-10)


def _local_table(nu: float) -> np.ndarray:
    return states.biseparable_split(nu)[3].reshape(2, 2, 2)


class TestLocalBehaviorFromChi:
    """The local table: the key-setting table of the biseparable remainder chi_nu."""

    def test_symmetric_under_bob_swap(self):
        for nu in (0.1, 0.4, 0.8):
            t = _local_table(nu)
            assert np.abs(t - t.transpose(0, 2, 1)).max() < 1e-12

    def test_all_outcomes_positive_inside_range(self):
        for nu in (0.01, 0.5, 0.99):
            assert _local_table(nu).min() > 0.0

    def test_mixing_identity(self):
        povms = default_measurements()
        for nu in (0.1, 0.33):
            dec = noisy_ghz3(nu)
            device = behavior_from_measurement(dec.state, povms).conditional(KEY_SETTING)
            p_ghz = np.zeros((2, 2, 2))
            p_ghz[0, 0, 0] = p_ghz[1, 1, 1] = 0.5
            mix = dec.ghz_weight * p_ghz + dec.biseparable_weight * _local_table(nu)
            assert np.abs(mix - device).max() < 1e-10

    def test_matches_closed_form(self):
        for nu in (0.05, 0.25, 0.7):
            assert np.abs(_local_table(nu) - oracles.local_table(nu)).max() < 1e-12

    def test_eve_symbol_encoding(self):
        codes = {eve_symbol(a, b1, b2)
                 for a, b1, b2 in itertools.product(range(2), repeat=3)}
        assert codes == set(range(1, 9))
        assert EVE_IGNORANT == 0

    def test_eve_symbol_rejects_a_non_bit(self):
        # 2 gave 9, outside the alphabet; 0.5 gave 3.0 and -1 gave -3
        for bit, message in ((2, "a must be 0 or 1, got 2"), (-1, "a must be 0 or 1, got -1"),
                             (0.5, "a must be an integer, got 0.5")):
            with pytest.raises(ValueError, match=f"^{message}$"):
                eve_symbol(bit, 0, 0)
        with pytest.raises(ValueError, match="^b2 must be 0 or 1, got 2$"):
            eve_symbol(0, 0, 2)


class TestKeySlice:
    """The diagonal read equals the all-sigma_z Born rule bit for bit."""

    @staticmethod
    def born_rule(rho):
        z = povm_from_observable(PAULI_Z)
        return behavior_from_measurement(rho, ((z,), (z,), (z,))).conditional((0, 0, 0))

    @staticmethod
    def diagonal(rho):
        return rho.matrix.diagonal().real.reshape(2, 2, 2)

    def test_ghz(self):
        rho = ghz(3, 2)
        assert np.array_equal(self.diagonal(rho), self.born_rule(rho))
        assert np.array_equal(_GHZ_KEY.reshape(2, 2, 2), self.born_rule(rho))
        assert _GHZ_KEY[0].hex() == "0x1.ffffffffffffep-2"  # not 0.5
        assert not _GHZ_KEY.flags.writeable

    def test_noisy_state_and_chi_over_benchmark_grids(self):
        for nu in oracles.bench_grids():
            dec = noisy_ghz3(nu)
            for rho in (dec.state, dec.chi):
                assert np.array_equal(self.diagonal(rho), self.born_rule(rho)), nu

    def test_attack_tables_are_the_born_rule_on_chi_and_ghz(self):
        # ties the attack to its biseparable certificate, which it does not carry
        ghz_table = self.born_rule(ghz(3, 2)).ravel()
        for nu in oracles.bench_grids():
            attack = build_cc_attack(nu)
            chi_table = self.born_rule(noisy_ghz3(nu).chi).ravel()
            assert np.array_equal(_local_table(nu).ravel(), chi_table), nu
            probs = attack.joint.probs.reshape(8, -1)
            assert np.array_equal(probs[range(8), _RECORDED],
                                  attack.local_weight * chi_table), nu
            assert np.array_equal(probs[:, EVE_IGNORANT],
                                  (1.0 - attack.local_weight) * ghz_table), nu

    @pytest.mark.parametrize("nu", [0.0, 0.05, 0.525, 0.9])
    def test_postprocessed_table_against_oracle(self, nu):
        post = eve_postprocess(build_cc_attack(nu))
        assert post.probs.shape == (2, 2, 2, 3)
        assert np.abs(post.probs - oracles.postprocessed_table(nu)).max() <= 1e-15
