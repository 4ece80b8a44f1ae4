import io
import itertools
import math

import numpy as np
import pytest

from ckabounds.attacks import build_cc_attack
from ckabounds.secrecy import (ClassicalChannel, JointDistribution, SearchBudget,
                               apply_channel, continuity_envelope,
                               distribution_from_csv, distribution_to_csv,
                               dual_intrinsic, g, intrinsic_information, s_n,
                               shannon_cmi, total_correlation)
import oracles


def random_joint(rng, alphabets, eve):
    raw = rng.random(tuple(alphabets) + (eve,)) ** 2 + 1e-9
    return JointDistribution(tuple(alphabets), eve, raw / raw.sum())


def ideal_key_distribution(n=3, key=2, eve=2):
    """Uniform symbol copied to every party, adversary independent and uniform."""
    probs = np.zeros((key,) * n + (eve,))
    for k in range(key):
        for e in range(eve):
            probs[(k,) * n + (e,)] = 1.0 / (key * eve)
    return JointDistribution((key,) * n, eve, probs)


class TestValidation:
    def test_rejects_negative(self):
        probs = np.full((2, 2, 2), 0.125)
        probs[0, 0, 0] = -0.1
        probs[1, 1, 1] = 0.35
        with pytest.raises(ValueError, match="negative"):
            JointDistribution((2, 2), 2, probs)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="sum"):
            JointDistribution((2, 2), 2, np.full((2, 2, 2), 0.2))

    def test_channel_row_sums(self):
        with pytest.raises(ValueError, match="rows"):
            ClassicalChannel(np.array([[0.5, 0.4], [0.5, 0.5]]))

    def test_partition_channel(self):
        ch = ClassicalChannel.from_partition([[0, 2], [1]], 3)
        assert ch.out_alphabet == 2
        assert ch.matrix[2, 0] == 1.0
        with pytest.raises(ValueError, match="cover"):
            ClassicalChannel.from_partition([[0], [1]], 3)
        with pytest.raises(ValueError, match="disjoint"):
            ClassicalChannel.from_partition([[0, 1], [1, 2]], 3)


class TestShannonCmi:
    def test_independent_bits_and_eve(self):
        probs = np.full((2, 2, 2, 2), 1.0 / 16.0)
        dist = JointDistribution((2, 2, 2), 2, probs)
        assert abs(shannon_cmi(dist)) < 1e-12

    def test_ghz_measurement_distribution(self):
        probs = np.zeros((2, 2, 2, 1))
        probs[0, 0, 0, 0] = probs[1, 1, 1, 0] = 0.5
        dist = JointDistribution((2, 2, 2), 1, probs)
        assert shannon_cmi(dist) == pytest.approx(2.0, abs=1e-12)

    def test_eve_copy_removes_correlation(self):
        probs = np.zeros((2, 2, 2))
        probs[0, 0, 0] = probs[1, 1, 1] = 0.5
        dist = JointDistribution((2, 2), 2, probs)
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
            assert shannon_cmi(JointDistribution((2, 2, 2), 3, probs)) == pytest.approx(
                shannon_cmi(dist), abs=1e-11)


class TestSn:
    def test_ideal_key_distribution(self):
        assert s_n(ideal_key_distribution()) == pytest.approx(1.0, abs=1e-12)

    def test_independent_parties(self, rng):
        marginals = [rng.random(2) + 0.1 for _ in range(3)]
        probs = np.einsum("a,b,c->abc", *[m / m.sum() for m in marginals])[..., None]
        dist = JointDistribution((2, 2, 2), 1, probs)
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
            shuffled = JointDistribution(probs.shape[:3], 2, probs)
            assert s_n(shuffled) == pytest.approx(oracles.sn_of_table(probs), abs=1e-11)
            assert s_n(shuffled) == pytest.approx(s_n(dist), abs=1e-12)

    def test_nonnegative(self, rng):
        for _ in range(10):
            assert s_n(random_joint(rng, (2, 2, 2), 2)) >= -1e-9


class TestApplyChannel:
    def test_identity_channel(self, rng):
        dist = random_joint(rng, (2, 2), 3)
        out = apply_channel(dist, ClassicalChannel.identity(3))
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
            apply_channel(random_joint(rng, (2, 2), 3), ClassicalChannel.identity(4))


class TestIntrinsicInformation:
    def test_correlated_pair_with_independent_eve(self):
        probs = np.zeros((2, 2, 2))
        for k in range(2):
            for e in range(2):
                probs[k, k, e] = 0.25
        dist = JointDistribution((2, 2), 2, probs)
        value, witness = intrinsic_information(dist)
        assert value == pytest.approx(1.0, abs=1e-10)
        assert witness.in_alphabet == 2

    def test_eve_determines_outputs(self):
        probs = np.zeros((2, 2, 2))
        probs[0, 0, 0] = probs[1, 1, 1] = 0.5
        dist = JointDistribution((2, 2), 2, probs)
        value, _ = intrinsic_information(dist)
        assert value == pytest.approx(0.0, abs=1e-10)

    def test_attack_fixture_matches_brute_force(self):
        dist = build_cc_attack(0.05).joint
        value, witness = intrinsic_information(dist)
        brute = oracles.brute_channel_minimum(dist.probs, oracles.cmi_of_table)
        assert value == pytest.approx(brute, abs=1e-9)
        # witness attains the reported value
        attained = shannon_cmi(apply_channel(dist, witness))
        assert abs(attained - value) < 1e-10

    def test_never_exceeds_unprocessed_cmi(self, rng):
        for _ in range(5):
            dist = random_joint(rng, (2, 2), 4)
            value, _ = intrinsic_information(dist)
            assert value <= shannon_cmi(dist) + 1e-12

    def test_enlarged_output_alphabet_sanity(self):
        dist = build_cc_attack(0.05).joint
        brute = oracles.brute_channel_minimum(dist.probs, oracles.cmi_of_table)
        value, witness = intrinsic_information(
            dist, SearchBudget(extra_outputs=1))
        assert value >= brute - 1e-9
        assert witness.out_alphabet >= 4


class TestDualIntrinsic:
    def test_ideal_key_distribution(self):
        value, _ = dual_intrinsic(ideal_key_distribution())
        assert value == pytest.approx(1.0, abs=1e-10)

    def test_eve_determines_outputs(self):
        probs = np.zeros((2, 2, 2))
        probs[0, 0, 0] = probs[1, 1, 1] = 0.5
        dist = JointDistribution((2, 2), 2, probs)
        value, _ = dual_intrinsic(dist)
        assert value == pytest.approx(0.0, abs=1e-10)

    def test_attack_fixture_matches_brute_force(self):
        dist = build_cc_attack(0.05).joint
        value, witness = dual_intrinsic(dist)
        brute = oracles.brute_channel_minimum(dist.probs, oracles.sn_of_table)
        assert value == pytest.approx(brute, abs=1e-9)
        attained = s_n(apply_channel(dist, witness))
        assert abs(attained - value) < 1e-10

    def test_never_exceeds_unprocessed_sn(self, rng):
        for _ in range(5):
            dist = random_joint(rng, (2, 2, 2), 3)
            value, _ = dual_intrinsic(dist)
            assert value <= s_n(dist) + 1e-12


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
        with pytest.raises(ValueError):
            continuity_envelope(1.5, 1.0, "cmi")
        with pytest.raises(ValueError):
            continuity_envelope(0.5, 1.0, "unknown")


def csv_text(dist):
    buf = io.StringIO()
    distribution_to_csv(dist, buf)
    return buf.getvalue()


class TestCsv:
    def test_round_trip(self, rng):
        dist = random_joint(rng, (2, 3), 4)
        back = distribution_from_csv(io.StringIO(csv_text(dist)))
        assert back.party_alphabets == dist.party_alphabets
        assert back.eve_alphabet == dist.eve_alphabet
        assert np.abs(back.probs - dist.probs).max() < 1e-12

    def test_header(self, rng):
        text = csv_text(random_joint(rng, (2, 2, 2), 9))
        assert text.splitlines()[0] == "a1,a2,a3,e,p"

    def test_rejects_malformed_input(self):
        with pytest.raises(ValueError, match="wide"):
            distribution_from_csv(io.StringIO("a1,a2,e,p\n0,0,0,1\n0,1,0\n"))
        with pytest.raises(ValueError, match="header"):
            distribution_from_csv(io.StringIO("a1,a2,p\n0,0,1\n"))
