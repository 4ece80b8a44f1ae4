import dataclasses
import itertools
import math

import numpy as np
import pytest

from ckabounds import states
from ckabounds.qmat import DensityMatrix, partial_trace, quantum_cmi
from ckabounds.states import GhzDecomposition, _depolarized, ghz, noisy_ghz3
from conftest import maximally_mixed, random_density, random_pure, tensor
import oracles


class TestGhz:
    def test_bell_state_coherence(self):
        rho = ghz(2, 2)
        assert rho.matrix[0, 3] == pytest.approx(0.5)

    def test_three_qubit_marginal_is_maximally_mixed(self):
        reduced = partial_trace(ghz(3, 2), [0])
        assert np.abs(reduced.matrix - np.eye(2) / 2).max() < 1e-12

    def test_three_qubit_entries(self):
        m = ghz(3, 2).matrix
        expect = np.zeros((8, 8))
        expect[0, 0] = expect[7, 7] = expect[0, 7] = expect[7, 0] = 0.5
        assert np.abs(m - expect).max() < 1e-12

    def test_purity(self):
        m = ghz(4, 2).matrix
        assert abs(np.trace(m @ m).real - 1.0) < 1e-10

    def test_qutrit_positions(self):
        m = ghz(2, 3).matrix
        for i in range(3):
            assert m[4 * i, 4 * i] == pytest.approx(1 / 3)

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError, match="^n_parties must be at least 2, got 1$"):
            ghz(1, 2)
        with pytest.raises(ValueError, match="^local_dim must be at least 2, got 1$"):
            ghz(2, 1)

    def test_rejects_non_integral_sizes(self):
        # both were numpy TypeError tracebacks
        with pytest.raises(ValueError, match="^n_parties must be an integer, got 3.5$"):
            ghz(3.5)
        with pytest.raises(ValueError, match="^local_dim must be an integer, got 2.5$"):
            ghz(3, 2.5)


def ideal_key_state(n_parties: int, eve_state: DensityMatrix) -> DensityMatrix:
    """(|0..0><0..0| + |1..1><1..1|)/2 on N qubits, tensored with the adversary state."""
    key = np.zeros((2 ** n_parties, 2 ** n_parties), dtype=complex)
    key[0, 0] = key[-1, -1] = 0.5
    return tensor(DensityMatrix((2,) * n_parties, key), eve_state)


class TestIdealKeyState:
    def test_cmi_is_two_for_three_parties(self, rng):
        tau = ideal_key_state(3, random_pure(rng, (2,)))
        val = quantum_cmi(tau, [[0], [1], [2]], (3,))
        assert val == pytest.approx(2.0, abs=1e-9)

    def test_telescoping_value_is_one(self, rng):
        # I(A1:A2A3|E) + I(A2:A3|A1E) = log2(K) + 0
        tau = ideal_key_state(3, random_pure(rng, (2,)))
        first = quantum_cmi(tau, [[0], [1, 2]], (3,))
        second = quantum_cmi(tau, [[1], [2]], (0, 3))
        assert first + second == pytest.approx(1.0, abs=1e-9)

    def test_two_party_marginal(self, rng):
        tau = ideal_key_state(2, random_density(rng, (2,)))
        assert np.abs(partial_trace(tau, [0]).matrix - np.eye(2) / 2).max() < 1e-10


def depolarize(rho: DensityMatrix, site: int, nu: float) -> DensityMatrix:
    return DensityMatrix(rho.dims, _depolarized(rho.matrix, rho.dims, site, nu))


class TestDepolarize:
    """`states._depolarized`, the depolarizing step of `noisy_ghz3`."""

    def test_zero_noise_is_identity(self, rng):
        rho = random_density(rng, (2, 2))
        assert np.abs(depolarize(rho, 0, 0.0).matrix - rho.matrix).max() < 1e-12

    def test_full_noise_single_qubit(self):
        zero = DensityMatrix((2,), np.diag([1.0, 0.0]).astype(complex))
        assert np.abs(depolarize(zero, 0, 1.0).matrix - np.eye(2) / 2).max() < 1e-12

    def test_half_noise_single_qubit(self):
        zero = DensityMatrix((2,), np.diag([1.0, 0.0]).astype(complex))
        out = depolarize(zero, 0, 0.5)
        assert np.abs(out.matrix - np.diag([0.75, 0.25])).max() < 1e-12

    def test_middle_site_against_oracle(self, rng):
        # depolarizing a middle factor must commute with the index bookkeeping
        rho = random_density(rng, (2, 2, 2))
        out = depolarize(rho, 1, 0.3)
        t = rho.matrix.reshape((2,) * 6)
        traced = np.einsum("abcdbf->acdf", t)
        rebuilt = np.zeros((2,) * 6, dtype=complex)
        for b in range(2):
            for i0, i2, j0, j2 in itertools.product(range(2), repeat=4):
                rebuilt[i0, b, i2, j0, b, j2] += 0.5 * traced[i0, i2, j0, j2]
        expect = 0.7 * rho.matrix + 0.3 * rebuilt.reshape(8, 8)
        assert np.abs(out.matrix - expect).max() < 1e-12

    @pytest.mark.parametrize("dims,site", [((3, 2, 3), 1), ((2, 3), 0), ((3, 2), 1)])
    def test_mixed_dimensions_against_index_loop(self, rng, dims, site):
        rho = random_density(rng, dims)
        out = depolarize(rho, site, 0.4)
        t = rho.matrix.reshape(dims * 2)
        mixed = np.zeros(dims * 2, dtype=complex)
        for ket in itertools.product(*(range(d) for d in dims)):
            for bra in itertools.product(*(range(d) for d in dims)):
                if ket[site] != bra[site]:
                    continue
                total = 0j
                for b in range(2):
                    k, r = list(ket), list(bra)
                    k[site] = r[site] = b
                    total += t[tuple(k) + tuple(r)]
                mixed[ket + bra] = 0.5 * total
        d = rho.matrix.shape[0]
        expect = 0.6 * rho.matrix + 0.4 * mixed.reshape(d, d)
        assert out.dims == dims
        assert np.abs(out.matrix - expect).max() < 1e-12


class TestNoisyGhz3:
    def test_zero_noise_weights(self):
        dec = noisy_ghz3(0.0)
        assert dec.ghz_weight == pytest.approx(1.0)
        assert dec.biseparable_weight == pytest.approx(0.0, abs=1e-15)

    def test_negative_zero_noise_is_zero(self):
        assert not np.signbit(noisy_ghz3(-0.0).nu)

    @pytest.mark.parametrize("nu", [-0.1, 1.5, float("nan"), "0.1"])  # "0.1" was parsed
    def test_rejects_nu_outside_unit_interval(self, nu):
        message = (r"must lie in \[0, 1\], got " + repr(nu) if isinstance(nu, float)
                   else "must be a real number, got '0.1'")
        with pytest.raises(ValueError, match=f"^nu {message}$"):
            noisy_ghz3(nu)

    def test_full_noise_is_maximally_mixed(self):
        dec = noisy_ghz3(1.0)
        assert np.abs(dec.state.matrix - np.eye(8) / 8).max() < 1e-12

    def test_state_matches_independent_channel_application(self):
        for nu in np.linspace(0.0, 0.95, 20):
            dec = noisy_ghz3(float(nu))
            assert np.abs(dec.state.matrix
                          - oracles.triple_depolarized_ghz(float(nu))).max() < 1e-10

    def test_reconstruction_over_grid(self):
        ghz_mat = ghz(3, 2).matrix
        for nu in np.linspace(0.0, 0.95, 20):
            dec = noisy_ghz3(float(nu))
            recon = dec.ghz_weight * ghz_mat + dec.biseparable_weight * dec.chi.matrix
            assert np.abs(recon - dec.state.matrix).max() < 1e-10

    def test_kappa_weights(self):
        nu = 0.2
        dec = noisy_ghz3(nu)
        labels = [t[0] for t in dec.kappa_terms]
        assert labels == ["AB1", "AB2", "B1B2", "mixed"]
        for _, w, _ in dec.kappa_terms[:3]:
            assert w == pytest.approx((1 - nu) ** 2 * nu)
        assert dec.kappa_terms[3][1] == pytest.approx((3 - 2 * nu) * nu ** 2)

    def test_chi_symmetric_under_bob_swap(self):
        for nu in (0.05, 0.3, 0.8):
            chi = noisy_ghz3(nu).chi
            swapped = chi.matrix.reshape((2,) * 6).transpose(0, 2, 1, 3, 5, 4).reshape(8, 8)
            assert np.abs(swapped - chi.matrix).max() < 1e-10

    def test_fixed_states_are_built_once(self):
        parts = [[s for _, _, s in noisy_ghz3(nu).kappa_terms] for nu in (0.0, 0.05, 0.6)]
        assert all(a is b for a, b in zip(parts[0], parts[1]))
        assert all(a is b for a, b in zip(parts[0], parts[2]))
        assert states.ghz3() is states.ghz3()

    def test_fixed_states_against_index_loop(self):
        assert np.array_equal(states.ghz3().matrix, ghz(3, 2).matrix)
        *kappas, mixed = [s for _, _, s in noisy_ghz3(0.2).kappa_terms]
        assert np.array_equal(mixed.matrix, np.eye(8) / 8)
        for (i, j), kappa in zip(((0, 1), (0, 2), (1, 2)), kappas):
            expect = np.zeros((8, 8))
            for bits in itertools.product(range(2), repeat=3):
                if bits[i] == bits[j]:
                    idx = 4 * bits[0] + 2 * bits[1] + bits[2]
                    expect[idx, idx] = 0.25
            assert np.array_equal(kappa.matrix, expect)

    def test_single_site_decomposition(self):
        # depolarizing only the first qubit leaves a fully separable remainder
        g = ghz(3, 2)
        kappa = np.zeros((4, 4))
        kappa[0, 0] = kappa[3, 3] = 0.5
        remainder = np.kron(np.eye(2) / 2, kappa)
        for nu in (0.15, 0.6):
            direct = depolarize(g, 0, nu)
            recon = (1 - nu) * g.matrix + nu * remainder
            assert np.abs(direct.matrix - recon).max() < 1e-10

    def test_invalid_decomposition_rejected(self):
        dec = noisy_ghz3(0.3)
        with pytest.raises(ValueError, match="reconstruct"):
            GhzDecomposition(nu=0.3, ghz_weight=dec.ghz_weight,
                             chi=maximally_mixed((2, 2, 2)),
                             kappa_terms=dec.kappa_terms, state=dec.state)

    def test_kappa_terms_must_sum_to_chi(self):
        # the weights still add up, but the certificate no longer describes chi
        dec = noisy_ghz3(0.3)
        zero = np.zeros((8, 8), dtype=complex)
        zero[0, 0] = 1.0
        label, weight, _ = dec.kappa_terms[3]
        assert label == "mixed"
        terms = dec.kappa_terms[:3] + ((label, weight, DensityMatrix((2, 2, 2), zero)),)
        with pytest.raises(ValueError, match="biseparable_weight \\* chi"):
            GhzDecomposition(nu=0.3, ghz_weight=dec.ghz_weight,
                             chi=dec.chi, kappa_terms=terms, state=dec.state)

    def test_nan_weights_rejected(self):
        # NaN fails every comparison, so each check must reject what it cannot order
        dec = noisy_ghz3(0.1)
        nan_terms = tuple((label, math.nan, s) for label, _, s in dec.kappa_terms)
        with pytest.raises(ValueError, match="kappa term weights"):
            dataclasses.replace(dec, ghz_weight=math.nan)
        with pytest.raises(ValueError, match="kappa term weights"):
            dataclasses.replace(dec, kappa_terms=nan_terms)
