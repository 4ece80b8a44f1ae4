import math

import numpy as np
import pytest

from ckabounds.qmat import (DensityMatrix, Povm, hermitian_matrix, partial_trace, purify,
                            quantum_cmi, relative_entropy, von_neumann_entropy)
from ckabounds.states import ghz
from conftest import maximally_mixed, random_density, random_pure, tensor


class TestDensityMatrixValidation:
    def test_rejects_non_hermitian(self):
        m = np.array([[0.5, 0.5], [0.0, 0.5]], dtype=complex)
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix((2,), m)

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix((2,), np.eye(2, dtype=complex))

    def test_rejects_negative_eigenvalue(self):
        m = np.diag([1.5, -0.5]).astype(complex)
        with pytest.raises(ValueError, match="eigenvalue"):
            DensityMatrix((2,), m)

    def test_rejects_dim_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            DensityMatrix((2, 2), np.eye(2, dtype=complex) / 2)

    def test_rejects_non_finite_entry(self):
        # NaN fails every comparison, so the other checks alone let it through
        for bad in (np.nan, np.inf):
            m = np.diag([0.5, 0.5]).astype(complex)
            m[0, 1] = m[1, 0] = bad
            with pytest.raises(ValueError, match="non-finite"):
                DensityMatrix((2,), m)

    def test_rejects_non_integral_dimension(self):
        # int() read 2.7 as 2 and built a qubit
        with pytest.raises(ValueError, match="^dimension must be an integer, got 2.7$"):
            DensityMatrix((2.7,), np.eye(2) / 2)
        # hermitian_matrix passed 2.0 and reported 2.5 as a shape mismatch
        for dim in (2.0, 2.5):
            with pytest.raises(ValueError, match=f"^x dimension must be an integer, got {dim}$"):
                hermitian_matrix(np.eye(2), dim, 0.0, "x")
        # below 1: numpy's "zero-size array" and "negative dimensions" errors
        with pytest.raises(ValueError, match="^x dimension must be at least 1, got 0$"):
            hermitian_matrix(np.zeros((0, 0)), 0, 0.0, "x")

    def test_rejects_no_or_empty_subsystems(self):
        with pytest.raises(ValueError, match="^dimension must be at least 1, got 0$"):
            DensityMatrix((2, 0), np.eye(2) / 2)
        with pytest.raises(ValueError, match="^a density matrix needs at least one subsystem$"):
            DensityMatrix((), np.eye(1))

    def test_matrix_is_immutable(self, rng):
        rho = random_density(rng, (2, 2))
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 1.0


class TestPovmValidation:
    def test_projective_pair_accepted(self):
        p = Povm((np.diag([1.0, 0.0]), np.diag([0.0, 1.0])))
        assert p.n_outcomes == 2

    def test_rejects_incomplete(self):
        with pytest.raises(ValueError, match="identity"):
            Povm((np.diag([1.0, 0.0]),))

    def test_rejects_non_finite_entry(self):
        with pytest.raises(ValueError, match="non-finite"):
            Povm((np.diag([1.0, np.nan]), np.diag([0.0, 1.0])))

    def test_dim_is_read_from_the_effects(self):
        assert Povm((np.eye(3),)).dim == 3

    def test_rejects_effects_of_different_or_non_square_shapes(self):
        for effects in ((np.diag([1.0, 0.0]), np.diag([0.0, 1.0, 0.0])),
                        (np.ones((2, 3)),), (np.ones(2),), ()):
            with pytest.raises(ValueError, match="^POVM needs at least one effect, all of one "
                                                 "square shape") as err:
                Povm(effects)
            assert "\n" not in str(err.value)
        # numpy's "zero-size array to reduction operation maximum which has no identity"
        with pytest.raises(ValueError, match="^POVM effect dimension must be at least 1, got 0$"):
            Povm((np.zeros((0, 0)),))

    def test_rejects_negative_effect(self):
        with pytest.raises(ValueError, match="positive"):
            Povm((np.diag([1.5, 1.0]), np.diag([-0.5, 0.0])))


class TestPartialTrace:
    def test_product_state(self, rng):
        rho_a = random_density(rng, (2,))
        rho_b = random_density(rng, (3,))
        reduced = partial_trace(tensor(rho_a, rho_b), [0])
        assert np.abs(reduced.matrix - rho_a.matrix).max() < 1e-12

    def test_ghz_marginal_is_maximally_mixed(self):
        reduced = partial_trace(ghz(3, 2), [1])
        assert np.abs(reduced.matrix - np.eye(2) / 2).max() < 1e-12

    def test_random_state_against_index_sum_oracle(self, rng):
        rho = random_density(rng, (2, 2, 2))
        reduced = partial_trace(rho, [0, 2])
        t = rho.matrix.reshape((2,) * 6)
        expect = np.zeros((4, 4), dtype=complex)
        for i0 in range(2):
            for i2 in range(2):
                for j0 in range(2):
                    for j2 in range(2):
                        val = sum(t[i0, b, i2, j0, b, j2] for b in range(2))
                        expect[2 * i0 + i2, 2 * j0 + j2] = val
        assert np.abs(reduced.matrix - expect).max() < 1e-12
        assert abs(reduced.matrix.trace() - 1.0) < 1e-12

    def test_index_out_of_range(self, rng):
        with pytest.raises(ValueError, match=r"^keep index must lie in 0\.\.1, got 2$"):
            partial_trace(random_density(rng, (2, 2)), [2])

    def test_non_integral_index_rejected(self, rng):
        # int() read 0.5 as subsystem 0 and 1.9 as subsystem 1
        rho = random_density(rng, (2, 2))
        for bad in (0.5, 1.9, "1"):
            with pytest.raises(ValueError, match=f"^keep index must be an integer, got {bad!r}$"):
                partial_trace(rho, [bad])
        assert partial_trace(rho, [np.int64(0), True]) is rho  # index-like values stay

    def test_empty_keep_rejected(self, rng):
        with pytest.raises(ValueError):
            partial_trace(random_density(rng, (2, 2)), [])


class TestVonNeumannEntropy:
    def test_pure_state_is_zero(self, rng):
        assert abs(von_neumann_entropy(random_pure(rng, (2, 2)))) < 1e-9

    def test_maximally_mixed_qubit(self):
        assert von_neumann_entropy(maximally_mixed((2,))) == pytest.approx(1.0, abs=1e-12)

    def test_diagonal_against_binary_entropy(self):
        rho = DensityMatrix((2,), np.diag([0.75, 0.25]).astype(complex))
        h = -(0.25 * math.log2(0.25) + 0.75 * math.log2(0.75))
        assert von_neumann_entropy(rho) == pytest.approx(h, abs=1e-12)

    def test_additivity_on_tensor_products(self, rng):
        for _ in range(10):
            rho = random_density(rng, (2,))
            sigma = random_density(rng, (3,))
            lhs = von_neumann_entropy(tensor(rho, sigma))
            rhs = von_neumann_entropy(rho) + von_neumann_entropy(sigma)
            assert abs(lhs - rhs) < 1e-9


class TestQuantumCmi:
    def test_product_state_gives_zero(self, rng):
        rho = tensor(tensor(random_density(rng, (2,)), random_density(rng, (2,))),
                     random_density(rng, (2,)))
        assert abs(quantum_cmi(rho, [[0], [1], [2]])) < 1e-9

    def test_ghz_with_empty_eve(self):
        # pure state: sum_i H(A_i) - H(A1A2A3) = 3*1 - 0; the dephased key
        # mixture (H(all) = 1) is the case that gives 2, asserted elsewhere
        assert quantum_cmi(ghz(3, 2), [[0], [1], [2]]) == pytest.approx(3.0, abs=1e-9)

    def test_dephased_ghz_mixture_gives_two(self):
        mix = np.zeros((8, 8), dtype=complex)
        mix[0, 0] = mix[7, 7] = 0.5
        rho = DensityMatrix((2, 2, 2), mix)
        assert quantum_cmi(rho, [[0], [1], [2]]) == pytest.approx(2.0, abs=1e-9)

    def test_expansion_identity_on_random_states(self, rng):
        # telescoping into bipartite terms, 40 instances with N in {3, 4}
        worst = 0.0
        for i in range(40):
            n = 3 if i % 2 == 0 else 4
            rho = random_density(rng, (2,) * (n + 1))
            total = quantum_cmi(rho, [[k] for k in range(n)], (n,))
            tele = 0.0
            for k in range(1, n):
                red = partial_trace(rho, list(range(k + 1)) + [n])
                tele += quantum_cmi(red, [[k], list(range(k))], (k + 1,))
            worst = max(worst, abs(total - tele))
        assert worst < 1e-9

    def test_nonnegative(self, rng):
        for _ in range(10):
            rho = random_density(rng, (2, 2, 2))
            assert quantum_cmi(rho, [[0], [1], [2]]) >= -1e-9

    def test_permutation_invariance(self, rng):
        rho = random_density(rng, (2, 2, 2, 2))
        base = quantum_cmi(rho, [[0], [1], [2]], (3,))
        for perm in ((1, 0, 2), (2, 1, 0), (1, 2, 0)):
            val = quantum_cmi(rho, [[perm[0]], [perm[1]], [perm[2]]], (3,))
            assert abs(val - base) < 1e-9

    def test_sums_left_to_right(self, rng):
        # the same bits on every interpreter: Python 3.12's sum() of floats is compensated
        rho = random_density(rng, (2, 2, 2, 2))
        h = [von_neumann_entropy(partial_trace(rho, s)) for s in ((0, 3), (1, 3), (2, 3))]
        h_eve = von_neumann_entropy(partial_trace(rho, (3,)))
        total = 0.0
        for h_i in h:
            total += h_i - h_eve
        expect = total - (von_neumann_entropy(rho) - h_eve)
        assert quantum_cmi(rho, [[0], [1], [2]], (3,)).hex() == expect.hex()

    def test_non_integral_index_rejected(self, rng):
        # int() read [[0.5], [1]] as [[0], [1]]
        rho = random_density(rng, (2, 2))
        with pytest.raises(ValueError, match="^group index must be an integer, got 0.5$"):
            quantum_cmi(rho, [[0.5], [1]])
        with pytest.raises(ValueError, match="^eve index must be an integer, got 2.5$"):
            quantum_cmi(random_density(rng, (2, 2, 2)), [[0], [1]], (2.5,))

    def test_malformed_partition_rejected(self, rng):
        rho = random_density(rng, (2, 2, 2))
        with pytest.raises(ValueError):
            quantum_cmi(rho, [[0], [1]])  # subsystem 2 unassigned
        with pytest.raises(ValueError):
            quantum_cmi(rho, [[0], [0, 1]], (2,))  # overlap


class TestRelativeEntropy:
    def test_identical_states(self, rng):
        rho = random_density(rng, (2, 2))
        assert abs(relative_entropy(rho, rho)) < 1e-9

    def test_disjoint_support_is_infinite(self):
        zero = DensityMatrix((2,), np.diag([1.0, 0.0]).astype(complex))
        one = DensityMatrix((2,), np.diag([0.0, 1.0]).astype(complex))
        assert relative_entropy(zero, one) == math.inf

    def test_diagonal_oracle(self):
        rho = maximally_mixed((2,))
        sigma = DensityMatrix((2,), np.diag([0.75, 0.25]).astype(complex))
        expect = 0.5 * (math.log2(0.5) - math.log2(0.75)) \
            + 0.5 * (math.log2(0.5) - math.log2(0.25))
        assert relative_entropy(rho, sigma) == pytest.approx(expect, abs=1e-10)

    def test_nonnegative_and_faithful(self, rng):
        for _ in range(8):
            rho = random_density(rng, (2, 2))
            sigma = random_density(rng, (2, 2))
            d = relative_entropy(rho, sigma)
            assert d >= -1e-12
            assert d > 1e-8  # independent random states are distinct
        rho = random_density(rng, (2, 2))
        assert abs(relative_entropy(rho, rho)) < 1e-8

    def test_dims_must_match(self, rng):
        with pytest.raises(ValueError):
            relative_entropy(random_density(rng, (2,)), random_density(rng, (3,)))


class TestPurify:
    def test_pure_input_gets_trivial_environment(self, rng):
        psi = random_pure(rng, (2, 2))
        out = purify(psi)
        assert out.dims == (2, 2, 1)
        assert np.abs(partial_trace(out, [0, 1]).matrix - psi.matrix).max() < 1e-8

    def test_maximally_mixed_qubit_purifies_to_bell_marginal(self):
        out = purify(maximally_mixed((2,)))
        assert out.dims == (2, 2)
        assert abs(np.trace(out.matrix @ out.matrix).real - 1.0) < 1e-10  # pure
        assert np.abs(partial_trace(out, [0]).matrix - np.eye(2) / 2).max() < 1e-8

    def test_rank_two_round_trip(self, rng):
        p1, p2 = random_pure(rng, (2, 2)), random_pure(rng, (2, 2))
        rho = DensityMatrix((2, 2), 0.6 * p1.matrix + 0.4 * p2.matrix)
        out = purify(rho)
        assert out.dims[-1] == 2
        back = partial_trace(out, [0, 1])
        assert np.abs(back.matrix - rho.matrix).max() < 1e-8

    def test_round_trip_on_random_states(self, rng):
        for dims in ((2, 2), (2, 3), (4,)):
            rho = random_density(rng, dims)
            out = purify(rho)
            back = partial_trace(out, list(range(len(dims))))
            assert np.abs(back.matrix - rho.matrix).max() < 1e-8
