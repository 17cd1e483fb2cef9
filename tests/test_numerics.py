import numpy as np
import pytest

from mphp.numerics import (
    CONDITION_LIMIT,
    EigenDecomposition,
    RECONSTRUCTION_TOL,
    NearSingularError,
    check_condition,
    hermitian_eig,
    hermitian_eigvals,
    hermitian_part,
    solve_right_inverse,
)

from conftest import random_hermitian, random_psd


class TestHermitianEig:
    def test_diagonal(self):
        dec = hermitian_eig(np.diag([2.0, 0.0]))
        assert np.allclose(dec.eigenvalues, [2.0, 0.0])
        assert np.allclose(np.abs(dec.eigenvectors), np.eye(2))

    def test_off_diagonal_hand_case(self):
        # [[0,1],[1,0]]: eigenpairs (1, [1,1]/sqrt2) and (-1, [1,-1]/sqrt2)
        dec = hermitian_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(dec.eigenvalues, [1.0, -1.0])
        plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
        minus = np.array([1.0, -1.0]) / np.sqrt(2.0)
        assert abs(plus.conj() @ dec.eigenvectors[:, 0]) == pytest.approx(1.0, abs=1e-12)
        assert abs(minus.conj() @ dec.eigenvectors[:, 1]) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("dim", [1, 2, 5, 16])
    def test_reconstruction(self, seed, dim):
        a = random_hermitian(np.random.default_rng(seed), dim)
        values, vectors = hermitian_eig(a)
        rebuilt = (vectors * values[None, :]) @ vectors.conj().T
        assert np.linalg.norm(rebuilt - a) <= 1e-10 * max(np.linalg.norm(a), 1.0)

    @pytest.mark.parametrize("seed", range(3))
    def test_eigenvector_orthonormality(self, seed):
        a = random_hermitian(np.random.default_rng(seed), 8)
        _, vectors = hermitian_eig(a)
        assert np.linalg.norm(vectors.conj().T @ vectors - np.eye(8)) <= 1e-10

    def test_sorted_descending(self, rng):
        values, _ = hermitian_eig(random_hermitian(rng, 10))
        assert np.all(np.diff(values) <= 0)

    @pytest.mark.parametrize("seed", range(5))
    def test_trace_matches_eigenvalue_sum(self, seed):
        a = random_hermitian(np.random.default_rng(seed), 7)
        values, _ = hermitian_eig(a)
        trace = float(np.real(np.trace(a)))
        assert abs(values.sum() - trace) <= 1e-10 * max(abs(trace), 1.0)

    @pytest.mark.parametrize("seed", range(5))
    def test_psd_eigenvalue_floor(self, seed):
        a = random_psd(np.random.default_rng(seed), 9, dof=3)
        values, _ = hermitian_eig(a)
        assert np.all(values >= -1e-10 * np.real(np.trace(a)))

    @pytest.mark.parametrize("seed", range(5))
    def test_spectral_radius_below_frobenius(self, seed):
        a = random_hermitian(np.random.default_rng(seed), 6)
        values, _ = hermitian_eig(a)
        assert np.max(np.abs(values)) <= np.linalg.norm(a) + 1e-12

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            hermitian_eig(np.zeros((0, 0)))

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            hermitian_eig(np.zeros((2, 3)))

    def test_returns_named_tuple(self):
        assert isinstance(hermitian_eig(np.eye(2)), EigenDecomposition)


class TestHermitianEigvals:
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("dim", [1, 2, 5, 16, 64])
    def test_descending_and_equal_to_hermitian_eig(self, seed, dim):
        a = random_hermitian(np.random.default_rng(seed), dim)
        values = hermitian_eigvals(a)
        assert values.shape == (dim,) and values.flags.c_contiguous
        assert np.all(np.diff(values) <= 0)
        expected = hermitian_eig(a).eigenvalues
        assert np.max(np.abs(values - expected)) <= RECONSTRUCTION_TOL * max(np.linalg.norm(a), 1.0)

    def test_non_hermitian_input_symmetrized_first(self, rng):
        a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        assert np.array_equal(hermitian_eigvals(a), hermitian_eigvals(hermitian_part(a)))
        assert np.allclose(hermitian_eigvals(a), hermitian_eig(a).eigenvalues, rtol=0, atol=1e-12)

    def test_diagonal(self):
        assert np.array_equal(hermitian_eigvals(np.diag([1.0, 3.0, -2.0])), [3.0, 1.0, -2.0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            hermitian_eigvals(np.zeros((0, 0)))

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            hermitian_eigvals(np.zeros((2, 3)))


class TestSolveRightInverse:
    def test_identity(self):
        assert np.allclose(solve_right_inverse(np.eye(3)), np.eye(3))

    def test_scalar_multiple(self):
        assert np.allclose(solve_right_inverse(2.0 * np.eye(2)), 0.5 * np.eye(2))

    def test_upper_triangular_hand_case(self):
        a = np.array([[1.0, 1.0], [0.0, 1.0]])
        assert np.allclose(solve_right_inverse(a), [[1.0, -1.0], [0.0, 1.0]], atol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_right_inverse_residual(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)) + 3 * np.eye(6)
        b = solve_right_inverse(a)
        assert np.linalg.norm(a @ b - np.eye(6)) <= 1e-8 * np.linalg.norm(a)

    def test_near_singular_raises(self):
        a = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-14]])
        assert np.linalg.cond(a) > CONDITION_LIMIT
        with pytest.raises(NearSingularError):
            solve_right_inverse(a)

    def test_exactly_singular_raises(self):
        with pytest.raises(NearSingularError):
            solve_right_inverse(np.ones((2, 2)))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            solve_right_inverse(np.zeros((0, 0)))


class TestCheckCondition:
    def test_tall_well_conditioned_passes(self):
        check_condition(np.eye(4, 2, dtype=complex))

    def test_rank_deficient_names_the_matrix(self):
        with pytest.raises(NearSingularError, match="^channel condition number .* exceeds 1e\\+12$"):
            check_condition(np.ones((4, 2), dtype=complex), "channel condition number")

    def test_failed_estimate_is_near_singular(self):
        with pytest.raises(NearSingularError, match="condition estimate failed"):
            check_condition(np.array([[np.nan, 1.0], [1.0, 1.0]]))


def test_hermitian_part_is_hermitian(rng):
    x = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    h = hermitian_part(x)
    assert np.array_equal(h, h.conj().T)


class TestStackedConditioning:
    def stack(self, rng):
        a = rng.standard_normal((5, 3, 3)) + 1j * rng.standard_normal((5, 3, 3)) + 3 * np.eye(3)
        a[1] = np.ones((3, 3))
        a[2, 0, 0] = np.nan
        a[4, 1] = np.inf
        return a

    def test_check_condition_mask_without_raising(self, rng):
        assert np.array_equal(check_condition(self.stack(rng)), [True, False, False, True, False])

    def test_check_condition_leading_axes_kept(self, rng):
        assert check_condition(self.stack(rng).reshape(5, 1, 3, 3)).shape == (5, 1)

    def test_solve_right_inverse_zero_for_failing_matrices(self, rng):
        a = self.stack(rng)
        b = solve_right_inverse(a)
        for t in (0, 3):
            assert np.array_equal(b[t], solve_right_inverse(a[t]))
        for t in (1, 2, 4):
            assert not b[t].any()
            with pytest.raises(NearSingularError):
                solve_right_inverse(a[t])

    def test_non_square_stack_rejected(self):
        with pytest.raises(ValueError):
            solve_right_inverse(np.zeros((2, 2, 3)))
