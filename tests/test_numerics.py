import warnings

import numpy as np
import pytest

from mphp.channel import ArrayGeometry, UserChannelParams, correlation_from_params, steering_vector
from mphp.numerics import (
    CONDITION_LIMIT,
    EigenDecomposition,
    NearSingularError,
    hermitian_eig,
    hermitian_part,
    real_frame,
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

    def test_near_singular_gives_zero(self):
        a = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-14]])
        assert np.linalg.cond(a) > CONDITION_LIMIT
        assert not solve_right_inverse(a).any()

    def test_exactly_singular_gives_zero(self):
        assert not solve_right_inverse(np.ones((2, 2))).any()

    def test_failed_solve_is_near_singular(self, monkeypatch):
        def failing(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", failing)
        with pytest.raises(NearSingularError, match="^SVD failed: SVD did not converge$"):
            solve_right_inverse(np.eye(2))

    def test_signed_zero_singular_value_gives_zero(self, monkeypatch):
        # LAPACK may return an exactly singular matrix's last singular value
        # as -0.0; s[0] / s[-1] is then -inf, which a ratio test would pass.
        svd = np.linalg.svd

        def signed_zero(a, **kwargs):
            u, s, vh = svd(a, **kwargs)
            s[..., -1] = -0.0
            return u, s, vh

        monkeypatch.setattr(np.linalg, "svd", signed_zero)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            b = solve_right_inverse(np.array([[1.0, 1.0], [1.0, 1.0]]))
        assert not b.any()

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            solve_right_inverse(np.zeros((0, 0)))


class TestCheckCondition:
    """The condition test inside ``solve_right_inverse``: a failing matrix
    gets B = 0."""

    def test_wide_well_conditioned_passes(self):
        a = np.eye(2, 4, dtype=complex)
        assert np.array_equal(a @ solve_right_inverse(a), np.eye(2))

    def test_rank_deficient_fails(self):
        assert not solve_right_inverse(np.ones((2, 4), dtype=complex)).any()

    def test_non_finite_fails(self):
        assert not solve_right_inverse(np.array([[np.nan, 1.0], [1.0, 1.0]])).any()


def test_hermitian_part_is_hermitian(rng):
    x = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    h = hermitian_part(x)
    assert np.array_equal(h, h.conj().T)


def test_hermitian_part_keeps_a_real_matrix_real():
    h = hermitian_part(np.array([[1.0, 2.0], [0.0, 3.0]]))
    assert h.dtype == np.float64
    assert np.array_equal(h, [[1.0, 1.0], [1.0, 3.0]])


EPS = np.finfo(float).eps


def dense_q(m_ant):
    """Q = (1/sqrt(2)) [[I, iI], [J, -iJ]] of unitary ESPRIT, with a middle
    row and column e_n for odd M, written out entry by entry."""
    n = m_ant // 2
    top, right, bottom = np.arange(n), m_ant - n + np.arange(n), m_ant - 1 - np.arange(n)
    q = np.zeros((m_ant, m_ant), dtype=complex)
    q[top, top] = q[bottom, top] = 1.0
    q[top, right] = 1j
    q[bottom, right] = -1j
    q /= np.sqrt(2.0)
    if m_ant % 2:
        q[n, n] = 1.0
    return q


def ula_correlation(m_ant, spread, mean_aod=0.4):
    params = UserChannelParams(mean_aod=mean_aod, angular_spread=spread, path_count=4, mean_power=2.5)
    return correlation_from_params(params, ArrayGeometry(m_ant, element_spacing=0.37))


FRAME_SPREADS = (0.0, 0.01, 0.03, 0.5)


class TestRealFrame:
    @pytest.mark.parametrize("m_ant", [1, 2, 3, 8, 9, 128])
    def test_lift_is_the_unitary_q(self, m_ant):
        _, lift = real_frame(ula_correlation(m_ant, 0.1))
        q = lift(np.eye(m_ant))
        assert np.abs(q - dense_q(m_ant)).max() <= EPS
        assert np.abs(q.conj().T @ q - np.eye(m_ant)).max() <= 2 * EPS
        v = np.random.default_rng(m_ant).standard_normal((m_ant, 3))
        assert np.allclose(lift(v), dense_q(m_ant) @ v, rtol=0, atol=4 * EPS)

    @pytest.mark.parametrize("spread", FRAME_SPREADS)
    def test_ula_correlations_are_centro_hermitian(self, spread):
        # J R J = conj(R) holds exactly, so the whole stage runs in the frame.
        for m_ant in (*range(1, 66), *range(66, 1024, 29), 127, 128, 255, 256, 511, 512, 1023, 1024):
            corr = ula_correlation(m_ant, spread)
            assert np.array_equal(corr[::-1, ::-1], corr.conj()), m_ant
            assert real_frame(corr)[0].dtype == np.float64, m_ant

    @pytest.mark.parametrize("spread", FRAME_SPREADS)
    @pytest.mark.parametrize("m_ant", [1, 2, 3, 4, 5, 8, 9, 16, 17, 64, 127, 128, 255, 256, 1023, 1024])
    def test_frame_matches_the_dense_product(self, m_ant, spread):
        corr = ula_correlation(m_ant, spread)
        frame, _ = real_frame(corr)
        q = dense_q(m_ant)
        assert np.array_equal(frame, frame.T)
        assert np.linalg.norm(frame - q.conj().T @ corr @ q) <= 1e-15 * np.linalg.norm(corr)

    def test_stack_is_transformed_matrix_by_matrix(self):
        corrs = np.stack([ula_correlation(9, spread, mean_aod) for spread, mean_aod in ((0.01, -0.7), (0.5, 0.2))])
        frame, _ = real_frame(corrs)
        for corr, own in zip(corrs, frame):
            assert np.array_equal(own, real_frame(corr)[0])

    def test_other_matrices_keep_the_complex_path(self, rng):
        # A steering vector's outer product a a^H, formed entry by entry (so
        # not exactly Toeplitz off broadside), a random PSD matrix, and a
        # stack with one of them, come back as they are, with the identity
        # lift.
        steering = steering_vector(0.4, ArrayGeometry(16, element_spacing=0.37))
        outer = hermitian_part(2.5 * np.outer(steering, steering.conj()))
        psd = random_psd(rng, 16)
        v = rng.standard_normal((16, 2))
        for a in (outer, psd, np.stack([ula_correlation(16, 0.03), outer])):
            frame, lift = real_frame(a)
            assert frame is a
            assert lift(v) is v

    @pytest.mark.parametrize("m_ant", [1, 2, 7, 8, 64])
    def test_hermitian_eig_on_both_paths(self, m_ant):
        # The contract holds on the complex correlation and on its real
        # frame, whose eigenvalues agree and whose lifted vectors are the
        # correlation's eigenvectors.
        corr = ula_correlation(m_ant, 0.1)
        frame, lift = real_frame(corr)
        for a in (corr, frame):
            values, vectors = hermitian_eig(a)
            assert vectors.dtype == a.dtype
            assert np.all(np.diff(values) <= 0)
            assert np.abs(vectors.conj().T @ vectors - np.eye(m_ant)).max() <= 1e-13
            assert np.linalg.norm(a @ vectors - vectors * values) <= 1e-13 * np.linalg.norm(a)
        values, vectors = hermitian_eig(frame)
        assert np.abs(values - hermitian_eig(corr).eigenvalues).max() <= m_ant * EPS * values[0]
        lifted = lift(vectors)
        assert np.linalg.norm(corr @ lifted - lifted * values) <= 1e-13 * np.linalg.norm(corr)


class TestStackedConditioning:
    def stack(self, rng):
        a = rng.standard_normal((5, 3, 3)) + 1j * rng.standard_normal((5, 3, 3)) + 3 * np.eye(3)
        a[1] = np.ones((3, 3))
        a[2, 0, 0] = np.nan
        a[4, 1] = np.inf
        return a

    def test_check_condition_mask_without_raising(self, rng):
        passed = solve_right_inverse(self.stack(rng)).any(axis=(-2, -1))
        assert np.array_equal(passed, [True, False, False, True, False])

    def test_check_condition_leading_axes_kept(self, rng):
        a = self.stack(rng)
        b = solve_right_inverse(a.reshape(5, 1, 3, 3))
        assert b.shape == (5, 1, 3, 3)
        assert np.array_equal(b[:, 0], solve_right_inverse(a))

    def test_solve_right_inverse_zero_for_failing_matrices(self, rng):
        a = self.stack(rng)
        b = solve_right_inverse(a)
        for t in range(5):
            assert np.array_equal(b[t], solve_right_inverse(a[t]))
        for t in (1, 2, 4):
            assert not b[t].any()

    def test_tall_stack_rejected_wide_stack_inverted(self, rng):
        with pytest.raises(ValueError):
            solve_right_inverse(np.zeros((2, 3, 2)))
        a = rng.standard_normal((4, 2, 5)) + 1j * rng.standard_normal((4, 2, 5))
        b = solve_right_inverse(a)
        assert b.shape == (4, 5, 2)
        assert np.abs(a @ b - np.eye(2)).max() <= 1e-14
        # The minimum-norm right inverse: B's columns lie in A's row space.
        assert np.allclose(b, np.linalg.pinv(a), rtol=0, atol=1e-14)
