import warnings

import numpy as np
import pytest

from mphp import numerics
from mphp.channel import ArrayGeometry, UserChannelParams, scenario_correlations, steering_vector
from mphp.numerics import (
    CONDITION_LIMIT,
    EigenDecomposition,
    NearSingularError,
    hermitian_eig,
    hermitian_part,
    real_frame,
    solve_right_inverse,
)

from conftest import random_hermitian, random_psd, unitary


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

    @pytest.mark.parametrize("kind", ["real", "complex"])
    @pytest.mark.parametrize("shape", [(1,), (5,), (2, 3)])
    def test_stack_bytes_equal_per_matrix(self, rng, kind, shape):
        x = rng.standard_normal((*shape, 7, 7))
        if kind == "complex":
            x = x + 1j * rng.standard_normal((*shape, 7, 7))
        stack = x + np.swapaxes(x, -1, -2).conj()
        values, vectors = hermitian_eig(stack)
        assert values.shape == (*shape, 7) and vectors.shape == (*shape, 7, 7)
        assert values.dtype == np.float64 and vectors.dtype == stack.dtype
        assert values.flags.c_contiguous and vectors.flags.c_contiguous
        for index in np.ndindex(shape):
            alone = hermitian_eig(stack[index])
            assert np.all(np.diff(values[index]) <= 0)
            assert values[index].tobytes() == alone.eigenvalues.tobytes()
            assert vectors[index].tobytes() == alone.eigenvectors.tobytes()

    def test_stack_of_non_square_rejected(self):
        with pytest.raises(ValueError):
            hermitian_eig(np.zeros((3, 2, 3)))

    def test_stack_hermitian_part_is_per_matrix(self, rng):
        stack = rng.standard_normal((4, 5, 5)) + 1j * rng.standard_normal((4, 5, 5))
        for matrix, part in zip(stack, hermitian_part(stack)):
            assert part.tobytes() == hermitian_part(matrix).tobytes()


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
        # A rank-deficient wide matrix leaves its R factor in doubt, so the
        # SVD judges it.
        def failing(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", failing)
        with pytest.raises(NearSingularError, match="^SVD failed: SVD did not converge$"):
            solve_right_inverse(np.ones((2, 3)))

    def test_failed_solve_in_doubt_is_near_singular(self, monkeypatch):
        # A square matrix reaches the SVD when its Frobenius bound exceeds
        # CONDITION_LIMIT / 2.
        def failing(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", failing)
        with pytest.raises(NearSingularError, match="^SVD failed: SVD did not converge$"):
            solve_right_inverse(np.diag([1.0, 1.0 / CONDITION_LIMIT]))

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
    return scenario_correlations([params], ArrayGeometry(m_ant, element_spacing=0.37))[0]


FRAME_SPREADS = (0.0, 0.01, 0.03, 0.5)


def conjugate_centro_hermitian(a):
    """The centro-Hermitian test ``real_frame`` made on a conjugate copy of
    the stack's first half of rows: J A J = conj(A), compared on rows :hi."""
    hi = (a.shape[-1] + 1) // 2
    return np.array_equal(a[..., ::-1, ::-1][..., :hi, :], a[..., :hi, :].conj())


def toeplitz_stack(m_ant, spreads=(0.01, 0.5, 0.1)):
    return np.stack([ula_correlation(m_ant, spread, mean_aod) for spread, mean_aod in zip(spreads, (-0.7, 0.2, 0.5))])


def flipped_imaginary_sign():
    a = toeplitz_stack(8)
    assert a[1, 2, 5].imag != 0.0
    a[1, 2, 5] = a[1, 2, 5].conj()
    return a, False


def with_nan(part):
    def case():
        a = toeplitz_stack(9)
        a[0, 1, 3] = complex(np.nan, a[0, 1, 3].imag) if part == "real" else complex(a[0, 1, 3].real, np.nan)
        return a, False

    return case


def signed_zero_imaginary(signs):
    # A real symmetric Toeplitz stack with +0.0 or -0.0 imaginary parts:
    # both zeros compare equal, so each stack is centro-Hermitian.
    def case():
        real = toeplitz_stack(7).real
        a = np.empty(real.shape, dtype=complex)
        a.real = real
        a.imag = np.copysign(0.0, signs(np.random.default_rng(3), real.shape))
        return a, True

    return case


CENTRO_CASES = {
    **{f"toeplitz-M{m}": (lambda m=m: (toeplitz_stack(m), True)) for m in (1, 2, 7, 8, 9, 16)},
    **{f"toeplitz-M{m}-K1": (lambda m=m: (toeplitz_stack(m)[:1], True)) for m in (1, 7, 8)},
    "flipped-imaginary-sign": flipped_imaginary_sign,
    "nan-real": with_nan("real"),
    "nan-imaginary": with_nan("imaginary"),
    "plus-zero-imaginary": signed_zero_imaginary(lambda rng, shape: np.ones(shape)),
    "minus-zero-imaginary": signed_zero_imaginary(lambda rng, shape: -np.ones(shape)),
    "mixed-zero-imaginary": signed_zero_imaginary(lambda rng, shape: rng.choice([-1.0, 1.0], shape)),
    "real-dtype-symmetric": lambda: (toeplitz_stack(8).real.copy(), True),
    "real-dtype-asymmetric": lambda: (np.arange(16.0).reshape(1, 4, 4), False),
}


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

    @pytest.mark.parametrize("case", sorted(CENTRO_CASES))
    def test_centro_hermitian_test_matches_the_conjugate_oracle(self, case):
        # The test reads the real and imaginary views; it decides as the
        # comparison with a conjugate copy did.
        a, expected = CENTRO_CASES[case]()
        assert conjugate_centro_hermitian(a) is expected
        frame, _ = real_frame(a)
        assert (frame is not a) is expected
        if expected:
            assert frame.dtype == np.float64

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


def svd_rule(a):
    """The SVD condition test on each matrix of a square or wide stack: the
    singular values of A^H, a matrix with a non-finite entry taken as zero."""
    finite = np.isfinite(a).all(axis=(-2, -1))[..., None, None]
    s = np.linalg.svd(np.where(finite, np.swapaxes(a, -1, -2).conj(), 0.0), compute_uv=False)
    return (s[..., -1] > 0) & (s[..., 0] <= CONDITION_LIMIT * s[..., -1])


class TestSquareStacksByLu:
    """A square stack is inverted by LU; the SVD decides every matrix whose
    Frobenius bound ||A||_F ||A^-1||_F exceeds CONDITION_LIMIT / 2."""

    CONDITIONS = (1e11, 4e11, 6e11, 1e12 * (1 - 1e-6), 1e12 * (1 + 1e-6), 1e13)

    def conditioned(self, rng):
        # Spectrum (1, 1/sqrt(k), 1/k): the bound is k to within about 1/sqrt(k).
        return [unitary(rng, 3) @ np.diag([1.0, k**-0.5, 1.0 / k]) @ unitary(rng, 3) for k in self.CONDITIONS]

    def mixed_stack(self, rng):
        nan = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        nan[1, 2] = np.nan
        return np.stack([
            np.ones((3, 3), dtype=complex),
            *self.conditioned(rng),
            np.diag([1e165, 1e155, 1e155]).astype(complex),
            nan,
        ])

    def test_mixed_stack_matches_its_slices_and_the_svd_rule(self, rng):
        a = self.mixed_stack(rng)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            b = solve_right_inverse(a)
            for t in range(len(a)):
                assert np.array_equal(b[t], solve_right_inverse(a[t])), t
        assert np.array_equal(b.any(axis=(-2, -1)), svd_rule(a))
        # The two best-conditioned matrices and the scaled slice pass; the
        # singular, 1e13 and NaN slices fail.
        passed = b.any(axis=(-2, -1))
        assert passed[[1, 2, 7]].all() and not passed[[0, 6, 8]].any()
        assert np.abs(a[7] @ b[7] - np.eye(3)).max() <= 1e-15

    def test_only_matrices_in_doubt_reach_the_svd(self, monkeypatch, rng):
        # Without a singular or NaN slice, inv takes the whole stack at once
        # and one SVD takes the matrices whose bound exceeds the margin.
        a = np.stack([*self.conditioned(rng), np.diag([1e165, 1e155, 1e155]).astype(complex)])
        svd_inputs = []
        svd = np.linalg.svd

        def recorded(x, **kwargs):
            svd_inputs.append(x)
            return svd(x, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", recorded)
        b = solve_right_inverse(a)
        assert [x.shape for x in svd_inputs] == [(4, 3, 3)]
        assert np.array_equal(svd_inputs[0], np.swapaxes(a[2:6], -1, -2).conj())
        monkeypatch.setattr(np.linalg, "svd", svd)
        assert np.array_equal(b.any(axis=(-2, -1)), svd_rule(a))

    def test_lu_inverse_is_the_inverse(self, rng):
        a = rng.standard_normal((6, 4, 4)) + 1j * rng.standard_normal((6, 4, 4))
        b = solve_right_inverse(a)
        assert np.array_equal(b, np.linalg.inv(a))
        assert np.allclose(b, np.linalg.pinv(a), rtol=0, atol=1e-12)

    def test_bound_is_exact_under_scaling(self, rng):
        # The power-of-two scaling is exact, so a matrix and its scaled
        # copies get the same bound, with no overflow at either end.
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        bounds = [
            numerics._frobenius_product(scale * a, np.linalg.inv(scale * a))
            for scale in (2.0**-900, 1.0, 2.0**900)
        ]
        assert bounds[0] == bounds[1] == bounds[2]
        assert bounds[1] == pytest.approx(np.linalg.norm(a) * np.linalg.norm(np.linalg.inv(a)), rel=1e-14)


def complex_gaussian(rng, shape):
    """A stack of matrices with independent complex Gaussian entries."""
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestWideStacksByQr:
    """A wide stack is factored by one thin QR, A^H = Q R, and gets
    B = Q (R^H)^-1, with R^H inverted and judged by the square path: R has
    A's singular values, so the SVD rule decides, at rounding."""

    @pytest.mark.parametrize("shape", [(6, 2, 5), (4, 8, 16), (3, 8, 64), (2, 1, 3)])
    def test_matches_pinv(self, rng, shape):
        a = complex_gaussian(rng, shape)
        b = solve_right_inverse(a)
        pinv = np.linalg.pinv(a)
        assert np.abs(b - pinv).max() <= 1e-12 * np.abs(pinv).max()
        residual = np.abs(a @ b - np.eye(shape[1])).max(axis=(-2, -1))
        assert (residual <= 8 * shape[1] * EPS * np.linalg.cond(a)).all()

    def test_residual_is_first_order_in_the_condition(self, rng):
        # Spectra from 1 down to 1e-3 ... 1e-9: A B - I stays near eps * cond(A).
        a = np.stack([unitary(rng, 4) @ np.diag(np.logspace(0, -k, 4)) @ unitary(rng, 9)[:4] for k in (3, 6, 9)])
        residual = np.abs(a @ solve_right_inverse(a) - np.eye(4)).max(axis=(-2, -1))
        assert (residual <= 32 * EPS * np.linalg.cond(a)).all()
        assert residual[-1] > 1e3 * EPS

    def test_failing_slices_are_zero_and_others_bit_equal(self, rng):
        a = complex_gaussian(rng, (7, 3, 6))
        a[1] = np.ones((3, 6))
        a[2] = 0.0
        a[3, 0, 4] = np.nan
        a[4, 2, 1] = np.inf
        a[5, 2] = a[5, 0] + a[5, 1]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            b = solve_right_inverse(a)
            for t in range(len(a)):
                assert np.array_equal(b[t], solve_right_inverse(a[t])), t
        assert np.array_equal(b.any(axis=(-2, -1)), [True, False, False, False, False, False, True])
        assert not b[1:6].any()

    @pytest.mark.parametrize("side", [-1, 1])
    def test_condition_limit_decided_as_the_svd_rule(self, rng, side):
        # 0.1% either side of the limit, beyond the rounding of s[-1] (about
        # eps * s[0] = 2e-4 of it at the limit).
        k = CONDITION_LIMIT * (1 + side * 1e-3)
        a = np.stack([unitary(rng, 2) @ np.diag([1.0, 1.0 / k]) @ unitary(rng, 5)[:2] for _ in range(20)])
        passed = solve_right_inverse(a).any(axis=(-2, -1))
        assert np.array_equal(passed, svd_rule(a))
        assert (passed == (side < 0)).all()

    def test_doubtful_r_factors_reach_the_svd(self, monkeypatch, rng):
        # Only the R factors in doubt go to the SVD, as one square stack.
        a = complex_gaussian(rng, (4, 2, 5))
        a[2, 1] = a[2, 0]
        svd_inputs = []
        svd = np.linalg.svd

        def recorded(x, **kwargs):
            svd_inputs.append(x)
            return svd(x, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", recorded)
        b = solve_right_inverse(a)
        assert [x.shape for x in svd_inputs] == [(1, 2, 2)]
        assert np.array_equal(b.any(axis=(-2, -1)), [True, True, False, True])

    def test_square_stack_takes_the_lu_path(self, monkeypatch, rng):
        # M = K: the full-digital H^H is square, and no QR is taken.
        a = complex_gaussian(rng, (5, 4, 4))

        def failing(*args, **kwargs):
            raise AssertionError("a square stack reached np.linalg.qr")

        monkeypatch.setattr(np.linalg, "qr", failing)
        assert np.array_equal(solve_right_inverse(a), np.linalg.inv(a))
