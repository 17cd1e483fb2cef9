import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from mphp.grouping import group_users
from mphp.numerics import hermitian_eig
from mphp.rf_precoder import (
    DegenerateGroupError,
    RelaxedSolution,
    ZeroColumnError,
    grfp_assign,
    leakage_correlation,
    nearest_phase_index,
    phase_grid,
    relaxed_step,
    solve_alpha_star,
    solve_relaxed,
    sslnr,
    validate_rf_precoder,
)

from conftest import make_grouping, random_psd


def diagonal_grouping():
    """Two singleton groups with R_1 = diag(2,0), R_2 = diag(0,1)."""
    corrs = [np.diag([2.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)]
    return make_grouping(corrs, [0, 1])


class TestLeakageCorrelation:
    def test_single_group_is_zero(self, rng):
        grouping = make_grouping([random_psd(rng, 4) for _ in range(3)], [0, 0, 0])
        assert np.array_equal(leakage_correlation(grouping, 0), np.zeros((4, 4)))

    def test_two_singleton_groups(self):
        grouping = diagonal_grouping()
        assert np.allclose(leakage_correlation(grouping, 0), np.diag([0.0, 1.0]))
        assert np.allclose(leakage_correlation(grouping, 1), np.diag([2.0, 0.0]))

    def test_size_weighting(self, rng):
        corrs = [random_psd(rng, 4) for _ in range(4)]
        grouping = make_grouping(corrs, [0, 0, 1, 2])  # sizes (2, 1, 1)
        expected = 2 * 1 * grouping.group_correlations[1] + 2 * 1 * grouping.group_correlations[2]
        assert np.allclose(leakage_correlation(grouping, 0), expected)

    def test_invalid_group_index(self):
        with pytest.raises(ValueError):
            leakage_correlation(diagonal_grouping(), 5)


class TestRelaxedStep:
    def test_alpha_zero_reduces_to_dominant_eigenvectors(self, rng):
        corr = random_psd(rng, 6)
        values, vectors = hermitian_eig(corr)
        f_star, f_value = relaxed_step(corr, np.zeros((6, 6)), 0.0, streams=2)
        assert f_value == pytest.approx(values[:2].sum(), rel=1e-12)
        overlap = np.abs(vectors[:, :2].conj().T @ f_star)
        assert np.allclose(overlap, np.eye(2), atol=1e-9)

    def test_diagonal_hand_case(self):
        f_star, f_value = relaxed_step(np.diag([2.0, 0.0]), np.diag([0.0, 1.0]), 1.0, streams=1)
        assert f_value == pytest.approx(2.0, abs=1e-12)
        assert abs(f_star[0, 0]) == pytest.approx(1.0, abs=1e-12)
        assert abs(f_star[1, 0]) <= 1e-12

    def test_negative_eigenvalue_column_shrinks(self):
        # R = I, leak = I, alpha = 3: eigenvalue -2, column norm 1/sqrt(2),
        # objective -2 * (1/sqrt(2))^2 = -1 under the squared convention.
        f_star, f_value = relaxed_step(np.eye(2), np.eye(2), 3.0, streams=1)
        assert f_value == pytest.approx(-1.0, abs=1e-12)
        assert np.linalg.norm(f_star[:, 0]) == pytest.approx(1 / np.sqrt(2.0), abs=1e-12)

    def test_linear_exponent_variant(self):
        _, f_value = relaxed_step(np.eye(2), np.eye(2), 3.0, streams=1, objective_exponent=1)
        assert f_value == pytest.approx(-2.0 / np.sqrt(2.0), abs=1e-12)

    def test_column_norms_follow_eigenvalue_sign(self, rng):
        corr = random_psd(rng, 5, dof=2)
        leak = random_psd(rng, 5)
        f_star, _ = relaxed_step(corr, leak, 2.0, streams=3)
        values, _ = hermitian_eig(corr - 2.0 * leak)
        for i in range(3):
            expected = 1.0 if values[i] >= 0 else 1 / np.sqrt(5.0)
            assert np.linalg.norm(f_star[:, i]) == pytest.approx(expected, abs=1e-9)

    def test_negative_alpha_rejected(self):
        with pytest.raises(ValueError):
            relaxed_step(np.eye(2), np.eye(2), -0.1, 1)


class TestSolveAlphaStar:
    def test_diagonal_closed_form(self):
        corr, leak = np.diag([2.0, 0.0]), np.diag([0.0, 1.0])
        alpha, f_star = solve_alpha_star(corr, leak, streams=1, n_users=2, power=1.0)
        assert alpha == pytest.approx(1.0, abs=1e-6)
        assert abs(f_star[0, 0]) == pytest.approx(1.0, abs=1e-9)
        # alpha* = 1 is the first bracket end: the early-return branch
        assert np.array_equal(f_star, relaxed_step(corr, leak, alpha, 1)[0])

    @pytest.mark.parametrize("seed", range(20))
    def test_single_group_closed_form(self, seed):
        # Empty leakage: f is constant, so alpha* = P * (sum of top-S
        # eigenvalues) / (K * S).
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(2, 8))
        streams = int(rng.integers(1, dim + 1))
        n_users = int(rng.integers(1, 6))
        power = float(rng.uniform(0.2, 4.0))
        corr = random_psd(rng, dim)
        values, _ = hermitian_eig(corr)
        expected = power * values[:streams].sum() / (n_users * streams)
        alpha, _ = solve_alpha_star(corr, np.zeros((dim, dim)), streams, n_users, power)
        assert alpha == pytest.approx(expected, rel=1e-6)

    @pytest.mark.parametrize("seed", range(10))
    def test_root_residual_contract(self, seed):
        rng = np.random.default_rng(100 + seed)
        corr = random_psd(rng, 6, trace=6.0)
        leak = random_psd(rng, 6, trace=12.0)
        streams, n_users, power = 2, 4, 1.0
        alpha, f_star = solve_alpha_star(corr, leak, streams, n_users, power, tol=1e-9)
        f_expected, f_value = relaxed_step(corr, leak, alpha, streams)
        rhs = n_users * streams / power * alpha
        assert abs(f_value - rhs) <= 1e-9 * rhs
        assert np.array_equal(f_star, f_expected)

    def test_degenerate_group_rejected(self):
        with pytest.raises(DegenerateGroupError):
            solve_alpha_star(np.zeros((3, 3)), np.zeros((3, 3)), 1, 2, 1.0)

    @pytest.mark.parametrize("seed", range(10))
    def test_objective_non_increasing_in_alpha(self, seed):
        rng = np.random.default_rng(200 + seed)
        corr = random_psd(rng, 5, trace=5.0)
        leak = random_psd(rng, 5, trace=10.0)
        values = [relaxed_step(corr, leak, a, 2)[1] for a in np.linspace(0.0, 4.0, 20)]
        assert np.all(np.diff(values) <= 1e-12)

    def test_scale_invariance_of_alpha_and_selection(self, rng):
        # R_k -> c R_k with P -> P / c leaves the SSLNR, hence alpha*, fixed.
        corrs = [random_psd(np.random.default_rng(7 + i), 6, dof=2, trace=6.0) for i in range(2)]
        grouping = make_grouping(corrs, [0, 1])
        scale = 3.7
        scaled = make_grouping([scale * c for c in corrs], [0, 1])
        base = solve_relaxed(grouping, n_users=2, power=1.0)
        other = solve_relaxed(scaled, n_users=2, power=1.0 / scale)
        assert np.allclose(base.alpha_star, other.alpha_star, rtol=1e-6)
        rf_base = grfp_assign(base, grouping, bits=3, antenna_count=6)
        rf_scaled = grfp_assign(other, scaled, bits=3, antenna_count=6)
        assert np.array_equal(rf_base.antenna_to_chain, rf_scaled.antenna_to_chain)


class TestPhaseQuantization:
    def test_grid_values(self):
        grid = phase_grid(2)
        assert np.allclose(grid, [1.0, 1j, -1.0, -1j])

    def test_nearest_index_hand_case(self):
        # phase 0.8*pi with a 2-bit grid {0, pi/2, pi, 3pi/2} quantizes to pi
        assert nearest_phase_index(np.exp(0.8j * np.pi), 2) == 2

    def test_grid_points_round_trip(self):
        # values already on the grid map back to their own index exactly
        for bits in (1, 2, 3, 4):
            for n, point in enumerate(phase_grid(bits)):
                assert nearest_phase_index(0.3 * point, bits) == n

    def test_zero_value_maps_to_index_zero(self):
        assert nearest_phase_index(0.0, 4) == 0

    def test_scalar_gives_int(self):
        assert type(nearest_phase_index(1j, 2)) is int
        assert type(nearest_phase_index(np.complex128(-1.0), 2)) is int

    # Magnitudes stay normal: below about 1e-308 the complex division by |v|
    # overflows (1/|v| is inf), in the scalar path as in the array path.
    @settings(max_examples=300, deadline=None)
    @given(
        values=arrays(
            np.complex128,
            array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=6),
            elements=st.just(0j) | st.complex_numbers(min_magnitude=1e-300, max_magnitude=1e300),
        ),
        bits=st.integers(1, 8),
    )
    def test_array_quantizes_elementwise(self, values, bits):
        index = nearest_phase_index(values, bits)
        assert index.shape == values.shape
        assert np.all((index >= 0) & (index < 2**bits))
        assert np.all(index[values == 0] == 0)
        grid = phase_grid(bits)
        for value, n in zip(values.ravel(), index.ravel()):
            if value != 0:
                distance = np.abs(value / abs(value) - grid)
                assert distance[n] <= distance.min() + 1e-12

    def test_bits_validated(self):
        with pytest.raises(ValueError):
            phase_grid(0)


class TestGrfpAssign:
    def test_hand_trace_two_singleton_groups(self):
        grouping = diagonal_grouping()
        relaxed = RelaxedSolution(
            alpha_star=[0.5, 1.0],
            f_star=[np.array([[1.0], [0.0]], dtype=complex), np.array([[0.0], [1.0]], dtype=complex)],
        )
        rf = grfp_assign(relaxed, grouping, bits=1, antenna_count=2)
        assert np.allclose(rf.f, np.eye(2) / np.sqrt(2.0))
        assert np.array_equal(rf.antenna_to_chain, [0, 1])
        assert np.array_equal(rf.phase_index, [0, 0])
        validate_rf_precoder(rf)

    def test_ascending_alpha_priority(self):
        # Both groups want antenna 0; the group with the smaller alpha* wins.
        corrs = [np.diag([2.0, 0.0, 0.0]).astype(complex), np.diag([1.5, 0.0, 0.0]).astype(complex)]
        grouping = make_grouping(corrs, [0, 1])
        col = np.array([[1.0], [0.5], [0.1]], dtype=complex)
        relaxed = RelaxedSolution(alpha_star=[2.0, 1.0], f_star=[col.copy(), col.copy()])
        rf = grfp_assign(relaxed, grouping, bits=2, antenna_count=3)
        assert rf.antenna_to_chain[0] == 1  # smaller alpha* (group 1) picked first
        validate_rf_precoder(rf)

    @pytest.mark.parametrize("seed", range(8))
    def test_structural_invariants_random(self, seed):
        rng = np.random.default_rng(seed)
        m_ant = int(rng.integers(4, 33))
        n_users = int(rng.integers(2, min(m_ant, 8) + 1))
        n_groups = int(rng.integers(1, n_users + 1))
        bits = int(rng.integers(1, 5))
        corrs = [random_psd(rng, m_ant, dof=3, trace=m_ant) for _ in range(n_users)]
        grouping = group_users(corrs, n_groups, subspace_rank=2)
        relaxed = solve_relaxed(grouping, n_users=n_users, power=1.0)
        rf = grfp_assign(relaxed, grouping, bits=bits, antenna_count=m_ant)
        validate_rf_precoder(rf)
        assert np.count_nonzero(rf.f) == m_ant

    def test_zero_column_rejected(self):
        grouping = diagonal_grouping()
        relaxed = RelaxedSolution(
            alpha_star=[0.5, 1.0],
            f_star=[np.zeros((2, 1), dtype=complex), np.array([[0.0], [1.0]], dtype=complex)],
        )
        with pytest.raises(ZeroColumnError):
            grfp_assign(relaxed, grouping, bits=1, antenna_count=2)

    def test_more_chains_than_antennas_rejected(self):
        grouping = diagonal_grouping()
        relaxed = RelaxedSolution(
            alpha_star=[0.5, 1.0],
            f_star=[np.ones((1, 1), dtype=complex), np.ones((1, 1), dtype=complex)],
        )
        with pytest.raises(ValueError):
            grfp_assign(relaxed, grouping, bits=1, antenna_count=1)

    def test_validator_catches_bad_magnitude(self):
        grouping = diagonal_grouping()
        relaxed = RelaxedSolution(
            alpha_star=[0.5, 1.0],
            f_star=[np.array([[1.0], [0.0]], dtype=complex), np.array([[0.0], [1.0]], dtype=complex)],
        )
        rf = grfp_assign(relaxed, grouping, bits=1, antenna_count=2)
        rf.f[0, 0] *= 1.0 + 1e-9
        with pytest.raises(ValueError):
            validate_rf_precoder(rf)


class TestSslnr:
    def test_diagonal_hand_case(self):
        grouping = diagonal_grouping()
        f_group = np.array([[1.0], [0.0]], dtype=complex)
        assert sslnr(f_group, grouping, 0, n_users=2, power=1.0) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_precoder_scores_zero(self):
        grouping = diagonal_grouping()
        f_group = np.array([[0.0], [1.0]], dtype=complex)  # orthogonal to R_1's range
        assert sslnr(f_group, grouping, 0, n_users=2, power=1.0) == pytest.approx(0.0, abs=1e-12)

    def test_matches_direct_trace_formula(self, rng):
        corrs = [random_psd(rng, 5, trace=5.0) for _ in range(3)]
        grouping = make_grouping(corrs, [0, 0, 1])
        f_group = rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2))
        sizes = grouping.sizes
        signal = np.real(np.trace(f_group.conj().T @ grouping.group_correlations[0] @ f_group))
        leak = sizes[0] * sizes[1] * np.real(
            np.trace(f_group.conj().T @ grouping.group_correlations[1] @ f_group)
        )
        expected = signal / (leak + 4 * sizes[0] / 2.0)
        assert sslnr(f_group, grouping, 0, n_users=4, power=2.0) == pytest.approx(expected, rel=1e-12)
