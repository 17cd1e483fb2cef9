import dataclasses
import functools
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from mphp import grouping as grouping_mod
from mphp import metrics as metrics_mod
from mphp import rf_precoder
from mphp.baselines import SchemeId, design_long_term
from mphp.channel import scenario_correlations
from mphp.config import apply_sweep_value
from mphp.experiment import SystemConfig, _derived_seeds, parse_config, rows_to_csv, run_experiment
from mphp.grouping import group_users
from mphp.metrics import build_context
from mphp.numerics import EigenDecomposition, above_rounding, hermitian_eig, real_frame
from mphp.rf_precoder import (
    DegenerateGroupError,
    RelaxedSolution,
    ZeroColumnError,
    align_column_phase,
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

from conftest import (
    CO_LOCATED,
    LoopPrecoder,
    contexts_at_seed,
    count_calls,
    group_averages,
    grouped_context,
    make_grouping,
    random_psd,
)


BENCH_WORKLOADS = json.loads((Path(__file__).resolve().parents[1] / "bench" / "workloads.json").read_text())


def diagonal_grouping():
    """Two singleton groups with R_1 = diag(2,0), R_2 = diag(0,1)."""
    corrs = [np.diag([2.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)]
    return make_grouping(corrs, [0, 1])


def bisect_alpha_star(
    signal_corr, leak_corr, streams, n_users, power, tol=1e-9, max_iters=200, antenna_count=None, *, _start=None
):
    """Plain bisection on f(alpha) = (K * S_g / P) * alpha: the reference for
    solve_alpha_star.  The bracket upper end doubles from 1 until the
    right-hand side dominates, then [0, hi] is halved until a midpoint has
    relative residual at most ``tol``.  It evaluates alpha = 0 itself and
    ignores the cached ``_start`` that ``solve_relaxed`` passes."""
    if tol <= 0:
        raise ValueError(f"tol must be > 0, got {tol}")
    slope = n_users * streams / power

    def objective(alpha):
        return relaxed_step(signal_corr, leak_corr, alpha, streams, antenna_count)

    _, f0 = objective(0.0)
    if f0 <= 0:
        raise DegenerateGroupError(f"relaxed objective at alpha=0 is {f0:.3e}, expected > 0")

    def residual_ok(alpha, value):
        rhs = slope * alpha
        return rhs > 0 and abs(value - rhs) <= tol * rhs

    hi = 1.0
    f_hi, value_hi = objective(hi)
    while value_hi > slope * hi:
        hi *= 2.0
        f_hi, value_hi = objective(hi)
    if residual_ok(hi, value_hi):
        return hi, f_hi

    lo = 0.0
    alpha = hi
    for _ in range(max_iters):
        alpha = 0.5 * (lo + hi)
        f_star, value = objective(alpha)
        if residual_ok(alpha, value):
            return alpha, f_star
        if value > slope * alpha:
            lo = alpha
        else:
            hi = alpha
    raise RuntimeError(
        f"alpha* solve did not reach relative residual {tol:g} in {max_iters} iterations"
    )


def random_alpha_problem(seed, m_ant, leak_scale, power=None):
    """(signal_corr, leak_corr, streams, n_users, power) with S <= 4; P is drawn
    log-uniformly from [1e-2, 1e3] unless given."""
    rng = np.random.default_rng(seed)
    streams = int(rng.integers(1, min(m_ant, 4) + 1))
    n_users = int(rng.integers(streams, 13))
    if power is None:
        power = float(10 ** rng.uniform(-2, 3))
    corr = random_psd(rng, m_ant, dof=int(rng.integers(1, m_ant + 1)), trace=float(m_ant))
    leak = leak_scale * random_psd(rng, m_ant, dof=int(rng.integers(1, m_ant + 1)), trace=float(m_ant))
    return corr, leak, streams, n_users, power


def random_basis(seed, m_ant, rank):
    """Orthonormal basis of a random subspace of min(rank, m_ant) dimensions."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((m_ant, min(rank, m_ant))) + 1j * rng.standard_normal((m_ant, min(rank, m_ant)))
    return np.linalg.qr(x)[0]


def residual(problem, alpha):
    """g(alpha) = f(alpha) - slope * alpha of an alpha* problem, from relaxed_step."""
    signal_corr, leak_corr, streams, n_users, power = problem
    return relaxed_step(signal_corr, leak_corr, alpha, streams)[1] - n_users * streams / power * alpha


def assert_pinned_at_floor(problem, alpha):
    """alpha is a bracket end with no float strictly inside the bracket: g
    changes sign between alpha and its float neighbour towards the root, and
    alpha's |g| is the smaller of the two."""
    at_alpha = residual(problem, alpha)
    at_neighbour = residual(problem, float(np.nextafter(alpha, np.inf if at_alpha > 0 else -np.inf)))
    assert (at_alpha > 0) != (at_neighbour > 0)
    assert abs(at_alpha) <= abs(at_neighbour)


def assert_solver_contract(problem, tol=1e-9, rounding_dominated=False, **options):
    """solve_alpha_star's contract against the bisection reference; gives
    alpha, or None when the solve raised or stopped at the rounding floor.

    A degenerate group raises as in the reference.  Otherwise the solve
    returns a point with relaxed_step's precoder there, whose residual,
    recomputed by relaxed_step, is within ``tol``.  For tol >= 1e-10 that
    point lies within 2 * tol * alpha of the reference's, as both lie in the
    residual band and |g(a)| >= slope * |a - alpha*|; except where the
    rounding of f dominates the band (``rounding_dominated``), as there the
    computed residual no longer locates the root.  Only where rounding may
    dominate (``rounding_dominated``, tol < 1e-10, or the reference raised)
    may the residual lie outside ``tol``, and then the bracket has stopped
    shrinking at the rounding floor: the point is the end nearer the root
    of a bracket with no float inside.
    """
    signal_corr, leak_corr, streams, n_users, power = problem
    options["tol"] = tol
    try:
        expected, _ = bisect_alpha_star(*problem, **options)
    except DegenerateGroupError:
        with pytest.raises(DegenerateGroupError):
            solve_alpha_star(*problem, **options)
        return None
    except RuntimeError:
        expected = None
    alpha, f_star = solve_alpha_star(*problem, **options)
    f_expected, value = relaxed_step(signal_corr, leak_corr, alpha, streams)
    assert np.array_equal(f_star, f_expected)
    rhs = n_users * streams / power * alpha
    if abs(value - rhs) > tol * rhs:
        assert rounding_dominated or expected is None or tol < 1e-10, (alpha, value - rhs)
        assert_pinned_at_floor(problem, alpha)
        return None
    if not rounding_dominated and expected is not None and tol >= 1e-10:
        assert abs(alpha - expected) <= 2 * tol * alpha
    return alpha


def full_space_leakage(group_corrs, sizes, g):
    """sum over o != g of S_g * S_o * R_o, at M x M."""
    return sum((sizes[g] * sizes[o] * corr for o, corr in enumerate(group_corrs) if o != g), np.zeros_like(group_corrs[g]))


def lifted(grouping, reduced):
    """B @ reduced @ B^H: a joint-subspace matrix in antenna coordinates."""
    basis = grouping.joint.basis
    return basis @ reduced @ basis.conj().T


class TestLeakageCorrelation:
    def test_single_group_is_zero(self, rng):
        grouping = make_grouping([random_psd(rng, 4) for _ in range(3)], [0, 0, 0])
        leak = leakage_correlation(grouping, 0)
        width = grouping.joint.basis.shape[1]
        assert leak.shape == (width, width) and not leak.any()

    def test_two_singleton_groups(self):
        grouping = diagonal_grouping()
        assert np.allclose(lifted(grouping, leakage_correlation(grouping, 0)), np.diag([0.0, 1.0]))
        assert np.allclose(lifted(grouping, leakage_correlation(grouping, 1)), np.diag([2.0, 0.0]))

    def test_size_weighting(self, rng):
        corrs = [random_psd(rng, 4) for _ in range(4)]
        grouping = make_grouping(corrs, [0, 0, 1, 2])  # sizes (2, 1, 1)
        averages = group_averages(corrs, grouping)
        expected = 2 * 1 * averages[1] + 2 * 1 * averages[2]
        assert np.allclose(lifted(grouping, leakage_correlation(grouping, 0)), expected)

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

    def test_shrink_uses_the_antenna_count(self):
        # A pencil projected onto a subspace keeps the floor of the array.
        f_star, f_value = relaxed_step(np.eye(2), np.eye(2), 3.0, streams=1, antenna_count=8)
        assert np.linalg.norm(f_star[:, 0]) == pytest.approx(1 / np.sqrt(8.0), abs=1e-12)
        assert f_value == pytest.approx(-2.0 / 8.0, abs=1e-12)

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
        base = solve_relaxed(grouping, power=1.0)
        other = solve_relaxed(scaled, power=1.0 / scale)
        assert np.allclose(base.alpha_star, other.alpha_star, rtol=1e-6)
        rf_base = grfp_assign(base, grouping, bits=3)
        rf_scaled = grfp_assign(other, scaled, bits=3)
        assert np.array_equal(rf_base.antenna_to_chain, rf_scaled.antenna_to_chain)


def on_the_grid(test):
    """Parametrize a test over the bisection grid: M, leakage, tol, and two
    random problems per cell (``draw``, the last entry of the problem seed)."""
    test = pytest.mark.parametrize("m_ant", [1, 2, 8, 64, 128])(test)
    test = pytest.mark.parametrize("leak_scale", [0.0, 1e-3, 1.0, 100.0])(test)
    test = pytest.mark.parametrize("tol", [1e-6, 1e-9, 1e-12])(test)
    return pytest.mark.parametrize("draw", [1, 2])(test)


class TestMatchesBisection:
    """solve_alpha_star keeps the contract of assert_solver_contract against
    plain bisection: an in-band point near the bisection's, the same errors."""

    @on_the_grid
    def test_grid(self, m_ant, leak_scale, tol, draw):
        # Leak scale 0 is the one-group closed form; 100 drives the top
        # eigenvalues negative near the root.  At tol = 1e-12 with strong
        # leakage the rounding of f can exceed the residual band, and the
        # solve may then stop at the rounding floor.  Small arrays also run
        # both ends of the power range; M >= 64 runs one random power, to
        # bound the reference's eigendecompositions.
        for power in (1e-2, None, 1e3) if m_ant <= 8 else (None,):
            seed = [m_ant, int(1000 * leak_scale), int(-np.log10(tol)), draw]
            problem = random_alpha_problem(seed, m_ant, leak_scale, power)
            alpha = assert_solver_contract(problem, tol=tol)
            assert alpha is not None or tol < 1e-9

    @on_the_grid
    def test_grid_poor_basis(self, m_ant, leak_scale, tol, draw):
        # The grid's problems with R and L confined to a random 2-dimensional
        # subspace, as the low-rank group correlations of a large array are:
        # all but two eigenvalues of R - alpha * L are zero up to rounding, so
        # the selected columns past the second, and their order, are rounding
        # noise.  The contract must hold all the same.
        for power in (1e-2, None, 1e3) if m_ant <= 8 else (None,):
            seed = [m_ant, int(1000 * leak_scale), int(-np.log10(tol)), draw]
            corr, leak, streams, n_users, power = random_alpha_problem(seed, m_ant, leak_scale, power)
            basis = random_basis(seed + [2], m_ant, 2)
            projector = basis @ basis.conj().T
            problem = (projector @ corr @ projector, projector @ leak @ projector, streams, n_users, power)
            alpha = assert_solver_contract(problem, tol=tol)
            assert alpha is not None or tol < 1e-9

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        m_ant=st.integers(1, 12),
        leak_scale=st.sampled_from([0.0, 1e-3, 1.0, 100.0]) | st.floats(0.0, 1e3),
        power=st.floats(1e-2, 1e3),
        tol=st.sampled_from([1e-6, 1e-9, 1e-12]) | st.floats(1e-13, 1e-2),
    )
    def test_random_problems(self, seed, m_ant, leak_scale, power, tol):
        problem = random_alpha_problem(seed, m_ant, leak_scale, power)
        assert_solver_contract(problem, tol=tol)

    # Strong leakage at tol <= 1e-12: the rounding of the computed f is about
    # as large as the residual band.
    @pytest.mark.parametrize(
        "seed, m_ant, leak_scale, power, tol",
        [
            (3884, 2, 1e4, 2014.9, 1e-12),
            (2398, 4, 1e3, 71.8, 1e-12),
            (7055, 8, 1e4, 235.3, 1e-12),
            (652, 8, 1e3, 47.4, 1e-13),
            (1850, 2, 1e3, 6352.5, 1e-13),
            (8042, 8, 1e4, 18.9, 1e-12),
            (1197, 2, 1e4, 91.1, 1e-12),
            (2024, 8, 1e3, 4263.2, 1e-12),
        ],
    )
    def test_rounding_dominated_residual(self, seed, m_ant, leak_scale, power, tol):
        problem = random_alpha_problem(seed, m_ant, leak_scale, power)
        assert_solver_contract(problem, tol=tol, rounding_dominated=True)

    # The same regime drawn at random: leakage 1e2 to 1e5 times the signal,
    # P from 10 to 1e4 and tol down to 3e-15.  Rounding dominates the
    # residual, so about half the problems stop at the rounding floor; the
    # rest must return a point inside the residual band, never one outside.
    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        m_ant=st.integers(1, 8),
        log_leak=st.floats(2.0, 5.0),
        log_power=st.floats(1.0, 4.0),
        log_tol=st.floats(float(np.log10(3e-15)), -9.0),
    )
    def test_rounding_dominated_fuzz(self, seed, m_ant, log_leak, log_power, log_tol):
        problem = random_alpha_problem(seed, m_ant, 10.0**log_leak, 10.0**log_power)
        assert_solver_contract(problem, tol=10.0**log_tol, rounding_dominated=True)

    @pytest.mark.parametrize("leak", [np.zeros((3, 3)), np.diag([0.0, 1.0, 1.0])])
    @pytest.mark.parametrize("target", [1.0, 2.0, 4.0, 64.0])
    def test_early_return_at_power_of_two(self, target, leak):
        # f = target on [0, inf): the bisection's doubling stops exactly at
        # the root, and the solve returns the same point and precoder.
        corr = np.diag([target, 0.0, 0.0])
        expected_alpha, expected_f = bisect_alpha_star(corr, leak, 1, 1, 1.0)
        alpha, f_star = solve_alpha_star(corr, leak, 1, 1, 1.0)
        assert alpha == expected_alpha == target
        assert np.array_equal(f_star, expected_f)

    @pytest.mark.parametrize("leak", [np.zeros((3, 3)), np.diag([0.0, 1.0, 1.0])])
    @pytest.mark.parametrize("target", [1.0, 2.0, 4.0, 64.0, 0.3])
    def test_constant_objective_solved_in_one_step(self, monkeypatch, target, leak):
        # f = target on [0, inf) and f' = 0: the first Newton step lands on
        # the root exactly, at the bracket's upper end f(0) / slope.
        corr = np.diag([target, 0.0, 0.0])
        calls = count_calls(monkeypatch, rf_precoder, "relaxed_step")
        alpha = assert_solver_contract((corr, leak, 1, 1, 1.0))
        assert alpha == target
        calls.clear()
        solve_alpha_star(corr, leak, 1, 1, 1.0)
        assert len(calls) == 2

    @pytest.mark.parametrize("n_users", [1, 2])
    def test_negative_top_eigenvalues(self, n_users):
        corr = np.diag([10.0, 0.1, 0.0, 0.0]).astype(complex)
        leak = np.eye(4, dtype=complex)
        alpha = assert_solver_contract((corr, leak, 2, n_users, 100.0))
        values, _ = hermitian_eig(corr - alpha * leak)
        assert values[1] < 0  # the second selected column is shrunk at the root

    @pytest.mark.parametrize("corr", [np.zeros((3, 3)), -np.eye(3), np.diag([0.0, -1.0, -2.0])])
    def test_degenerate_group_raised_alike(self, corr):
        with pytest.raises(DegenerateGroupError):
            bisect_alpha_star(corr, np.eye(3), 1, 2, 1.0)
        assert assert_solver_contract((corr, np.eye(3), 1, 2, 1.0)) is None

    def test_rounding_floor_named(self, monkeypatch):
        # test_grid[1-100.0-1e-12-1] at P = 1e3: near the root f is the
        # difference of two terms about 1e2 larger than it, so its rounding
        # exceeds the residual band and no point meets it.  The solve stops
        # once the bracket cannot shrink, far short of max_iters, and
        # returns the bracket end nearer the root.
        problem = random_alpha_problem([1, 100000, 12, 1], 1, 100.0, 1e3)
        with pytest.raises(RuntimeError):
            bisect_alpha_star(*problem, tol=1e-12)
        calls = count_calls(monkeypatch, rf_precoder, "relaxed_step")
        alpha, f_star = solve_alpha_star(*problem, tol=1e-12)
        assert len(calls) < 100
        calls.clear()
        assert np.array_equal(f_star, relaxed_step(problem[0], problem[1], alpha, problem[2])[0])
        assert abs(residual(problem, alpha)) > 1e-12 * problem[3] * problem[2] / problem[4] * alpha
        assert_pinned_at_floor(problem, alpha)

    def test_too_few_iterations_not_blamed_on_rounding(self):
        problem = random_alpha_problem([300, 0], 8, 1.0, 1.0)
        message = r"^alpha\* solve did not reach relative residual 1e-12 in 2 iterations$"
        with pytest.raises(RuntimeError, match=message):
            solve_alpha_star(*problem, tol=1e-12, max_iters=2)

    def test_max_iters_caps_the_evaluations(self, monkeypatch):
        # Each of these problems needs 3 or 4 Newton points at tol = 1e-12.
        calls = count_calls(monkeypatch, rf_precoder, "relaxed_step")
        for seed in range(4):
            problem = random_alpha_problem([300, seed], 8, 1.0, 1.0)
            for max_iters in (0, 1, 2, 5):
                calls.clear()
                try:
                    solve_alpha_star(*problem, tol=1e-12, max_iters=max_iters)
                except RuntimeError as exc:
                    assert str(exc).endswith(f"in {max_iters} iterations") and max_iters < 3
                else:
                    assert max_iters >= 3
                assert len(calls) <= max_iters + 1
            assert assert_solver_contract(problem, tol=1e-12) is not None


class TestEvaluationCount:
    @pytest.mark.parametrize("seed", [1, 7919])
    @pytest.mark.parametrize("m_ant", [16, 32, 64, 128])
    def test_at_most_five_relaxed_steps_per_group(self, monkeypatch, m_ant, seed):
        # Plain bisection takes about 30 full eigendecompositions here.  The
        # Newton solve takes 3 to 5 relaxed_step calls per group on this
        # grid, the reused alpha = 0 one included.
        grouping, _, _ = build_context(SystemConfig(M=m_ant), seed)
        calls = count_calls(monkeypatch, rf_precoder, "relaxed_step")
        per_group = []
        solve = rf_precoder.solve_alpha_star

        def solve_one_group(*args, **kwargs):
            before = len(calls)
            out = solve(*args, **kwargs)
            per_group.append(len(calls) - before)
            return out

        monkeypatch.setattr(rf_precoder, "solve_alpha_star", solve_one_group)
        for power in (0.1, 1.0, 10.0):
            per_group.clear()
            solve_relaxed(grouping, power=power)
            assert len(per_group) == grouping.group_count
            assert max(per_group) <= 5, power

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        m_ant=st.integers(1, 12),
        leak_scale=st.sampled_from([0.0, 1e-3, 1.0, 100.0]) | st.floats(0.0, 1e3),
        power=st.floats(1e-2, 1e3),
        tol=st.sampled_from([1e-6, 1e-9, 1e-10]) | st.floats(1e-10, 1e-2),
    )
    # Its residual band at alpha* (3.1e-14) lies below the rounding floor (1.3e-13); it takes 13 steps.
    @example(seed=18263, m_ant=6, leak_scale=801.380859375, power=724.75, tol=1e-10)
    def test_at_most_twelve_relaxed_steps_on_random_problems(self, seed, m_ant, leak_scale, power, tol):
        signal_corr, leak_corr, streams, n_users, power = problem = random_alpha_problem(seed, m_ant, leak_scale, power)
        with pytest.MonkeyPatch.context() as patch:
            calls = count_calls(patch, rf_precoder, "relaxed_step")
            alpha, _ = solve_alpha_star(*problem, tol=tol)
        band = tol * n_users * streams / power * alpha
        # Where the band lies below the rounding of f, about
        # eps * (||R|| + alpha * ||L||) from forming R - alpha * L, the step
        # count has no bound: the computed residual no longer locates the root.
        floor = np.finfo(float).eps * (np.linalg.norm(signal_corr) + alpha * np.linalg.norm(leak_corr))
        if abs(residual(problem, alpha)) > band:
            # A return outside the band is a stop at the rounding floor; it
            # passes only where the band lies below the floor.
            assert band <= floor, (band, floor)
            assert_pinned_at_floor(problem, alpha)
            return
        if band > floor:
            # 11 at most over 6,000 such problems, 2 to 6 typically.
            assert len(calls) <= 12


# Edge cases of the whole pipeline: M = K, G = K, B = 1, one group (no
# leakage), and a 2-slot M = 128 point.
PIPELINE_CONFIGS = {
    "m4_k4_g4_b1": "M = 4\nK = 4\nG = 4\nB = 1\nn_slots = 20\nsweep.parameter = snr_db\nsweep.values = -10, 10\n",
    "m8_k8_g8": "M = 8\nK = 8\nG = 8\nn_slots = 20\nsweep.parameter = snr_db\nsweep.values = -10, 10\n",
    "m4_k4_g1": "M = 4\nK = 4\nG = 1\nn_slots = 20\nsweep.parameter = snr_db\nsweep.values = -10, 10\n",
    "m128_two_slots": "M = 128\nn_slots = 2\n",
}


def perturbed_solve(factor):
    """solve_alpha_star with its alpha* scaled by ``factor`` and the relaxed
    precoder evaluated at the scaled weight."""
    solve = rf_precoder.solve_alpha_star

    def perturbed(signal_corr, leak_corr, streams, n_users, power, **options):
        alpha, _ = solve(signal_corr, leak_corr, streams, n_users, power, **options)
        alpha *= factor
        return alpha, relaxed_step(signal_corr, leak_corr, alpha, streams, options.get("antenna_count"))[0]

    return perturbed


class TestPipelineMatchesBisection:
    """The CSV does not depend on the last bits of alpha*: the bisection
    reference's root, or alpha* moved by 1e-10 relative, gives the same text."""

    @staticmethod
    def assert_csv_unchanged(monkeypatch, name, solver):
        config = parse_config(PIPELINE_CONFIGS[name] + "schemes = MPHP\nseed = 5\n")
        text = rows_to_csv(run_experiment(config))
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return solver(*args, **kwargs)

        monkeypatch.setattr(rf_precoder, "solve_alpha_star", counted)
        assert rows_to_csv(run_experiment(config)) == text
        assert calls

    @pytest.mark.parametrize("name", sorted(PIPELINE_CONFIGS))
    def test_csv_identical(self, monkeypatch, name):
        self.assert_csv_unchanged(monkeypatch, name, bisect_alpha_star)

    @pytest.mark.parametrize("factor", [1.0 + 1e-10, 1.0 - 1e-10])
    @pytest.mark.parametrize("name", sorted(PIPELINE_CONFIGS))
    def test_csv_identical_with_perturbed_alpha(self, monkeypatch, name, factor):
        self.assert_csv_unchanged(monkeypatch, name, perturbed_solve(factor))


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

    def test_nan_value_maps_to_index_zero_without_a_warning(self):
        # A value with a NaN part has no phase; tier-1 makes the cast's
        # RuntimeWarning an error, so this also checks that none is raised.
        values = np.array([complex(np.nan, 0.0), complex(1.0, np.nan), complex(np.inf, 0.0), 1j, -1.0])
        assert nearest_phase_index(values, 2).tolist() == [0, 0, 0, 1, 2]
        assert nearest_phase_index(complex(np.nan, np.nan), 3) == 0

    def test_scalar_gives_int(self):
        assert type(nearest_phase_index(1j, 2)) is int
        assert type(nearest_phase_index(np.complex128(-1.0), 2)) is int

    # Magnitudes reach the smallest subnormal.  The reference takes the phase
    # with np.angle, which never divides by |v|.
    @settings(max_examples=300, deadline=None)
    @given(
        values=arrays(
            np.complex128,
            array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=6),
            elements=st.just(0j) | st.complex_numbers(min_magnitude=5e-324, max_magnitude=1e300),
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
                distance = np.abs(np.exp(1j * np.angle(value)) - grid)
                assert distance[n] <= distance.min() + 1e-12

    def test_subnormal_values(self):
        assert nearest_phase_index(np.complex128(1e-310 + 1e-310j), 4) == 2
        assert nearest_phase_index(5e-324j, 4) == 4
        assert nearest_phase_index(complex(-5e-324, 0.0), 4) == 8
        # Phases 0.3 of a step past the grid points, far from the midpoints:
        # the rounding of subnormal components (about 11 significant bits at
        # 1e-320) moves np.angle far less than that, so every index is the
        # intended one, and a scalar takes the array path's np.angle.
        phases = 2 * np.pi * (np.arange(16) + 0.3) / 16
        for scale in (1e-320, 1e-310, 2e-308):
            values = scale * np.exp(1j * phases)
            scalar = [nearest_phase_index(v, 4) for v in values]
            assert np.array_equal(nearest_phase_index(values, 4), scalar)
            assert np.array_equal(scalar, np.arange(16))

    def test_normal_entries_unchanged_beside_subnormal_ones(self, rng):
        # Normal entries, exact grid midpoints among them, quantize by the
        # rounding align_column_phase applies, bit for bit.
        normal = np.concatenate(
            [
                rng.standard_normal(40) + 1j * rng.standard_normal(40),
                np.exp(1j * np.pi * (2 * np.arange(16) + 1) / 16),
                [1e-300 + 3e-300j, 2e300 - 1e300j],
            ]
        )
        plain = np.floor(np.angle(normal) / (2 * np.pi / 16) + 0.5) % 16
        mixed = np.concatenate([normal, [1e-310 - 1e-310j, 0j]])
        index = nearest_phase_index(mixed, 4)
        assert np.array_equal(index[: normal.size], plain)
        assert list(index[normal.size :]) == [14, 0]

    @pytest.mark.parametrize("bits", range(1, 9))
    def test_scalar_is_the_zero_dim_case_of_the_array_path(self, bits):
        # Grid points, grid midpoints, random phases, subnormal values and
        # zero: a scalar quantizes as it does inside an array, as an int.
        grid = phase_grid(bits)
        midpoints = grid * np.exp(1j * np.pi / 2**bits)
        rng = np.random.default_rng(bits)
        values = np.concatenate(
            [grid, midpoints, 0.3 * midpoints, 1e-310 * grid, rng.standard_normal(32) + 1j * rng.standard_normal(32), [0j]]
        )
        index = nearest_phase_index(values, bits)
        for value, n in zip(values, index):
            for scalar in (complex(value), value, np.asarray(value)):
                got = nearest_phase_index(scalar, bits)
                assert type(got) is int and got == n

    def test_grid_built_once_per_bits(self):
        phase_grid.cache_clear()
        # nearest_phase_index rounds the angle and builds no grid.
        assert [nearest_phase_index(1j, 5) for _ in range(3)] == [8, 8, 8]
        assert phase_grid.cache_info().misses == 0
        grid = phase_grid(5)
        assert phase_grid(5) is grid
        assert phase_grid.cache_info().misses == 1
        assert phase_grid(4) is not grid
        assert phase_grid.cache_info().misses == 2
        assert not grid.flags.writeable
        with pytest.raises(ValueError):
            grid[0] = 0.0
        assert nearest_phase_index(1j, 5) == 8

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
        rf = grfp_assign(relaxed, grouping, bits=1)
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
        rf = grfp_assign(relaxed, grouping, bits=2)
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
        relaxed = solve_relaxed(grouping, power=1.0)
        rf = grfp_assign(relaxed, grouping, bits=bits)
        validate_rf_precoder(rf)
        assert np.count_nonzero(rf.f) == m_ant

    def test_zero_column_rejected(self):
        grouping = diagonal_grouping()
        relaxed = RelaxedSolution(
            alpha_star=[0.5, 1.0],
            f_star=[np.zeros((2, 1), dtype=complex), np.array([[0.0], [1.0]], dtype=complex)],
        )
        with pytest.raises(ZeroColumnError):
            grfp_assign(relaxed, grouping, bits=1)

    def test_more_chains_than_antennas_rejected(self):
        grouping = diagonal_grouping()
        relaxed = RelaxedSolution(
            alpha_star=[0.5, 1.0],
            f_star=[np.ones((1, 1), dtype=complex), np.ones((1, 1), dtype=complex)],
        )
        with pytest.raises(ValueError):
            grfp_assign(relaxed, grouping, bits=1)


class TestValidateRfPrecoder:
    """Each check of ``validate_rf_precoder`` that a design can still fail."""

    @staticmethod
    def design(antenna_to_chain, phase_index, bits=2, chains=2):
        return rf_precoder.RfPrecoder(np.array(antenna_to_chain), np.array(phase_index), bits, chains)

    def test_valid_design_passes(self):
        validate_rf_precoder(self.design([0, 1, 1], [0, 3, 2]))

    @pytest.mark.parametrize("chain", [-1, 2])
    def test_chain_out_of_range(self, chain):
        with pytest.raises(ValueError, match=f"antenna 1 connects to chain {chain}, outside"):
            validate_rf_precoder(self.design([0, chain, 1], [0, 0, 0]))

    def test_empty_chain(self):
        with pytest.raises(ValueError, match="chain 1 has no antenna connected"):
            validate_rf_precoder(self.design([0, 0, 2], [0, 0, 0], chains=3))

    @pytest.mark.parametrize("index", [-1, 4])
    def test_phase_index_off_the_grid(self, index):
        with pytest.raises(ValueError, match=f"antenna 2 phase index {index} is off the 2-bit grid"):
            validate_rf_precoder(self.design([0, 1, 1], [0, 3, index]))

    @pytest.mark.parametrize("workload", sorted(BENCH_WORKLOADS["workloads"]))
    @pytest.mark.parametrize("seed", [BENCH_WORKLOADS["default_seed"], BENCH_WORKLOADS["held_out_seed"]])
    def test_benchmark_designs_pass(self, workload, seed):
        # Each point's MPHP design, on the context the benchmark's run builds
        # at that seed; no slots are drawn.
        config = parse_config("\n".join([*BENCH_WORKLOADS["workloads"][workload]["config"], f"seed = {seed}"]))
        points = [apply_sweep_value(config, config.sweep_parameter, value) for value in config.sweep_values]
        for point, (grouping, _, _) in zip(points, contexts_at_seed(points, _derived_seeds(seed)[0])):
            validate_rf_precoder(design_long_term(SchemeId.MPHP, grouping, point))


def loop_built_f(antenna_to_chain, phase_index, bits, chains):
    """The analog matrix of a map and phase indices, one antenna of one
    slot at a time; a shared map (M,) serves every slot of a stack (n, M)."""
    stack = np.atleast_2d(phase_index)
    mappings = np.broadcast_to(antenna_to_chain, stack.shape)
    m_ant = stack.shape[-1]
    f = np.zeros((*stack.shape, chains), dtype=complex)
    for t in range(stack.shape[0]):
        for m in range(m_ant):
            f[t, m, mappings[t, m]] = np.exp(2j * np.pi * stack[t, m] / 2**bits) / np.sqrt(m_ant)
    return f if np.ndim(phase_index) == 2 else f[0]


class TestRfPrecoderMatrix:
    """``RfPrecoder.f``, the one place that builds an analog matrix from a
    map and phase indices, for a single design, a shared map over a stack of
    phases, and a map per slot."""

    @pytest.mark.parametrize("case", ["single", "shared map", "map per slot"])
    def test_matches_loop_and_is_read_only(self, case):
        rng = np.random.default_rng(3)
        bits, chains, m_ant, slots = 3, 4, 10, 5
        mapping = np.concatenate([np.arange(chains), rng.integers(0, chains, m_ant - chains)])
        phases = rng.integers(0, 2**bits, (slots, m_ant))
        if case == "single":
            phases = phases[0]
        elif case == "map per slot":
            mapping = np.stack([rng.permutation(mapping) for _ in range(slots)])
        rf = rf_precoder.RfPrecoder(mapping, phases, bits, chains)
        expected = loop_built_f(mapping, phases, bits, chains)
        assert rf.f.shape == expected.shape
        assert np.allclose(rf.f, expected, rtol=0, atol=1e-15)
        assert np.array_equal(rf.f != 0, expected != 0)
        assert rf.f is rf.f  # built once
        assert not rf.f.flags.writeable
        with pytest.raises(ValueError):
            rf.f[0] = 0.0
        with pytest.raises(ValueError):
            rf.phase_index[..., 0] = 1  # the matrix could no longer follow
        with pytest.raises(dataclasses.FrozenInstanceError):
            rf.bits = 1


class TestClaimOrder:
    def test_tie_bands(self):
        # Antennas 0 and 1: magnitudes 5e-10 apart and phase errors 4e-13
        # apart across a 9-decimal rounding boundary, so both tie and the
        # lower index goes first; antenna 2 is weaker, antenna 3 has the
        # same magnitude as 0 and a larger error.
        x0 = 0.1234567895
        column = np.array(
            [np.exp(1j * (x0 + 2e-13)), (1 - 5e-10) * np.exp(1j * (x0 - 2e-13)), 0.5, np.exp(0.2j)]
        )
        assert rf_precoder._claim_order(column, np.ones(4)).tolist() == [0, 1, 3, 2]
        assert rf_precoder._claim_order(column[[1, 0, 2, 3]], np.ones(4)).tolist() == [0, 1, 3, 2]


def tie_rule_key(column, bits):
    """Per antenna, the sort key of GRFP's claim rule for one relaxed column
    at its aligned phase: (magnitude block, error block, index).  The
    magnitude block counts the gaps above 1e-9 * max|f| in the sorted
    magnitudes that lie above the antenna's magnitude.  The error block
    counts, among the antennas of that magnitude block, the gaps above 1e-9
    in their sorted errors that lie at or below the antenna's error, where
    the error is the wrapped distance between the relaxed phase and the
    grid phase of the antenna's tap."""
    mag = np.abs(column)
    ranked = np.sort(mag)[::-1]
    breaks = ranked[1:][ranked[:-1] - ranked[1:] > 1e-9 * ranked[0]]
    mag_block = [int(np.sum(breaks >= value)) for value in mag]
    error = []
    for value in column:
        n = nearest_phase_index(value, bits)
        error.append(abs((np.angle(value) - 2 * np.pi * n / 2**bits + np.pi) % (2 * np.pi) - np.pi))
    keys = []
    for m in range(column.size):
        peers = sorted(error[p] for p in range(column.size) if mag_block[p] == mag_block[m])
        gaps = [high for low, high in zip(peers, peers[1:]) if high - low > 1e-9]
        keys.append((mag_block[m], sum(high <= error[m] for high in gaps), m))
    return keys


def grfp_assign_by_rescan(relaxed, grouping, bits, antenna_count):
    """grfp_assign's claim loop written plainly, the oracle for the ranked
    one: each column is rotated by the phase rule first, and every claim
    rescans the column and takes the unassigned antenna with the smallest
    tie_rule_key."""
    n_chains = sum(len(m) for m in grouping.members)
    order = np.argsort(np.asarray(relaxed.alpha_star), kind="stable")
    inv_sqrt_m = 1.0 / np.sqrt(antenna_count)
    grid = phase_grid(bits)
    f = np.zeros((antenna_count, n_chains), dtype=complex)
    antenna_to_chain = np.full(antenna_count, -1, dtype=int)
    phase_index = np.zeros(antenna_count, dtype=int)
    unassigned = np.ones(antenna_count, dtype=bool)
    assigned = 0
    while assigned < antenna_count:
        for g in order:
            f_star = relaxed.f_star[int(g)]
            for i, chain in enumerate(grouping.rf_chains[int(g)]):
                if assigned == antenna_count:
                    break
                column = align_column_phase(f_star[:, i], bits)
                keys = tie_rule_key(column, bits)
                antenna = min((keys[m] for m in np.flatnonzero(unassigned)))[2]
                n_star = nearest_phase_index(column[antenna], bits)
                f[antenna, int(chain)] = inv_sqrt_m * grid[n_star]
                antenna_to_chain[antenna] = int(chain)
                phase_index[antenna] = n_star
                unassigned[antenna] = False
                assigned += 1
    return LoopPrecoder(f, antenna_to_chain, phase_index, bits)


def assert_grfp_matches_rescan(relaxed, grouping, bits, antenna_count):
    got = grfp_assign(relaxed, grouping, bits=bits)
    expected = grfp_assign_by_rescan(relaxed, grouping, bits, antenna_count)
    assert np.array_equal(got.f, expected.f)
    assert np.array_equal(got.antenna_to_chain, expected.antenna_to_chain)
    assert np.array_equal(got.phase_index, expected.phase_index)
    assert got.bits == expected.bits
    return got


@functools.lru_cache(maxsize=None)
def pipeline_relaxed(m_ant, seed):
    """The default scenario's grouping and relaxed solution at P = 1."""
    grouping, _, _ = build_context(SystemConfig(M=m_ant), seed)
    return grouping, solve_relaxed(grouping, power=1.0)


class TestGrfpMatchesRescan:
    @pytest.mark.parametrize("seed", [1, 7919])
    @pytest.mark.parametrize("m_ant", [8, 64, 128])
    def test_pipeline_designs(self, m_ant, seed):
        grouping, _, _ = build_context(SystemConfig(M=m_ant), seed)
        relaxed = solve_relaxed(grouping, power=1.0)
        for bits in (1, 4, 6):
            assert_grfp_matches_rescan(relaxed, grouping, bits, m_ant)

    @pytest.mark.parametrize("m_ant", [8, 64])
    def test_mirror_pair_ties(self, m_ant):
        # Two one-user groups share one column whose magnitudes tie in mirror
        # pairs, |f_m| = |f_(M-1-m)|, as ULA eigenvectors do, and differ
        # between pairs; the phases are random.  The chains alternate claims,
        # so each pair splits between them, and the first chain's antenna of
        # each pair is the one claimed first: on the column as the phase rule
        # rotates it, the one with the smaller quantisation error, or the
        # lower index where the errors tie.
        grouping = make_grouping([np.eye(m_ant, dtype=complex)] * 2, [0, 1])
        half = m_ant // 2
        for seed in range(4):
            rng = np.random.default_rng([m_ant, seed])
            magnitude = np.sort(rng.uniform(0.5, 1.0, half))[::-1]
            magnitude = np.concatenate([magnitude, magnitude[::-1]])
            column = magnitude * np.exp(2j * np.pi * rng.uniform(size=m_ant))
            column[-1] = column[0]  # equal entries: their errors tie at any rotation
            for alphas in ([1.0, 2.0], [1.0, 1.0]):
                relaxed = RelaxedSolution(alphas, [column[:, None], column[:, None]])
                for bits in (1, 4, 6):
                    rf = assert_grfp_matches_rescan(relaxed, grouping, bits, m_ant)
                    keys = tie_rule_key(align_column_phase(column, bits), bits)
                    for m in range(half):
                        first = min(keys[m], keys[m_ant - 1 - m])[2]
                        assert rf.antenna_to_chain[first] == 0
                        assert rf.antenna_to_chain[m_ant - 1 - first] == 1
                    # The rule, not the index, decides every pair but the first
                    # and at most one more: at the midpoint of the winning arc
                    # the two antennas whose taps change at its ends have equal
                    # errors, and they may form a pair.
                    assert keys[0][:2] == keys[-1][:2]
                    assert sum(keys[m][1] == keys[m_ant - 1 - m][1] for m in range(1, half)) <= 1

    @pytest.mark.parametrize("bits", [1, 2, 4, 6])
    @pytest.mark.parametrize("seed", [1, 7919])
    @pytest.mark.parametrize("m_ant", [8, 16, 32, 64, 128])
    def test_design_unchanged_by_magnitude_rounding(self, m_ant, seed, bits):
        # Noise of 1e-14 relative on every relaxed magnitude, more than a
        # different BLAS thread count leaves, changes no claim: mirror-pair
        # ties are decided by the rule, and the other gaps are far wider.
        grouping, relaxed = pipeline_relaxed(m_ant, seed)
        expected = grfp_assign(relaxed, grouping, bits)
        rng = np.random.default_rng([m_ant, seed, bits])
        for _ in range(3):
            noisy = [f * (1.0 + 1e-14 * rng.uniform(-1.0, 1.0, f.shape)) for f in relaxed.f_star]
            got = grfp_assign(RelaxedSolution(relaxed.alpha_star, noisy), grouping, bits)
            assert np.array_equal(got.antenna_to_chain, expected.antenna_to_chain)
            assert np.array_equal(got.phase_index, expected.phase_index)


def phase_rule_by_arcs(column, bits):
    """The column phase rule arc by arc, the oracle for align_column_phase.

    Each arc between the rotations where a tap changes (wider than 1e-9 of
    a grid step) is scored by quantizing the column rotated to its midpoint
    and taking |q^H v|.  Returns the taps of the best arc, shifted so that
    the reference antenna's tap is 0 (zero entries keep tap 0), and the
    column turned to that arc's midpoint and back by the reference's tap;
    scores within 1e-9 of the best tie, and the smallest shifted taps of the
    nonzero entries in lexicographic order win."""
    step = 2 * np.pi / 2**bits
    nonzero = np.flatnonzero(column)
    cuts = np.sort(np.mod(step / 2 - np.angle(column[nonzero]), step))
    ends = np.append(cuts[1:], cuts[0] + step)
    mag = np.abs(column)
    ref = int(np.flatnonzero(mag >= (1 - 1e-9) * mag.max())[0])
    scored = []
    for low, high in zip(cuts, ends):
        if high - low > 1e-9 * step:
            taps = nearest_phase_index(column * np.exp(0.5j * (low + high)), bits)
            shifted = (taps - taps[ref]) % 2**bits
            turned = column * np.exp(0.5j * (low + high)) * phase_grid(bits)[taps[ref]].conj()
            scored.append((abs(np.vdot(phase_grid(bits)[taps], column)), tuple(shifted[nonzero]), turned))
    best = max(score for score, _, _ in scored)
    tied = [(key, turned) for score, key, turned in scored if score >= (1 - 1e-9) * best]
    key, turned = min(tied, key=lambda item: item[0])
    expected = np.zeros(column.size, dtype=int)
    expected[nonzero] = key
    return expected, turned


def random_column(seed, m_ant, kind):
    """A random column: complex, mirror-conjugate (v_(M-1-m) = c * conj(v_m),
    as eigenvectors of Hermitian Toeplitz matrices are, so scores tie in
    mirror pairs), real up to one phase (breakpoints coincide), or with
    zero entries."""
    rng = np.random.default_rng(seed)
    column = rng.standard_normal(m_ant) + 1j * rng.standard_normal(m_ant)
    if kind == "mirror":
        column = column + np.exp(2j * np.pi * rng.uniform()) * column[::-1].conj()
    elif kind == "real":
        column = column.real * np.exp(2j * np.pi * rng.uniform())
    elif kind == "zeros":
        column[rng.uniform(size=m_ant) < 0.3] = 0.0
        column[rng.integers(m_ant)] = 1.0
    return column


def rotated_eigs(grouping, phases):
    """A copy of ``grouping`` whose reduced_eigs vectors carry the given
    per-column phases (cycled over the columns)."""
    copy = dataclasses.replace(grouping)
    copy.reduced_eigs = [
        EigenDecomposition(values, vectors * np.exp(1j * np.resize(phases, values.size)))
        for values, vectors in grouping.reduced_eigs
    ]
    return copy


class TestColumnPhaseRule:
    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        m_ant=st.integers(1, 24),
        kind=st.sampled_from(["complex", "mirror", "real", "zeros"]),
        bits=st.integers(1, 8),
        turn=st.floats(-np.pi, np.pi),
    )
    def test_matches_arc_by_arc_oracle_at_any_phase(self, seed, m_ant, kind, bits, turn):
        column = random_column(seed, m_ant, kind)
        expected, turned = phase_rule_by_arcs(column, bits)
        for start in (column, column * np.exp(1j * turn)):
            aligned = align_column_phase(start, bits)
            assert np.array_equal(nearest_phase_index(aligned, bits), expected)
            assert np.allclose(aligned, turned, rtol=0, atol=1e-12 * np.abs(column).max())

    @settings(max_examples=60, deadline=None)
    @given(
        case=st.sampled_from([(m_ant, seed) for m_ant in (8, 16, 32, 64, 128) for seed in (1, 7919)]),
        bits=st.integers(1, 6),
        phases=st.lists(st.floats(-np.pi, np.pi), min_size=8, max_size=8),
    )
    def test_designs_unchanged_by_column_rotations(self, case, bits, phases):
        # MPHP: per-column rotations of the relaxed columns; FRPS: of the
        # reduced_eigs vectors.  Neither design moves.
        m_ant, seed = case
        grouping, relaxed = pipeline_relaxed(m_ant, seed)
        offsets = np.cumsum([0] + [f.shape[1] for f in relaxed.f_star])
        rotated = [f * np.exp(1j * np.array(phases[a:b])) for f, a, b in zip(relaxed.f_star, offsets, offsets[1:])]
        expected = grfp_assign(relaxed, grouping, bits)
        got = grfp_assign(RelaxedSolution(relaxed.alpha_star, rotated), grouping, bits)
        assert np.array_equal(got.antenna_to_chain, expected.antenna_to_chain)
        assert np.array_equal(got.phase_index, expected.phase_index)
        config = SystemConfig(M=m_ant, B=bits)
        frps = design_long_term(SchemeId.FRPS_STATISTICAL, grouping, config)
        assert np.array_equal(design_long_term(SchemeId.FRPS_STATISTICAL, rotated_eigs(grouping, phases), config), frps)


class TestStackedPhaseRule:
    """The phase rule and the claim order take a stack of columns; each row
    comes out bit for bit as one call on that column alone, which stays 1-D."""

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        m_ant=st.integers(1, 40),
        kinds=st.lists(st.sampled_from(["complex", "mirror", "real", "zeros"]), min_size=1, max_size=8),
        bits=st.integers(1, 8),
    )
    def test_rows_match_one_call_per_column(self, seed, m_ant, kinds, bits):
        # Rows of scales 1e-12 to 1e12: every tie band is relative to its own row.
        scales = 10.0 ** np.random.default_rng(seed).integers(-12, 13, len(kinds))
        stack = np.stack(
            [scale * random_column([seed, row], m_ant, kind) for row, (scale, kind) in enumerate(zip(scales, kinds))]
        )
        aligned = align_column_phase(stack, bits)
        taps = phase_grid(bits)[nearest_phase_index(aligned, bits)]
        claims = rf_precoder._claim_order(aligned, taps)
        assert aligned.shape == stack.shape and claims.shape == stack.shape
        for row, column in enumerate(stack):
            assert np.array_equal(aligned[row], align_column_phase(column, bits))
            assert np.array_equal(claims[row], rf_precoder._claim_order(aligned[row], taps[row]))


def grfp_assign_by_columns(relaxed, grouping, bits):
    """grfp_assign with the phase rule, the quantiser and the claim order run
    one column at a time and each claim written to f at once, the oracle for
    the stacked form."""
    antenna_count = relaxed.f_star[0].shape[0]
    order = np.argsort(np.asarray(relaxed.alpha_star), kind="stable")
    inv_sqrt_m = 1.0 / np.sqrt(antenna_count)
    grid = phase_grid(bits)
    aligned = [[align_column_phase(f_star[:, i], bits) for i in range(f_star.shape[1])] for f_star in relaxed.f_star]
    phases = [[nearest_phase_index(column, bits) for column in columns] for columns in aligned]
    ranked = [
        [rf_precoder._claim_order(column, grid[n]).tolist() for column, n in zip(*group)]
        for group in zip(aligned, phases)
    ]
    cursors = [[0] * f_star.shape[1] for f_star in relaxed.f_star]
    f = np.zeros((antenna_count, grouping.user_count), dtype=complex)
    antenna_to_chain = np.full(antenna_count, -1, dtype=int)
    phase_index = np.zeros(antenna_count, dtype=int)
    visits = [(int(g), i) for g in order for i in range(len(grouping.rf_chains[g]))]
    for step in range(antenna_count):
        g, i = visits[step % len(visits)]
        column, k = ranked[g][i], cursors[g][i]
        while antenna_to_chain[column[k]] >= 0:
            k += 1
        cursors[g][i], antenna = k, column[k]
        n_star = int(phases[g][i][antenna])
        chain = int(grouping.rf_chains[g][i])
        f[antenna, chain] = inv_sqrt_m * grid[n_star]
        antenna_to_chain[antenna] = chain
        phase_index[antenna] = n_star
    return LoopPrecoder(f, antenna_to_chain, phase_index, bits)


def assert_grfp_matches_columns(relaxed, grouping, bits):
    got = grfp_assign(relaxed, grouping, bits)
    expected = grfp_assign_by_columns(relaxed, grouping, bits)
    assert np.array_equal(got.f, expected.f)
    assert np.array_equal(got.antenna_to_chain, expected.antenna_to_chain)
    assert np.array_equal(got.phase_index, expected.phase_index)
    validate_rf_precoder(got)


# Edge configurations: one antenna per chain (M = K), one user per group
# (G = K), one antenna, and co-located clusters at zero angular spread.
EDGE_CONFIGS = [
    SystemConfig(M=8, K=8, G=3),
    SystemConfig(M=16, K=8, G=8),
    SystemConfig(M=8, K=8, G=8),
    SystemConfig(M=1, K=1, G=1),
    SystemConfig(M=16, K=4, G=2, angular_spread=0.0),
    SystemConfig(M=32, angular_spread=0.0),
]


class TestGrfpMatchesColumnLoop:
    @pytest.mark.parametrize("seed", [1, 7919])
    @pytest.mark.parametrize("m_ant", [8, 16, 32, 64, 128])
    def test_pipeline_designs(self, m_ant, seed):
        grouping, _ = pipeline_relaxed(m_ant, seed)
        for power in (0.1, 1.0, 10.0):
            relaxed = solve_relaxed(grouping, power=power)
            for bits in range(1, 7):
                assert_grfp_matches_columns(relaxed, grouping, bits)

    @pytest.mark.parametrize("config", EDGE_CONFIGS, ids=lambda c: f"M{c.M}-K{c.K}-G{c.G}-spread{c.angular_spread}")
    def test_edge_configs(self, config):
        grouping, _, _ = build_context(config, 1)
        relaxed = solve_relaxed(grouping, power=1.0)
        for bits in (1, 2, 4):
            assert_grfp_matches_columns(relaxed, grouping, bits)

    @pytest.mark.parametrize("m_ant", [8, 64])
    def test_mirror_pair_ties(self, m_ant):
        # Mirror-conjugate columns, whose arcs and magnitudes tie in pairs,
        # shared by every group column, at the most ties (B = 1) and beyond.
        grouping = make_grouping([np.eye(m_ant, dtype=complex)] * 4, [0, 0, 1, 2])
        columns = np.stack([random_column([m_ant, seed], m_ant, "mirror") for seed in range(4)], axis=1)
        relaxed = RelaxedSolution([1.0, 1.0, 2.0], [columns[:, :2], columns[:, 2:3], columns[:, 3:]])
        for bits in (1, 2, 6):
            assert_grfp_matches_columns(relaxed, grouping, bits)

    def test_zero_column_in_a_stack_rejected(self):
        # The second column of group 1 is all zero; the others are not.
        grouping = make_grouping([np.eye(4, dtype=complex)] * 3, [0, 1, 1])
        f_star = [np.ones((4, 1), dtype=complex), np.array([[1.0, 0.0]] * 4, dtype=complex)]
        with pytest.raises(ZeroColumnError, match="group 1 relaxed column 1"):
            grfp_assign(RelaxedSolution([1.0, 2.0], f_star), grouping, bits=2)


def full_space_relaxed(grouping, group_corrs, power):
    """The relaxed solve on the full M x M group correlations, the
    reference for the joint-subspace solve."""
    solved = [
        solve_alpha_star(
            corr, full_space_leakage(group_corrs, grouping.sizes, g), len(members), grouping.user_count, power
        )
        for g, (corr, members) in enumerate(zip(group_corrs, grouping.members))
    ]
    return RelaxedSolution([alpha for alpha, _ in solved], [f_star for _, f_star in solved])


class TestJointSubspaceSolve:
    @pytest.mark.parametrize("seed", [1, 7919])
    @pytest.mark.parametrize("m_ant", [8, 16, 32, 64, 128])
    def test_matches_full_space_reference(self, m_ant, seed):
        grouping, group_corrs = grouped_context(SystemConfig(M=m_ant), seed)
        for power in (0.1, 1.0, 10.0):
            relaxed = solve_relaxed(grouping, power=power)
            reference = full_space_relaxed(grouping, group_corrs, power)
            for alpha, expected in zip(relaxed.alpha_star, reference.alpha_star):
                assert abs(alpha - expected) <= 1e-12 * expected, power
            for bits in (1, 4, 6):
                got = grfp_assign(relaxed, grouping, bits)
                expected = grfp_assign(reference, grouping, bits)
                assert np.array_equal(got.antenna_to_chain, expected.antenna_to_chain), (power, bits)
                assert np.array_equal(got.phase_index, expected.phase_index), (power, bits)

    def test_decomposes_nothing_larger_than_the_joint_basis(self, monkeypatch):
        grouping, _, _ = build_context(SystemConfig(M=128), 1)
        grouping.reduced_eigs  # decomposed before counting
        calls = count_calls(monkeypatch, rf_precoder, "hermitian_eig")
        for power in (0.1, 1.0, 10.0):
            solve_relaxed(grouping, power=power)
        assert calls
        width = grouping.joint.basis.shape[1]
        assert width <= 56
        assert all(matrix.shape[0] == matrix.shape[1] <= width for matrix, in calls)

    @pytest.mark.parametrize("m_ant, rank", [(16, 16), (32, 28), (64, 39), (128, 56)])
    def test_joint_basis(self, m_ant, rank):
        # Orthonormal, r columns at seed 1 (the eigenvectors of the sum of
        # the user correlations above rounding), and every group correlation
        # lies in its span up to rounding.
        grouping, group_corrs = grouped_context(SystemConfig(M=m_ant), 1)
        basis = grouping.joint.basis
        assert basis.shape == (m_ant, rank)
        assert np.allclose(basis.conj().T @ basis, np.eye(rank), rtol=0, atol=1e-13)
        projector = basis @ basis.conj().T
        for corr in group_corrs:
            residual = np.linalg.norm(corr - projector @ corr @ projector)
            assert residual <= 1e-12 * np.linalg.norm(corr)

    def test_passes_the_antenna_count(self, monkeypatch):
        grouping, _, _ = build_context(SystemConfig(M=64), 1)
        counts = []
        solve = rf_precoder.solve_alpha_star

        def recorded(*args, **kwargs):
            counts.append(kwargs["antenna_count"])
            return solve(*args, **kwargs)

        monkeypatch.setattr(rf_precoder, "solve_alpha_star", recorded)
        solve_relaxed(grouping, power=1.0)
        assert counts == [64] * grouping.group_count

    def test_keeps_at_least_one_vector_per_stream(self):
        # Three users with one rank-one correlation in one group: the group
        # has one eigenvalue above rounding and three streams.
        corr = np.zeros((6, 6), dtype=complex)
        corr[0, 0] = 1.0
        assert_basis_per_stream(make_grouping([corr] * 3, [0, 0, 0]), [corr] * 3, rank=1)

    def test_co_located_users(self):
        # Two co-located users in one group through group_users: r = 1 < S_g = 2.
        config = parse_config(CO_LOCATED)
        grouping, scenario, geometry = build_context(config, 1)
        assert_basis_per_stream(grouping, scenario_correlations(scenario, geometry), rank=1)
        csv_text = rows_to_csv(run_experiment(config))
        assert hashlib.sha256(csv_text.encode()).hexdigest() == CO_LOCATED_CSV


# sha256 of CO_LOCATED's CSV: every scheme in outage in every slot, zero
# rates and MPHP's and FRPS's statistics feedback count 17.
CO_LOCATED_CSV = "cf9b6fadddb962dae9ac862e49968fdc1f8963ebafc6f52144cdfe67b78af5b3"


def assert_basis_per_stream(grouping, correlations, rank):
    """The joint basis has max(r, max_g S_g) orthonormal columns, where r
    (``rank``) counts the eigenvalues above rounding of the sum of
    ``correlations``, decomposed in their real frame, and each group's
    relaxed columns are (M, S_g)."""
    m_ant = grouping.antenna_count
    values = grouping_mod._frame_eig(sum(real_frame(np.stack(correlations))[0])).eigenvalues
    assert np.count_nonzero(above_rounding(values, m_ant)) == rank
    width = max(rank, max(grouping.sizes))
    basis = grouping.joint.basis
    assert basis.shape == (m_ant, width)
    assert np.allclose(basis.conj().T @ basis, np.eye(width), rtol=0, atol=1e-13)
    assert all(reduced.shape == (width, width) for reduced in grouping.joint.reduced)
    relaxed = solve_relaxed(grouping, power=1.0)
    assert [f.shape for f in relaxed.f_star] == [(m_ant, len(members)) for members in grouping.members]
    validate_rf_precoder(grfp_assign(relaxed, grouping, bits=2))


def qr_basis_oracle(grouping, group_corrs):
    """The long-term stage as it ran before the joint subspace: each group
    correlation decomposed at M x M, and the basis one QR of each group's
    eigenvectors above rounding, at least one per stream.  Each M x M
    decomposition is the one group_users makes of the sum (in the real
    frame, then lifted), so where a design reads the sum's null space
    (co-located users, r = 1 < S_g) both sides see one basis.  Returns the
    decompositions and the basis."""
    m_ant = grouping.antenna_count
    eigs = []
    for corr in group_corrs:
        frame, lift = real_frame(corr)
        values, vectors = grouping_mod._frame_eig(frame)
        eigs.append(EigenDecomposition(values, lift(vectors)))
    kept = [
        vectors[:, above_rounding(values, m_ant) | (np.arange(m_ant) < len(members))]
        for (values, vectors), members in zip(eigs, grouping.members)
    ]
    return eigs, np.linalg.qr(np.concatenate(kept, axis=1))[0]


def qr_basis_relaxed(grouping, corrs, basis, power):
    """The relaxed solve on the QR basis, with the group and leakage
    correlations projected from M x M."""
    leaks = [full_space_leakage(corrs, grouping.sizes, g) for g in range(len(corrs))]
    solved = [
        solve_alpha_star(
            basis.conj().T @ corr @ basis,
            basis.conj().T @ leak @ basis,
            len(members),
            grouping.user_count,
            power,
            antenna_count=grouping.antenna_count,
        )
        for corr, leak, members in zip(corrs, leaks, grouping.members)
    ]
    return RelaxedSolution([alpha for alpha, _ in solved], [basis @ f for _, f in solved])


def assert_designs_match_qr_oracle(grouping, group_corrs, config, powers=(0.1, 1.0, 10.0), bits_range=range(1, 7)):
    """MPHP's map and phases and FRPS's phase matrix equal the QR-basis
    oracle's, and alpha* agrees within 1e-9 relative.  FRPS reads the
    oracle's M x M decompositions through a copy of the grouping whose
    basis is the identity, so B @ its leading vectors are theirs."""
    eigs, basis = qr_basis_oracle(grouping, group_corrs)
    oracle = dataclasses.replace(grouping, joint=grouping.joint._replace(basis=np.eye(grouping.antenna_count)))
    oracle.reduced_eigs = eigs
    for power in powers:
        relaxed = solve_relaxed(grouping, power=power)
        reference = qr_basis_relaxed(grouping, group_corrs, basis, power)
        for alpha, expected in zip(relaxed.alpha_star, reference.alpha_star):
            assert abs(alpha - expected) <= 1e-9 * expected, power
        for bits in bits_range:
            got = grfp_assign(relaxed, grouping, bits)
            expected = grfp_assign(reference, grouping, bits)
            assert np.array_equal(got.antenna_to_chain, expected.antenna_to_chain), (power, bits)
            assert np.array_equal(got.phase_index, expected.phase_index), (power, bits)
    for bits in bits_range:
        point = dataclasses.replace(config, B=bits)
        frps = design_long_term(SchemeId.FRPS_STATISTICAL, grouping, point)
        assert np.array_equal(frps, design_long_term(SchemeId.FRPS_STATISTICAL, oracle, point)), bits


class TestMatchesQrBasisOracle:
    @pytest.mark.parametrize("seed", [1, 7919])
    @pytest.mark.parametrize("m_ant", [8, 16, 32, 64, 128])
    def test_pipeline_designs(self, m_ant, seed):
        config = SystemConfig(M=m_ant)
        assert_designs_match_qr_oracle(*grouped_context(config, seed), config)

    @pytest.mark.parametrize("seed", [1, 7919])
    @pytest.mark.parametrize(
        "config",
        [*EDGE_CONFIGS, parse_config(CO_LOCATED)],
        ids=lambda c: f"M{c.M}-K{c.K}-G{c.G}-spread{c.angular_spread}",
    )
    def test_edge_configs(self, config, seed):
        assert_designs_match_qr_oracle(*grouped_context(config, seed), config)


def complex_frame(a):
    """``numerics.real_frame`` as it applies to a matrix that is not
    centro-Hermitian: the input and the identity lift."""
    return np.asarray(a), lambda vectors: vectors


class TestMatchesComplexPathOracle:
    """The real frame moves no design: groupings, MPHP's map and phases and
    FRPS's matrix equal, bit for bit, those of the long-term stage run in
    complex antenna coordinates, as it ran before the frame (``real_frame``
    forced to the identity lift)."""

    @pytest.mark.parametrize("m_ant", [16, 64, 128])
    def test_designs(self, monkeypatch, m_ant):
        config = SystemConfig(M=m_ant)
        for seed in range(1, 11):
            grouping = build_context(config, seed).grouping
            with monkeypatch.context() as patched:
                patched.setattr(grouping_mod, "real_frame", complex_frame)
                oracle = build_context(config, seed).grouping
            assert grouping.joint.reduced[0].dtype == np.float64 and oracle.joint.reduced[0].dtype == complex
            assert np.array_equal(grouping.assignments, oracle.assignments), seed
            for power in (0.1, 1.0, 10.0):
                relaxed, reference = solve_relaxed(grouping, power), solve_relaxed(oracle, power)
                for bits in (1, 2, 4, 6):
                    got, expected = grfp_assign(relaxed, grouping, bits), grfp_assign(reference, oracle, bits)
                    assert np.array_equal(got.antenna_to_chain, expected.antenna_to_chain), (seed, power, bits)
                    assert np.array_equal(got.phase_index, expected.phase_index), (seed, power, bits)
            for bits in (1, 2, 4, 6):
                point = dataclasses.replace(config, B=bits)
                frps = design_long_term(SchemeId.FRPS_STATISTICAL, grouping, point)
                assert np.array_equal(frps, design_long_term(SchemeId.FRPS_STATISTICAL, oracle, point)), (seed, bits)


class TestOneFullSizeEigensolve:
    @pytest.mark.parametrize("m_ant", [64, 128])
    def test_per_grouping(self, monkeypatch, m_ant):
        # A run with MPHP at three powers, FRPS and the statistics feedback
        # count of each row decomposes one M x M matrix per grouping, and
        # every long-term eigensolve is real: it runs in the real frame.
        config = parse_config(
            f"M = {m_ant}\nn_slots = 2\nschemes = MPHP, FRPS_STATISTICAL\n"
            "sweep.parameter = snr_db\nsweep.values = -10, 0, 10\n"
        )
        groupings = count_calls(monkeypatch, metrics_mod, "group_users")
        shapes, dtypes = [], []
        eigh = np.linalg.eigh

        def recorded(matrix, *args, **kwargs):
            shapes.append(matrix.shape)
            dtypes.append(matrix.dtype)
            return eigh(matrix, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", recorded)
        rows = run_experiment(config)
        assert len(rows) == 6 and all(row.metrics.feedback_statistics > 0 for row in rows)
        assert len(groupings) == 1
        assert shapes.count((m_ant, m_ant)) == len(groupings)
        assert all(shape[0] < m_ant for shape in shapes if shape != (m_ant, m_ant))
        assert set(dtypes) == {np.dtype(np.float64)}


# Relative tolerance of the joint-subspace statistics against the M x M
# formulas.  The basis drops the sum's directions at or below M * eps *
# lambda_1, where a PSD R_g's entries reach sqrt(M * eps) * lambda_1, so no
# bound near eps holds in general; these configs measure at most 7e-14
# (6e-12 at M = 128, G = 8).
FULL_SPACE_RTOL = 1e-10


class TestMatchesFullSpaceFormulas:
    """``leakage_correlation`` and ``sslnr`` read only the joint subspace;
    lifted by the basis they are the M x M formulas on the group averages
    of the user correlations, formed here."""

    @pytest.mark.parametrize("seed", [1, 7919])
    @pytest.mark.parametrize(
        "config",
        [SystemConfig(), SystemConfig(angular_spread=0.0), parse_config(CO_LOCATED), SystemConfig(M=8, K=8, G=3)],
        ids=["default", "zero-spread", "co-located", "M=K"],
    )
    def test_leakage_and_sslnr(self, config, seed):
        grouping, group_corrs = grouped_context(config, seed)
        sizes, power = grouping.sizes, 1.0
        relaxed = solve_relaxed(grouping, power)
        rf = grfp_assign(relaxed, grouping, bits=2)
        for g, corr in enumerate(group_corrs):
            leak = full_space_leakage(group_corrs, sizes, g)
            scale = max(np.linalg.norm(corr), np.linalg.norm(leak))
            assert np.linalg.norm(lifted(grouping, leakage_correlation(grouping, g)) - leak) <= FULL_SPACE_RTOL * scale
            for f_group in (relaxed.f_star[g], rf.f[:, grouping.rf_chains[g]]):
                signal = np.real(np.trace(f_group.conj().T @ corr @ f_group))
                leakage = np.real(np.trace(f_group.conj().T @ leak @ f_group))
                expected = signal / (leakage + grouping.user_count * sizes[g] / power)
                assert sslnr(f_group, grouping, g, power) == pytest.approx(expected, rel=FULL_SPACE_RTOL, abs=1e-300)


class TestSslnr:
    def test_diagonal_hand_case(self):
        grouping = diagonal_grouping()
        f_group = np.array([[1.0], [0.0]], dtype=complex)
        assert sslnr(f_group, grouping, 0, power=1.0) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_precoder_scores_zero(self):
        grouping = diagonal_grouping()
        f_group = np.array([[0.0], [1.0]], dtype=complex)  # orthogonal to R_1's range
        assert sslnr(f_group, grouping, 0, power=1.0) == pytest.approx(0.0, abs=1e-12)

    def test_matches_direct_trace_formula(self, rng):
        corrs = [random_psd(rng, 5, trace=5.0) for _ in range(3)]
        grouping = make_grouping(corrs, [0, 0, 1])
        f_group = rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2))
        sizes, averages = grouping.sizes, group_averages(corrs, grouping)
        signal = np.real(np.trace(f_group.conj().T @ averages[0] @ f_group))
        leak = sizes[0] * sizes[1] * np.real(np.trace(f_group.conj().T @ averages[1] @ f_group))
        expected = signal / (leak + 3 * sizes[0] / 2.0)
        assert sslnr(f_group, grouping, 0, power=2.0) == pytest.approx(expected, rel=1e-12)
