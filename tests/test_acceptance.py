"""Acceptance suite: one test per shipped criterion, each printing a
single pass/fail line with its measured numbers.

Every tolerance is pinned here.  Run with ``pytest tests/test_acceptance.py
-v -s`` to see the per-criterion lines inline.
"""

import itertools
import time

import numpy as np
import pytest

from mphp.baselines import SchemeId, build_precoders, design_long_term
from mphp.channel import ArrayGeometry, draw_channel, make_scenario, scenario_correlations
from mphp.experiment import SystemConfig
from mphp.grouping import group_users
from mphp.metrics import (
    build_context,
    slnr_per_user,
    statistics_feedback_count,
    feedback_overhead,
)
from mphp.numerics import hermitian_eig, hermitian_part
from mphp.rf_precoder import (
    grfp_assign,
    phase_grid,
    relaxed_step,
    solve_alpha_star,
    solve_relaxed,
    sslnr,
    validate_rf_precoder,
)

from conftest import run_at_seed


def _report(number, ok, detail):
    print(f"criterion {number:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def random_trace_normalized_psd(rng, dim):
    x = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2.0)
    r = hermitian_part(x @ x.conj().T)
    return r * (dim / np.real(np.trace(r)))


def test_criterion_01_structural_constraints():
    """100 random configs: every GRFP output meets the hardware constraints
    exactly (one nonzero per row on the quantized grid, no empty column)."""
    rng = np.random.default_rng(2024)
    start = time.time()
    for _ in range(100):
        m_ant = int(rng.integers(8, 65))
        n_users = int(rng.integers(2, 9))
        n_groups = int(rng.integers(1, n_users + 1))
        bits = int(rng.integers(1, 5))
        scenario = make_scenario(
            n_users, n_groups, angular_spread=float(rng.uniform(0.01, 0.1)), seed=int(rng.integers(1 << 31))
        )
        corrs = scenario_correlations(scenario, ArrayGeometry(m_ant), 128)
        grouping = group_users(corrs, n_groups)
        relaxed = solve_relaxed(grouping, power=1.0)
        rf = grfp_assign(relaxed, grouping, bits=bits)
        validate_rf_precoder(rf)
        nonzero = rf.f != 0
        assert np.all(nonzero.sum(axis=1) == 1)
        assert np.all(nonzero.sum(axis=0) >= 1)
        grid = phase_grid(bits)
        rebuilt = grid[rf.phase_index] / np.sqrt(m_ant)
        assert np.array_equal(rf.f[np.arange(m_ant), rf.antenna_to_chain], rebuilt)
    elapsed = time.time() - start
    assert _report(1, True, f"100/100 random configs structurally exact in {elapsed:.1f}s")
    assert elapsed < 60.0


def test_criterion_02_zf_nulling_and_power_conservation():
    """1000 random slots: intra-group interference ratio <= 1e-8 and total
    radiated power equals the budget within 1e-9 relative, outages excluded."""
    setups = [
        (SystemConfig(M=16, K=4, G=2), 17),
        (SystemConfig(M=32, K=6, G=3), 29),
    ]
    start = time.time()
    worst_ratio, worst_power, outages, slots = 0.0, 0.0, 0, 0
    for config, seed in setups:
        grouping, scenario, geometry = build_context(config, seed)
        long_state = design_long_term(SchemeId.MPHP, grouping, config)
        for t in range(500):
            slots += 1
            h = draw_channel(scenario, geometry, seed=seed, slot=t)
            sp = build_precoders(SchemeId.MPHP, long_state, h[None], grouping, config)
            if sp.outage_groups:
                outages += 1
                continue
            radiated, active = 0.0, 0
            for g in range(grouping.group_count):
                members = grouping.members[g]
                beam = sp.beams[0][:, members]
                active += len(members)
                radiated += float(np.sum(sp.power[0, members] * np.sum(np.abs(beam) ** 2, axis=0)))
                for i, k in enumerate(members):
                    own = abs(h[:, k].conj() @ beam[:, i])
                    cross = np.abs(h[:, k].conj() @ beam)
                    cross[i] = 0.0
                    worst_ratio = max(worst_ratio, float(cross.max() / own))
            expected = config.P * active / config.K
            worst_power = max(worst_power, abs(radiated - expected) / config.P)
    ok = worst_ratio <= 1e-8 and worst_power <= 1e-9
    elapsed = time.time() - start
    assert _report(
        2,
        ok,
        f"{slots} slots: worst nulling ratio {worst_ratio:.2e}, worst power error "
        f"{worst_power:.2e}, outage fraction {outages / slots:.4f} ({elapsed:.1f}s)",
    )
    assert elapsed < 60.0


def test_criterion_03_relaxed_solver_closed_forms():
    """Diagonal closed-form case and the empty-leakage closed form."""
    alpha, f_star = solve_alpha_star(
        np.diag([2.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex),
        streams=1, n_users=2, power=1.0,
    )
    diag_ok = abs(alpha - 1.0) <= 1e-6 and abs(abs(f_star[0, 0]) - 1.0) <= 1e-6 and abs(f_star[1, 0]) <= 1e-6

    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(20):
        dim = int(rng.integers(2, 10))
        streams = int(rng.integers(1, dim + 1))
        n_users = int(rng.integers(1, 7))
        power = float(rng.uniform(0.25, 4.0))
        corr = random_trace_normalized_psd(rng, dim)
        values, _ = hermitian_eig(corr)
        expected = power * values[:streams].sum() / (n_users * streams)
        alpha, _ = solve_alpha_star(corr, np.zeros((dim, dim)), streams, n_users, power)
        worst = max(worst, abs(alpha - expected) / expected)
    ok = diag_ok and worst <= 1e-6
    assert _report(3, ok, f"diagonal case alpha*=1 and F*=e1; single-group worst relative error {worst:.2e}")


def test_criterion_04_bisection_properties():
    """Objective non-increasing on a 20-point grid for 50 random instances;
    root residual within 1e-9 of the right-hand side."""
    rng = np.random.default_rng(88)
    worst_residual, monotone = 0.0, True
    for _ in range(50):
        dim = int(rng.integers(3, 9))
        streams = int(rng.integers(1, min(dim, 4) + 1))
        n_users, power = int(rng.integers(2, 7)), float(rng.uniform(0.5, 2.0))
        corr = random_trace_normalized_psd(rng, dim)
        leak = random_trace_normalized_psd(rng, dim) * float(rng.uniform(0.5, 3.0))
        values = [relaxed_step(corr, leak, a, streams)[1] for a in np.linspace(0.0, 5.0, 20)]
        monotone = monotone and bool(np.all(np.diff(values) <= 1e-12))
        alpha, _ = solve_alpha_star(corr, leak, streams, n_users, power, tol=1e-9)
        _, f_value = relaxed_step(corr, leak, alpha, streams)
        rhs = n_users * streams / power * alpha
        worst_residual = max(worst_residual, abs(f_value - rhs) / rhs)
    ok = monotone and worst_residual <= 1e-9
    assert _report(4, ok, f"monotone on all grids; worst relative residual {worst_residual:.2e}")


def test_criterion_05_greedy_vs_exhaustive():
    """M=4, L=K=2, G=2, B=1: greedy min-group SSLNR against the enumerated
    optimum over all valid quantized precoders, 50 random correlation draws.

    Expected to FAIL on a draw: each column's phase is fixed by a rule, but
    the greedy antenna partition can differ from the enumerated optimum's
    (see the repo notes); the ratio distribution is reported either way.
    """
    rng = np.random.default_rng(0)
    grid = phase_grid(1)
    ratios = []
    for _ in range(50):
        corrs = [random_trace_normalized_psd(rng, 4) for _ in range(2)]
        grouping = group_users(corrs, 2, subspace_rank=1)
        relaxed = solve_relaxed(grouping, power=1.0)
        rf = grfp_assign(relaxed, grouping, bits=1)
        greedy = min(
            sslnr(rf.f[:, grouping.rf_chains[g]], grouping, g, 1.0) for g in range(2)
        )
        best = -np.inf
        for combo in itertools.product(range(4), repeat=4):
            f = np.zeros((4, 2), dtype=complex)
            for m, c in enumerate(combo):
                chain, phase = divmod(c, 2)
                f[m, chain] = grid[phase] / 2.0
            if np.any(np.sum(f != 0, axis=0) == 0):
                continue
            best = max(
                best,
                min(sslnr(f[:, grouping.rf_chains[g]], grouping, g, 1.0) for g in range(2)),
            )
        ratios.append(greedy / best)
    ratios = np.array(ratios)
    quantiles = np.percentile(ratios, [0, 10, 50, 90, 100])
    ok = bool(np.all(ratios >= 0.5))
    _report(
        5,
        ok,
        "ratio distribution min/p10/median/p90/max = "
        + "/".join(f"{q:.3f}" for q in quantiles)
        + f"; draws below 0.5: {int((ratios < 0.5).sum())}/50",
    )
    assert ok, "greedy fell below 0.5x the exhaustive optimum on some draws"


def test_criterion_06_sslnr_lower_bound():
    """M=16, K=4, G=2: sample mean SLNR over 1e4 slots stays above the
    statistical SSLNR minus three standard errors for every group."""
    config = SystemConfig(M=16, K=4, G=2)
    grouping, scenario, geometry = build_context(config, seed=3)
    long_state = design_long_term(SchemeId.MPHP, grouping, config)
    n_slots = 10_000
    start = time.time()
    samples = np.zeros((n_slots, config.K))
    for t in range(n_slots):
        h = draw_channel(scenario, geometry, seed=3, slot=[t])
        sp = build_precoders(SchemeId.MPHP, long_state, h, grouping, config)
        samples[t] = slnr_per_user(h, sp, grouping)[0]
    ok, margins = True, []
    for g in range(grouping.group_count):
        bound = sslnr(long_state.f[:, grouping.rf_chains[g]], grouping, g, config.P)
        for k in grouping.members[g]:
            stderr = samples[:, k].std(ddof=1) / np.sqrt(n_slots)
            margins.append(samples[:, k].mean() - (bound - 3 * stderr))
            ok = ok and samples[:, k].mean() >= bound - 3 * stderr
    elapsed = time.time() - start
    assert _report(
        6, ok, f"all users above bound; smallest margin {min(margins):.4f} ({elapsed:.1f}s)"
    )
    assert elapsed < 120.0


def test_criterion_07_rate_trend_and_ordering():
    """Average per-user rate non-decreasing in M within two pooled standard
    errors, and FULL_DIGITAL_ZF >= MPHP >= FIXED_SUBARRAY in mean sum rate."""
    start = time.time()
    results = {}
    schemes = (SchemeId.MPHP, SchemeId.FULL_DIGITAL_ZF, SchemeId.FIXED_SUBARRAY)
    for m_ant in (16, 32, 64):
        # One call per M: every scheme at this M sees the same draws.
        (runs,) = run_at_seed(schemes, [SystemConfig(M=m_ant)], 21)
        for scheme, run in zip(schemes, runs):
            results[(m_ant, scheme)] = run
    trend_ok = True
    for low, high in ((16, 32), (32, 64)):
        a, b = results[(low, SchemeId.MPHP)], results[(high, SchemeId.MPHP)]
        slack = 2.0 * np.hypot(a.avg_rate_stderr, b.avg_rate_stderr)
        trend_ok = trend_ok and b.avg_rate_per_user >= a.avg_rate_per_user - slack
    order_ok = all(
        results[(m, SchemeId.FULL_DIGITAL_ZF)].sum_rate
        >= results[(m, SchemeId.MPHP)].sum_rate
        >= results[(m, SchemeId.FIXED_SUBARRAY)].sum_rate
        for m in (16, 32, 64)
    )
    rates = [results[(m, SchemeId.MPHP)].avg_rate_per_user for m in (16, 32, 64)]
    elapsed = time.time() - start
    assert _report(
        7,
        trend_ok and order_ok,
        f"MPHP avg rate vs M: {rates[0]:.3f} -> {rates[1]:.3f} -> {rates[2]:.3f}; "
        f"ordering FULL>=MPHP>=FIXED at every M: {order_ok} ({elapsed:.1f}s)",
    )
    assert elapsed < 300.0


def test_criterion_08_energy_efficiency_trend():
    """MPHP energy efficiency above the fully-connected statistical baseline
    at SNR -10, 0 and +10 dB with the default power model.

    Expected to FAIL at +10 dB: with unit per-user powers the baseline is
    interference-free at this cluster geometry, and the shifter-power
    advantage shrinks with P (see the repo notes).  Results are printed for
    all three points either way.
    """
    start = time.time()
    lines, ok = [], True
    snrs_db = (-10.0, 0.0, 10.0)
    points = [SystemConfig(P=float(10.0 ** (snr_db / 10.0)), n_slots=500) for snr_db in snrs_db]
    runs = run_at_seed([SchemeId.MPHP, SchemeId.FRPS_STATISTICAL], points, 33)
    for snr_db, (mphp, frps) in zip(snrs_db, runs):
        point_ok = mphp.energy_efficiency > frps.energy_efficiency
        ok = ok and point_ok
        lines.append(
            f"{snr_db:+.0f}dB: MPHP {mphp.energy_efficiency:.3f} vs FRPS "
            f"{frps.energy_efficiency:.3f} ({'ok' if point_ok else 'FAIL'})"
        )
    elapsed = time.time() - start
    _report(8, ok, "; ".join(lines) + f" ({elapsed:.1f}s)")
    assert ok, "MPHP energy efficiency did not exceed FRPS at every SNR point"
    assert elapsed < 300.0


def test_criterion_09_fairness():
    """MPHP Jain index above ADAPTIVE_INSTANT's and at least 0.85 at the
    default scenario over 1000 slots."""
    start = time.time()
    config = SystemConfig()
    [[mphp, ahp]] = run_at_seed([SchemeId.MPHP, SchemeId.ADAPTIVE_INSTANT], [config], 41)
    ok = mphp.jain_index > ahp.jain_index and mphp.jain_index >= 0.85
    elapsed = time.time() - start
    assert _report(
        9,
        ok,
        f"MPHP Jain {mphp.jain_index:.4f} vs ADAPTIVE_INSTANT {ahp.jain_index:.4f} "
        f"(threshold 0.85) ({elapsed:.1f}s)",
    )
    assert elapsed < 300.0


def test_criterion_10_feedback_accounting():
    """Feedback formulas reproduce the reference numbers exactly."""
    real_time = feedback_overhead(SchemeId.ADAPTIVE_INSTANT, 64, 8, 10, [3, 3, 2], 0)
    config = SystemConfig()
    grouping, _, _ = build_context(config, seed=1)
    stats = statistics_feedback_count([values for values, _ in grouping.reduced_eigs], config.M)
    mixed = feedback_overhead(SchemeId.MPHP, 64, 8, 10, [3, 3, 2], stats)
    short_term = mixed - stats
    bound_ok = stats <= 8 * 64**2
    ok = real_time == 5120 and short_term == 220 and bound_ok
    assert _report(
        10,
        ok,
        f"real-time 5120 == {real_time}; short-term 220 == {short_term}; "
        f"statistics count {stats} <= K*M^2 {8 * 64**2}",
    )
