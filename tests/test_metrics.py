import math

import numpy as np
import pytest

from dataclasses import fields, replace

import mphp.metrics as metrics_mod
from mphp.baselines import SCHEMES, SchemeId, SlotPrecoders, build_precoders, design_long_term
from mphp.channel import ArrayGeometry, draw_channel
from mphp.experiment import SystemConfig
from mphp.metrics import (
    SLOT_BLOCK,
    RunMetrics,
    SchemeFailure,
    build_context,
    context_key,
    energy_efficiency,
    evaluate_slot,
    feedback_overhead,
    intra_group_leakage,
    jain_fairness,
    monte_carlo_rates,
    sinr_per_user,
    slnr_per_user,
    statistics_feedback_count,
)
from mphp.numerics import hermitian_eig
from mphp.rf_precoder import sslnr

from conftest import contexts_at_seed, count_calls, inject_channels, make_grouping, run_at_seed


def orthogonal_slot():
    """Hand case: M = 2, two singleton groups, h_1 = e1, h_2 = e2,
    b_1 = e1, b_2 = e2, P = 1, K = 2 -> p = 0.5 each."""
    corrs = [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)]
    grouping = make_grouping(corrs, [0, 1])
    channel = np.eye(2, dtype=complex)
    precoders = SlotPrecoders(beams=np.eye(2, dtype=complex), power=np.array([0.5, 0.5]), usable=np.ones((1, 2), dtype=bool))
    return channel, precoders, grouping


# Scalar reference loops over one slot's beams (M, K) and powers (K,): the
# definitions the matrix versions must reproduce.
def sinr_loop(channel, beams, power, grouping):
    out = np.zeros(channel.shape[1])
    for g in range(grouping.group_count):
        for k in grouping.members[g]:
            h_k = channel[:, k]
            signal = power[k] * np.abs(h_k.conj() @ beams[:, k]) ** 2
            interference = 0.0
            for other in range(grouping.group_count):
                if other == g:
                    continue
                cross = np.abs(h_k.conj() @ beams[:, grouping.members[other]]) ** 2
                interference += float(np.sum(power[grouping.members[other]] * cross))
            out[k] = signal / (interference + 1.0)
    return out


def slnr_loop(channel, beams, power, grouping):
    n_users = channel.shape[1]
    out = np.zeros(n_users)
    for g in range(grouping.group_count):
        outsiders = np.setdiff1d(np.arange(n_users), grouping.members[g])
        for k in grouping.members[g]:
            signal = power[k] * np.abs(channel[:, k].conj() @ beams[:, k]) ** 2
            leak = power[k] * float(np.sum(np.abs(channel[:, outsiders].conj().T @ beams[:, k]) ** 2))
            out[k] = signal / (leak + 1.0)
    return out


def leakage_loop(channel, beams, power, grouping):
    out = np.zeros(channel.shape[1])
    for g in range(grouping.group_count):
        beam = beams[:, grouping.members[g]]
        for i, k in enumerate(grouping.members[g]):
            cross = np.abs(channel[:, k].conj() @ beam) ** 2
            cross[i] = 0.0
            out[k] = float(np.sum(power[grouping.members[g]] * cross))
    return out


def oracle_slots():
    """(label, channel, precoders, grouping) for every scheme on a stack of
    one channel draw, each also with group 0's beams zeroed (its power left
    nonzero)."""
    config = SystemConfig(M=16, K=5, G=2)
    grouping, scenario, geometry = build_context(config, seed=6)
    h = draw_channel(scenario, geometry, seed=6, slot=[0])
    for scheme in SchemeId:
        state = design_long_term(scheme, grouping, config)
        precoders = build_precoders(scheme, state, h, grouping, config)
        yield scheme.value, h, precoders, grouping
        beams = precoders.beams.copy()
        beams[..., grouping.members[0]] = 0.0
        usable = np.arange(grouping.group_count)[None] != 0
        silenced = SlotPrecoders(beams=beams, power=precoders.power, usable=usable)
        yield f"{scheme.value} with group 0 in outage", h, silenced, grouping


ORACLE_PAIRS = [(sinr_per_user, sinr_loop), (slnr_per_user, slnr_loop), (intra_group_leakage, leakage_loop)]


class TestMatchesScalarOracle:
    @pytest.mark.parametrize("matrix_version,loop", ORACLE_PAIRS)
    def test_every_scheme(self, matrix_version, loop):
        # atol covers the ZF in-group leakage, which is rounding noise near 0.
        for label, h, precoders, grouping in oracle_slots():
            slot = (h[0], precoders.beams[0], precoders.power[0], grouping)
            np.testing.assert_allclose(
                matrix_version(h, precoders, grouping)[0], loop(*slot), rtol=1e-12, atol=1e-12, err_msg=label
            )

    def test_random_beams_with_in_group_interference(self, rng):
        # Random (non-ZF) beams make every cross term, in-group included, large.
        def complex_normal(shape):
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

        n_ant, assignments = 6, [0, 1, 0, 2, 1]
        grouping = make_grouping([np.eye(n_ant, dtype=complex)] * len(assignments), assignments)
        channel = complex_normal((n_ant, 5))
        beams = complex_normal((n_ant, 5))
        power = rng.uniform(0.2, 1.0, 5)
        for silent in (None, 1):
            if silent is not None:
                beams[:, grouping.members[silent]] = 0.0
            usable = np.array([[g != silent for g in range(grouping.group_count)]])
            precoders = SlotPrecoders(beams=beams, power=power, usable=usable)
            for matrix_version, loop in ORACLE_PAIRS:
                np.testing.assert_allclose(
                    matrix_version(channel, precoders, grouping), loop(channel, beams, power, grouping), rtol=1e-12, atol=0
                )


class TestSinr:
    def test_zero_channel_scores_zero(self):
        channel, precoders, grouping = orthogonal_slot()
        channel = np.zeros_like(channel)
        assert np.array_equal(sinr_per_user(channel, precoders, grouping), [0, 0])

    def test_orthogonal_hand_case(self):
        channel, precoders, grouping = orthogonal_slot()
        sinr = sinr_per_user(channel, precoders, grouping)
        assert np.allclose(sinr, [0.5, 0.5])

    def test_interference_drops_sinr(self):
        channel, precoders, grouping = orthogonal_slot()
        precoders.beams[:, 1] = [1.0, 0.0]  # group 2 now fires at e1
        sinr = sinr_per_user(channel, precoders, grouping)
        assert sinr[0] == pytest.approx(0.5 / 1.5, rel=1e-12)

    def test_outage_group_silent(self):
        channel, precoders, grouping = orthogonal_slot()
        precoders.beams[:, 1] = 0.0
        sinr = sinr_per_user(channel, precoders, grouping)
        assert sinr[1] == 0.0
        assert sinr[0] == pytest.approx(0.5, rel=1e-12)


class TestSlnr:
    def test_orthogonal_hand_case_zero_leakage(self):
        channel, precoders, grouping = orthogonal_slot()
        slnr = slnr_per_user(channel, precoders, grouping)
        assert np.allclose(slnr, [0.5, 0.5])

    def test_matches_definition_by_direct_loop(self, rng):
        n_ant, n_users = 6, 4
        corrs = [np.eye(n_ant, dtype=complex) for _ in range(n_users)]
        grouping = make_grouping(corrs, [0, 0, 1, 1])
        channel = rng.standard_normal((n_ant, n_users)) + 1j * rng.standard_normal((n_ant, n_users))
        beams = rng.standard_normal((n_ant, n_users)) + 1j * rng.standard_normal((n_ant, n_users))
        power = rng.uniform(0.2, 1.0, n_users)
        slnr = slnr_per_user(channel, SlotPrecoders(beams=beams, power=power, usable=np.ones((1, 2), dtype=bool)), grouping)
        for g in range(2):
            for k in grouping.members[g]:
                signal = power[k] * abs(channel[:, k].conj() @ beams[:, k]) ** 2
                leak = sum(
                    power[k] * abs(channel[:, j].conj() @ beams[:, k]) ** 2
                    for j in range(n_users)
                    if j not in grouping.members[g]
                )
                assert slnr[k] == pytest.approx(signal / (leak + 1.0), rel=1e-12)

    def test_single_group_has_no_leakage_term(self, rng):
        corrs = [np.eye(3, dtype=complex)] * 2
        grouping = make_grouping(corrs, [0, 0])
        channel = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        beams = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        power = np.array([0.3, 0.6])
        slnr = slnr_per_user(channel, SlotPrecoders(beams=beams, power=power, usable=np.ones((1, 1), dtype=bool)), grouping)
        for k in [0, 1]:
            expected = power[k] * abs(channel[:, k].conj() @ beams[:, k]) ** 2
            assert slnr[k] == pytest.approx(expected, rel=1e-12)


class TestJain:
    def test_equal_rates(self):
        assert jain_fairness(np.ones(4)) == pytest.approx(1.0, rel=1e-12)

    def test_single_active_user(self):
        assert jain_fairness(np.array([1.0, 0.0, 0.0, 0.0])) == pytest.approx(0.25, rel=1e-12)

    def test_all_zero_is_nan(self):
        assert math.isnan(jain_fairness(np.zeros(3)))

    @pytest.mark.parametrize("seed", range(5))
    def test_range(self, seed):
        rates = np.random.default_rng(seed).uniform(0.0, 5.0, 6)
        value = jain_fairness(rates)
        assert 1.0 / 6.0 - 1e-12 <= value <= 1.0 + 1e-12


class TestEnergyEfficiency:
    def test_partially_connected_arithmetic(self):
        value = energy_efficiency(10.0, SystemConfig(M=64, K=8, P=1.0), fully_connected=False)
        assert value == pytest.approx(10.0 / (1.0 + 0.2 + 2.4 + 2.56), rel=1e-12)
        assert value == pytest.approx(1.6234, abs=1e-4)

    def test_fully_connected_arithmetic(self):
        value = energy_efficiency(10.0, SystemConfig(M=64, K=8, P=1.0), fully_connected=True)
        assert value == pytest.approx(10.0 / (1.0 + 0.2 + 2.4 + 20.48), rel=1e-12)
        assert value == pytest.approx(0.4153, abs=1e-4)

    def test_connectivity_irrelevant_without_shifter_power(self):
        config = SystemConfig(M=32, K=4, P=1.0, p_baseband=0.2, p_rf_chain=0.3, p_phase_shifter=0.0)
        partial = energy_efficiency(5.0, config, fully_connected=False)
        full = energy_efficiency(5.0, config, fully_connected=True)
        assert partial == full


class TestFeedbackOverhead:
    def test_real_time_count(self):
        value = feedback_overhead(
            SchemeId.FULL_DIGITAL_ZF, 64, 8, stats_period=10, group_sizes=[3, 3, 2], statistics_count=0
        )
        assert value == 5120

    def test_mixed_timescale_count(self):
        value = feedback_overhead(
            SchemeId.MPHP, 64, 8, stats_period=10, group_sizes=[3, 3, 2], statistics_count=77
        )
        assert value == 10 * (9 + 9 + 4) + 77

    def test_long_period_ratio_limit(self):
        stats_period = 10**6
        mixed = feedback_overhead(SchemeId.MPHP, 64, 8, stats_period, [3, 3, 2], statistics_count=1000)
        real_time = feedback_overhead(SchemeId.ADAPTIVE_INSTANT, 64, 8, stats_period, [3, 3, 2], 0)
        assert mixed / real_time == pytest.approx(22.0 / 512.0, rel=1e-3)

    def test_statistics_count_rank_rule(self):
        # eigenvalues (10, 0.4, 0.1): rank 1 already holds 95% of the trace
        corr = np.diag([10.0, 0.4, 0.1]).astype(complex)
        assert statistics_feedback_count([hermitian_eig(corr).eigenvalues], 3) == 1 * (2 * 3 + 1)
        # flat spectrum needs almost every eigenpair
        flat = np.eye(4, dtype=complex)
        assert statistics_feedback_count([hermitian_eig(flat).eigenvalues], 4) == 4 * (2 * 4 + 1)
        # each pair costs one M-vector, whatever size the eigenvalues came from
        assert statistics_feedback_count([np.array([10.0, 0.4, 0.1])], 64) == 1 * (2 * 64 + 1)

    def test_bad_period_rejected(self):
        with pytest.raises(ValueError):
            feedback_overhead(SchemeId.MPHP, 4, 2, 0, [1, 1], 0)


class TestMonteCarlo:
    def test_single_slot_injected_channel_is_exact(self, monkeypatch):
        config = SystemConfig(M=8, K=2, G=2, n_slots=1)
        context = build_context(config, seed=5)
        grouping, scenario, geometry = context
        fixed = draw_channel(scenario, geometry, seed=123, slot=[0])
        inject_channels(monkeypatch, lambda t: fixed[0])
        [[run]] = monte_carlo_rates([SchemeId.MPHP], [config], 5, contexts=[context])
        long_state = design_long_term(SchemeId.MPHP, grouping, config)
        precoders = build_precoders(SchemeId.MPHP, long_state, fixed, grouping, config)
        rate = evaluate_slot(fixed, precoders, grouping)
        sinr = sinr_per_user(fixed, precoders, grouping)
        assert np.array_equal(run.per_user_rate, rate[0])
        assert np.array_equal(rate, np.log2(1.0 + sinr))

    def test_deterministic_given_seed(self):
        config = SystemConfig(M=8, K=2, G=2, n_slots=20)
        [[a]] = run_at_seed([SchemeId.MPHP], [config], 3)
        [[b]] = run_at_seed([SchemeId.MPHP], [config], 3)
        assert np.array_equal(a.per_user_rate, b.per_user_rate)
        assert a.sum_rate == b.sum_rate
        assert a.jain_index == b.jain_index
        assert a.energy_efficiency == b.energy_efficiency

    def test_doubling_power_raises_median_rate(self):
        # Full-digital ZF directions are power-independent; the same channel
        # draws are reused, so scaling every p_k can only help each user.
        base = SystemConfig(M=16, K=4, G=2, n_slots=500)
        [[low]] = run_at_seed([SchemeId.FULL_DIGITAL_ZF], [base], 9)
        high_cfg = SystemConfig(M=16, K=4, G=2, P=2.0, n_slots=500)
        [[high]] = run_at_seed([SchemeId.FULL_DIGITAL_ZF], [high_cfg], 9)
        assert np.median(high.per_user_rate) >= np.median(low.per_user_rate)

    def test_stderr_shrinks_like_sqrt_slots(self):
        config = SystemConfig(M=16, K=4, G=2)
        [[small]] = run_at_seed([SchemeId.MPHP], [replace(config, n_slots=250)], 4)
        [[large]] = run_at_seed([SchemeId.MPHP], [replace(config, n_slots=1000)], 4)
        ratio = large.avg_rate_stderr / small.avg_rate_stderr
        assert 0.35 <= ratio <= 0.65

    def test_slnr_sample_mean_respects_statistical_bound(self):
        config = SystemConfig(M=16, K=4, G=2)
        grouping, scenario, geometry = build_context(config, seed=3)
        long_state = design_long_term(SchemeId.MPHP, grouping, config)
        n = 600
        samples = np.zeros((n, config.K))
        for t in range(n):
            h = draw_channel(scenario, geometry, seed=3, slot=[t])
            precoders = build_precoders(SchemeId.MPHP, long_state, h, grouping, config)
            samples[t] = slnr_per_user(h, precoders, grouping)[0]
        for g in range(grouping.group_count):
            bound = sslnr(long_state.f[:, grouping.rf_chains[g]], grouping, g, config.P)
            for k in grouping.members[g]:
                stderr = samples[:, k].std(ddof=1) / np.sqrt(n)
                assert samples[:, k].mean() >= bound - 3 * stderr

    def test_intra_group_leakage_diagnostic_small_under_zf(self):
        config = SystemConfig(M=16, K=4, G=2)
        grouping, scenario, geometry = build_context(config, seed=3)
        long_state = design_long_term(SchemeId.MPHP, grouping, config)
        stack = draw_channel(scenario, geometry, seed=3, slot=[0])
        precoders = build_precoders(SchemeId.MPHP, long_state, stack, grouping, config)
        leak = intra_group_leakage(stack, precoders, grouping)[0]
        h, beams = stack[0], precoders.beams[0]
        signal = precoders.power[0] * np.array([abs(h[:, k].conj() @ beams[:, k]) ** 2 for k in range(config.K)])
        assert np.all(leak <= 1e-16 * np.maximum(signal, 1e-300) + 1e-20)

    def test_bad_slot_count_rejected(self):
        with pytest.raises(ValueError):
            run_at_seed([SchemeId.MPHP], [SystemConfig(n_slots=0)], 1)


def loop_monte_carlo_rates(scheme, config, seed, grouping, scenario, channel_factory=None):
    """Reference engine: the per-slot loop, one draw, one precoder build and
    one evaluation per slot, each on a stack of one.  Returns (RunMetrics,
    rates, per-slot outage groups)."""
    n_slots = config.n_slots
    geometry = ArrayGeometry(config.M, config.element_spacing)
    long_state = design_long_term(scheme, grouping, config)
    rates = np.zeros((n_slots, config.K))
    outages = []
    for t in range(n_slots):
        if channel_factory is not None:
            h = channel_factory(t)
        else:
            h = draw_channel(scenario, geometry, seed=seed, slot=t)
        precoders = build_precoders(scheme, long_state, h[None], grouping, config)
        rates[t] = evaluate_slot(h[None], precoders, grouping)[0]
        outages.append([g for _, g in precoders.outage_groups])
    outage_slots = sum(1 for groups in outages if groups)

    per_user_rate = rates.mean(axis=0)
    per_slot_mean = rates.mean(axis=1)
    per_slot_sum = rates.sum(axis=1)
    avg_stderr = float(per_slot_mean.std(ddof=1) / np.sqrt(n_slots)) if n_slots > 1 else 0.0
    sum_stderr = float(per_slot_sum.std(ddof=1) / np.sqrt(n_slots)) if n_slots > 1 else 0.0

    sum_rate = float(per_user_rate.sum())
    ee = energy_efficiency(sum_rate, config, SCHEMES[scheme].fully_connected)
    stats_count = (
        statistics_feedback_count([values for values, _ in grouping.reduced_eigs], config.M)
        if SCHEMES[scheme].statistical
        else 0
    )
    feedback = feedback_overhead(
        scheme, config.M, config.K, config.T, [len(m) for m in grouping.members], stats_count
    )
    run = RunMetrics(
        avg_rate_per_user=float(per_user_rate.mean()),
        avg_rate_stderr=avg_stderr,
        sum_rate=sum_rate,
        sum_rate_stderr=sum_stderr,
        worst_user_rate=float(per_user_rate.min()),
        jain_index=jain_fairness(per_user_rate),
        energy_efficiency=ee,
        feedback_total=feedback,
        feedback_statistics=stats_count,
        outage_fraction=outage_slots / n_slots,
        per_user_rate=per_user_rate,
    )
    return run, rates, outages


def assert_same_run(run, reference):
    for f in fields(RunMetrics):
        a, b = getattr(run, f.name), getattr(reference, f.name)
        assert np.array_equal(a, b), f.name
        assert type(a) is type(b), f.name


def rank_deficient_factory(scenario, geometry, seed, grouping, n_slots):
    """Drawn channels of the first ``n_slots`` slots, except that slot 1
    zeroes user 0's column, slot 2 and the third slot of the second block
    copy one group member onto another (or zero it in a singleton group),
    and slot 4 makes the whole channel rank one.  The slots are drawn here,
    so the factory draws nothing (see ``inject_channels``)."""
    group = grouping.members[int(np.argmax(grouping.sizes))]
    channels = draw_channel(scenario, geometry, seed=seed, slot=range(n_slots))
    channels[1][:, 0] = 0.0
    for t in (2, SLOT_BLOCK + 2):
        channels[t][:, group[-1]] = channels[t][:, group[0]] if len(group) > 1 else 0.0
    channels[4] = channels[4][:, :1] * np.arange(1, channels.shape[2] + 1)
    return lambda t: channels[t].copy()


ENGINE_CASES = {
    "one slot": SystemConfig(M=16, K=4, G=2, n_slots=1),
    "M = K": SystemConfig(M=4, K=4, G=2, n_slots=7),
    "G = K": SystemConfig(M=16, K=4, G=4, n_slots=7),
    "B = 1": SystemConfig(M=16, K=4, G=2, B=1, n_slots=7),
    "G = 1": SystemConfig(M=32, K=8, G=1, n_slots=5),
    "block boundary": SystemConfig(M=16, K=4, G=2, n_slots=2 * SLOT_BLOCK + 1),
    "defaults": SystemConfig(n_slots=9),
    "M = K = G = 1": SystemConfig(M=1, K=1, G=1, n_slots=3),
}


class TestEngineMatchesPerSlotLoop:
    """The stacked Monte Carlo engine reproduces the per-slot loop bit for bit."""

    @pytest.mark.parametrize("case", sorted(ENGINE_CASES))
    @pytest.mark.parametrize("scheme", list(SchemeId), ids=lambda s: s.value)
    def test_drawn_channels(self, case, scheme):
        config = ENGINE_CASES[case]
        n_slots = config.n_slots
        context = build_context(config, seed=11)
        grouping, scenario, geometry = context
        [[run]] = monte_carlo_rates([scheme], [config], 23, contexts=[context])
        reference, rates, _ = loop_monte_carlo_rates(scheme, config, 23, grouping, scenario)
        assert_same_run(run, reference)
        channels = draw_channel(scenario, geometry, seed=23, slot=range(n_slots))
        state = design_long_term(scheme, grouping, config)
        block = evaluate_slot(channels, build_precoders(scheme, state, channels, grouping, config), grouping)
        assert np.array_equal(block, rates)

    @pytest.mark.parametrize("case", ["G = K", "G = 1", "defaults"])
    @pytest.mark.parametrize("scheme", list(SchemeId), ids=lambda s: s.value)
    def test_rank_deficient_slots_hit_the_outage_path(self, monkeypatch, case, scheme):
        n_slots = SLOT_BLOCK + 4
        config = replace(ENGINE_CASES[case], n_slots=n_slots)
        context = build_context(config, seed=11)
        grouping, scenario, geometry = context
        factory = rank_deficient_factory(scenario, geometry, 23, grouping, n_slots)
        inject_channels(monkeypatch, factory)
        [[run]] = monte_carlo_rates([scheme], [config], 23, contexts=[context])
        reference, rates, outages = loop_monte_carlo_rates(
            scheme, config, 23, grouping, scenario, channel_factory=factory
        )
        assert_same_run(run, reference)
        assert any(outages[1:]) and not outages[0]

        channels = np.stack([factory(t) for t in range(n_slots)])
        state = design_long_term(scheme, grouping, config)
        precoders = build_precoders(scheme, state, channels, grouping, config)
        assert precoders.outage_groups == [(t, g) for t in range(n_slots) for g in outages[t]]
        assert np.array_equal(evaluate_slot(channels, precoders, grouping), rates)
        for t in range(n_slots):
            expected = build_precoders(scheme, state, channels[t : t + 1], grouping, config)
            assert np.array_equal(precoders.power[t], expected.power[0])
            assert np.array_equal(precoders.beams[t], expected.beams[0])


class TestSharedDraws:
    """One engine call over several schemes equals one call per scheme with
    the same seed: every scheme sees the same channel draws."""

    @pytest.mark.parametrize("case", ["one slot", "G = K", "B = 1", "block boundary"])
    def test_multi_scheme_equals_per_scheme_calls(self, case):
        config = ENGINE_CASES[case]
        context = build_context(config, seed=11)
        schemes = list(SchemeId)
        (runs,) = monte_carlo_rates(schemes, [config], 23, contexts=[context])
        assert len(runs) == len(schemes)
        for scheme, run in zip(schemes, runs):
            [[alone]] = monte_carlo_rates([scheme], [config], 23, contexts=[context])
            assert_same_run(run, alone)

    @pytest.mark.parametrize("case", ["G = K", "G = 1"])
    def test_injected_outages_shared_by_every_scheme(self, monkeypatch, case):
        config = replace(ENGINE_CASES[case], n_slots=SLOT_BLOCK + 4)
        context = build_context(config, seed=11)
        grouping, scenario, geometry = context
        inject_channels(monkeypatch, rank_deficient_factory(scenario, geometry, 23, grouping, config.n_slots))
        schemes = list(reversed(SchemeId))
        (runs,) = monte_carlo_rates(schemes, [config], 23, contexts=[context])
        for scheme, run in zip(schemes, runs):
            [[alone]] = monte_carlo_rates([scheme], [config], 23, contexts=[context])
            assert_same_run(run, alone)
        assert any(run.outage_fraction > 0 for run in runs)

    def test_one_draw_per_block_for_all_schemes(self, monkeypatch):
        config = ENGINE_CASES["block boundary"]
        n_slots = config.n_slots
        context = build_context(config, seed=11)
        blocks = []
        draw = metrics_mod.channel_mod.draw_channel

        def counted(params, geometry, seed, slots):
            blocks.append(list(slots))
            return draw(params, geometry, seed, slots)

        monkeypatch.setattr(metrics_mod.channel_mod, "draw_channel", counted)
        monte_carlo_rates(list(SchemeId), [config], 23, contexts=[context])
        assert blocks == [list(range(s, min(s + SLOT_BLOCK, n_slots))) for s in range(0, n_slots, SLOT_BLOCK)]

    def test_no_scheme_rejected(self):
        with pytest.raises(ValueError, match="scheme"):
            run_at_seed([], [SystemConfig(M=8, K=2, G=2, n_slots=3)], 5)

    def test_failing_scheme_named(self, monkeypatch):
        config = SystemConfig(M=8, K=2, G=2, n_slots=3)
        build = metrics_mod.build_precoders

        def failing(scheme, *args):
            if scheme is SchemeId.FIXED_SUBARRAY:
                raise ArithmeticError("synthetic")
            return build(scheme, *args)

        monkeypatch.setattr(metrics_mod, "build_precoders", failing)
        # One scheme at one point fails the same way as several.
        for schemes in (list(SchemeId), [SchemeId.FIXED_SUBARRAY]):
            with pytest.raises(SchemeFailure, match="FIXED_SUBARRAY failed at point 0") as info:
                run_at_seed(schemes, [config], 5)
            assert (info.value.scheme, info.value.point) == (SchemeId.FIXED_SUBARRAY, 0)
            assert isinstance(info.value.__cause__, ArithmeticError)


class TestSweepPoints:
    """One engine call over several point configs, over two arrays and two
    sets of users, equals one call per point and one per array: designs and
    blocks are shared, the numbers are not."""

    POINTS = [
        SystemConfig(M=16, K=4, G=2, P=0.5, n_slots=3),
        SystemConfig(M=16, K=4, G=2, P=4.0, B=2, n_slots=SLOT_BLOCK + 5),
        SystemConfig(M=16, K=4, G=2, n_slots=2 * SLOT_BLOCK + 1),
        SystemConfig(M=16, K=4, G=2, B=2, n_slots=SLOT_BLOCK),
        SystemConfig(M=8, K=4, G=2, P=4.0, B=2, n_slots=SLOT_BLOCK + 5),
        SystemConfig(M=8, K=4, G=2, n_slots=3),
        SystemConfig(M=16, K=4, G=2, P=0.5, n_slots=7),
    ]

    def test_points_equal_single_point_calls(self):
        contexts = contexts_at_seed(self.POINTS, 11)
        runs = monte_carlo_rates(list(SchemeId), self.POINTS, 23, contexts=contexts)
        assert len(runs) == len(self.POINTS)
        for point, context, point_runs in zip(self.POINTS, contexts, runs):
            (alone,) = monte_carlo_rates(list(SchemeId), [point], 23, contexts=[context])
            for run, cell in zip(point_runs, alone):
                assert_same_run(run, cell)
        for m in (16, 8):
            indices = [p for p, point in enumerate(self.POINTS) if point.M == m]
            points, shared = [self.POINTS[p] for p in indices], [contexts[p] for p in indices]
            for p, point_runs in zip(indices, monte_carlo_rates(list(SchemeId), points, 23, contexts=shared)):
                for run, cell in zip(runs[p], point_runs):
                    assert_same_run(run, cell)
        [[single]] = monte_carlo_rates([SchemeId.MPHP], self.POINTS[:1], 23, contexts=contexts[:1])
        assert_same_run(single, runs[0][0])

    def test_one_draw_per_block_and_one_design_per_distinct_state(self, monkeypatch):
        contexts = contexts_at_seed(self.POINTS, 11)
        blocks, designs = [], []
        draw, design = metrics_mod.channel_mod.draw_channel, metrics_mod.design_long_term

        def counted_draw(params, geometry, seed, slots):
            blocks.append((list(slots), geometry.antenna_count))
            return draw(params, geometry, seed, slots)

        def counted_design(scheme, grouping, config):
            designs.append((config.M, scheme))
            return design(scheme, grouping, config)

        monkeypatch.setattr(metrics_mod.channel_mod, "draw_channel", counted_draw)
        monkeypatch.setattr(metrics_mod, "design_long_term", counted_design)
        monte_carlo_rates(list(SchemeId), self.POINTS, 23, contexts=contexts)
        most = max(point.n_slots for point in self.POINTS)
        # Each block is drawn once, on the widest array that a live point reads.
        assert blocks == [(list(range(s, min(s + SLOT_BLOCK, most))), 16) for s in range(0, most, SLOT_BLOCK)]
        # Per array, (P, B) takes 4 or 2 values and B takes 2; the real-time schemes have no design input.
        assert [designs.count((16, s)) for s in SchemeId] == [4, 1, 2, 1, 1]
        assert [designs.count((8, s)) for s in SchemeId] == [2, 1, 2, 1, 1]

    def test_user_sets_and_arrays_in_one_call(self, monkeypatch):
        # A K sweep (two sets of users) crossed with an M sweep (two arrays).
        points = [
            SystemConfig(M=16, K=4, G=2, n_slots=SLOT_BLOCK + 3),
            SystemConfig(M=16, K=3, G=2, n_slots=5),
            SystemConfig(M=8, K=4, G=2, P=2.0, n_slots=SLOT_BLOCK + 3),
            SystemConfig(M=8, K=3, G=2, B=2, n_slots=SLOT_BLOCK + 1),
        ]
        contexts = contexts_at_seed(points, 11)
        draws = []
        draw = metrics_mod.channel_mod.draw_channel

        def counted_draw(params, geometry, seed, slots):
            draws.append((len(params), list(slots), geometry.antenna_count))
            return draw(params, geometry, seed, slots)

        monkeypatch.setattr(metrics_mod.channel_mod, "draw_channel", counted_draw)
        runs = monte_carlo_rates(list(SchemeId), points, 23, contexts=contexts)
        first, second = list(range(SLOT_BLOCK)), list(range(SLOT_BLOCK, SLOT_BLOCK + 3))
        # Channels are drawn once per block per set of users, on the widest
        # array that a live point on it reads.
        assert draws == [(4, first, 16), (3, first, 16), (4, second, 16), (3, second, 8)]
        for point, context, point_runs in zip(points, contexts, runs):
            assert [run.per_user_rate.shape for run in point_runs] == [(point.K,)] * len(SchemeId)
            (alone,) = monte_carlo_rates(list(SchemeId), [point], 23, contexts=[context])
            for run, cell in zip(point_runs, alone):
                assert_same_run(run, cell)

    def test_equal_keys_on_other_users_get_their_own_runs(self):
        # Equal context keys, but the contexts come from scenario seeds 5 and 6.
        point = SystemConfig(M=8, K=3, G=2, n_slots=SLOT_BLOCK + 2)
        contexts = [build_context(point, 5), build_context(point, 6)]
        assert contexts[0].scenario != contexts[1].scenario
        runs = monte_carlo_rates(list(SchemeId), [point, point], 23, contexts=contexts)
        for context, point_runs in zip(contexts, runs):
            (alone,) = monte_carlo_rates(list(SchemeId), [point], 23, contexts=[context])
            for run, cell in zip(point_runs, alone):
                assert_same_run(run, cell)
        assert not np.array_equal(runs[0][0].per_user_rate, runs[1][0].per_user_rate)

    def test_one_context_per_point(self):
        points = [SystemConfig(M=8, K=2, G=2, n_slots=3), SystemConfig(M=16, K=2, G=2, n_slots=3)]
        contexts = contexts_at_seed(points, 5)
        with pytest.raises(ValueError, match="one context per point, got 2 points, 1 contexts"):
            monte_carlo_rates([SchemeId.MPHP], points, 5, contexts=contexts[:1])
        with pytest.raises(ValueError, match="need points and one context per point, got 0 points, 0 contexts"):
            monte_carlo_rates([SchemeId.MPHP], [], 5, contexts=[])
        with pytest.raises(ValueError, match="n_slots"):
            run_at_seed([SchemeId.MPHP], [points[0], replace(points[0], n_slots=0)], 5)

    def test_failure_names_the_point(self, monkeypatch):
        build = metrics_mod.build_precoders

        def failing(scheme, state, channel, grouping, config):
            if scheme is SchemeId.FIXED_SUBARRAY and config.P == 4.0:
                raise ArithmeticError("synthetic")
            return build(scheme, state, channel, grouping, config)

        monkeypatch.setattr(metrics_mod, "build_precoders", failing)
        with pytest.raises(SchemeFailure, match="FIXED_SUBARRAY failed at point 1") as info:
            run_at_seed([SchemeId.FIXED_SUBARRAY], self.POINTS, 23)
        assert (info.value.scheme, info.value.point) == (SchemeId.FIXED_SUBARRAY, 1)
        assert isinstance(info.value.__cause__, ArithmeticError)

    def test_shared_failure_names_the_first_point_that_needs_the_block(self, monkeypatch):
        draw = metrics_mod.channel_mod.draw_channel

        def failing(params, geometry, seed, slots):
            if slots[0] >= SLOT_BLOCK:
                raise ArithmeticError("synthetic draw failure")
            return draw(params, geometry, seed, slots)

        monkeypatch.setattr(metrics_mod.channel_mod, "draw_channel", failing)
        with pytest.raises(SchemeFailure, match="a shared stage failed at point 1") as info:
            run_at_seed([SchemeId.MPHP], self.POINTS, 23)
        assert info.value.scheme is None

    def test_array_failure_names_the_first_point_on_that_array(self, monkeypatch):
        # One draw per element spacing, on its widest array (M = 32), named by its first point (M = 16).
        points = [
            SystemConfig(M=8, K=4, G=2, n_slots=3),
            SystemConfig(M=16, K=4, G=2, element_spacing=0.37, n_slots=3),
            SystemConfig(M=32, K=4, G=2, element_spacing=0.37, n_slots=3),
        ]
        draw, draws = metrics_mod.channel_mod.draw_channel, []

        def failing(params, geometry, seed, slots):
            draws.append((geometry.antenna_count, geometry.element_spacing))
            if geometry.element_spacing == 0.37:
                raise ArithmeticError("synthetic array failure")
            return draw(params, geometry, seed, slots)

        monkeypatch.setattr(metrics_mod.channel_mod, "draw_channel", failing)
        with pytest.raises(SchemeFailure, match="a shared stage failed at point 1") as info:
            run_at_seed([SchemeId.MPHP], points, 23)
        assert draws == [(8, 0.5), (32, 0.37)]
        assert info.value.scheme is None
        assert isinstance(info.value.__cause__, ArithmeticError)


    def test_power_sweep_builds_the_beams_once(self, monkeypatch):
        # Beams do not read P: on one block a P sweep builds each scheme once,
        # except MPHP, whose design reads P, and each point gets its own powers.
        points = [SystemConfig(M=16, K=4, G=2, P=p, n_slots=5) for p in (0.5, 1.0, 4.0)]
        calls = count_calls(monkeypatch, metrics_mod, "build_precoders")
        runs = run_at_seed(list(SchemeId), points, 23)
        assert [sum(args[0] is s for args in calls) for s in SchemeId] == [3, 1, 1, 1, 1]
        for point, point_runs in zip(points, runs):
            for run, cell in zip(point_runs, run_at_seed(list(SchemeId), [point], 23)[0]):
                assert_same_run(run, cell)

    def test_power_sweep_reuses_the_outage_mask(self, monkeypatch):
        # Rank-deficient slots put groups in outage; a point that differs from
        # a built one only in P takes that build's beams and usable mask.
        points = [SystemConfig(M=16, K=4, G=4, P=p, n_slots=SLOT_BLOCK + 4) for p in (0.5, 1.0, 4.0)]
        context = build_context(points[0], seed=11)
        grouping, scenario, geometry = context
        inject_channels(monkeypatch, rank_deficient_factory(scenario, geometry, 23, grouping, points[0].n_slots))
        calls = count_calls(monkeypatch, metrics_mod, "build_precoders")
        runs = monte_carlo_rates(list(SchemeId), points, 23, contexts=[context] * len(points))
        # Two blocks; MPHP's design reads P, so it builds once per point.
        assert [sum(args[0] is s for args in calls) for s in SchemeId] == [6, 2, 2, 2, 2]
        for point, point_runs in zip(points, runs):
            (alone,) = monte_carlo_rates(list(SchemeId), [point], 23, contexts=[context])
            for run, cell in zip(point_runs, alone):
                assert_same_run(run, cell)
                assert run.outage_fraction > 0


class ReadRecorder:
    """Stands in for a config and records which fields are read."""

    def __init__(self, config):
        self._config = config
        self.read = set()

    def __getattr__(self, name):
        self.read.add(name)
        return getattr(self._config, name)


class TestContextKey:
    def test_key_reads_exactly_the_fields_build_context_reads(self):
        config = SystemConfig(M=8, K=2, G=2)
        built, keyed = ReadRecorder(config), ReadRecorder(config)
        build_context(built, seed=5)
        context_key(keyed)
        assert built.read == keyed.read

    def test_key_follows_the_scenario(self):
        base = SystemConfig(M=8, K=2, G=2)
        assert context_key(replace(base, M=16)) != context_key(base)
        assert context_key(replace(base, angular_spread=0.05)) != context_key(base)
        assert context_key(replace(base, P=2.0, B=1, n_slots=3)) == context_key(base)


class TestBuildReads:
    """The engine reuses a build across points that differ only in P, so a
    build may read no config field but B, P and K (the users)."""

    @pytest.mark.parametrize("scheme", list(SchemeId), ids=lambda s: s.value)
    def test_build_reads_only_b_p_and_k(self, scheme):
        config = SystemConfig(M=16, K=4, G=2)
        grouping, scenario, geometry = build_context(config, seed=5)
        state = design_long_term(scheme, grouping, config)
        recorder = ReadRecorder(config)
        build_precoders(scheme, state, draw_channel(scenario, geometry, seed=5, slot=range(3)), grouping, recorder)
        assert "P" in recorder.read and recorder.read <= {"B", "P", "K"}
