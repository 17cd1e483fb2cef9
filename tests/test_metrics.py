import numpy as np
import pytest

from mphp.baselines import SchemeId, SlotPrecoders, build_precoders, design_long_term
from mphp.channel import draw_channel
from mphp.experiment import SystemConfig
from mphp.metrics import (
    PowerModel,
    UndefinedFairnessError,
    build_context,
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
from mphp.rf_precoder import sslnr

from conftest import make_grouping


def orthogonal_slot():
    """Hand case: M = 2, two singleton groups, h_1 = e1, h_2 = e2,
    F_1 = e1, F_2 = e2, scalar baseband, P = 1, K = 2 -> p = 0.5 each."""
    corrs = [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)]
    grouping = make_grouping(corrs, [0, 1])
    channel = np.eye(2, dtype=complex)
    f_groups = [np.array([[1.0], [0.0]], dtype=complex), np.array([[0.0], [1.0]], dtype=complex)]
    w_groups = [np.eye(1, dtype=complex), np.eye(1, dtype=complex)]
    power = np.array([0.5, 0.5])
    return channel, f_groups, w_groups, power, grouping


# Scalar reference loops: the definitions the matrix versions must reproduce.
def sinr_loop(channel, f_groups, w_groups, power, grouping):
    out = np.zeros(channel.shape[1])
    beams = [
        f_groups[g] @ w_groups[g] if w_groups[g] is not None else None
        for g in range(grouping.group_count)
    ]
    for g in range(grouping.group_count):
        if beams[g] is None:
            continue
        for i, k in enumerate(grouping.members[g]):
            h_k = channel[:, k]
            signal = power[k] * np.abs(h_k.conj() @ beams[g][:, i]) ** 2
            interference = 0.0
            for other in range(grouping.group_count):
                if other == g or beams[other] is None:
                    continue
                cross = np.abs(h_k.conj() @ beams[other]) ** 2
                interference += float(np.sum(power[grouping.members[other]] * cross))
            out[k] = signal / (interference + 1.0)
    return out


def slnr_loop(channel, f_groups, w_groups, power, grouping):
    n_users = channel.shape[1]
    out = np.zeros(n_users)
    for g in range(grouping.group_count):
        if w_groups[g] is None:
            continue
        beam = f_groups[g] @ w_groups[g]
        outsiders = np.setdiff1d(np.arange(n_users), grouping.members[g])
        for i, k in enumerate(grouping.members[g]):
            signal = power[k] * np.abs(channel[:, k].conj() @ beam[:, i]) ** 2
            leak = power[k] * float(np.sum(np.abs(channel[:, outsiders].conj().T @ beam[:, i]) ** 2))
            out[k] = signal / (leak + 1.0)
    return out


def leakage_loop(channel, f_groups, w_groups, power, grouping):
    out = np.zeros(channel.shape[1])
    for g in range(grouping.group_count):
        if w_groups[g] is None:
            continue
        beam = f_groups[g] @ w_groups[g]
        for i, k in enumerate(grouping.members[g]):
            cross = np.abs(channel[:, k].conj() @ beam) ** 2
            cross[i] = 0.0
            out[k] = float(np.sum(power[grouping.members[g]] * cross))
    return out


def oracle_slots():
    """(label, channel, precoders, grouping) for every scheme on one channel
    draw, each also with group 0 silenced (its power left nonzero)."""
    config = SystemConfig(M=16, K=5, L=5, G=2)
    grouping, scenario, geometry = build_context(config, seed=6)
    h = draw_channel(scenario, geometry, seed=6, slot=0)
    for scheme in SchemeId:
        state = design_long_term(scheme, grouping, config)
        precoders = build_precoders(scheme, state, h, grouping, config)
        yield scheme.value, h, precoders, grouping
        silenced = SlotPrecoders(
            f_groups=precoders.f_groups,
            w_groups=[None] + precoders.w_groups[1:],
            power=precoders.power,
            outage_groups=[0],
        )
        yield f"{scheme.value} with group 0 in outage", h, silenced, grouping


ORACLE_PAIRS = [(sinr_per_user, sinr_loop), (slnr_per_user, slnr_loop), (intra_group_leakage, leakage_loop)]


class TestMatchesScalarOracle:
    @pytest.mark.parametrize("matrix_version,loop", ORACLE_PAIRS)
    def test_every_scheme(self, matrix_version, loop):
        # atol covers the ZF in-group leakage, which is rounding noise near 0.
        for label, h, precoders, grouping in oracle_slots():
            args = (h, precoders.f_groups, precoders.w_groups, precoders.power, grouping)
            np.testing.assert_allclose(
                matrix_version(*args), loop(*args), rtol=1e-12, atol=1e-12, err_msg=label
            )

    def test_random_beams_with_in_group_interference(self, rng):
        # Random (non-ZF) beams make every cross term, in-group included, large.
        def complex_normal(shape):
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

        n_ant, assignments = 6, [0, 1, 0, 2, 1]
        grouping = make_grouping([np.eye(n_ant, dtype=complex)] * len(assignments), assignments)
        channel = complex_normal((n_ant, 5))
        f_groups = [complex_normal((n_ant, len(m))) for m in grouping.members]
        w_groups = [complex_normal((len(m), len(m))) for m in grouping.members]
        power = rng.uniform(0.2, 1.0, 5)
        for silent in (None, 1):
            ws = [None if g == silent else w for g, w in enumerate(w_groups)]
            args = (channel, f_groups, ws, power, grouping)
            for matrix_version, loop in ORACLE_PAIRS:
                np.testing.assert_allclose(matrix_version(*args), loop(*args), rtol=1e-12, atol=0)


class TestSinr:
    def test_zero_channel_scores_zero(self):
        channel, f_groups, w_groups, power, grouping = orthogonal_slot()
        channel = np.zeros_like(channel)
        assert np.array_equal(sinr_per_user(channel, f_groups, w_groups, power, grouping), [0, 0])

    def test_orthogonal_hand_case(self):
        channel, f_groups, w_groups, power, grouping = orthogonal_slot()
        sinr = sinr_per_user(channel, f_groups, w_groups, power, grouping)
        assert np.allclose(sinr, [0.5, 0.5])

    def test_interference_drops_sinr(self):
        channel, f_groups, w_groups, power, grouping = orthogonal_slot()
        f_groups[1] = np.array([[1.0], [0.0]], dtype=complex)  # group 2 now fires at e1
        sinr = sinr_per_user(channel, f_groups, w_groups, power, grouping)
        assert sinr[0] == pytest.approx(0.5 / 1.5, rel=1e-12)

    def test_outage_group_silent(self):
        channel, f_groups, w_groups, power, grouping = orthogonal_slot()
        w_groups[1] = None
        sinr = sinr_per_user(channel, f_groups, w_groups, power, grouping)
        assert sinr[1] == 0.0
        assert sinr[0] == pytest.approx(0.5, rel=1e-12)


class TestSlnr:
    def test_orthogonal_hand_case_zero_leakage(self):
        channel, f_groups, w_groups, power, grouping = orthogonal_slot()
        slnr = slnr_per_user(channel, f_groups, w_groups, power, grouping)
        assert np.allclose(slnr, [0.5, 0.5])

    def test_matches_definition_by_direct_loop(self, rng):
        n_ant, n_users = 6, 4
        corrs = [np.eye(n_ant, dtype=complex) for _ in range(n_users)]
        grouping = make_grouping(corrs, [0, 0, 1, 1])
        channel = rng.standard_normal((n_ant, n_users)) + 1j * rng.standard_normal((n_ant, n_users))
        f_groups = [
            rng.standard_normal((n_ant, 2)) + 1j * rng.standard_normal((n_ant, 2)) for _ in range(2)
        ]
        w_groups = [np.eye(2, dtype=complex), np.eye(2, dtype=complex)]
        power = rng.uniform(0.2, 1.0, n_users)
        slnr = slnr_per_user(channel, f_groups, w_groups, power, grouping)
        for g in range(2):
            beam = f_groups[g] @ w_groups[g]
            for i, k in enumerate(grouping.members[g]):
                signal = power[k] * abs(channel[:, k].conj() @ beam[:, i]) ** 2
                leak = sum(
                    power[k] * abs(channel[:, j].conj() @ beam[:, i]) ** 2
                    for j in range(n_users)
                    if j not in grouping.members[g]
                )
                assert slnr[k] == pytest.approx(signal / (leak + 1.0), rel=1e-12)

    def test_single_group_has_no_leakage_term(self, rng):
        corrs = [np.eye(3, dtype=complex)] * 2
        grouping = make_grouping(corrs, [0, 0])
        channel = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        f = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        w = np.eye(2, dtype=complex)
        power = np.array([0.3, 0.6])
        slnr = slnr_per_user(channel, [f], [w], power, grouping)
        for i, k in enumerate([0, 1]):
            expected = power[k] * abs(channel[:, k].conj() @ f[:, i]) ** 2
            assert slnr[k] == pytest.approx(expected, rel=1e-12)


class TestJain:
    def test_equal_rates(self):
        assert jain_fairness(np.ones(4)) == pytest.approx(1.0, rel=1e-12)

    def test_single_active_user(self):
        assert jain_fairness(np.array([1.0, 0.0, 0.0, 0.0])) == pytest.approx(0.25, rel=1e-12)

    def test_all_zero_rejected(self):
        with pytest.raises(UndefinedFairnessError):
            jain_fairness(np.zeros(3))

    @pytest.mark.parametrize("seed", range(5))
    def test_range(self, seed):
        rates = np.random.default_rng(seed).uniform(0.0, 5.0, 6)
        value = jain_fairness(rates)
        assert 1.0 / 6.0 - 1e-12 <= value <= 1.0 + 1e-12


class TestEnergyEfficiency:
    def test_partially_connected_arithmetic(self):
        model = PowerModel(connectivity="partially-connected")
        value = energy_efficiency(10.0, 1.0, chain_count=8, antenna_count=64, power_model=model)
        assert value == pytest.approx(10.0 / (1.0 + 0.2 + 2.4 + 2.56), rel=1e-12)
        assert value == pytest.approx(1.6234, abs=1e-4)

    def test_fully_connected_arithmetic(self):
        model = PowerModel(connectivity="fully-connected")
        value = energy_efficiency(10.0, 1.0, chain_count=8, antenna_count=64, power_model=model)
        assert value == pytest.approx(10.0 / (1.0 + 0.2 + 2.4 + 20.48), rel=1e-12)
        assert value == pytest.approx(0.4153, abs=1e-4)

    def test_connectivity_irrelevant_without_shifter_power(self):
        kwargs = dict(p_baseband=0.2, p_rf_chain=0.3, p_phase_shifter=0.0)
        partial = energy_efficiency(5.0, 1.0, 4, 32, PowerModel(**kwargs))
        full = energy_efficiency(
            5.0, 1.0, 4, 32, PowerModel(connectivity="fully-connected", **kwargs)
        )
        assert partial == full

    def test_zero_denominator_rejected(self):
        model = PowerModel(p_baseband=0.0, p_rf_chain=0.0, p_phase_shifter=0.0)
        with pytest.raises(ValueError):
            energy_efficiency(1.0, 0.0, 0, 0, model)

    def test_power_model_validation(self):
        with pytest.raises(ValueError):
            PowerModel(p_baseband=-0.1)
        with pytest.raises(ValueError):
            PowerModel(connectivity="mesh")


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
        assert statistics_feedback_count([corr]) == 1 * (2 * 3 + 1)
        # flat spectrum needs almost every eigenpair
        flat = np.eye(4, dtype=complex)
        assert statistics_feedback_count([flat]) == 4 * (2 * 4 + 1)

    def test_bad_period_rejected(self):
        with pytest.raises(ValueError):
            feedback_overhead(SchemeId.MPHP, 4, 2, 0, [1, 1], 0)


class TestMonteCarlo:
    def test_single_slot_injected_channel_is_exact(self):
        config = SystemConfig(M=8, K=2, L=2, G=2, n_slots=1)
        grouping, scenario, geometry = build_context(config, seed=5)
        fixed = draw_channel(scenario, geometry, seed=123, slot=0)
        run = monte_carlo_rates(
            SchemeId.MPHP, config, 1, seed=5, grouping=grouping, scenario=scenario,
            channel_factory=lambda t: fixed,
        )
        long_state = design_long_term(SchemeId.MPHP, grouping, config)
        precoders = build_precoders(SchemeId.MPHP, long_state, fixed, grouping, config)
        slot = evaluate_slot(fixed, precoders, grouping)
        assert np.array_equal(run.per_user_rate, slot.rate)
        assert np.array_equal(slot.rate, np.log2(1.0 + slot.sinr))
        assert run.n_slots == 1

    def test_deterministic_given_seed(self):
        config = SystemConfig(M=8, K=2, L=2, G=2)
        a = monte_carlo_rates(SchemeId.MPHP, config, 20, seed=3)
        b = monte_carlo_rates(SchemeId.MPHP, config, 20, seed=3)
        assert np.array_equal(a.per_user_rate, b.per_user_rate)
        assert a.sum_rate == b.sum_rate
        assert a.jain_index == b.jain_index
        assert a.energy_efficiency == b.energy_efficiency

    def test_doubling_power_raises_median_rate(self):
        # Full-digital ZF directions are power-independent; the same channel
        # draws are reused, so scaling every p_k can only help each user.
        base = SystemConfig(M=16, K=4, L=4, G=2)
        low = monte_carlo_rates(SchemeId.FULL_DIGITAL_ZF, base, 500, seed=9)
        high_cfg = SystemConfig(M=16, K=4, L=4, G=2, P=2.0)
        high = monte_carlo_rates(SchemeId.FULL_DIGITAL_ZF, high_cfg, 500, seed=9)
        assert np.median(high.per_user_rate) >= np.median(low.per_user_rate)

    def test_stderr_shrinks_like_sqrt_slots(self):
        config = SystemConfig(M=16, K=4, L=4, G=2)
        small = monte_carlo_rates(SchemeId.MPHP, config, 250, seed=4)
        large = monte_carlo_rates(SchemeId.MPHP, config, 1000, seed=4)
        ratio = large.avg_rate_stderr / small.avg_rate_stderr
        assert 0.35 <= ratio <= 0.65

    def test_slnr_sample_mean_respects_statistical_bound(self):
        config = SystemConfig(M=16, K=4, L=4, G=2)
        grouping, scenario, geometry = build_context(config, seed=3)
        long_state = design_long_term(SchemeId.MPHP, grouping, config)
        n = 600
        samples = np.zeros((n, config.K))
        for t in range(n):
            h = draw_channel(scenario, geometry, seed=3, slot=t)
            precoders = build_precoders(SchemeId.MPHP, long_state, h, grouping, config)
            samples[t] = slnr_per_user(h, precoders.f_groups, precoders.w_groups, precoders.power, grouping)
        for g in range(grouping.group_count):
            bound = sslnr(long_state.f[:, grouping.rf_chains[g]], grouping, g, config.K, config.P)
            for k in grouping.members[g]:
                stderr = samples[:, k].std(ddof=1) / np.sqrt(n)
                assert samples[:, k].mean() >= bound - 3 * stderr

    def test_intra_group_leakage_diagnostic_small_under_zf(self):
        config = SystemConfig(M=16, K=4, L=4, G=2)
        grouping, scenario, geometry = build_context(config, seed=3)
        long_state = design_long_term(SchemeId.MPHP, grouping, config)
        h = draw_channel(scenario, geometry, seed=3, slot=0)
        precoders = build_precoders(SchemeId.MPHP, long_state, h, grouping, config)
        slot = evaluate_slot(h, precoders, grouping)
        leak = intra_group_leakage(h, precoders.f_groups, precoders.w_groups, precoders.power, grouping)
        signal = precoders.power * np.array(
            [
                abs(h[:, k].conj() @ (precoders.f_groups[g] @ precoders.w_groups[g])[:, i]) ** 2
                for g in range(grouping.group_count)
                for i, k in enumerate(grouping.members[g])
            ]
        )[np.argsort(np.concatenate(grouping.members))]
        assert np.all(leak <= 1e-16 * np.maximum(signal, 1e-300) + 1e-20)

    def test_bad_slot_count_rejected(self):
        with pytest.raises(ValueError):
            monte_carlo_rates(SchemeId.MPHP, SystemConfig(), 0, seed=1)
