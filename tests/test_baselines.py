import itertools
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest

from mphp.baseband import DegenerateBeamError, effective_channel, zf_precoder
from mphp.baselines import (
    SCHEMES,
    SchemeId,
    _with_power,
    adaptive_instant_precoder,
    build_precoders,
    design_long_term,
    fixed_subarray_map,
    fixed_subarray_precoder,
)
from mphp.channel import draw_channel
from mphp.experiment import SystemConfig, _derived_seeds
from mphp.metrics import build_context
from mphp.numerics import CONDITION_LIMIT, hermitian_eig
from mphp.rf_precoder import (
    RfPrecoder,
    align_column_phase,
    nearest_phase_index,
    phase_grid,
    solve_relaxed,
    validate_rf_precoder,
)

from conftest import LoopPrecoder, count_calls, grouped_context, make_grouping


def two_user_grouping(n_ant):
    corrs = [np.eye(n_ant, dtype=complex)] * 2
    return make_grouping(corrs, [0, 1])


def loop_aligned_quantized_precoder(channel, antenna_to_chain, chain_to_user, bits):
    """Reference: quantize the served user's gain one antenna at a time."""
    antenna_count = channel.shape[0]
    grid = phase_grid(bits)
    f = np.zeros((antenna_count, chain_to_user.size), dtype=complex)
    phase_index = np.zeros(antenna_count, dtype=int)
    for m in range(antenna_count):
        chain = int(antenna_to_chain[m])
        n_star = nearest_phase_index(channel[m, int(chain_to_user[chain])], bits)
        phase_index[m] = n_star
        f[m, chain] = grid[n_star] / np.sqrt(antenna_count)
    return LoopPrecoder(f, antenna_to_chain.copy(), phase_index, bits)


def loop_greedy_instant_map(channel, chain_to_user):
    """Reference: the greedy map with its second pass one antenna at a time."""
    gains = np.abs(channel[:, chain_to_user])
    mapping = np.full(channel.shape[0], -1, dtype=int)
    for chain in range(chain_to_user.size):
        masked = np.where(mapping == -1, gains[:, chain], -1.0)
        mapping[int(np.argmax(masked))] = chain
    for m in range(channel.shape[0]):
        if mapping[m] == -1:
            mapping[m] = int(np.argmax(gains[m]))
    return mapping


def loop_frps(grouping, group_corrs, config):
    """Reference: quantize each entry of each dominant eigenvector of a
    fresh M x M decomposition of each group correlation, at the phase the
    column phase rule fixes, on its own."""
    grid = phase_grid(config.B)
    f = np.zeros((config.M, sum(len(m) for m in grouping.members)), dtype=complex)
    for g in range(grouping.group_count):
        _, vectors = hermitian_eig(group_corrs[g])
        for i, chain in enumerate(grouping.rf_chains[g]):
            column = align_column_phase(vectors[:, i], config.B)
            indices = np.array([nearest_phase_index(v, config.B) for v in column])
            f[:, int(chain)] = grid[indices] / np.sqrt(config.M)
    return f


class TestMatchesPerAntennaLoops:
    """The array quantizers reproduce the per-antenna loops bit for bit."""

    CONFIGS = [
        SystemConfig(M=24, K=4, G=2, B=1),
        SystemConfig(M=64, K=8, G=3, B=4),
        SystemConfig(M=128, K=8, G=3, B=6),
    ]

    @staticmethod
    def assert_same_precoder(rf, reference):
        assert np.array_equal(rf.f, reference.f)
        assert np.array_equal(rf.antenna_to_chain, reference.antenna_to_chain)
        assert np.array_equal(rf.phase_index, reference.phase_index)
        assert rf.phase_index.dtype == reference.phase_index.dtype
        assert rf.bits == reference.bits

    @pytest.mark.parametrize("config", CONFIGS, ids=lambda c: f"M{c.M}B{c.B}")
    @pytest.mark.parametrize("seed", [1, 7919])
    def test_realtime_schemes_on_drawn_channels(self, config, seed):
        grouping, scenario, geometry = build_context(config, seed=seed)
        for slot in range(3):
            channel = draw_channel(scenario, geometry, seed=seed, slot=slot)
            if slot == 2:
                channel[::5] = 0.0  # zero gains quantize to index 0
            for build in (fixed_subarray_precoder, adaptive_instant_precoder):
                rf = build(channel, grouping, config.B)
                reference = loop_aligned_quantized_precoder(
                    channel, rf.antenna_to_chain, grouping.chain_users, config.B
                )
                self.assert_same_precoder(rf, reference)

    @pytest.mark.parametrize("config", CONFIGS, ids=lambda c: f"M{c.M}B{c.B}")
    @pytest.mark.parametrize("seed", [1, 7919])
    def test_realtime_schemes_on_channel_stacks(self, config, seed):
        grouping, scenario, geometry = build_context(config, seed=seed)
        channels = draw_channel(scenario, geometry, seed=seed, slot=range(5))
        channels[2, ::5] = 0.0  # zero gains quantize to index 0
        channels[3] = 1.0  # every gain ties
        for build in (fixed_subarray_precoder, adaptive_instant_precoder):
            stacked = build(channels, grouping, config.B)
            mappings = np.broadcast_to(stacked.antenna_to_chain, stacked.phase_index.shape)
            for t, channel in enumerate(channels):
                single = LoopPrecoder(stacked.f[t], mappings[t], stacked.phase_index[t], config.B)
                self.assert_same_precoder(single, build(channel, grouping, config.B))
        for channel in channels:
            mapping = adaptive_instant_precoder(channel, grouping, config.B).antenna_to_chain
            assert np.array_equal(mapping, loop_greedy_instant_map(channel, grouping.chain_users))

    @pytest.mark.parametrize("config", CONFIGS, ids=lambda c: f"M{c.M}B{c.B}")
    @pytest.mark.parametrize("seed", [1, 7919])
    def test_frps_on_correlations(self, config, seed):
        grouping, group_corrs = grouped_context(config, seed)
        f = design_long_term(SchemeId.FRPS_STATISTICAL, grouping, config)
        assert np.array_equal(f, loop_frps(grouping, group_corrs, config))


class TestFrpsMatchesColumnLoop:
    """FRPS aligns and quantizes every group's columns in one stack; the
    design is the one column at a time loop's (``loop_frps``) bit for bit."""

    @pytest.mark.parametrize("seed", [1, 7919])
    @pytest.mark.parametrize("m_ant", [8, 16, 32, 64, 128])
    def test_pipeline_designs(self, m_ant, seed):
        grouping, group_corrs = grouped_context(SystemConfig(M=m_ant), seed)
        for bits in range(1, 7):
            config = SystemConfig(M=m_ant, B=bits)
            f = design_long_term(SchemeId.FRPS_STATISTICAL, grouping, config)
            assert np.array_equal(f, loop_frps(grouping, group_corrs, config))

    @pytest.mark.parametrize(
        "config",
        [
            SystemConfig(M=8, K=8, G=3, B=1),
            SystemConfig(M=16, K=8, G=8, B=1),
            SystemConfig(M=1, K=1, G=1, B=1),
            SystemConfig(M=32, B=1, angular_spread=0.0),
        ],
        ids=lambda c: f"M{c.M}-K{c.K}-G{c.G}-spread{c.angular_spread}",
    )
    def test_edge_configs(self, config):
        grouping, group_corrs = grouped_context(config, 1)
        f = design_long_term(SchemeId.FRPS_STATISTICAL, grouping, config)
        assert np.array_equal(f, loop_frps(grouping, group_corrs, config))


class TestSchemeTaxonomy:
    def test_statistical_schemes(self):
        assert SCHEMES[SchemeId.MPHP].statistical
        assert SCHEMES[SchemeId.FRPS_STATISTICAL].statistical
        assert not SCHEMES[SchemeId.FULL_DIGITAL_ZF].statistical
        assert not SCHEMES[SchemeId.FIXED_SUBARRAY].statistical
        assert not SCHEMES[SchemeId.ADAPTIVE_INSTANT].statistical

    def test_connectivity(self):
        assert not SCHEMES[SchemeId.MPHP].fully_connected
        assert not SCHEMES[SchemeId.FIXED_SUBARRAY].fully_connected
        assert not SCHEMES[SchemeId.ADAPTIVE_INSTANT].fully_connected
        assert SCHEMES[SchemeId.FRPS_STATISTICAL].fully_connected
        assert SCHEMES[SchemeId.FULL_DIGITAL_ZF].fully_connected

    def test_one_record_per_scheme(self):
        assert list(SCHEMES) == list(SchemeId)

    def test_closed_enumeration(self):
        assert {s.value for s in SchemeId} == {
            "MPHP",
            "FULL_DIGITAL_ZF",
            "FRPS_STATISTICAL",
            "FIXED_SUBARRAY",
            "ADAPTIVE_INSTANT",
        }


def design_bytes(state):
    """The bytes of a long-term state: an ``RfPrecoder``, an array or None."""
    if isinstance(state, RfPrecoder):
        return (state.f.tobytes(), state.antenna_to_chain.tobytes(), state.phase_index.tobytes(), state.bits)
    return None if state is None else (state.dtype, state.shape, state.tobytes())


# A valid value other than the default for every SystemConfig field.
OTHER_VALUES = {
    "M": 24,
    "K": 5,
    "G": 1,
    "B": 2,
    "P": 3.5,
    "n_slots": 7,
    "seed": 99,
    "T": 4,
    "angular_spread": 0.09,
    "path_count": 2,
    "aod_jitter": 0.05,
    "element_spacing": 0.4,
    "p_baseband": 0.7,
    "p_rf_chain": 0.6,
    "p_phase_shifter": 0.09,
    "schemes": (SchemeId.FIXED_SUBARRAY,),
    "sweep_parameter": "P",
    "sweep_values": (2.0, 4.0),
}


class TestDesignReads:
    """A design depends on no config field but those its ``design_reads``
    declares, so the engine may share it between the configs that agree on
    them."""

    def test_every_field_has_another_value(self):
        assert set(OTHER_VALUES) == {f.name for f in fields(SystemConfig)}
        assert all(OTHER_VALUES[name] != getattr(SystemConfig(), name) for name in OTHER_VALUES)

    @pytest.mark.parametrize("scheme", [s for s in SchemeId if SCHEMES[s].statistical], ids=lambda s: s.value)
    @pytest.mark.parametrize("seed", [1, 7919])
    def test_fields_left_out_do_not_move_the_design(self, scheme, seed):
        config = SystemConfig(M=16, K=4, G=2)
        grouping, _, _ = build_context(config, seed=seed)
        design = design_bytes(design_long_term(scheme, grouping, config))
        left_out = [name for name in OTHER_VALUES if name not in SCHEMES[scheme].design_reads]
        for name in left_out:
            # A sweep parameter is valid only together with its values.
            names = ("sweep_parameter", "sweep_values") if name == "sweep_parameter" else (name,)
            changed = replace(config, **{n: OTHER_VALUES[n] for n in names})
            assert design_bytes(design_long_term(scheme, grouping, changed)) == design, name
        everything = replace(config, **{name: OTHER_VALUES[name] for name in left_out})
        assert design_bytes(design_long_term(scheme, grouping, everything)) == design

    @pytest.mark.parametrize("scheme", list(SchemeId), ids=lambda s: s.value)
    def test_design_reads_only_the_declared_fields(self, scheme):
        class Recorder:
            def __init__(self, config):
                self.config, self.read = config, set()

            def __getattr__(self, name):
                self.read.add(name)
                return getattr(self.config, name)

        config = SystemConfig(M=16, K=4, G=2)
        grouping, _, _ = build_context(config, seed=1)
        recorder = Recorder(config)
        design_long_term(scheme, grouping, recorder)
        assert recorder.read <= set(SCHEMES[scheme].design_reads)

    def test_declared_design_fields(self):
        assert set(SCHEMES[SchemeId.FRPS_STATISTICAL].design_reads) == {"B"}
        assert set(SCHEMES[SchemeId.MPHP].design_reads) == {"B", "P"}


class TestSharedRelaxedProblem:
    """``solve_relaxed`` reads its power-independent part from the grouping,
    which decomposes it once."""

    def test_power_sweep_on_one_grouping_equals_fresh_solves(self, monkeypatch):
        # Neither the sweep nor the fresh solves on copies make a QR or an
        # M x M eigensolve: every eigensolve is as wide as the joint basis.
        config = SystemConfig(M=128)
        grouping, _, _ = build_context(config, seed=_derived_seeds(1)[0])
        qr_calls = count_calls(monkeypatch, np.linalg, "qr")
        eig_calls = count_calls(monkeypatch, np.linalg, "eigh")
        powers = [10.0 ** (snr / 10.0) for snr in (-10, -5, 0, 5, 10)]
        shared = [solve_relaxed(grouping, power) for power in powers]
        for power, solution in zip(powers, shared):
            fresh = solve_relaxed(replace(grouping), power)
            assert [a.hex() for a in solution.alpha_star] == [a.hex() for a in fresh.alpha_star]
            assert all(a.tobytes() == b.tobytes() for a, b in zip(solution.f_star, fresh.f_star))
        assert qr_calls == []
        width = grouping.joint.basis.shape[1]
        assert width < config.M
        assert eig_calls and all(matrix.shape == (width, width) for matrix, *_ in eig_calls)
        assert len(set(a for solution in shared for a in solution.alpha_star)) == len(powers) * grouping.group_count

    def test_cached_arrays_are_read_only(self):
        config = SystemConfig(M=16, K=4, G=2)
        grouping, _, _ = build_context(config, seed=1)
        solution = solve_relaxed(grouping, config.P)
        for array in (grouping.joint.basis, *grouping.joint.reduced):
            assert not array.flags.writeable
        assert all(f.flags.writeable for f in solution.f_star)


class TestFixedSubarray:
    def test_mapping_formula(self):
        assert np.array_equal(fixed_subarray_map(4, 2), [0, 0, 1, 1])
        assert np.array_equal(fixed_subarray_map(6, 3), [0, 0, 1, 1, 2, 2])
        assert np.array_equal(fixed_subarray_map(5, 2), [0, 0, 1, 1, 1])

    @pytest.mark.parametrize("seed", range(4))
    def test_structural_invariants(self, seed):
        rng = np.random.default_rng(seed)
        grouping = two_user_grouping(8)
        channel = rng.standard_normal((8, 2)) + 1j * rng.standard_normal((8, 2))
        rf = fixed_subarray_precoder(channel, grouping, bits=3)
        validate_rf_precoder(rf)
        assert np.array_equal(rf.antenna_to_chain, fixed_subarray_map(8, 2))


class TestAdaptiveInstant:
    def test_matches_brute_force_on_dominated_channel(self):
        # user 0 dominates antennas 0 and 2; the greedy map must agree with
        # the exhaustive argmax of the summed selected gains over all valid
        # (non-empty-chain) assignments.
        grouping = two_user_grouping(4)
        channel = np.array(
            [
                [3.0 + 0j, 0.1 + 0j],
                [0.1 + 0j, 2.0 + 0j],
                [3.0 + 0j, 0.1 + 0j],
                [0.1 + 0j, 2.0 + 0j],
            ]
        )
        best_value, best_map = -np.inf, None
        for mapping in itertools.product((0, 1), repeat=4):
            if len(set(mapping)) < 2:
                continue
            value = sum(abs(channel[m, mapping[m]]) for m in range(4))
            if value > best_value:
                best_value, best_map = value, mapping
        assert best_map == (0, 1, 0, 1)

        rf = adaptive_instant_precoder(channel, grouping, bits=2)
        assert tuple(rf.antenna_to_chain) == best_map
        validate_rf_precoder(rf)

    @pytest.mark.parametrize("seed", range(4))
    def test_structural_invariants(self, seed):
        rng = np.random.default_rng(seed)
        grouping = two_user_grouping(7)
        channel = rng.standard_normal((7, 2)) + 1j * rng.standard_normal((7, 2))
        rf = adaptive_instant_precoder(channel, grouping, bits=1)
        validate_rf_precoder(rf)

    def test_every_chain_nonempty_even_when_one_user_dominates(self):
        grouping = two_user_grouping(4)
        channel = np.array(
            [[5.0 + 0j, 4.9 + 0j]] * 4
        )  # user 0 slightly better everywhere
        rf = adaptive_instant_precoder(channel, grouping, bits=1)
        counts = np.bincount(rf.antenna_to_chain, minlength=2)
        assert np.all(counts >= 1)


class TestFullDigital:
    @pytest.mark.parametrize("seed", range(4))
    def test_zero_forcing_nulling(self, seed):
        config = SystemConfig(M=8, K=3, G=2)
        grouping, scenario, geometry = build_context(config, seed=seed)
        channel = draw_channel(scenario, geometry, seed=seed, slot=0)
        precoders = build_precoders(SchemeId.FULL_DIGITAL_ZF, None, channel[None], grouping, config)
        beams = precoders.beams[0]
        for k in range(config.K):
            own = abs(channel[:, k].conj() @ beams[:, k])
            for i in range(config.K):
                if i != k:
                    assert abs(channel[:, k].conj() @ beams[:, i]) <= 1e-8 * own

    def test_uniform_power_split(self):
        config = SystemConfig(M=8, K=3, G=1, P=2.0)
        grouping, scenario, geometry = build_context(config, seed=0)
        channel = draw_channel(scenario, geometry, seed=0, slot=0)
        precoders = build_precoders(SchemeId.FULL_DIGITAL_ZF, None, channel[None], grouping, config)
        assert np.allclose(precoders.power, 2.0 / 3.0)


class TestMixedTimescaleContract:
    def test_statistical_analog_stage_fixed_across_slots(self):
        config = SystemConfig(M=16, K=4, G=2)
        grouping, scenario, geometry = build_context(config, seed=2)
        long_state = design_long_term(SchemeId.MPHP, grouping, config)
        f = long_state.f.copy()
        for t in range(3):
            channel = draw_channel(scenario, geometry, seed=2, slot=[t])
            precoders = build_precoders(SchemeId.MPHP, long_state, channel, grouping, config)
            for chains, members in zip(grouping.rf_chains, grouping.members):
                w = zf_precoder(effective_channel(channel[..., members], f[:, chains]))
                assert np.array_equal(precoders.beams[..., members], f[:, chains] @ w)
        assert np.array_equal(long_state.f, f)

    def test_instantaneous_analog_stage_tracks_channel(self):
        config = SystemConfig(M=16, K=4, G=2)
        grouping, scenario, geometry = build_context(config, seed=2)
        long_state = design_long_term(SchemeId.ADAPTIVE_INSTANT, grouping, config)
        assert long_state is None
        h0 = draw_channel(scenario, geometry, seed=2, slot=[0])
        h1 = draw_channel(scenario, geometry, seed=2, slot=[1])
        f0 = adaptive_instant_precoder(h0, grouping, config.B).f
        f1 = adaptive_instant_precoder(h1, grouping, config.B).f
        assert not np.array_equal(f0, f1)
        beams = build_precoders(SchemeId.ADAPTIVE_INSTANT, None, h1, grouping, config).beams
        for chains, members in zip(grouping.rf_chains, grouping.members):
            w = zf_precoder(effective_channel(h1[..., members], f1[..., chains]))
            assert np.array_equal(beams[..., members], f1[..., chains] @ w)

    def test_frps_columns_are_quantized_phase_only(self):
        config = SystemConfig(M=16, K=4, G=2)
        grouping, _, _ = build_context(config, seed=2)
        f = design_long_term(SchemeId.FRPS_STATISTICAL, grouping, config)
        assert f.shape == (16, 4)
        assert np.allclose(np.abs(f), 1.0 / np.sqrt(16.0))

    def test_mphp_long_term_satisfies_hardware_constraints(self):
        config = SystemConfig(M=16, K=4, G=2)
        grouping, _, _ = build_context(config, seed=2)
        rf = design_long_term(SchemeId.MPHP, grouping, config)
        validate_rf_precoder(rf)


class TestOutagePolicy:
    def test_singular_effective_channel_marks_group_silent(self):
        # Two identical users in one group make the effective channel
        # singular for any analog stage.
        config = SystemConfig(M=4, K=2, G=1)
        corrs = [np.eye(4, dtype=complex)] * 2
        grouping = make_grouping(corrs, [0, 0])
        channel = np.ones((1, 4, 2), dtype=complex)  # one slot, identical columns
        long_state = design_long_term(SchemeId.FRPS_STATISTICAL, grouping, config)
        precoders = build_precoders(SchemeId.FRPS_STATISTICAL, long_state, channel, grouping, config)
        assert precoders.outage_groups == [(0, 0)]
        assert np.array_equal(precoders.beams, np.zeros((1, 4, 2)))
        assert np.array_equal(precoders.power, np.zeros((1, 2)))


def stack_with_outages(config, seed):
    """Five drawn slots of ``build_context``'s scenario at ``seed``, except
    that slot 1 zeroes user 0's column, slot 2 copies one member of the
    largest group onto another (or zeroes it in a singleton group), and
    slot 3 makes the whole channel rank one."""
    grouping, scenario, geometry = build_context(config, seed)
    channels = draw_channel(scenario, geometry, seed=seed, slot=range(5))
    group = grouping.members[int(np.argmax(grouping.sizes))]
    channels[1][:, 0] = 0.0
    channels[2][:, group[-1]] = channels[2][:, group[0]] if len(group) > 1 else 0.0
    channels[3] = channels[3][:, :1] * np.arange(1, config.K + 1)
    return grouping, channels


def analog_stage(scheme, state, channels, grouping, config):
    """The analog matrix a hybrid scheme zero-forces behind, from its public parts."""
    if scheme is SchemeId.MPHP:
        return state.f
    if scheme is SchemeId.FRPS_STATISTICAL:
        return state
    if scheme is SchemeId.FIXED_SUBARRAY:
        return fixed_subarray_precoder(channels, grouping, config.B).f
    return adaptive_instant_precoder(channels, grouping, config.B).f


BEAM_CASES = {
    "defaults": SystemConfig(M=16, K=4, G=2),
    "G = K": SystemConfig(M=16, K=4, G=4),
    "G = 1": SystemConfig(M=32, K=8, G=1),
}
HYBRID = [scheme for scheme in SchemeId if scheme is not SchemeId.FULL_DIGITAL_ZF]


class TestSlotBeams:
    """``SlotPrecoders.beams`` holds each user's beam F_g w_k, zero in outage."""

    @pytest.mark.parametrize("case", sorted(BEAM_CASES))
    @pytest.mark.parametrize("scheme", HYBRID, ids=lambda s: s.value)
    def test_hybrid_beams_are_analog_columns_times_zf(self, case, scheme):
        config = BEAM_CASES[case]
        grouping, channels = stack_with_outages(config, seed=5)
        state = design_long_term(scheme, grouping, config)
        precoders = build_precoders(scheme, state, channels, grouping, config)
        f = analog_stage(scheme, state, channels, grouping, config)
        silent = set()
        for g, (chains, members) in enumerate(zip(grouping.rf_chains, grouping.members)):
            w = zf_precoder(effective_channel(channels[..., members], f[..., chains]))
            assert np.array_equal(precoders.beams[..., members], f[..., chains] @ w)
            silent |= {(t, g) for t in range(len(channels)) if not precoders.beams[t][:, members].any()}
        assert silent and precoders.outage_groups == sorted(silent)
        for t, g in precoders.outage_groups:
            assert not precoders.power[t, grouping.members[g]].any()

    @pytest.mark.parametrize("case", sorted(BEAM_CASES))
    def test_full_digital_beams_are_normalised_zf(self, case):
        config = BEAM_CASES[case]
        grouping, channels = stack_with_outages(config, seed=5)
        precoders = build_precoders(SchemeId.FULL_DIGITAL_ZF, None, channels, grouping, config)
        silent_slots = [t for t in range(len(channels)) if not precoders.beams[t].any()]
        assert silent_slots == [1, 2, 3]
        assert precoders.outage_groups == [(t, g) for t in silent_slots for g in range(grouping.group_count)]
        for t in sorted(set(range(len(channels))) - set(silent_slots)):
            # The pseudo-inverse is an independent ZF oracle; both lose about
            # eps * cond(H), so that bounds the difference.
            zf = np.linalg.pinv(channels[t].conj().T)
            bound = 64 * np.finfo(float).eps * np.linalg.cond(channels[t])
            np.testing.assert_allclose(precoders.beams[t], zf / np.linalg.norm(zf, axis=0), rtol=0, atol=bound)

    def test_full_digital_leakage_is_first_order_in_the_condition(self):
        # G = 1 puts all 8 users on 32 antennas in one cluster, so cond(H) is
        # about 1e5: beams through the normal equations H (H^H H)^-1 leaked
        # about 1e4 * eps * cond(H) here, the SVD's stay near eps * cond(H).
        config = BEAM_CASES["G = 1"]
        grouping, channels = stack_with_outages(config, seed=5)
        precoders = build_precoders(SchemeId.FULL_DIGITAL_ZF, None, channels, grouping, config)
        conds = []
        for t in (0, 4):
            gains = np.abs(channels[t].conj().T @ precoders.beams[t])
            leakage = np.max(gains[~np.eye(config.K, dtype=bool)]) / np.min(np.diag(gains))
            conds.append(np.linalg.cond(channels[t]))
            assert leakage <= 8 * np.finfo(float).eps * conds[-1]
        assert max(conds) > 1e5

    @pytest.mark.parametrize("scheme", list(SchemeId), ids=lambda s: s.value)
    def test_beams_do_not_depend_on_power(self, scheme):
        config = BEAM_CASES["defaults"]
        grouping, channels = stack_with_outages(config, seed=5)
        state = design_long_term(scheme, grouping, config)
        low = build_precoders(scheme, state, channels, grouping, config)
        high = build_precoders(scheme, state, channels, grouping, replace(config, P=10.0))
        assert np.array_equal(low.beams, high.beams)
        assert low.outage_groups == high.outage_groups
        assert not np.array_equal(low.power, high.power)
        np.testing.assert_allclose(high.power, 10.0 * low.power, rtol=1e-14, atol=0)


class TestWithPower:
    """The power step: P / (K ||b_k||^2) for each user of a usable group, 0 in outage."""

    @staticmethod
    def beams_and_grouping(seed):
        config = SystemConfig(M=16, K=5, G=2)
        grouping, _, _ = build_context(config, seed)
        rng = np.random.default_rng(seed)
        beams = rng.standard_normal((4, config.M, config.K)) + 1j * rng.standard_normal((4, config.M, config.K))
        return config, grouping, beams

    def test_usable_groups_share_the_budget(self):
        config, grouping, beams = self.beams_and_grouping(3)
        usable = np.ones((len(beams), grouping.group_count), dtype=bool)
        precoders = _with_power(beams, usable, grouping, replace(config, P=2.5))
        energy = np.sum(np.abs(beams) ** 2, axis=-2)
        np.testing.assert_allclose(precoders.power, 2.5 / (config.K * energy), rtol=1e-14, atol=0)
        assert precoders.outage_groups == []

    def test_outage_users_get_zero_power(self):
        config, grouping, beams = self.beams_and_grouping(4)
        usable = np.ones((len(beams), grouping.group_count), dtype=bool)
        usable[1, 0] = usable[3, 1] = False
        for t, g in ((1, 0), (3, 1)):
            beams[t][:, grouping.members[g]] = 0.0
        precoders = _with_power(beams, usable, grouping, config)
        assert precoders.outage_groups == [(1, 0), (3, 1)]
        for t, g in np.ndindex(usable.shape):
            power = precoders.power[t, grouping.members[g]]
            assert (power > 0).all() if usable[t, g] else not power.any()

    def test_zero_beam_in_a_usable_group_raises(self):
        config, grouping, beams = self.beams_and_grouping(5)
        usable = np.ones((len(beams), grouping.group_count), dtype=bool)
        beams[2][:, grouping.members[1][0]] = 0.0
        with pytest.raises(DegenerateBeamError):
            _with_power(beams, usable, grouping, config)
        usable[2, 1] = False
        beams[2][:, grouping.members[1]] = 0.0
        assert not _with_power(beams, usable, grouping, config).power[2, grouping.members[1]].any()


class TestOneZeroForcingPath:
    """Every scheme zero-forces through ``zf_precoder`` (one SVD per matrix,
    ``numerics.solve_right_inverse``), and ``build_precoders`` sets the
    powers of every scheme's beams in one place."""

    @pytest.mark.parametrize("scheme", list(SchemeId), ids=lambda s: s.value)
    def test_one_zf_call_per_group_or_per_full_digital_build(self, monkeypatch, scheme):
        import mphp.baselines as baselines

        config = BEAM_CASES["defaults"]
        grouping, channels = stack_with_outages(config, seed=5)
        state = design_long_term(scheme, grouping, config)
        calls = count_calls(monkeypatch, baselines, "zf_precoder")
        build_precoders(scheme, state, channels, grouping, config)
        assert len(calls) == (1 if scheme is SchemeId.FULL_DIGITAL_ZF else grouping.group_count)
        assert all(len(args[0]) == len(channels) for args in calls)

    def test_no_builder_solves_or_estimates_a_condition_number(self, monkeypatch):
        config = BEAM_CASES["defaults"]
        grouping, channels = stack_with_outages(config, seed=5)
        states = {scheme: design_long_term(scheme, grouping, config) for scheme in SchemeId}

        def failing(*args, **kwargs):
            raise AssertionError("the zero-forcing path calls np.linalg.solve or np.linalg.cond")

        monkeypatch.setattr(np.linalg, "solve", failing)
        monkeypatch.setattr(np.linalg, "cond", failing)
        for scheme in SchemeId:
            assert build_precoders(scheme, states[scheme], channels, grouping, config).outage_groups

    @pytest.mark.parametrize("case", sorted(BEAM_CASES))
    @pytest.mark.parametrize("scheme", list(SchemeId), ids=lambda s: s.value)
    def test_build_precoders_is_the_scheme_build_then_power(self, case, scheme):
        config = BEAM_CASES[case]
        grouping, channels = stack_with_outages(config, seed=5)
        state = design_long_term(scheme, grouping, config)
        built = build_precoders(scheme, state, channels, grouping, config)
        beams, usable = SCHEMES[scheme].build(state, channels, grouping, config)
        assert usable.shape == (len(channels), grouping.group_count)
        expected = _with_power(beams, usable, grouping, config)
        assert np.array_equal(built.beams, expected.beams)
        assert np.array_equal(built.power, expected.power)
        assert built.outage_groups == expected.outage_groups

    @pytest.mark.parametrize("scheme", list(SchemeId), ids=lambda s: s.value)
    def test_signed_zero_singular_value_is_an_outage(self, monkeypatch, scheme):
        # LAPACK may return an exactly singular matrix's last singular value
        # as -0.0.  A ratio test s[0] / s[-1] <= limit passes -inf, so the
        # pass test must not divide.  Every singular value below the limit's
        # reach is made -0.0 here: the same groups go silent, bit for bit.
        config = BEAM_CASES["defaults"]
        grouping, channels = stack_with_outages(config, seed=5)
        state = design_long_term(scheme, grouping, config)
        clean = build_precoders(scheme, state, channels, grouping, config)
        svd = np.linalg.svd

        def signed_zero(a, **kwargs):
            u, s, vh = svd(a, **kwargs)
            s[..., -1] = np.where(s[..., -1] < s[..., 0] / CONDITION_LIMIT, -0.0, s[..., -1])
            return u, s, vh

        monkeypatch.setattr(np.linalg, "svd", signed_zero)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            precoders = build_precoders(scheme, state, channels, grouping, config)
        assert precoders.outage_groups == clean.outage_groups
        for t, g in precoders.outage_groups:
            assert not precoders.beams[t][:, grouping.members[g]].any()
        assert np.array_equal(precoders.beams, clean.beams)
        assert np.array_equal(precoders.power, clean.power)
        if scheme is SchemeId.FULL_DIGITAL_ZF:
            assert [t for t, g in precoders.outage_groups if g == 0] == [1, 2, 3]
