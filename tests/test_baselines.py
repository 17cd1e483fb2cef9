import itertools

import numpy as np
import pytest

from mphp.baselines import (
    SCHEMES,
    SchemeId,
    adaptive_instant_precoder,
    build_precoders,
    design_long_term,
    fixed_subarray_map,
    fixed_subarray_precoder,
)
from mphp.channel import draw_channel
from mphp.experiment import SystemConfig
from mphp.metrics import build_context
from mphp.rf_precoder import validate_rf_precoder

from conftest import make_grouping


def two_user_grouping(n_ant):
    corrs = [np.eye(n_ant, dtype=complex)] * 2
    return make_grouping(corrs, [0, 1])


class TestSchemeTaxonomy:
    def test_statistical_schemes(self):
        assert SCHEMES[SchemeId.MPHP].statistical
        assert SCHEMES[SchemeId.FRPS_STATISTICAL].statistical
        assert not SCHEMES[SchemeId.FULL_DIGITAL_ZF].statistical
        assert not SCHEMES[SchemeId.FIXED_SUBARRAY].statistical
        assert not SCHEMES[SchemeId.ADAPTIVE_INSTANT].statistical

    def test_connectivity(self):
        assert SCHEMES[SchemeId.MPHP].connectivity == "partially-connected"
        assert SCHEMES[SchemeId.FIXED_SUBARRAY].connectivity == "partially-connected"
        assert SCHEMES[SchemeId.ADAPTIVE_INSTANT].connectivity == "partially-connected"
        assert SCHEMES[SchemeId.FRPS_STATISTICAL].connectivity == "fully-connected"
        assert SCHEMES[SchemeId.FULL_DIGITAL_ZF].connectivity == "fully-connected"

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
        config = SystemConfig(M=8, K=3, L=3, G=2)
        grouping, scenario, geometry = build_context(config, seed=seed)
        channel = draw_channel(scenario, geometry, seed=seed, slot=0)
        precoders = build_precoders(SchemeId.FULL_DIGITAL_ZF, None, channel, grouping, config)
        beams = np.concatenate(
            [precoders.f_groups[g] @ precoders.w_groups[g] for g in range(grouping.group_count)],
            axis=1,
        )
        order = np.concatenate(grouping.members)
        for a, k in enumerate(order):
            own = abs(channel[:, k].conj() @ beams[:, a])
            for b, i in enumerate(order):
                if i != k:
                    assert abs(channel[:, k].conj() @ beams[:, b]) <= 1e-8 * own

    def test_uniform_power_split(self):
        config = SystemConfig(M=8, K=3, L=3, G=1, P=2.0)
        grouping, scenario, geometry = build_context(config, seed=0)
        channel = draw_channel(scenario, geometry, seed=0, slot=0)
        precoders = build_precoders(SchemeId.FULL_DIGITAL_ZF, None, channel, grouping, config)
        assert np.allclose(precoders.power, 2.0 / 3.0)


class TestMixedTimescaleContract:
    def test_statistical_analog_stage_fixed_across_slots(self):
        config = SystemConfig(M=16, K=4, L=4, G=2)
        grouping, scenario, geometry = build_context(config, seed=2)
        long_state = design_long_term(SchemeId.MPHP, grouping, config)
        f_per_slot = []
        for t in range(3):
            channel = draw_channel(scenario, geometry, seed=2, slot=t)
            precoders = build_precoders(SchemeId.MPHP, long_state, channel, grouping, config)
            f_per_slot.append(np.concatenate([f.ravel() for f in precoders.f_groups]))
        assert np.array_equal(f_per_slot[0], f_per_slot[1])
        assert np.array_equal(f_per_slot[1], f_per_slot[2])

    def test_instantaneous_analog_stage_tracks_channel(self):
        config = SystemConfig(M=16, K=4, L=4, G=2)
        grouping, scenario, geometry = build_context(config, seed=2)
        long_state = design_long_term(SchemeId.ADAPTIVE_INSTANT, grouping, config)
        assert long_state is None
        h0 = draw_channel(scenario, geometry, seed=2, slot=0)
        h1 = draw_channel(scenario, geometry, seed=2, slot=1)
        f0 = build_precoders(SchemeId.ADAPTIVE_INSTANT, None, h0, grouping, config).f_groups
        f1 = build_precoders(SchemeId.ADAPTIVE_INSTANT, None, h1, grouping, config).f_groups
        assert not all(np.array_equal(a, b) for a, b in zip(f0, f1))

    def test_frps_columns_are_quantized_phase_only(self):
        config = SystemConfig(M=16, K=4, L=4, G=2)
        grouping, _, _ = build_context(config, seed=2)
        f = design_long_term(SchemeId.FRPS_STATISTICAL, grouping, config)
        assert f.shape == (16, 4)
        assert np.allclose(np.abs(f), 1.0 / np.sqrt(16.0))

    def test_mphp_long_term_satisfies_hardware_constraints(self):
        config = SystemConfig(M=16, K=4, L=4, G=2)
        grouping, _, _ = build_context(config, seed=2)
        rf = design_long_term(SchemeId.MPHP, grouping, config)
        validate_rf_precoder(rf)


class TestOutagePolicy:
    def test_singular_effective_channel_marks_group_silent(self):
        # Two identical users in one group make the effective channel
        # singular for any analog stage.
        config = SystemConfig(M=4, K=2, L=2, G=1)
        corrs = [np.eye(4, dtype=complex)] * 2
        grouping = make_grouping(corrs, [0, 0])
        channel = np.ones((4, 2), dtype=complex)  # identical columns
        long_state = design_long_term(SchemeId.FRPS_STATISTICAL, grouping, config)
        precoders = build_precoders(SchemeId.FRPS_STATISTICAL, long_state, channel, grouping, config)
        assert precoders.outage_groups == [0]
        assert precoders.w_groups[0] is None
        assert np.array_equal(precoders.power, np.zeros(2))
