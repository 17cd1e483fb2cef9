import gc
import math
import re
import warnings
import weakref
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mphp.experiment as experiment_mod
import mphp.metrics as metrics_mod
from mphp.baselines import SCHEMES, SchemeId
from mphp.experiment import (
    CSV_COLUMNS,
    ExperimentError,
    SystemConfig,
    apply_sweep_value,
    parse_config,
    rows_to_csv,
    run_experiment,
    serialize_config,
    write_csv,
)

from conftest import CO_LOCATED

TINY = """
M = 8
K = 2
G = 2
n_slots = 5
seed = 3
schemes = MPHP
"""


class TestParseConfig:
    def test_empty_document_gives_reference_defaults(self):
        config = parse_config("")
        assert (config.M, config.K, config.G, config.B) == (64, 8, 3, 4)
        assert config.P == 1.0
        assert config.n_slots == 1000

    def test_k_above_m_rejected_with_field_name(self):
        with pytest.raises(ValueError, match="K"):
            parse_config("K = 12\nM = 8\n")

    def test_round_trip(self):
        doc = """
        M = 32
        K = 4
        G = 2
        B = 3
        P = 0.5
        n_slots = 17
        seed = 9
        T = 7
        schemes = MPHP, FIXED_SUBARRAY
        scenario.angular_spread = 0.07
        scenario.path_count = 4
        scenario.aod_jitter = 0.01
        scenario.element_spacing = 0.45
        power.p_baseband = 0.25
        power.p_rf_chain = 0.35
        power.p_phase_shifter = 0.05
        sweep.parameter = snr_db
        sweep.values = -10, 0, 10
        """
        config = parse_config(doc)
        assert parse_config(serialize_config(config)) == config
        # Every field takes a value other than its default.
        default = SystemConfig()
        assert [f.name for f in fields(config) if getattr(config, f.name) == getattr(default, f.name)] == []
        assert config.schemes == (SchemeId.MPHP, SchemeId.FIXED_SUBARRAY)
        assert config.sweep_values == (-10.0, 0.0, 10.0)

    def test_default_config_round_trips_without_sweep_keys(self):
        text = serialize_config(SystemConfig())
        assert "sweep." not in text
        assert parse_config(text) == SystemConfig()

    def test_values_take_the_type_of_the_field_default(self):
        config = parse_config("P = 2\nscenario.path_count = 3\nscenario.element_spacing = 1\n")
        assert type(config.P) is float and type(config.element_spacing) is float
        assert type(config.path_count) is int
        for line in ("M = 16.5", "scenario.path_count = 2.0", "seed = x"):
            key = line.split(" = ")[0]
            with pytest.raises(ValueError, match=re.escape(f"({key}): ")):
                parse_config(line + "\n")

    def test_comments_and_blank_lines_ignored(self):
        config = parse_config("# a comment\n\nM = 16  # trailing\nK = 2\nG = 2\n")
        assert config.M == 16

    def test_unknown_key_named(self):
        # L (the chain count is always K) and objective_exponent are not keys either.
        for key, value in (("mystery", 1), ("L", 8), ("objective_exponent", 2)):
            with pytest.raises(ValueError, match=f"unknown key '{key}'"):
                parse_config(f"{key} = {value}\n")

    def test_malformed_line_rejected(self):
        with pytest.raises(ValueError, match="key = value"):
            parse_config("M 16\n")

    def test_bad_scheme_named(self):
        with pytest.raises(ValueError, match="schemes"):
            parse_config("schemes = MPHP, NOPE\n")

    def test_sweep_parameter_validated(self):
        with pytest.raises(ValueError, match="sweep.parameter"):
            parse_config("sweep.parameter = Q\nsweep.values = 1\n")

    def test_sweep_values_required(self):
        with pytest.raises(ValueError, match="sweep.values"):
            parse_config("sweep.parameter = M\n")

    @pytest.mark.parametrize(
        "parameter,value", [("M", "inf"), ("M", "nan"), ("P", "inf"), ("snr_db", "-inf"), ("snr_db", "4000")]
    )
    def test_unusable_sweep_values_named(self, parameter, value):
        with pytest.raises(ValueError, match="sweep.values"):
            parse_config(f"sweep.parameter = {parameter}\nsweep.values = 16, {value}\n")

    def test_later_key_overrides_an_earlier_one(self):
        config = parse_config("n_slots = 30\nM = 16\nn_slots = 7\n")
        assert (config.n_slots, config.M) == (7, 16)


class TestSweepValues:
    def test_snr_maps_to_power(self):
        point = apply_sweep_value(SystemConfig(), "snr_db", 10.0)
        assert point.P == pytest.approx(10.0)
        assert apply_sweep_value(SystemConfig(), "snr_db", -10.0).P == pytest.approx(0.1)

    def test_non_integral_count_rejected(self):
        with pytest.raises(ValueError):
            apply_sweep_value(SystemConfig(), "M", 16.5)


class TestRunExperiment:
    def test_sweep_produces_ordered_rows(self):
        config = parse_config(TINY + "sweep.parameter = M\nsweep.values = 8, 16\n")
        rows = run_experiment(config)
        assert [r.sweep_value for r in rows] == [8.0, 16.0]
        assert all(r.scheme is SchemeId.MPHP for r in rows)

    def test_scheme_order_follows_enumeration(self):
        config = parse_config(TINY.replace("schemes = MPHP", "schemes = FIXED_SUBARRAY, MPHP"))
        rows = run_experiment(config)
        assert [r.scheme for r in rows] == [SchemeId.MPHP, SchemeId.FIXED_SUBARRAY]

    def test_single_point_run(self):
        rows = run_experiment(parse_config(TINY))
        assert len(rows) == 1
        assert np.isnan(rows[0].sweep_value)

    def test_single_slot_runs(self):
        rows = run_experiment(parse_config(TINY.replace("n_slots = 5", "n_slots = 1")))
        assert len(rows) == 1

    def test_every_slot_in_outage(self):
        rows = run_experiment(parse_config(CO_LOCATED))
        assert [r.scheme for r in rows] == list(SchemeId)
        for row in rows:
            assert row.metrics.avg_rate_per_user == row.metrics.sum_rate == row.metrics.worst_user_rate == 0.0
            assert math.isnan(row.metrics.jain_index)
            assert row.metrics.outage_fraction == 1.0
        jain = CSV_COLUMNS.index("jain_index")
        assert [line.split(",")[jain] for line in rows_to_csv(rows).splitlines()[1:]] == [""] * len(rows)

    def test_byte_identical_reruns(self):
        config = parse_config(TINY + "sweep.parameter = P\nsweep.values = 0.5, 1\n")
        first = rows_to_csv(run_experiment(config))
        second = rows_to_csv(run_experiment(config))
        assert first == second


@st.composite
def small_configs(draw):
    """A config anywhere in ``SystemConfig``'s box, with M <= 32, K <= 8,
    1-2 slots and P from 1e-3 to 1e8."""
    m_ant = draw(st.integers(1, 32))
    users = draw(st.integers(1, min(m_ant, 8)))
    return SystemConfig(
        M=m_ant,
        K=users,
        G=draw(st.integers(1, users)),
        B=draw(st.integers(1, 10)),
        P=10.0 ** draw(st.floats(-3.0, 8.0)),
        n_slots=draw(st.integers(1, 2)),
        seed=draw(st.integers(0, 2**32 - 1)),
        angular_spread=draw(st.floats(0.0, 2.0)),
        path_count=draw(st.integers(1, 20)),
        aod_jitter=draw(st.floats(0.0, math.pi / 6)),
        element_spacing=draw(st.floats(0.1, 3.7)),
    )


# MPHP's alpha* bracket closes at the rounding floor at 80 dB here; the
# solve returns the bracket end nearer the root instead of stopping the run.
@example(config=SystemConfig(M=4, K=2, G=2, P=1e8, n_slots=2, seed=1, schemes=(SchemeId.MPHP,)))
@settings(max_examples=100, deadline=None)
@given(config=small_configs())
def test_every_in_bounds_config_runs(config):
    # Every cell gives finite numbers or outages: no exception and no
    # RuntimeWarning.  Only all-zero rates (every slot in outage, or a
    # power so low that every rate rounds to zero) leave Jain's index
    # undefined.
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rows = run_experiment(config)
        rows_to_csv(rows)
    assert [row.scheme for row in rows] == [s for s in SchemeId if s in config.schemes]
    for row in rows:
        metrics = row.metrics
        assert 0.0 <= metrics.outage_fraction <= 1.0
        assert np.isfinite(metrics.per_user_rate).all()
        for column in CSV_COLUMNS[2:]:
            if column != "jain_index" or metrics.per_user_rate.any():
                assert math.isfinite(getattr(metrics, column)), (row.scheme, column)


# All five schemes on a small scenario.
SMALL = "M = 8\nK = 2\nG = 2\nn_slots = 5\nseed = 3\n"

# Test id -> (parameter, sweep values) for every parameter that can leave
# the scenario alone (P, snr_db, B, n_slots) or must rebuild it (M, K).  The
# first n_slots case stays inside one SLOT_BLOCK block; the second spans
# three, the last two cut short.
SWEEPS = {
    "P": ("P", "0.5, 2"),
    "snr_db": ("snr_db", "-10, 10"),
    "B": ("B", "1, 3"),
    "n_slots": ("n_slots", "3, 7"),
    "n_slots-across-blocks": ("n_slots", "20, 40, 70"),
    "M": ("M", "8, 16"),
    "K": ("K", "2, 3"),
}


def rows_without_sweep_value(rows):
    """CSV lines of the rows with the sweep_value column cut off."""
    return [line.split(",", 1)[1] for line in rows_to_csv(rows).splitlines()[1:]]


class TestRowContract:
    """A row is a function of (point config, seed) alone."""

    @pytest.mark.parametrize("parameter,values", SWEEPS.values(), ids=SWEEPS.keys())
    def test_sweep_rows_equal_single_point_rows(self, parameter, values):
        config = parse_config(SMALL + f"sweep.parameter = {parameter}\nsweep.values = {values}\n")
        rows = run_experiment(config)
        for value in config.sweep_values:
            point = apply_sweep_value(config, parameter, value)
            swept = [row for row in rows if row.sweep_value == value]
            assert rows_without_sweep_value(swept) == rows_without_sweep_value(run_experiment(point))

    def test_scheme_rows_do_not_depend_on_the_other_schemes(self):
        config = parse_config(SMALL + "sweep.parameter = snr_db\nsweep.values = -10, 10\n")
        rows = run_experiment(config)
        for scheme in SchemeId:
            alone = run_experiment(replace(config, schemes=(scheme,)))
            assert rows_to_csv(alone) == rows_to_csv([row for row in rows if row.scheme is scheme])

    @pytest.mark.parametrize(
        "parameter,values,builds", [("snr_db", "-10, 0, 10", 1), ("M", "8, 16", 2), ("M", "8, 16, 8", 2)]
    )
    def test_one_context_per_distinct_scenario(self, monkeypatch, parameter, values, builds):
        calls = []
        build = experiment_mod.build_context

        def counted(*args, **kwargs):
            calls.append(1)
            return build(*args, **kwargs)

        monkeypatch.setattr(experiment_mod, "build_context", counted)
        run_experiment(parse_config(SMALL + f"sweep.parameter = {parameter}\nsweep.values = {values}\n"))
        assert len(calls) == builds

    def test_one_engine_call_per_run(self, monkeypatch):
        calls = []
        engine = experiment_mod.monte_carlo_rates

        def counted(schemes, configs, *args, **kwargs):
            calls.append((list(schemes), [(config.M, config.K) for config in configs]))
            return engine(schemes, configs, *args, **kwargs)

        monkeypatch.setattr(experiment_mod, "monte_carlo_rates", counted)
        run_experiment(parse_config(SMALL + "sweep.parameter = M\nsweep.values = 8, 16, 8\n"))
        assert calls == [(list(SchemeId), [(8, 2), (16, 2), (8, 2)])]
        calls.clear()
        run_experiment(parse_config(SMALL + "sweep.parameter = snr_db\nsweep.values = -10, 0, 10\n"))
        assert calls == [(list(SchemeId), [(8, 2), (8, 2), (8, 2)])]
        calls.clear()
        run_experiment(parse_config(SMALL + "sweep.parameter = K\nsweep.values = 2, 3, 2\n"))
        assert calls == [(list(SchemeId), [(8, 2), (8, 3), (8, 2)])]

    @pytest.mark.parametrize(
        "parameter,values,n_slots",
        [("P", "0.5, 2", 40), ("snr_db", "-10, 0, 10", 40), ("B", "1, 3", 70), ("n_slots", "20, 40, 70", 5)],
        ids=["P", "snr_db", "B", "n_slots"],
    )
    def test_each_block_drawn_once_per_scenario(self, monkeypatch, parameter, values, n_slots):
        calls = []
        draw = metrics_mod.channel_mod.draw_channel

        def counted(*args, **kwargs):
            calls.append(1)
            return draw(*args, **kwargs)

        monkeypatch.setattr(metrics_mod.channel_mod, "draw_channel", counted)
        config = parse_config(SMALL + f"n_slots = {n_slots}\nsweep.parameter = {parameter}\nsweep.values = {values}\n")
        run_experiment(config)
        most_slots = max(apply_sweep_value(config, parameter, v).n_slots for v in config.sweep_values)
        assert len(calls) == math.ceil(most_slots / metrics_mod.SLOT_BLOCK) > 1

    @pytest.mark.parametrize(
        "parameter,values,draws,builds", [("M", "8, 16, 32", 1, 3), ("K", "2, 3", 2, 2)], ids=["M", "K"]
    )
    def test_paths_drawn_once_per_block_per_user_scenario(self, monkeypatch, parameter, values, draws, builds):
        # M leaves the users alone, so every array size reads the same users and block draws; K changes them.
        # Each context makes its own scenario.
        blocks, scenarios = [], []
        draw, make = metrics_mod.channel_mod.draw_channel, metrics_mod.channel_mod.make_scenario

        def counted(params, geometry, seed, slots):
            blocks.append(list(slots))
            return draw(params, geometry, seed, slots)

        def counted_make(*args, **kwargs):
            scenarios.append(1)
            return make(*args, **kwargs)

        monkeypatch.setattr(metrics_mod.channel_mod, "draw_channel", counted)
        monkeypatch.setattr(metrics_mod.channel_mod, "make_scenario", counted_make)
        config = parse_config(SMALL + f"n_slots = 70\nsweep.parameter = {parameter}\nsweep.values = {values}\n")
        block = metrics_mod.SLOT_BLOCK
        expected = sorted(draws * [list(range(s, min(s + block, 70))) for s in range(0, 70, block)])
        assert len(expected) == draws * math.ceil(70 / block)
        run_experiment(config)
        assert sorted(blocks) == expected
        assert len(scenarios) == builds
        blocks.clear()
        run_experiment(config)
        assert sorted(blocks) == expected  # the second run draws its own: no draw outlives a run

    def test_no_path_draw_outlives_the_next_block(self, monkeypatch):
        refs, alive = [], []
        draw = metrics_mod.channel_mod.draw_channel

        def watched(params, geometry, seed, slots):
            gc.collect()
            alive.append(sum(ref() is not None for ref in refs))
            channels = draw(params, geometry, seed, slots)
            refs.append(weakref.ref(channels))
            return channels

        monkeypatch.setattr(metrics_mod.channel_mod, "draw_channel", watched)
        run_experiment(parse_config(SMALL + "n_slots = 70\nsweep.parameter = M\nsweep.values = 8, 16, 32\n"))
        assert len(alive) == math.ceil(70 / metrics_mod.SLOT_BLOCK) >= 3
        assert max(alive) <= 1

    def test_each_long_term_state_designed_once(self, monkeypatch):
        calls = []
        design = metrics_mod.design_long_term

        def counted(scheme, *args):
            calls.append(scheme)
            return design(scheme, *args)

        monkeypatch.setattr(metrics_mod, "design_long_term", counted)
        run_experiment(parse_config(SMALL + "sweep.parameter = snr_db\nsweep.values = -10, 0, 10\n"))
        # FRPS reads M and B, which the sweep leaves alone; MPHP also reads P.
        assert calls.count(SchemeId.FRPS_STATISTICAL) == 1
        assert calls.count(SchemeId.MPHP) == 3
        assert all(calls.count(scheme) == 1 for scheme in SchemeId if not SCHEMES[scheme].statistical)

    def test_seeds_derive_from_the_config_seed_alone(self):
        scenario_seed, draw_seed = experiment_mod._derived_seeds(3)
        assert scenario_seed != draw_seed
        assert experiment_mod._derived_seeds(3) == (scenario_seed, draw_seed)
        assert experiment_mod._derived_seeds(4) != (scenario_seed, draw_seed)


class TestCsv:
    def test_header_and_row_count(self, tmp_path):
        rows = run_experiment(parse_config(TINY))
        destination = tmp_path / "out.csv"
        write_csv(rows, str(destination))
        lines = destination.read_text().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 2

    def test_column_order_matches_result_row(self):
        assert CSV_COLUMNS[:2] == ("sweep_value", "scheme")
        assert "avg_rate_per_user" in CSV_COLUMNS
        assert "energy_efficiency" in CSV_COLUMNS

    def test_rewrite_is_identical(self, tmp_path):
        rows = run_experiment(parse_config(TINY))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(rows, str(a))
        write_csv(rows, str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_six_significant_digits(self):
        rows = run_experiment(parse_config(TINY))
        text = rows_to_csv(rows)
        value = text.splitlines()[1].split(",")[2]
        assert len(value.replace(".", "").replace("-", "").lstrip("0")) <= 6

    def test_empty_rows_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_csv([], str(tmp_path / "no.csv"))


class TestValidation:
    def test_cell_failures_name_scheme_and_sweep_value(self, monkeypatch):
        import mphp.experiment as experiment_mod
        from mphp.experiment import ExperimentError

        def boom(*args, **kwargs):
            raise ArithmeticError("synthetic failure")

        monkeypatch.setattr(experiment_mod, "monte_carlo_rates", boom)
        config = parse_config(TINY + "sweep.parameter = M\nsweep.values = 8, 16\n")
        with pytest.raises(ExperimentError, match="MPHP at sweep value 8.0"):
            run_experiment(config)

    def test_failing_scheme_named_among_several(self, monkeypatch):
        build = metrics_mod.build_precoders

        def failing(scheme, *args):
            if scheme is SchemeId.FRPS_STATISTICAL:
                raise ArithmeticError("synthetic build failure")
            return build(scheme, *args)

        monkeypatch.setattr(metrics_mod, "build_precoders", failing)
        config = parse_config(
            SMALL + "schemes = MPHP, FRPS_STATISTICAL, FIXED_SUBARRAY\nsweep.parameter = M\nsweep.values = 8, 16\n"
        )
        with pytest.raises(ExperimentError, match="scheme FRPS_STATISTICAL at sweep value 8.0: synthetic") as info:
            run_experiment(config)
        assert isinstance(info.value.__cause__, ArithmeticError)

    def test_failing_design_named(self, monkeypatch):
        design = metrics_mod.design_long_term

        def failing(scheme, *args):
            if scheme is SchemeId.FIXED_SUBARRAY:
                raise ValueError("synthetic design failure")
            return design(scheme, *args)

        monkeypatch.setattr(metrics_mod, "design_long_term", failing)
        config = parse_config(SMALL + "sweep.parameter = P\nsweep.values = 0.5, 2\n")
        with pytest.raises(ExperimentError, match="scheme FIXED_SUBARRAY at sweep value 0.5: synthetic"):
            run_experiment(config)

    def test_context_failure_names_its_sweep_value(self, monkeypatch):
        group = metrics_mod.group_users

        def failing(correlations, *args):
            if correlations[0].shape[0] == 16:
                raise ArithmeticError("synthetic grouping failure")
            return group(correlations, *args)

        monkeypatch.setattr(metrics_mod, "group_users", failing)
        config = parse_config(SMALL + "schemes = MPHP, FIXED_SUBARRAY\nsweep.parameter = M\nsweep.values = 8, 16\n")
        with pytest.raises(ExperimentError, match="scheme MPHP, FIXED_SUBARRAY at sweep value 16.0: synthetic") as info:
            run_experiment(config)
        assert isinstance(info.value.__cause__, ArithmeticError)

    def test_shared_stage_failure_names_every_scheme(self, monkeypatch):
        def failing(*args, **kwargs):
            raise ArithmeticError("synthetic draw failure")

        monkeypatch.setattr(metrics_mod.channel_mod, "draw_channel", failing)
        config = parse_config(SMALL + "schemes = MPHP, FIXED_SUBARRAY\n")
        with pytest.raises(ExperimentError, match="scheme MPHP, FIXED_SUBARRAY at sweep value nan: synthetic"):
            run_experiment(config)

    def test_repeated_scheme_rejected(self):
        with pytest.raises(ValueError, match="schemes must list each scheme once, got MPHP more than once"):
            parse_config("schemes = MPHP, FIXED_SUBARRAY, MPHP\n")
        with pytest.raises(ValueError, match="schemes"):
            replace(SystemConfig(), schemes=(SchemeId.FULL_DIGITAL_ZF,) * 2).validate()

    @pytest.mark.parametrize(
        "field,value",
        [
            ("G", 0),
            ("B", 0),
            ("n_slots", 0),
            ("T", 0),
            ("seed", -1),
            ("p_baseband", -0.1),
            ("P", float("nan")),
            ("P", float("inf")),
            ("angular_spread", float("nan")),
            ("aod_jitter", float("inf")),
            ("element_spacing", float("nan")),
            ("p_baseband", float("nan")),
            ("p_rf_chain", float("inf")),
            ("p_phase_shifter", float("-inf")),
            ("P", 0.0),
        ],
    )
    def test_invariants_name_the_field(self, field, value):
        with pytest.raises(ValueError, match=field):
            replace(SystemConfig(), **{field: value})

    @pytest.mark.parametrize(
        "field,value,message",
        [
            ("M", 0, "M must be >= 1, got 0"),
            ("B", 0, "B must be >= 1, got 0"),
            ("P", 0.0, "P must be > 0, got 0.0"),
            ("n_slots", 0, "n_slots must be >= 1, got 0"),
            ("seed", -1, "seed must be >= 0, got -1"),
            ("T", 0, "T must be >= 1, got 0"),
            ("angular_spread", -0.1, "scenario.angular_spread must be >= 0, got -0.1"),
            ("path_count", 0, "scenario.path_count must be >= 1, got 0"),
            ("aod_jitter", -0.1, "scenario.aod_jitter must be >= 0, got -0.1"),
            ("element_spacing", 0.0, "scenario.element_spacing must be > 0, got 0.0"),
            ("p_baseband", -0.1, "power.p_baseband must be >= 0, got -0.1"),
            ("p_rf_chain", -0.1, "power.p_rf_chain must be >= 0, got -0.1"),
            ("p_phase_shifter", -0.1, "power.p_phase_shifter must be >= 0, got -0.1"),
            ("P", float("nan"), "P must be finite, got nan"),
            ("element_spacing", float("inf"), "scenario.element_spacing must be finite, got inf"),
            ("M", 1025, "M must be <= 1024, got 1025"),
            ("B", 11, "B must be <= 10, got 11"),
            ("n_slots", 1_000_001, "n_slots must be <= 1000000, got 1000001"),
            ("path_count", 101, "scenario.path_count must be <= 100, got 101"),
            ("aod_jitter", 0.53, f"scenario.aod_jitter must be <= {math.pi / 6}, got 0.53"),
        ],
    )
    def test_bound_messages(self, field, value, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SystemConfig(**{field: value})

    def test_bounds_admit_their_least_values(self):
        config = SystemConfig(
            M=1, K=1, G=1, B=1, n_slots=1, seed=0, T=1, angular_spread=0.0, path_count=1, aod_jitter=0.0,
            p_baseband=0.0, p_rf_chain=0.0, p_phase_shifter=0.0,
        )
        assert parse_config(serialize_config(config)) == config

    def test_bounds_admit_their_caps(self):
        config = SystemConfig(M=1024, B=10, n_slots=1_000_000, path_count=100, aod_jitter=math.pi / 6)
        assert parse_config(serialize_config(config)) == config

    @pytest.mark.parametrize(
        "document,message",
        [
            ("M = 100000000000", "M must be <= 1024, got 100000000000"),
            ("B = 64", "B must be <= 10, got 64"),
            ("scenario.path_count = 10000000000", "scenario.path_count must be <= 100, got 10000000000"),
            ("n_slots = 10000000", "n_slots must be <= 1000000, got 10000000"),
            (
                "sweep.parameter = M\nsweep.values = 16, 1e300",
                "sweep.values entry 1e+300: M must be <= 1024, got 1e+300",
            ),
            ("sweep.parameter = B\nsweep.values = 4, 64", "sweep.values entry 64.0: B must be <= 10, got 64.0"),
            ("sweep.parameter = K\nsweep.values = 1e300", "sweep.values entry 1e+300: K must be <= 1024, got 1e+300"),
            ("sweep.parameter = G\nsweep.values = 1e300", "sweep.values entry 1e+300: G must be <= 1024, got 1e+300"),
            (
                "sweep.parameter = n_slots\nsweep.values = 1e7",
                "sweep.values entry 10000000.0: n_slots must be <= 1000000, got 10000000.0",
            ),
        ],
        ids=lambda text: text.partition(", got")[0],  # the document and the bound
    )
    def test_sizes_beyond_their_caps_named(self, document, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            parse_config(document + "\n")

    @pytest.mark.parametrize(("field", "value", "key"), [("P", -1.0, "P"), ("p_rf_chain", -5.0, "power.p_rf_chain")])
    def test_replace_is_checked_before_any_engine_call(self, monkeypatch, field, value, key):
        def engine(*args, **kwargs):
            raise AssertionError("the engine ran on an invalid config")

        valid = SystemConfig(M=16, n_slots=4)
        context = metrics_mod.build_context(valid, 1)
        monkeypatch.setattr(metrics_mod, "design_long_term", engine)
        with pytest.raises(ValueError, match=f"^{re.escape(key)} must be"):
            config = replace(valid, **{field: value})
            metrics_mod.monte_carlo_rates([SchemeId.MPHP], [config], 1, contexts=[context])
