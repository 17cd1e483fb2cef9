import numpy as np
import pytest

from mphp.baselines import SchemeId
from mphp.experiment import (
    CSV_COLUMNS,
    SystemConfig,
    apply_sweep_value,
    parse_config,
    rows_to_csv,
    run_experiment,
    serialize_config,
    write_csv,
)

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
        assert (config.M, config.K, config.L, config.G, config.B) == (64, 8, 8, 3, 4)
        assert config.P == 1.0
        assert config.n_slots == 1000

    def test_k_above_m_rejected_with_field_name(self):
        with pytest.raises(ValueError, match="K"):
            parse_config("K = 12\nM = 8\n")

    def test_l_tracks_k_unless_explicit(self):
        assert parse_config("K = 4\n").L == 4
        with pytest.raises(ValueError, match="L"):
            parse_config("K = 4\nL = 3\n")

    def test_round_trip(self):
        doc = """
        M = 32
        K = 4
        G = 2
        B = 3
        P = 0.5
        n_slots = 17
        seed = 9
        schemes = MPHP, FIXED_SUBARRAY
        scenario.angular_spread = 0.07
        power.p_phase_shifter = 0.05
        sweep.parameter = snr_db
        sweep.values = -10, 0, 10
        """
        config = parse_config(doc)
        assert parse_config(serialize_config(config)) == config
        assert config.schemes == (SchemeId.MPHP, SchemeId.FIXED_SUBARRAY)
        assert config.sweep_values == (-10.0, 0.0, 10.0)

    def test_comments_and_blank_lines_ignored(self):
        config = parse_config("# a comment\n\nM = 16  # trailing\nK = 2\nG = 2\n")
        assert config.M == 16

    def test_unknown_key_named(self):
        with pytest.raises(ValueError, match="mystery"):
            parse_config("mystery = 1\n")

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


class TestSweepValues:
    def test_snr_maps_to_power(self):
        point = apply_sweep_value(SystemConfig(), "snr_db", 10.0)
        assert point.P == pytest.approx(10.0)
        assert apply_sweep_value(SystemConfig(), "snr_db", -10.0).P == pytest.approx(0.1)

    def test_k_sweep_keeps_l_equal(self):
        point = apply_sweep_value(SystemConfig(), "K", 4)
        assert point.K == 4 and point.L == 4

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

    def test_byte_identical_reruns(self):
        config = parse_config(TINY + "sweep.parameter = P\nsweep.values = 0.5, 1\n")
        first = rows_to_csv(run_experiment(config))
        second = rows_to_csv(run_experiment(config))
        assert first == second


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

    @pytest.mark.parametrize(
        "field,value",
        [("G", 0), ("B", 0), ("n_slots", 0), ("T", 0), ("seed", -1), ("objective_exponent", 3)],
    )
    def test_invariants_name_the_field(self, field, value):
        from dataclasses import replace

        config = replace(SystemConfig(), **{field: value})
        with pytest.raises(ValueError, match=field):
            config.validate()
