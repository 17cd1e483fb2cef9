import csv
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from mphp.cli import main
from mphp.experiment import CSV_COLUMNS

from conftest import CO_LOCATED

TINY = "M = 8\nK = 2\nG = 2\nn_slots = 4\nseed = 3\nschemes = MPHP\n"


@pytest.fixture
def tiny_config(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY)
    return str(path)


class TestValidateVerb:
    def test_valid_config(self, tiny_config, capsys):
        assert main(["validate", "--config", tiny_config]) == 0
        assert "config OK" in capsys.readouterr().out

    def test_invalid_config(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("K = 12\nM = 8\n")
        assert main(["validate", "--config", str(bad)]) == 1
        assert "K" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        assert main(["validate", "--config", str(tmp_path / "absent.cfg")]) == 1
        assert "error" in capsys.readouterr().err

    def test_infinite_sweep_value_named(self, tmp_path, capsys):
        bad = tmp_path / "inf.cfg"
        bad.write_text("sweep.parameter = M\nsweep.values = inf\n")
        assert main(["validate", "--config", str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "sweep.values" in err


class TestRunVerb:
    def test_run_writes_csv(self, tiny_config, tmp_path):
        out = tmp_path / "rows.csv"
        assert main(["run", "--config", tiny_config, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 2

    def test_run_is_deterministic(self, tiny_config, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["run", "--config", tiny_config, "--out", str(a)])
        main(["run", "--config", tiny_config, "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_every_slot_in_outage(self, tmp_path):
        config, out = tmp_path / "co_located.cfg", tmp_path / "rows.csv"
        config.write_text(CO_LOCATED)
        assert main(["run", "--config", str(config), "--out", str(out)]) == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert len(rows) == 5
        for row in rows:
            assert (row["sum_rate"], row["jain_index"], row["outage_fraction"]) == ("0", "", "1")

    def test_slot_and_seed_overrides(self, tiny_config, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["run", "--config", tiny_config, "--out", str(a), "--slots", "2"])
        main(["run", "--config", tiny_config, "--out", str(b), "--slots", "2", "--seed", "7"])
        assert a.read_bytes() != b.read_bytes()


class TestPresets:
    def test_sweep_m_produces_three_rows(self, tiny_config, tmp_path):
        out = tmp_path / "m.csv"
        assert main(["sweep-m", "--config", tiny_config, "--out", str(out), "--slots", "2"]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 4  # header + M in {16, 32, 64}
        assert [row.split(",")[0] for row in lines[1:]] == ["16", "32", "64"]

    def test_fairness_preset_single_point(self, tiny_config, tmp_path):
        out = tmp_path / "fair.csv"
        assert main(["fairness", "--config", tiny_config, "--out", str(out), "--slots", "2"]) == 0
        assert len(out.read_text().splitlines()) == 2

    def test_sweep_snr_rows(self, tiny_config, tmp_path):
        out = tmp_path / "snr.csv"
        assert main(["sweep-snr", "--config", tiny_config, "--out", str(out), "--slots", "2"]) == 0
        lines = out.read_text().splitlines()
        assert [row.split(",")[0] for row in lines[1:]] == ["-10", "-5", "0", "5", "10"]


class TestPlotScript:
    def test_emits_gnuplot_script(self, tiny_config, tmp_path):
        csv = tmp_path / "rows.csv"
        main(["run", "--config", tiny_config, "--out", str(csv)])
        script = tmp_path / "plot.gp"
        code = main(["plot-script", "--csv", str(csv), "--out", str(script), "--metric", "sum_rate"])
        assert code == 0
        text = script.read_text()
        assert "sum_rate" in text and str(csv) in text

    def test_path_with_space_and_quote(self, tmp_path):
        csv_path = tmp_path / "it's my results.csv"
        csv_path.write_text("sweep_value,scheme\n1,MPHP\n1,FRPS_STATISTICAL\n2,MPHP\n")
        script = tmp_path / "plot.gp"
        assert main(["plot-script", "--csv", str(csv_path), "--out", str(script)]) == 0
        text = script.read_text()
        # gnuplot reads \x in a "..." string as x, and '' in a '...' string as '.
        quoted = re.search(r'system\("((?:[^"\\]|\\.)*)"\)', text).group(1)
        command = re.sub(r"\\(.)", r"\1", quoted)
        listed = subprocess.run(["sh", "-c", command], capture_output=True, text=True, check=True).stdout
        assert listed.split() == ["FRPS_STATISTICAL", "MPHP"]
        data = re.search(r"\] '((?:[^']|'')*)' using", text).group(1)
        assert data.replace("''", "'") == str(csv_path)

    def test_unknown_metric_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["plot-script", "--csv", "x.csv", "--metric", "nope"])


def test_unknown_verb_exits():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def csv_under_blas_threads(tmp_path, args):
    """CSV text of ``mphp <args> --out <file>`` run in a child process with
    OPENBLAS_NUM_THREADS=1 and with =2, set in the child's environment only."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    paths = [src, os.environ.get("PYTHONPATH")]
    texts = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}.csv"
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads}
        env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
        proc = subprocess.run(
            [sys.executable, "-m", "mphp.cli", *args, "--out", str(out)],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        texts.append(out.read_text())
    return texts


@pytest.mark.parametrize("preset", ["sweep-m", "sweep-snr"])
def test_preset_independent_of_blas_threads(tmp_path, preset):
    # The per-slot path (every scheme at M = 16, 32, 64) and the scenario
    # shared across SNR points (M = 64) must not depend on the BLAS thread
    # count.
    texts = csv_under_blas_threads(tmp_path, [preset, "--slots", "5"])
    assert texts[0] == texts[1]


def test_m128_mphp_design_independent_of_blas_threads(tmp_path):
    # At M = 128 the relaxed MPHP columns hold mirror-pair magnitude ties
    # that differ between thread counts in the last bits; GRFP must rank
    # them by its tie rule, not by those bits.
    config = tmp_path / "m128.cfg"
    config.write_text("M = 128\nn_slots = 2\nschemes = MPHP\nseed = 1\n")
    texts = csv_under_blas_threads(tmp_path, ["run", "--config", str(config)])
    assert texts[0] == texts[1]


def test_m128_zero_spread_grouping_independent_of_blas_threads(tmp_path):
    # At zero angular spread every user correlation is rank one, so the
    # grouping must read only its signal directions, never a null-space
    # basis that the eigensolver picks.
    config = tmp_path / "m128_zero_spread.cfg"
    config.write_text("M = 128\nn_slots = 2\nscenario.angular_spread = 0\nseed = 1\n")
    texts = csv_under_blas_threads(tmp_path, ["run", "--config", str(config)])
    assert texts[0] == texts[1]


def test_experiment_imports_no_scipy(tmp_path):
    # pyproject.toml declares numpy alone, so a run must not import scipy,
    # even where it is installed.
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in [src, os.environ.get("PYTHONPATH")] if p)}
    script = (
        "import sys\n"
        "from mphp.experiment import parse_config, rows_to_csv, run_experiment\n"
        f"rows_to_csv(run_experiment(parse_config({TINY!r})))\n"
        "print(sorted(name for name in sys.modules if name.partition('.')[0] == 'scipy'))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
