"""The reference CSVs keep their bytes.

Each case runs a benchmark workload config (read from
``bench/workloads.json``, with the benchmark's ``seed = <n>`` line appended),
the ``sweep-snr`` CLI preset at its default 1,000 slots, the ``sweep-m`` and
``fairness`` CLI presets at ``--slots 100``, one of two M sweeps (one out
of order at zero angular spread, one over several slot blocks), or a B sweep
over 1, 2, 3, 5, 8 and 10 bits at M = 32, and pins the sha256 of the CSV text.  A change that is meant to keep the numbers bit for bit must keep these
hashes; a change that moves them on purpose updates them here and says why.
"""

import hashlib
import json
from pathlib import Path

import pytest

from mphp.cli import main
from mphp.experiment import parse_config, rows_to_csv, run_experiment

WORKLOADS = json.loads((Path(__file__).resolve().parents[1] / "bench" / "workloads.json").read_text())["workloads"]

REFERENCE = {
    ("sweep_m", 1): "1cf13e60291b8b074ff0d7f4fd7e7048cf3f9fc92ea52cc2f3e498bcf710447d",
    ("sweep_m", 7919): "b26400fcaa44873d8a3ac8c5a3e9ec146d43085598945e8a675bd3500a78dcef",
    ("design_m128", 1): "0aeb0542117e48e93ff5f4da25420b023e437e13eabec692a72fdad235a0d594",
    ("design_m128", 7919): "e39a01e97297440df9b2f2a70d837c4e8c5697b839ba608c80f7007867fb1dd2",
}
SWEEP_SNR_PRESET = "23fd3b02d4fdcebcd046c72afc0a7e48f78689b9fb07ecbd02bec5ed5458c1b5"
PRESETS_AT_100_SLOTS = {
    "sweep-m": "38f8c0d64ad8345ec1338b671becb3995e099827f8117fcc12660bfa051939cf",
    "fairness": "55085aa64aac5e120c924a48b8723dabe32c6f0146f09f61f2cdf80daa470c30",
}

# Config document -> sha256 of its CSV.
M_SWEEPS = {
    "n_slots = 40\nscenario.angular_spread = 0\nsweep.parameter = M\nsweep.values = 16, 8, 32\nseed = 3\n": (
        "e1c406bf50436bbeba8f9948201bb6f095b1b68bf731fdb828e22c6479b5b415"
    ),
    "n_slots = 70\nK = 4\nG = 2\nsweep.parameter = M\nsweep.values = 8, 16, 32\n": (
        "7c320fa6a24ba429d5a400ec8d3030675fc75ecee75fc3a81aae6b8953c683e8"
    ),
}
B_SWEEP = "M = 32\nn_slots = 40\nsweep.parameter = B\nsweep.values = 1, 2, 3, 5, 8, 10\n"
B_SWEEP_CSV = "25b72e2dcc1aec1a4f8e43c9f3d56a073c3ed7fef25e3ea66f72d79375f81bdb"


def _sha256(text: str | bytes) -> str:
    return hashlib.sha256(text.encode() if isinstance(text, str) else text).hexdigest()


@pytest.mark.parametrize(("workload", "seed"), list(REFERENCE), ids=[f"{w}-{s}" for w, s in REFERENCE])
def test_workload_csv(workload, seed):
    text = "\n".join([*WORKLOADS[workload]["config"], f"seed = {seed}"]) + "\n"
    assert _sha256(rows_to_csv(run_experiment(parse_config(text)))) == REFERENCE[workload, seed]


def test_sweep_snr_preset_csv(tmp_path, capsys):
    out = tmp_path / "snr.csv"
    assert main(["sweep-snr", "--out", str(out)]) == 0
    assert _sha256(out.read_bytes()) == SWEEP_SNR_PRESET


@pytest.mark.parametrize("verb", list(PRESETS_AT_100_SLOTS))
def test_preset_csv_at_100_slots(verb, tmp_path, capsys):
    out = tmp_path / f"{verb}.csv"
    assert main([verb, "--slots", "100", "--out", str(out)]) == 0
    assert _sha256(out.read_bytes()) == PRESETS_AT_100_SLOTS[verb]


@pytest.mark.parametrize("document", list(M_SWEEPS), ids=["zero-spread-out-of-order", "several-blocks"])
def test_m_sweep_csv(document):
    assert _sha256(rows_to_csv(run_experiment(parse_config(document)))) == M_SWEEPS[document]


def test_b_sweep_csv():
    assert _sha256(rows_to_csv(run_experiment(parse_config(B_SWEEP)))) == B_SWEEP_CSV
