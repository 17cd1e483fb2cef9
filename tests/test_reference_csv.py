"""The reference CSVs keep their bytes.

Each case runs a benchmark workload config (read from
``bench/workloads.json``, with the benchmark's ``seed = <n>`` line appended),
the ``sweep-snr`` CLI preset at its default 1,000 slots, the ``sweep-m`` and
``fairness`` CLI presets at ``--slots 100``, or one of two M sweeps (one out
of order at zero angular spread, one over several slot blocks), and pins the
sha256 of the CSV text.  A change that is meant to keep the numbers bit for bit must keep these
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
    ("sweep_m", 1): "a15077c1f4a2744348d53adad06ced481a8f80853a3ebae1874d609b29337d09",
    ("sweep_m", 7919): "43a7ea86e9dd0c3a410158f0b8e24260649a93c97314095d666604551e7457b4",
    ("design_m128", 1): "82db456c4e8c2fc2df82d81e3544344d85d9fd7dad098500cb6dc13f5047573e",
    ("design_m128", 7919): "6e86b6a1cdf93d2fabb0614d03f60b5771986bf6c4925126d84991b13534cf3e",
}
SWEEP_SNR_PRESET = "2e16fe35ea374ea19a01a6d9dad2852f881d52b2b1f9c0a337e7f1a0bd3a5373"
PRESETS_AT_100_SLOTS = {
    "sweep-m": "c979d8e7d886f45ccfa77c21f29941566fa9b14d45b14a248020d62c7b8da4a2",
    "fairness": "e0d4eff1142a7929cd8328b692302dde24c689cc770d3e8a99f08fab2efeafac",
}

# Config document -> sha256 of its CSV.
M_SWEEPS = {
    "n_slots = 40\nscenario.angular_spread = 0\nsweep.parameter = M\nsweep.values = 16, 8, 32\nseed = 3\n": (
        "501a51036110d4488ae4e134ea50fde5fa732cd6566abd10a09664ad702495fc"
    ),
    "n_slots = 70\nK = 4\nG = 2\nsweep.parameter = M\nsweep.values = 8, 16, 32\n": (
        "ec1b9f1a00b92fc3970751c5d99871559d7ee63df0701468307b83ad7b77e417"
    ),
}


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
