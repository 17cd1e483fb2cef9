"""Every demo runs to completion against the current API and prints the
same bytes.

Each demo's stdout is pinned by its sha256 (the output is the same at one
and two BLAS threads).  A change that is meant to keep the numbers bit for
bit must keep these digests; a change that moves a demo's output on purpose
updates its digest here and says why.  The full sweeps of demos 05-07 take
a few seconds each.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted(p.name for p in (ROOT / "demos").glob("0[1-7]_*.py"))
STDOUT_SHA256 = {
    "01_channel_statistics.py": "30cebeb1e6ee8df9db02b37d69400cd3cd34bead16c6088dfcae167c50137eba",
    "02_user_grouping.py": "1a1e0fa8159c72ec0f134d590349789359f02ecb1a37be8b61c4d75b8bce70ae",
    "03_rf_precoder_design.py": "bf41059e9bd85cc4853f3439354da7afe100457e38f5f874576005dc377f0146",
    "04_single_slot_pipeline.py": "3e8b372977e3f5e25eed02074082ef973cfbf7898efe19c5fe9e3237c8560116",
    "05_rate_vs_antennas.py": "4e5d34128ea8e419294eaf88674f178dd1f62102ad41daf90b22d094c6777125",
    "06_energy_efficiency.py": "5aa2708550a079a8266d211f8103eded3f5a00063b0eea77a49129e7f1b4cfe9",
    "07_fairness_and_feedback.py": "a1c8e7b5b45007d00d25bd3155238953a9e52b01b3cddc1cd4a709b8438594aa",
}


def test_fast_demos_found():
    assert len(DEMOS) == 7
    assert sorted(STDOUT_SHA256) == DEMOS


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo, tmp_path):
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == STDOUT_SHA256[demo]
