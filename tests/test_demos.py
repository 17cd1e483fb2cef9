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
    "01_channel_statistics.py": "98772203e9d7d217f6abd0ace67fbecb71877cb33da85d322a719578a20477ce",
    "02_user_grouping.py": "1a1e0fa8159c72ec0f134d590349789359f02ecb1a37be8b61c4d75b8bce70ae",
    "03_rf_precoder_design.py": "bf41059e9bd85cc4853f3439354da7afe100457e38f5f874576005dc377f0146",
    "04_single_slot_pipeline.py": "021d2bfae85f0b21a61def6e3f972a66a727d146b908b2493dfbbe5a04f244f9",
    "05_rate_vs_antennas.py": "eb0b5677ba0a4ed7dc1a9076e4ded464801dede6ed932beec94b2850c29b06e8",
    "06_energy_efficiency.py": "ad4b8427e84add09c8b4ddf1a3133307455b93b25fe2ce4c06d099f30e7dc113",
    "07_fairness_and_feedback.py": "ba596c79871543e6d00ba9011c329daa8db1d33ff5a5a9a6181735b447f3b9a1",
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
