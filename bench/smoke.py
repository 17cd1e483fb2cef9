"""Smoke test of the benchmark itself, at one slot and a one-second budget.

Run from the repository root, either way:

    python3 bench/smoke.py
    python3 -m pytest -q bench/smoke.py

It checks that every workload emits exactly the metrics BENCHMARK.json
declares, each with its declared unit, that all output checks pass, and that
the benchmark refuses to run where the mphp sources are missing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run_bench(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--slots", "1"],
        cwd=root,
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_every_metric_emitted_with_its_unit() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for workload in spec["workloads"]:
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            proc = run_bench(ROOT, workload["name"], trace)
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == RESULT_KEYS
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stdout
            emitted = {name: metric["unit"] for name, metric in result["metrics"].items()}
            assert emitted == {m["name"]: m["unit"] for m in declared}
            for metric in result["metrics"].values():
                assert isinstance(metric["value"], (int, float)) and not isinstance(metric["value"], bool)


def test_workload_reasons_agree() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    local = json.loads((BENCH_DIR / "workloads.json").read_text(encoding="utf-8"))["workloads"]
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {k: v["why"] for k, v in local.items()}


def test_refuses_without_sources() -> None:
    bare = BENCH_DIR / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(BENCH_DIR, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = run_bench(bare, "sweep_m", 0)
        assert proc.returncode != 0
        assert '"metrics"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    for test in (test_workload_reasons_agree, test_refuses_without_sources, test_every_metric_emitted_with_its_unit):
        test()
        print(f"ok {test.__name__}")
