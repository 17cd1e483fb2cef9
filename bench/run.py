#!/usr/bin/env python3
"""The mphp benchmark: one workload, one seed, one run.

Run from the repository root:

    python3 bench/run.py --workload sweep_m --seed 1 --seconds 25 --trace 0

The workload (``bench/workloads.json``) becomes an mphp config document with
``seed = <--seed>`` appended; mphp sees only that text.  With ``--trace 0``
the run measures, in this order:

* ``setup_s``: median wall time of fresh interpreters that import mphp and
  parse and validate the config;
* ``run_s``: median wall time of ``run_experiment`` plus ``rows_to_csv``,
  repeated until ``--seconds`` is used up, after one warm-up repeat;
* ``peak_rss_mb``: peak resident memory of this process, which imports mphp
  and runs only this workload;
* ``ok_frac``: share of attempted cells that neither raised nor failed an
  output check (``failed_frac`` is printed beside it).

Both times are rescaled to the machine's nominal speed.  Before the first
and after every set-up probe and timed repeat, yardstick passes
(``bench/yardstick.py``, numpy only) run for a share of that step's time;
each step's wall time is multiplied by ``yardstick_nominal_s`` over the
median pass just before and after it, and the metric is the median of the
rescaled steps.  Set-up uses the ``import`` yardstick, the repeats the one
the workload names.  The record keeps the raw wall times and every pass.

With ``--trace 1`` untraced and traced repeats alternate, and the traced ones
give the per-layer metrics (see ``bench/spans.py``).  Every repeat's CSV is
checked row by row and hashed; a repeat whose CSV differs from the first
one's, traced or not, fails all its cells.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A fuller record (machine, CSV
digest, every repeat) goes to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import spans
import yardstick

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
SPEC = json.loads((BENCH_DIR / "workloads.json").read_text(encoding="utf-8"))

# Least timed repeats, and traced pairs, per run, unless the run has used
# twice --seconds (a stalled machine must not push it past its time limit).
MIN_REPEATS = 3
MIN_TRACE_PAIRS = 2
# Yardstick time after each rescaled step, as a share of the step's time.
YARDSTICK_SHARE = 0.4
# CSV floats carry 6 significant digits, so range checks allow that rounding.
CSV_REL_TOL = 1e-5
THREAD_ENV_VARS = (
    "MPHP_THREADS",
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
SETUP_PROBE = (
    "import sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import mphp\n"
    "from mphp.experiment import parse_config\n"
    "parse_config(sys.stdin.read())\n"
)

END_TO_END = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ok_frac": "frac"}

LAYERS = ("channel", "grouping", "rf_precoder", "baselines", "baseband", "metrics", "numerics", "experiment")
# Per-layer metric -> unit.  Every metric whose unit is not a time is exact
# (a count or a ratio of counts) and must repeat between traced repeats.
PER_LAYER = {
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "channel.draw_channel.calls": "count",
    "channel.draw_channel.s": "s",
    "channel.draw_channel.us_per_call": "us",
    "channel.scenario_correlations.s": "s",
    "grouping.group_users.s": "s",
    "grouping.iterations": "count",
    "rf_precoder.solve_relaxed.s": "s",
    "rf_precoder.relaxed_step.calls": "count",
    "rf_precoder.relaxed_step_per_group": "count",
    "rf_precoder.grfp_assign.s": "s",
    "rf_precoder.nearest_phase_index.calls": "count",
    "baselines.design_long_term.self_s": "s",
    "baselines.build_precoders.calls": "count",
    "baselines.build_precoders.self_s": "s",
    "baseband.zf_precoder.calls": "count",
    "baseband.zf_precoder.s": "s",
    "baseband.power_allocation.s": "s",
    "baseband.effective_channel.s": "s",
    "baseband.outage_ratio": "ratio",
    "metrics.evaluate_slot.calls": "count",
    "metrics.evaluate_slot.self_s": "s",
    "metrics.intra_group_leakage.s": "s",
    "numerics.hermitian_eig.calls": "count",
    "numerics.hermitian_eig.s": "s",
    "numerics.solve_right_inverse.calls": "count",
    "experiment.rows_to_csv.s": "s",
    "trace.overhead_s": "s",
}
TIME_UNITS = ("s", "us")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(SPEC["workloads"]))
    parser.add_argument("--seed", type=int, default=SPEC["default_seed"])
    parser.add_argument("--seconds", type=float, default=25.0, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--slots", type=int, help="override n_slots (smoke tests only)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    if args.slots is not None and args.slots < 1:
        parser.error("--slots must be >= 1")
    return args


def config_text(workload: str, seed: int, slots: int | None) -> str:
    lines = list(SPEC["workloads"][workload]["config"])
    if slots is not None:
        lines.append(f"n_slots = {slots}")  # a later key overrides an earlier one
    lines.append(f"seed = {seed}")
    return "\n".join(lines) + "\n"


def time_setup(text: str, env: dict[str, str]) -> float:
    """Wall time for a fresh interpreter to import mphp and parse ``text``."""
    start = time.perf_counter()
    probe = subprocess.run(
        [sys.executable, "-c", SETUP_PROBE, str(SRC)],
        input=text,
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    elapsed = time.perf_counter() - start
    if probe.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {probe.stderr.strip()}")
    return elapsed


@dataclass
class Rescaler:
    """Wall times of timed steps and the yardstick passes around them.

    ``blocks[i]`` holds the passes run just before step ``i``, and
    ``blocks[i + 1]`` those just after it.
    """

    kind: str
    steps: list[float] = field(default_factory=list)
    blocks: list[list[float]] = field(default_factory=list)

    def passes(self, seconds: float) -> None:
        """Run yardstick passes until they add up to ``seconds`` (at least one)."""
        block = [yardstick.measure(self.kind)]
        while sum(block) < seconds:
            block.append(yardstick.measure(self.kind))
        self.blocks.append(block)

    def step(self, wall_s: float) -> None:
        self.steps.append(wall_s)
        self.passes(YARDSTICK_SHARE * wall_s)

    def rescaled(self) -> list[float]:
        nominal = SPEC["yardstick_nominal_s"][self.kind]
        return [
            wall * nominal / statistics.median(before + after)
            for wall, before, after in zip(self.steps, self.blocks, self.blocks[1:])
        ]

    def record(self) -> dict:
        rescaled = self.rescaled()
        return {
            "median": statistics.median(rescaled),
            "rescaled": rescaled,
            "wall": {"repeats": self.steps, **quartiles(self.steps)},
            "yardstick": {"kind": self.kind, "nominal_s": SPEC["yardstick_nominal_s"][self.kind], "blocks": self.blocks},
        }


def row_problems(row: dict[str, str], config, scheme_names: set[str]) -> list[str]:
    """Output checks for one CSV row; an empty list means the row passes."""
    problems = []
    if row["scheme"] not in scheme_names:
        problems.append(f"unexpected scheme {row['scheme']!r}")
    values: dict[str, float] = {}
    for column, raw in row.items():
        if column == "scheme" or (column == "sweep_value" and config.sweep_parameter is None and raw == ""):
            continue
        try:
            value = float(raw)
        except (TypeError, ValueError):
            problems.append(f"{column}={raw!r} is not a number")
            continue
        if not math.isfinite(value):
            problems.append(f"{column}={raw!r} is not finite")
        values[column] = value
    if problems:
        return problems
    for column in ("avg_rate_per_user", "avg_rate_stderr", "sum_rate", "sum_rate_stderr", "worst_user_rate"):
        if values[column] < 0:
            problems.append(f"{column}={values[column]} < 0")
    users = values["sweep_value"] if config.sweep_parameter == "K" else config.K
    if not (1.0 / users) * (1 - CSV_REL_TOL) <= values["jain_index"] <= 1 + CSV_REL_TOL:
        problems.append(f"jain_index={values['jain_index']} outside [1/{users:g}, 1]")
    if not 0.0 <= values["outage_fraction"] <= 1.0:
        problems.append(f"outage_fraction={values['outage_fraction']} outside [0, 1]")
    return problems


@dataclass
class Tally:
    """Attempted and failed cells over a run, plus the reference CSV digest."""

    config: object
    columns: tuple[str, ...]
    cells: int
    attempted: int = 0
    failed: int = 0
    digest: str | None = None
    problems: list[str] = field(default_factory=list)

    def record(self, label: str, text: str | None, error: str | None) -> None:
        self.attempted += self.cells
        if error is not None:
            self.fail(self.cells, f"{label}: {error}")
            return
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            self.fail(self.cells, f"{label}: CSV sha256 {digest} differs from the first repeat's {self.digest}")
            return
        reader = csv.DictReader(io.StringIO(text))
        if tuple(reader.fieldnames or ()) != self.columns:
            self.fail(self.cells, f"{label}: CSV header {reader.fieldnames} is not {list(self.columns)}")
            return
        rows = list(reader)
        bad = abs(len(rows) - self.cells)
        if bad:
            self.problems.append(f"{label}: {len(rows)} rows, expected {self.cells}")
        schemes = {s.value for s in self.config.schemes}
        for index, row in enumerate(rows):
            found = row_problems(row, self.config, schemes)
            if found:
                bad += 1
                self.problems.append(f"{label}: row {index}: " + "; ".join(found))
        self.failed += min(bad, self.cells)

    def fail(self, cells: int, problem: str) -> None:
        self.failed = min(self.attempted, self.failed + cells)
        self.problems.append(problem)


@dataclass
class Observed:
    """Counts read from call results in a traced repeat."""

    grouping_iterations: int = 0
    groups_attempted: int = 0
    outage_groups: int = 0
    invalid_designs: list[str] = field(default_factory=list)


def trace_targets():
    """(module, attribute, span name) for every binding the pipeline calls through."""
    from mphp import baseband, baselines, channel, experiment, grouping, metrics, rf_precoder

    eig = "numerics.hermitian_eig"
    return [
        (experiment, "build_context", "metrics.build_context"),
        (experiment, "monte_carlo_rates", "metrics.monte_carlo_rates"),
        (channel, "make_scenario", "channel.make_scenario"),
        (channel, "scenario_correlations", "channel.scenario_correlations"),
        (channel, "draw_channel", "channel.draw_channel"),
        (channel, "hermitian_eig", eig),
        (metrics, "group_users", "grouping.group_users"),
        (grouping, "hermitian_eig", eig),
        (metrics, "design_long_term", "baselines.design_long_term"),
        (metrics, "build_precoders", "baselines.build_precoders"),
        (baselines, "solve_relaxed", "rf_precoder.solve_relaxed"),
        (baselines, "grfp_assign", "rf_precoder.grfp_assign"),
        (baselines, "nearest_phase_index", "rf_precoder.nearest_phase_index"),
        (baselines, "hermitian_eig", eig),
        (baselines, "effective_channel", "baseband.effective_channel"),
        (baselines, "zf_precoder", "baseband.zf_precoder"),
        (baselines, "power_allocation", "baseband.power_allocation"),
        (rf_precoder, "solve_alpha_star", "rf_precoder.solve_alpha_star"),
        (rf_precoder, "relaxed_step", "rf_precoder.relaxed_step"),
        (rf_precoder, "nearest_phase_index", "rf_precoder.nearest_phase_index"),
        (rf_precoder, "hermitian_eig", eig),
        (baseband, "solve_right_inverse", "numerics.solve_right_inverse"),
        (metrics, "evaluate_slot", "metrics.evaluate_slot"),
        (metrics, "sinr_per_user", "metrics.sinr_per_user"),
        (metrics, "intra_group_leakage", "metrics.intra_group_leakage"),
        (metrics, "hermitian_eig", eig),
    ]


def observers(seen: Observed):
    from mphp.baselines import SchemeId
    from mphp.rf_precoder import validate_rf_precoder

    def grouped(args, kwargs, grouping):
        seen.grouping_iterations += len(grouping.cost_history)

    def designed(args, kwargs, state):
        if args[0] is SchemeId.MPHP:
            try:
                validate_rf_precoder(state)
            except ValueError as exc:
                seen.invalid_designs.append(str(exc))

    def built(args, kwargs, precoders):
        seen.groups_attempted += args[3].group_count
        seen.outage_groups += len(precoders.outage_groups)

    return {
        "grouping.group_users": grouped,
        "baselines.design_long_term": designed,
        "baselines.build_precoders": built,
    }


def layer_metrics(table: dict[str, dict[str, float]], seen: Observed) -> dict[str, float]:
    """Per-layer metrics of one traced repeat (``trace.overhead_s`` excluded).

    A metric named ``<layer>.<function>.<calls|s|self_s>`` is read straight
    from the span table; the others are derived below.
    """

    def get(name: str, key: str) -> float:
        return table.get(name, {}).get(key, 0)

    draws = get("channel.draw_channel", "calls")
    designs = get("rf_precoder.solve_alpha_star", "calls")
    out = {
        "channel.draw_channel.us_per_call": 1e6 * get("channel.draw_channel", "s") / draws if draws else 0.0,
        "grouping.iterations": seen.grouping_iterations,
        "rf_precoder.relaxed_step_per_group": get("rf_precoder.relaxed_step", "calls") / designs if designs else 0.0,
        "baseband.outage_ratio": seen.outage_groups / seen.groups_attempted if seen.groups_attempted else 0.0,
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(v["self_s"] for k, v in table.items() if k.split(".")[0] == layer)
    for name in PER_LAYER:
        span, _, key = name.rpartition(".")
        if name not in out and span.count(".") == 1 and key in ("calls", "s", "self_s"):
            out[name] = get(span, key)
    return out


def git_revision() -> str | None:
    """HEAD's commit read from ``.git`` at the repository root, if there is one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine_record(thread_env: dict[str, str | None]) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "thread_env": thread_env,
        "git_revision": git_revision(),
    }


def quartiles(values: list[float]) -> dict[str, float]:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "mphp" / "__init__.py").is_file():
        print(f"error: no mphp package under {SRC}", file=sys.stderr)
        return 2
    text = config_text(args.workload, args.seed, args.slots)
    thread_env = {name: os.environ.get(name) for name in THREAD_ENV_VARS}
    os.environ.pop("MPHP_THREADS", None)  # the benchmark measures the serial path

    setup = Rescaler("import")
    if args.trace == 0:
        setup.passes(0.0)
        for _ in range(SPEC["setup_repeats"]):
            setup.step(time_setup(text, dict(os.environ)))

    sys.path.insert(0, str(SRC))
    from mphp.experiment import CSV_COLUMNS, ExperimentError, parse_config, rows_to_csv, run_experiment

    config = parse_config(text)
    cells = len(config.sweep_values or (None,)) * len(config.schemes)
    tally = Tally(config=config, columns=CSV_COLUMNS, cells=cells)

    def repeat(label: str, tracer: spans.Tracer | None = None) -> float:
        start = time.perf_counter()
        csv_text, error = None, None
        try:
            if tracer is None:
                csv_text = rows_to_csv(run_experiment(config))
            else:
                rows = tracer.span("experiment.run_experiment", run_experiment, config)
                csv_text = tracer.span("experiment.rows_to_csv", rows_to_csv, rows)
        except ExperimentError as exc:
            error = str(exc)
        elapsed = time.perf_counter() - start
        tally.record(label, csv_text, error)
        return elapsed

    warmup_s = repeat("warm-up")
    deadline = time.perf_counter() + args.seconds
    hard_stop = deadline + args.seconds
    run_times: list[float] = []
    timed = Rescaler(SPEC["workloads"][args.workload]["yardstick"])
    traced_times: list[float] = []
    layer_runs: list[dict[str, float]] = []
    span_tables: list[dict] = []
    if args.trace == 0:
        timed.passes(YARDSTICK_SHARE * warmup_s)
        while True:
            run_times.append(repeat(f"repeat {len(run_times)}"))
            timed.step(run_times[-1])
            now = time.perf_counter()
            # Stop where the run ends nearest the deadline: once one more step
            # would overshoot it by more than half a step.
            step = (1 + YARDSTICK_SHARE) * statistics.median(run_times)
            if now > hard_stop or (len(run_times) >= MIN_REPEATS and deadline - now < step / 2):
                break
    else:
        while True:
            run_times.append(repeat(f"untraced repeat {len(run_times)}"))
            seen = Observed()
            with spans.Tracer(trace_targets(), observers(seen)) as tracer:
                traced_times.append(repeat(f"traced repeat {len(traced_times)}", tracer))
            table = spans.summary(tracer.spans)
            span_tables.append(table)
            layer_runs.append(layer_metrics(table, seen))
            for problem in seen.invalid_designs:
                tally.fail(1, f"traced repeat {len(traced_times) - 1}: MPHP design invalid: {problem}")
            now = time.perf_counter()
            pair = run_times[-1] + traced_times[-1]
            if now > hard_stop or (len(traced_times) >= MIN_TRACE_PAIRS and deadline - now < pair):
                break

    if args.trace == 0:
        values = {
            "run_s": statistics.median(timed.rescaled()),
            "setup_s": statistics.median(setup.rescaled()),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_frac": 1.0 - tally.failed / tally.attempted,
        }
        units = END_TO_END
    else:
        values = {}
        for name, unit in PER_LAYER.items():
            if name == "trace.overhead_s":
                values[name] = statistics.median(traced_times) - statistics.median(run_times)
            elif unit in TIME_UNITS:
                values[name] = statistics.median(run[name] for run in layer_runs)
            else:
                seen_values = {run[name] for run in layer_runs}
                if len(seen_values) > 1:
                    tally.fail(cells, f"{name} differs between traced repeats: {sorted(seen_values)}")
                values[name] = layer_runs[0][name]
        units = PER_LAYER

    failed_frac = tally.failed / tally.attempted
    record = {
        "workload": args.workload,
        "why": SPEC["workloads"][args.workload]["why"],
        "seed": args.seed,
        "held_out_seed": args.seed == SPEC["held_out_seed"],
        "trace": args.trace,
        "seconds": args.seconds,
        "slots_override": args.slots,
        "config": text,
        "machine": machine_record(thread_env),
        "csv_sha256": tally.digest,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failed_frac": failed_frac,
        "problems": tally.problems,
        "warmup_s": warmup_s,
        "run_wall_s": {"repeats": run_times, **quartiles(run_times)},
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    if args.trace == 0:
        record["run_s"] = timed.record()
        record["setup_s"] = setup.record()
    else:
        record["traced_run_wall_s"] = {"repeats": traced_times, **quartiles(traced_times)}
        record["spans"] = span_tables
    OUT_DIR.mkdir(exist_ok=True)
    out_path = OUT_DIR / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"workload {args.workload}, seed {args.seed}, csv sha256 {tally.digest}")
    spread = record["run_wall_s"]
    print(
        f"wall time over {len(run_times)} repeats: median {spread['median']:.4f} s, "
        f"quartiles {spread['q1']:.4f}..{spread['q3']:.4f} s"
    )
    if args.trace == 0:
        for name, rescaler in (("run_s", timed), ("setup_s", setup)):
            passes = [t for block in rescaler.blocks for t in block]
            print(f"{name}: {rescaler.kind} yardstick, {len(passes)} passes, median {statistics.median(passes):.4f} s")
    for name in units:
        print(f"{name} = {values[name]!r} {units[name]}")
    print(f"failed_frac = {failed_frac!r} frac ({tally.failed} of {tally.attempted} cells)")
    for problem in tally.problems[:10]:
        print(f"problem: {problem}")
    print(f"record: {out_path.relative_to(ROOT)}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": record["metrics"],
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
