"""Command-line front end.

One verb per reproduction recipe: ``run`` evaluates a config, ``sweep-m``,
``sweep-snr`` and ``fairness`` are presets for the antenna-count, operating-
point and fairness comparisons, ``validate`` checks a config without running
anything, and ``plot-script`` emits a gnuplot script for a produced CSV.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .experiment import (
    CSV_COLUMNS,
    SystemConfig,
    parse_config,
    run_experiment,
    serialize_config,
    write_csv,
)

_PRESET_SWEEPS = {
    "sweep-m": ("M", (16.0, 32.0, 64.0)),
    "sweep-snr": ("snr_db", (-10.0, -5.0, 0.0, 5.0, 10.0)),
    "fairness": (None, ()),
}


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="PATH", help="config document (defaults apply if omitted)")
    parser.add_argument("--out", metavar="PATH", default="results.csv", help="output CSV path")
    parser.add_argument("--seed", metavar="N", type=int, help="override the config seed")
    parser.add_argument("--slots", metavar="N", type=int, help="override the Monte Carlo slot count")


def _load_config(args: argparse.Namespace) -> SystemConfig:
    if args.config is not None:
        with open(args.config, "r", encoding="utf-8") as handle:
            config = parse_config(handle.read())
    else:
        config = SystemConfig()
    overrides = {}
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    if getattr(args, "slots", None) is not None:
        overrides["n_slots"] = args.slots
    return replace(config, **overrides)


def _run_and_write(config: SystemConfig, out: str) -> None:
    rows = run_experiment(config)
    write_csv(rows, out)
    print(f"wrote {len(rows)} rows to {out}")


def _gnuplot_script(csv_path: str, metric: str) -> str:
    column = CSV_COLUMNS.index(metric) + 1
    return "\n".join(
        [
            "set datafile separator ','",
            f"set ylabel '{metric}'",
            "set xlabel 'sweep value'",
            "set key outside",
            "set grid",
            (
                f"plot for [scheme in system(\"tail -n +2 {csv_path} | cut -d, -f2 | sort -u\")] "
                f"'{csv_path}' using 1:(strcol(2) eq scheme ? ${column} : NaN) "
                "with linespoints title scheme"
            ),
        ]
    ) + "\n"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="mphp", description=__doc__)
    sub = parser.add_subparsers(dest="verb", required=True)

    for verb, help_text in [
        ("run", "run the config as-is"),
        ("sweep-m", "antenna-count sweep preset (M = 16, 32, 64)"),
        ("sweep-snr", "operating-point sweep preset (SNR = -10..10 dB)"),
        ("fairness", "single-point fairness comparison preset"),
    ]:
        p = sub.add_parser(verb, help=help_text)
        _add_common(p)

    p_validate = sub.add_parser("validate", help="check a config and exit")
    p_validate.add_argument("--config", metavar="PATH", help="config document to check")

    p_plot = sub.add_parser("plot-script", help="emit a gnuplot script for a results CSV")
    p_plot.add_argument("--csv", metavar="PATH", required=True, help="results CSV to plot")
    p_plot.add_argument("--out", metavar="PATH", default="plot.gp", help="script destination")
    p_plot.add_argument(
        "--metric",
        default="avg_rate_per_user",
        choices=[c for c in CSV_COLUMNS if c not in ("sweep_value", "scheme")],
        help="CSV column to plot against the sweep value",
    )

    args = parser.parse_args(argv)
    try:
        if args.verb == "validate":
            config = _load_config(args)
            print(serialize_config(config), end="")
            print("config OK")
            return 0
        if args.verb == "plot-script":
            script = _gnuplot_script(args.csv, args.metric)
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(script)
            print(f"wrote gnuplot script to {args.out}")
            return 0
        config = _load_config(args)
        if args.verb in _PRESET_SWEEPS:
            parameter, values = _PRESET_SWEEPS[args.verb]
            config = replace(config, sweep_parameter=parameter, sweep_values=values)
        _run_and_write(config, args.out)
        return 0
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
