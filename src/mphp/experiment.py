"""Config documents, sweep orchestration and CSV output.

Configs are plain-text ``key = value`` documents (``#`` starts a comment;
scenario and power keys are dotted, e.g. ``scenario.angular_spread``).  A
run evaluates every (sweep value, scheme) cell from two seeds derived from
the config's seed, so each row is a pure function of (point config, seed).
"""

from __future__ import annotations

from dataclasses import fields
from typing import NamedTuple

import numpy as np

from .config import _KEYS, SchemeId, SystemConfig, apply_sweep_value
from .metrics import Context, RunMetrics, SchemeFailure, build_context, context_key, monte_carlo_rates


class ExperimentError(RuntimeError):
    """A sweep point failed; names the failing scheme (or the point's schemes) and the sweep value."""


class ResultRow(NamedTuple):
    """One CSV line: a scheme's ``RunMetrics`` at one sweep value (NaN for a
    single-point run), whose scalar fields are the columns after the first two."""

    sweep_value: float
    scheme: SchemeId
    metrics: RunMetrics


CSV_COLUMNS = ("sweep_value", "scheme", *(f.name for f in fields(RunMetrics) if f.name != "per_user_rate"))

_DEFAULTS = SystemConfig()


def _parse_field(field: str, text: str) -> object:
    default = getattr(_DEFAULTS, field)
    if isinstance(default, tuple):
        item = SchemeId if field == "schemes" else float
        return tuple(item(v.strip()) for v in text.split(",") if v.strip())
    return text if default is None else type(default)(text)


def _format_field(value: object) -> str:
    if isinstance(value, tuple):
        return ", ".join(_format_field(v) for v in value)
    if isinstance(value, SchemeId):
        return value.value
    return value if isinstance(value, str) else repr(value)


def parse_config(text: str) -> SystemConfig:
    """Parse a config document; unset keys take their defaults.

    A key set twice takes its later value.  Raises ValueError with the
    offending key named on any malformed line, unknown key or invariant
    violation.
    """
    values: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        field = _KEYS.get(key)
        try:
            if field is None:
                raise ValueError(f"unknown key {key!r}")
            values[field] = _parse_field(field, value.strip())
        except ValueError as exc:
            raise ValueError(f"line {lineno} ({key}): {exc}") from None
    return SystemConfig(**values)  # type: ignore[arg-type]


def serialize_config(config: SystemConfig) -> str:
    """Emit a document that parses back to an equal config."""
    lines = []
    for key, field in _KEYS.items():
        value = getattr(config, field)
        if value is not None and value != ():
            lines.append(f"{key} = {_format_field(value)}")
    return "\n".join(lines) + "\n"


def _derived_seeds(base_seed: int) -> tuple[int, int]:
    """The scenario seed and the channel-draw seed of a run: two 64-bit
    words of one stream of ``base_seed``.  Two seeds keep the scenario
    stream (scenario seed, 0x5CE) apart from the draw streams (draw seed,
    slot): with one shared seed the scenario stream would be the draw of
    slot 1486."""
    scenario_seed, draw_seed = np.random.SeedSequence(base_seed).generate_state(2, np.uint64)
    return int(scenario_seed), int(draw_seed)


def run_experiment(config: SystemConfig) -> list[ResultRow]:
    """Evaluate every (sweep value, scheme) cell of the config.

    Every point uses the same two seeds, derived from ``config.seed`` alone,
    so a row is a function of (point config, seed): a sweep row equals the
    row of a single-point run at that value.  Points that agree on the
    fields ``metrics.context_key`` names share one context (user AoDs,
    correlations, grouping), built once; statistical schemes design their
    analog stage from the grouping alone.  One engine call then runs every
    point, drawing each block of slots once per set of users and sharing it
    across their arrays and schemes.  A row holds its cell's ``RunMetrics``.
    """
    if config.sweep_parameter is None:
        sweep_values: tuple[float, ...] = (float("nan"),)
        points = [config]
    else:
        sweep_values = config.sweep_values
        points = [
            apply_sweep_value(config, config.sweep_parameter, v) for v in sweep_values
        ]

    schemes = [s for s in SchemeId if s in config.schemes]
    scenario_seed, draw_seed = _derived_seeds(config.seed)
    contexts: dict[tuple, Context] = {}  # context key -> the context of its points
    try:
        for failed, point in enumerate(points):  # a failing build names its point
            if context_key(point) not in contexts:
                contexts[context_key(point)] = build_context(point, scenario_seed)
        failed = 0  # a failing engine call names its own point
        runs = monte_carlo_rates(schemes, points, draw_seed, contexts=[contexts[context_key(point)] for point in points])
    except Exception as exc:
        failed, scheme, cause = (
            (exc.point, exc.scheme, exc.__cause__) if isinstance(exc, SchemeFailure) else (failed, None, exc)
        )
        names = ", ".join(s.value for s in ([scheme] if scheme is not None else schemes))
        raise ExperimentError(f"scheme {names} at sweep value {sweep_values[failed]!r}: {cause}") from cause
    return [
        ResultRow(sweep_value, scheme, metrics)
        for sweep_value, point_runs in zip(sweep_values, runs)
        for scheme, metrics in zip(schemes, point_runs)
    ]


def _format_value(value: object) -> str:
    if isinstance(value, SchemeId):
        return value.value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    v = float(value)
    if np.isnan(v):
        return ""
    return f"{v:.6g}"


def rows_to_csv(rows: list[ResultRow]) -> str:
    """Render rows as CSV text, 6 significant digits for floats."""
    if not rows:
        raise ValueError("no rows to write")
    lines = [",".join(CSV_COLUMNS)]
    for sweep_value, scheme, metrics in rows:
        values = (sweep_value, scheme, *(getattr(metrics, c) for c in CSV_COLUMNS[2:]))
        lines.append(",".join(map(_format_value, values)))
    return "\n".join(lines) + "\n"


def write_csv(rows: list[ResultRow], destination: str) -> None:
    text = rows_to_csv(rows)
    with open(destination, "w", encoding="utf-8") as handle:
        handle.write(text)
