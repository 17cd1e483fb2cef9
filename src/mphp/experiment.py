"""Experiment configuration, sweep orchestration and CSV output.

Configs are plain-text ``key = value`` documents (``#`` starts a comment;
scenario and power keys are dotted, e.g. ``scenario.angular_spread``).  A
run evaluates every (sweep value, scheme) cell with derived seeds, so the
output is a pure function of (config, seed) regardless of execution order.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np

from .baselines import SchemeId
from .metrics import PowerModel, RunMetrics, build_context, monte_carlo_rates


class ExperimentError(RuntimeError):
    """A cell of the sweep failed; names the (scheme, sweep value) at fault."""

SWEEPABLE_PARAMETERS = ("M", "K", "G", "B", "P", "snr_db", "n_slots")

_ALL_SCHEMES = tuple(SchemeId)


@dataclass(frozen=True)
class SystemConfig:
    """Every scenario scalar for a run; defaults give the reference setup
    (64 antennas, 8 users on 8 chains in 3 groups, 4-bit shifters, unit
    power budget)."""

    M: int = 64
    K: int = 8
    L: int = 8
    G: int = 3
    B: int = 4
    P: float = 1.0
    n_slots: int = 1000
    seed: int = 1
    T: int = 10
    objective_exponent: int = 2
    angular_spread: float = 0.03
    path_count: int = 6
    aod_jitter: float = 0.02
    element_spacing: float = 0.5
    p_baseband: float = 0.2
    p_rf_chain: float = 0.3
    p_phase_shifter: float = 0.04
    schemes: tuple[SchemeId, ...] = _ALL_SCHEMES
    sweep_parameter: str | None = None
    sweep_values: tuple[float, ...] = ()

    def validate(self) -> None:
        if self.M < 1:
            raise ValueError(f"M must be >= 1, got {self.M}")
        if not 1 <= self.K <= self.M:
            raise ValueError(f"K must satisfy 1 <= K <= M, got K={self.K}, M={self.M}")
        if self.L != self.K:
            raise ValueError(f"L must equal K, got L={self.L}, K={self.K}")
        if not 1 <= self.G <= self.K:
            raise ValueError(f"G must satisfy 1 <= G <= K, got G={self.G}, K={self.K}")
        if self.B < 1:
            raise ValueError(f"B must be >= 1, got {self.B}")
        if self.P <= 0:
            raise ValueError(f"P must be > 0, got {self.P}")
        if self.n_slots < 1:
            raise ValueError(f"n_slots must be >= 1, got {self.n_slots}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.T < 1:
            raise ValueError(f"T must be >= 1, got {self.T}")
        if self.objective_exponent not in (1, 2):
            raise ValueError(f"objective_exponent must be 1 or 2, got {self.objective_exponent}")
        if self.angular_spread < 0:
            raise ValueError(f"scenario.angular_spread must be >= 0, got {self.angular_spread}")
        if self.path_count < 1:
            raise ValueError(f"scenario.path_count must be >= 1, got {self.path_count}")
        if self.aod_jitter < 0:
            raise ValueError(f"scenario.aod_jitter must be >= 0, got {self.aod_jitter}")
        if self.element_spacing <= 0:
            raise ValueError(f"scenario.element_spacing must be > 0, got {self.element_spacing}")
        if min(self.p_baseband, self.p_rf_chain, self.p_phase_shifter) < 0:
            raise ValueError("power.* entries must be >= 0")
        if not self.schemes:
            raise ValueError("schemes must list at least one scheme")
        if self.sweep_parameter is not None:
            if self.sweep_parameter not in SWEEPABLE_PARAMETERS:
                raise ValueError(
                    f"sweep.parameter must be one of {SWEEPABLE_PARAMETERS}, got {self.sweep_parameter!r}"
                )
            if not self.sweep_values:
                raise ValueError("sweep.values must be non-empty when sweep.parameter is set")
            for value in self.sweep_values:
                apply_sweep_value(self, self.sweep_parameter, value).validate_point()

    def validate_point(self) -> None:
        """Validate everything except the sweep block (used per sweep value)."""
        replace(self, sweep_parameter=None, sweep_values=()).validate()

    def power_model(self) -> PowerModel:
        return PowerModel(
            p_baseband=self.p_baseband,
            p_rf_chain=self.p_rf_chain,
            p_phase_shifter=self.p_phase_shifter,
        )


@dataclass(frozen=True)
class ResultRow:
    """One CSV line: a scheme evaluated at one sweep value."""

    sweep_value: float
    scheme: SchemeId
    avg_rate_per_user: float
    avg_rate_stderr: float
    sum_rate: float
    sum_rate_stderr: float
    worst_user_rate: float
    jain_index: float
    energy_efficiency: float
    feedback_total: int
    feedback_statistics: int
    outage_fraction: float


CSV_COLUMNS = tuple(f.name for f in fields(ResultRow))

# key -> (config attribute, parser)
_INT_KEYS = ("M", "K", "L", "G", "B", "n_slots", "seed", "T", "objective_exponent")
_FLOAT_KEYS = ("P",)
_DOTTED_KEYS = {
    "scenario.angular_spread": "angular_spread",
    "scenario.path_count": "path_count",
    "scenario.aod_jitter": "aod_jitter",
    "scenario.element_spacing": "element_spacing",
    "power.p_baseband": "p_baseband",
    "power.p_rf_chain": "p_rf_chain",
    "power.p_phase_shifter": "p_phase_shifter",
}
_DOTTED_INT = {"scenario.path_count"}


def parse_config(text: str) -> SystemConfig:
    """Parse a config document; unset keys take their defaults.

    Raises ValueError with the offending key named on any malformed line,
    unknown key or invariant violation.
    """
    values: dict[str, object] = {}
    explicit_l = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        try:
            if key in _INT_KEYS:
                values[key] = int(value)
                explicit_l = explicit_l or key == "L"
            elif key in _FLOAT_KEYS:
                values[key] = float(value)
            elif key in _DOTTED_KEYS:
                attr = _DOTTED_KEYS[key]
                values[attr] = int(value) if key in _DOTTED_INT else float(value)
            elif key == "schemes":
                values["schemes"] = tuple(SchemeId(s.strip()) for s in value.split(",") if s.strip())
            elif key == "sweep.parameter":
                values["sweep_parameter"] = value
            elif key == "sweep.values":
                values["sweep_values"] = tuple(float(v.strip()) for v in value.split(",") if v.strip())
            else:
                raise ValueError(f"unknown key {key!r}")
        except ValueError as exc:
            raise ValueError(f"line {lineno} ({key}): {exc}") from None
    if "K" in values and not explicit_l:
        values["L"] = values["K"]
    config = SystemConfig(**values)  # type: ignore[arg-type]
    config.validate()
    return config


def serialize_config(config: SystemConfig) -> str:
    """Emit a document that parses back to an equal config."""
    lines = [
        f"M = {config.M}",
        f"K = {config.K}",
        f"L = {config.L}",
        f"G = {config.G}",
        f"B = {config.B}",
        f"P = {config.P!r}",
        f"n_slots = {config.n_slots}",
        f"seed = {config.seed}",
        f"T = {config.T}",
        f"objective_exponent = {config.objective_exponent}",
        f"schemes = {', '.join(s.value for s in config.schemes)}",
        f"scenario.angular_spread = {config.angular_spread!r}",
        f"scenario.path_count = {config.path_count}",
        f"scenario.aod_jitter = {config.aod_jitter!r}",
        f"scenario.element_spacing = {config.element_spacing!r}",
        f"power.p_baseband = {config.p_baseband!r}",
        f"power.p_rf_chain = {config.p_rf_chain!r}",
        f"power.p_phase_shifter = {config.p_phase_shifter!r}",
    ]
    if config.sweep_parameter is not None:
        lines.append(f"sweep.parameter = {config.sweep_parameter}")
        lines.append(f"sweep.values = {', '.join(repr(v) for v in config.sweep_values)}")
    return "\n".join(lines) + "\n"


def apply_sweep_value(config: SystemConfig, parameter: str, value: float) -> SystemConfig:
    """Point config for one sweep value; K sweeps keep L = K, snr_db maps to P."""
    point = replace(config, sweep_parameter=None, sweep_values=())
    if parameter == "snr_db":
        return replace(point, P=float(10.0 ** (value / 10.0)))
    if parameter == "P":
        return replace(point, P=float(value))
    integral = int(round(value))
    if integral != value:
        raise ValueError(f"sweep value for {parameter} must be an integer, got {value}")
    if parameter == "K":
        return replace(point, K=integral, L=integral)
    return replace(point, **{parameter: integral})


def _cell_seed(base_seed: int, sweep_index: int, scheme_index: int) -> int:
    """Derived seed for one (sweep value, scheme) cell; slot seeds derive
    from it inside the Monte Carlo loop, giving the (seed, sweep, scheme,
    slot) chain."""
    state = np.random.SeedSequence([base_seed, sweep_index, scheme_index]).generate_state(2)
    return int(state[0]) << 32 | int(state[1])


def _scenario_seed(base_seed: int, sweep_index: int) -> int:
    state = np.random.SeedSequence([base_seed, sweep_index]).generate_state(2)
    return int(state[0]) << 32 | int(state[1])


def run_experiment(config: SystemConfig) -> list[ResultRow]:
    """Evaluate every (sweep value, scheme) cell of the config.

    The scenario (user AoDs, correlations, grouping) is shared by all
    schemes at a sweep value; statistical schemes then design their analog
    stage from the grouping alone.  Cells run one after another in a fixed
    order, each from its own derived seed.
    """
    config.validate()
    if config.sweep_parameter is None:
        sweep_values: tuple[float, ...] = (float("nan"),)
        points = [config]
    else:
        sweep_values = config.sweep_values
        points = [
            apply_sweep_value(config, config.sweep_parameter, v) for v in sweep_values
        ]

    scheme_rank = {scheme: i for i, scheme in enumerate(SchemeId)}
    schemes = sorted(config.schemes, key=scheme_rank.__getitem__)
    rows = []
    for sweep_index, point in enumerate(points):
        context = None
        for scheme in schemes:
            try:
                if context is None:
                    context = build_context(point, _scenario_seed(config.seed, sweep_index))
                grouping, scenario, _ = context
                metrics = monte_carlo_rates(
                    scheme,
                    point,
                    point.n_slots,
                    _cell_seed(config.seed, sweep_index, scheme_rank[scheme]),
                    grouping=grouping,
                    scenario=scenario,
                )
            except Exception as exc:
                raise ExperimentError(
                    f"scheme {scheme.value} at sweep value {sweep_values[sweep_index]!r}: {exc}"
                ) from exc
            rows.append(_to_row(sweep_values[sweep_index], scheme, metrics))
    return rows


def _to_row(sweep_value: float, scheme: SchemeId, metrics: RunMetrics) -> ResultRow:
    return ResultRow(
        sweep_value=sweep_value,
        scheme=scheme,
        avg_rate_per_user=metrics.avg_rate_per_user,
        avg_rate_stderr=metrics.avg_rate_stderr,
        sum_rate=metrics.sum_rate,
        sum_rate_stderr=metrics.sum_rate_stderr,
        worst_user_rate=metrics.worst_user_rate,
        jain_index=metrics.jain_index,
        energy_efficiency=metrics.energy_efficiency,
        feedback_total=metrics.feedback_total,
        feedback_statistics=metrics.feedback_statistics,
        outage_fraction=metrics.outage_fraction,
    )


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
    for row in rows:
        lines.append(",".join(_format_value(getattr(row, c)) for c in CSV_COLUMNS))
    return "\n".join(lines) + "\n"


def write_csv(rows: list[ResultRow], destination: str) -> None:
    text = rows_to_csv(rows)
    with open(destination, "w", encoding="utf-8") as handle:
        handle.write(text)
