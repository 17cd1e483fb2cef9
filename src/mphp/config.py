"""The run configuration: the scheme names and ``SystemConfig``, which
checks every value against its key's bounds when it is made.  It imports no
other module of the package, so every module can read it."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum


class SchemeId(str, Enum):
    MPHP = "MPHP"
    FULL_DIGITAL_ZF = "FULL_DIGITAL_ZF"
    FRPS_STATISTICAL = "FRPS_STATISTICAL"
    FIXED_SUBARRAY = "FIXED_SUBARRAY"
    ADAPTIVE_INSTANT = "ADAPTIVE_INSTANT"


SWEEPABLE_PARAMETERS = ("M", "K", "G", "B", "P", "snr_db", "n_slots")


@dataclass(frozen=True)
class SystemConfig:
    """Every scenario scalar for a run; defaults give the reference setup
    (64 antennas, 8 users on 8 chains in 3 groups, 4-bit shifters, unit
    power budget).  A config is checked when it is made (constructor,
    ``replace``, ``parse_config``): every key keeps its ``_BOUNDS`` bounds,
    1 <= G <= K <= M, ``schemes`` lists each scheme once and every sweep
    point is valid; otherwise ValueError names the offending key."""

    M: int = 64
    K: int = 8
    G: int = 3
    B: int = 4
    P: float = 1.0
    n_slots: int = 1000
    seed: int = 1
    T: int = 10
    angular_spread: float = 0.03
    path_count: int = 6
    aod_jitter: float = 0.02
    element_spacing: float = 0.5
    p_baseband: float = 0.2
    p_rf_chain: float = 0.3
    p_phase_shifter: float = 0.04
    schemes: tuple[SchemeId, ...] = tuple(SchemeId)
    sweep_parameter: str | None = None
    sweep_values: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        for key, (least, most) in _BOUNDS.items():
            value = getattr(self, _KEYS[key])
            if not isinstance(value, int) and not math.isfinite(value):
                raise ValueError(f"{key} must be finite, got {value}")
            strict = key in _STRICT_BOUNDS
            if value < least or (strict and value == least):
                raise ValueError(f"{key} must be {'>' if strict else '>='} {least}, got {value}")
            if most is not None and value > most:
                raise ValueError(f"{key} must be <= {most}, got {value}")
        if self.K > self.M:
            raise ValueError(f"K must satisfy 1 <= K <= M, got K={self.K}, M={self.M}")
        if self.G > self.K:
            raise ValueError(f"G must satisfy 1 <= G <= K, got G={self.G}, K={self.K}")
        if not self.schemes:
            raise ValueError("schemes must list at least one scheme")
        repeated = sorted({s.value for s in self.schemes if self.schemes.count(s) > 1})
        if repeated:
            raise ValueError(f"schemes must list each scheme once, got {', '.join(repeated)} more than once")
        if self.sweep_parameter is not None:
            if self.sweep_parameter not in SWEEPABLE_PARAMETERS:
                raise ValueError(
                    f"sweep.parameter must be one of {SWEEPABLE_PARAMETERS}, got {self.sweep_parameter!r}"
                )
            if not self.sweep_values:
                raise ValueError("sweep.values must be non-empty when sweep.parameter is set")
            if not all(map(math.isfinite, self.sweep_values)):
                raise ValueError(f"sweep.values must be finite, got {self.sweep_values}")
            for value in self.sweep_values:
                try:
                    apply_sweep_value(self, self.sweep_parameter, value)
                except OverflowError:
                    raise ValueError(f"sweep.values entry {value} overflows {self.sweep_parameter}") from None
                except ValueError as exc:
                    raise ValueError(f"sweep.values entry {value}: {exc}") from None


# Document key -> SystemConfig field, in the order
# ``experiment.serialize_config`` writes them.  A value parses as the type of its field's default; a tuple
# field takes a comma-separated list.
_KEYS = {
    **{name: name for name in ("M", "K", "G", "B", "P", "n_slots", "seed", "T", "schemes")},
    **{f"scenario.{name}": name for name in ("angular_spread", "path_count", "aod_jitter", "element_spacing")},
    **{f"power.{name}": name for name in ("p_baseband", "p_rf_chain", "p_phase_shifter")},
    "sweep.parameter": "sweep_parameter",
    "sweep.values": "sweep_values",
}
# Document key -> (the least value it may take, the most or None); P and
# the element spacing must lie strictly above the least.  The caps keep a
# key that sizes an allocation from asking for more than a run can hold.
_BOUNDS = {
    "M": (1, 1024),  # each user's M x M correlation (16 MiB at the cap), eigensolved in O(M^3)
    # K <= M <= 1024 and G <= K (checked in ``validate``); the caps let a
    # sweep value be checked before it is rounded, so its message stays short.
    "K": (1, 1024),
    "G": (1, 1024),
    "B": (1, 10),  # phase_grid tabulates 2**B points, which RfPrecoder.f and FRPS index
    "P": (0, None),
    "n_slots": (1, 1_000_000),  # a run keeps every cell's per-slot rates
    "seed": (0, None),
    "T": (1, None),
    "scenario.angular_spread": (0, None),
    "scenario.path_count": (1, 100),  # a slot block's steering matrix is SLOT_BLOCK x M x (K * path_count)
    # A user's mean AoD is a cluster centre in (-pi/3, pi/3) plus at most
    # this jitter, so it stays inside the (-pi/2, pi/2) a steering vector takes.
    "scenario.aod_jitter": (0, math.pi / 6),
    "scenario.element_spacing": (0, None),
    **{f"power.{name}": (0, None) for name in ("p_baseband", "p_rf_chain", "p_phase_shifter")},
}
_STRICT_BOUNDS = {"P", "scenario.element_spacing"}


def apply_sweep_value(config: SystemConfig, parameter: str, value: float) -> SystemConfig:
    """Point config for one sweep value; snr_db maps to P."""
    point = replace(config, sweep_parameter=None, sweep_values=())
    if parameter == "snr_db":
        return replace(point, P=float(10.0 ** (value / 10.0)))
    if parameter == "P":
        return replace(point, P=float(value))
    most = _BOUNDS.get(parameter, (None, None))[1]
    if most is not None and value > most:  # before rounding, so the message shows the value as given
        raise ValueError(f"{parameter} must be <= {most}, got {value}")
    integral = int(round(value))
    if integral != value:
        raise ValueError(f"sweep value for {parameter} must be an integer, got {value}")
    return replace(point, **{parameter: integral})
