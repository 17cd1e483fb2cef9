"""Link-level evaluation: SINR/SLNR, Monte Carlo rates, fairness, energy
efficiency and CSI-feedback accounting.

Noise power is fixed at 1 throughout, so the SNR in dB is 10*log10(P) and
the transmit power budget P is the only operating-point knob.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from . import channel as channel_mod
from .baselines import SCHEMES, SchemeId, SlotPrecoders, build_precoders, design_long_term
from .grouping import Grouping, group_users
from .numerics import hermitian_eig

if TYPE_CHECKING:
    from .experiment import SystemConfig

# Fraction of correlation energy the fed-back dominant eigenpairs must carry.
STATISTICS_ENERGY_FRACTION = 0.95


@dataclass(frozen=True)
class PowerModel:
    """Static power draw of the transmit chain for EE accounting (watts)."""

    p_baseband: float = 0.2
    p_rf_chain: float = 0.3
    p_phase_shifter: float = 0.04
    connectivity: str = "partially-connected"

    def __post_init__(self) -> None:
        if min(self.p_baseband, self.p_rf_chain, self.p_phase_shifter) < 0:
            raise ValueError("power model entries must be >= 0")
        if self.connectivity not in ("fully-connected", "partially-connected"):
            raise ValueError(f"unknown connectivity {self.connectivity!r}")


@dataclass
class SlotMetrics:
    """Per-slot, per-user link quality; rate is log2(1 + sinr) elementwise."""

    sinr: np.ndarray
    rate: np.ndarray
    outage_groups: list[int]


@dataclass
class RunMetrics:
    """Aggregates of a Monte Carlo run of one scheme at one operating point."""

    per_user_rate: np.ndarray
    per_user_stderr: np.ndarray
    avg_rate_per_user: float
    avg_rate_stderr: float
    sum_rate: float
    sum_rate_stderr: float
    worst_user_rate: float
    jain_index: float
    energy_efficiency: float
    feedback_total: int
    feedback_statistics: int
    n_slots: int
    outage_fraction: float


class UndefinedFairnessError(ValueError):
    """Jain's index is undefined when every rate is zero."""


def _received_power(
    channel: np.ndarray,
    f_groups: Sequence[np.ndarray],
    w_groups: Sequence[np.ndarray | None],
    power: np.ndarray,
    grouping: Grouping,
) -> tuple[np.ndarray, np.ndarray]:
    """Received powers of one slot and the same-group mask.

    Entry (k, j) of the first (K, K) matrix is p_j * |h_k^H b_j|^2, the
    power user k receives from user j's beam b_j = F_g w_j.  Beams of a
    silent (outage) group are zero.  Entry (k, j) of the boolean mask is
    True when users k and j share a group.
    """
    beams = np.zeros(channel.shape, dtype=complex)
    for g in range(grouping.group_count):
        if w_groups[g] is not None:
            beams[:, grouping.members[g]] = f_groups[g] @ w_groups[g]
    received = np.abs(channel.conj().T @ beams) ** 2 * power[None, :]
    same_group = grouping.assignments[:, None] == grouping.assignments[None, :]
    return received, same_group


def sinr_per_user(
    channel: np.ndarray,
    f_groups: Sequence[np.ndarray],
    w_groups: Sequence[np.ndarray | None],
    power: np.ndarray,
    grouping: Grouping,
) -> np.ndarray:
    """Per-user SINR with unit noise.

    Intra-group terms are excluded by construction (zero-forcing removes
    them; see ``intra_group_leakage`` for the residual).  Users of a silent
    (outage) group score zero and contribute no interference.
    """
    received, same_group = _received_power(channel, f_groups, w_groups, power, grouping)
    interference = np.sum(np.where(same_group, 0.0, received), axis=1)
    return np.diag(received) / (interference + 1.0)


def slnr_per_user(
    channel: np.ndarray,
    f_groups: Sequence[np.ndarray],
    w_groups: Sequence[np.ndarray | None],
    power: np.ndarray,
    grouping: Grouping,
) -> np.ndarray:
    """Per-user SLNR: own signal over leakage into out-of-group users plus noise.

    The user's own power multiplies both the signal and the leakage terms.
    """
    received, same_group = _received_power(channel, f_groups, w_groups, power, grouping)
    leakage = np.sum(np.where(same_group, 0.0, received), axis=0)
    return np.diag(received) / (leakage + 1.0)


def intra_group_leakage(
    channel: np.ndarray,
    f_groups: Sequence[np.ndarray],
    w_groups: Sequence[np.ndarray | None],
    power: np.ndarray,
    grouping: Grouping,
) -> np.ndarray:
    """Residual in-group interference power per user (diagnostic)."""
    received, same_group = _received_power(channel, f_groups, w_groups, power, grouping)
    np.fill_diagonal(same_group, False)
    return np.sum(np.where(same_group, received, 0.0), axis=1)


def evaluate_slot(channel: np.ndarray, precoders: SlotPrecoders, grouping: Grouping) -> SlotMetrics:
    sinr = sinr_per_user(channel, precoders.f_groups, precoders.w_groups, precoders.power, grouping)
    return SlotMetrics(sinr=sinr, rate=np.log2(1.0 + sinr), outage_groups=list(precoders.outage_groups))


def jain_fairness(rates: np.ndarray) -> float:
    """Jain's fairness index (sum r)^2 / (K sum r^2), in [1/K, 1]."""
    rates = np.asarray(rates, dtype=float)
    if rates.size < 1:
        raise ValueError("need at least one rate")
    if np.any(rates < 0):
        raise ValueError("rates must be >= 0")
    denom = rates.size * float(np.sum(rates**2))
    if denom == 0:
        raise UndefinedFairnessError("all rates are zero")
    return float(np.sum(rates)) ** 2 / denom


def energy_efficiency(
    sum_rate: float,
    transmit_power: float,
    chain_count: int,
    antenna_count: int,
    power_model: PowerModel,
) -> float:
    """Sum rate over total consumed power.

    The shifter count is antenna_count * chain_count for a fully-connected
    analog stage and antenna_count otherwise.
    """
    if min(sum_rate, transmit_power, chain_count, antenna_count) < 0:
        raise ValueError("inputs must be >= 0")
    if power_model.connectivity == "fully-connected":
        n_shifters = antenna_count * chain_count
    else:
        n_shifters = antenna_count
    total = (
        transmit_power
        + power_model.p_baseband
        + chain_count * power_model.p_rf_chain
        + n_shifters * power_model.p_phase_shifter
    )
    if total == 0:
        raise ValueError("total consumed power is zero")
    return sum_rate / total


def statistics_feedback_count(
    group_correlations: Sequence[np.ndarray],
    energy_fraction: float = STATISTICS_ENERGY_FRACTION,
) -> int:
    """Scalars needed to feed back the dominant eigenpairs of each group
    correlation: per group, the smallest rank capturing ``energy_fraction``
    of the trace, times one real eigenvalue plus one complex M-vector.
    """
    total = 0
    for corr in group_correlations:
        values, _ = hermitian_eig(corr)
        values = np.maximum(values, 0.0)
        trace = float(np.sum(values))
        cumulative = np.cumsum(values)
        rank = int(np.searchsorted(cumulative, energy_fraction * trace) + 1)
        rank = min(rank, values.size)
        total += rank * (2 * corr.shape[0] + 1)
    return total


def feedback_overhead(
    scheme: SchemeId,
    antenna_count: int,
    n_users: int,
    stats_period: int,
    group_sizes: Sequence[int],
    statistics_count: int,
) -> int:
    """Scalar feedback over one statistics period of ``stats_period`` slots.

    Real-time schemes report the full channel every slot; mixed-timescale
    schemes report the per-group effective channels every slot plus the
    correlation statistics once.
    """
    if stats_period < 1:
        raise ValueError(f"stats_period must be >= 1, got {stats_period}")
    if not SCHEMES[scheme].statistical:
        return antenna_count * n_users * stats_period
    short_term = stats_period * int(sum(s**2 for s in group_sizes))
    total = short_term + statistics_count
    assert statistics_count <= n_users * antenna_count**2, "statistics feedback exceeds full-matrix bound"
    return total


def build_context(config: "SystemConfig", seed: int) -> tuple[Grouping, list, channel_mod.ArrayGeometry]:
    """Scenario, correlations and grouping shared by all schemes at a seed."""
    geometry = channel_mod.ArrayGeometry(config.M, config.element_spacing)
    scenario = channel_mod.make_scenario(
        config.K,
        config.G,
        angular_spread=config.angular_spread,
        path_count=config.path_count,
        aod_jitter=config.aod_jitter,
        seed=seed,
    )
    correlations = channel_mod.scenario_correlations(scenario, geometry)
    grouping = group_users(correlations, config.G)
    return grouping, scenario, geometry


def monte_carlo_rates(
    scheme: SchemeId,
    config: "SystemConfig",
    n_slots: int,
    seed: int,
    *,
    grouping: Grouping | None = None,
    scenario: Sequence[channel_mod.UserChannelParams] | None = None,
    channel_factory: Callable[[int], np.ndarray] | None = None,
    power_model: PowerModel | None = None,
) -> RunMetrics:
    """Average rates over independent channel draws with the long-term
    precoder held fixed.

    The analog stage of a statistical scheme is designed once from the
    correlations; the baseband stage is redone every slot.  Slot t draws its
    channel from entropy (seed, user, t), so runs are reproducible and slots
    may be evaluated in any order.  ``channel_factory`` overrides the channel
    draw (slot index -> H) for deterministic injection in tests.
    """
    if n_slots < 1:
        raise ValueError(f"n_slots must be >= 1, got {n_slots}")
    if grouping is None or scenario is None:
        grouping, scenario, geometry = build_context(config, seed)
    else:
        geometry = channel_mod.ArrayGeometry(config.M, config.element_spacing)

    long_state = design_long_term(scheme, grouping, config)
    rates = np.zeros((n_slots, config.K))
    outage_slots = 0
    for t in range(n_slots):
        if channel_factory is not None:
            h = channel_factory(t)
        else:
            h = channel_mod.draw_channel(scenario, geometry, seed=seed, slot=t)
        precoders = build_precoders(scheme, long_state, h, grouping, config)
        slot = evaluate_slot(h, precoders, grouping)
        rates[t] = slot.rate
        if slot.outage_groups:
            outage_slots += 1

    per_user_rate = rates.mean(axis=0)
    per_user_stderr = rates.std(axis=0, ddof=1) / np.sqrt(n_slots) if n_slots > 1 else np.zeros(config.K)
    per_slot_mean = rates.mean(axis=1)
    per_slot_sum = rates.sum(axis=1)
    avg_stderr = float(per_slot_mean.std(ddof=1) / np.sqrt(n_slots)) if n_slots > 1 else 0.0
    sum_stderr = float(per_slot_sum.std(ddof=1) / np.sqrt(n_slots)) if n_slots > 1 else 0.0

    model = power_model if power_model is not None else config.power_model()
    model = replace(model, connectivity=SCHEMES[scheme].connectivity)
    sum_rate = float(per_user_rate.sum())
    ee = energy_efficiency(sum_rate, config.P, config.L, config.M, model)

    stats_count = (
        statistics_feedback_count(grouping.group_correlations) if SCHEMES[scheme].statistical else 0
    )
    feedback = feedback_overhead(
        scheme, config.M, config.K, config.T, [len(m) for m in grouping.members], stats_count
    )

    return RunMetrics(
        per_user_rate=per_user_rate,
        per_user_stderr=per_user_stderr,
        avg_rate_per_user=float(per_user_rate.mean()),
        avg_rate_stderr=avg_stderr,
        sum_rate=sum_rate,
        sum_rate_stderr=sum_stderr,
        worst_user_rate=float(per_user_rate.min()),
        jain_index=jain_fairness(per_user_rate),
        energy_efficiency=ee,
        feedback_total=feedback,
        feedback_statistics=stats_count,
        n_slots=n_slots,
        outage_fraction=outage_slots / n_slots,
    )
