"""Link-level evaluation: SINR/SLNR, Monte Carlo rates, fairness, energy
efficiency and CSI-feedback accounting.

Noise power is fixed at 1 throughout, so the SNR in dB is 10*log10(P) and
the transmit power budget P is the only operating-point knob.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence
from typing import NamedTuple

import numpy as np

from . import channel as channel_mod
from .baselines import SCHEMES, SlotPrecoders, build_precoders, design_long_term
from .config import SchemeId, SystemConfig
from .grouping import Grouping, group_users
from .numerics import hermitian_eig  # noqa: F401  (unused; bench/run.py traces it)

# Fraction of correlation energy the fed-back dominant eigenpairs must carry.
STATISTICS_ENERGY_FRACTION = 0.95
# Most slots one Monte Carlo block stacks; bounds the block's arrays.
SLOT_BLOCK = 32


@dataclass
class RunMetrics:
    """Aggregates of a Monte Carlo run of one scheme at one operating point."""

    per_user_rate: np.ndarray
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


def _received_power(channel: np.ndarray, precoders: SlotPrecoders, grouping: Grouping) -> tuple[np.ndarray, np.ndarray]:
    """Received powers of each slot of a stack (leading axes broadcast) and
    the same-group mask.

    Entry (k, j) of the first (..., K, K) array is p_j * |h_k^H b_j|^2, the
    power user k receives from user j's beam b_j (see ``SlotPrecoders``);
    beams of a silent (outage) group are zero.  Entry (k, j) of the boolean
    mask is True when users k and j share a group.
    """
    received = np.abs(np.swapaxes(channel.conj(), -1, -2) @ precoders.beams) ** 2 * precoders.power[..., None, :]
    same_group = grouping.assignments[:, None] == grouping.assignments[None, :]
    return received, same_group


def sinr_per_user(channel: np.ndarray, precoders: SlotPrecoders, grouping: Grouping) -> np.ndarray:
    """Per-user SINR with unit noise.

    Intra-group terms are excluded by construction (zero-forcing removes
    them; see ``intra_group_leakage`` for the residual).  Users of a silent
    (outage) group score zero and contribute no interference.
    """
    received, same_group = _received_power(channel, precoders, grouping)
    interference = np.sum(np.where(same_group, 0.0, received), axis=-1)
    return np.diagonal(received, axis1=-2, axis2=-1) / (interference + 1.0)


def slnr_per_user(channel: np.ndarray, precoders: SlotPrecoders, grouping: Grouping) -> np.ndarray:
    """Per-user SLNR: own signal over leakage into out-of-group users plus noise.

    The user's own power multiplies both the signal and the leakage terms.
    """
    received, same_group = _received_power(channel, precoders, grouping)
    leakage = np.sum(np.where(same_group, 0.0, received), axis=-2)
    return np.diagonal(received, axis1=-2, axis2=-1) / (leakage + 1.0)


def intra_group_leakage(channel: np.ndarray, precoders: SlotPrecoders, grouping: Grouping) -> np.ndarray:
    """Residual in-group interference power per user (diagnostic)."""
    received, same_group = _received_power(channel, precoders, grouping)
    np.fill_diagonal(same_group, False)
    return np.sum(np.where(same_group, received, 0.0), axis=-1)


def evaluate_slot(channel: np.ndarray, precoders: SlotPrecoders, grouping: Grouping) -> np.ndarray:
    """Per-user rates log2(1 + SINR), (n, K), of a stack of slots (see ``SlotPrecoders``)."""
    return np.log2(1.0 + sinr_per_user(channel, precoders, grouping))


def jain_fairness(rates: np.ndarray) -> float:
    """Jain's fairness index (sum r)^2 / (K sum r^2), in [1/K, 1]; NaN,
    which the CSV writes as an empty cell, when every rate is zero."""
    rates = np.asarray(rates, dtype=float)
    if rates.size < 1:
        raise ValueError("need at least one rate")
    if np.any(rates < 0):
        raise ValueError("rates must be >= 0")
    denom = rates.size * float(np.sum(rates**2))
    if denom == 0:
        return float("nan")
    return float(np.sum(rates)) ** 2 / denom


def energy_efficiency(sum_rate: float, config: SystemConfig, fully_connected: bool) -> float:
    """Sum rate over total consumed power: the transmit power P plus the
    static draw of the baseband, K RF chains and the phase shifters (watts,
    the config's ``p_*`` fields).

    The shifter count is M * K for a fully-connected analog stage and M
    otherwise.
    """
    if sum_rate < 0:
        raise ValueError(f"sum_rate must be >= 0, got {sum_rate}")
    n_shifters = config.M * config.K if fully_connected else config.M
    total = config.P + config.p_baseband + config.K * config.p_rf_chain + n_shifters * config.p_phase_shifter
    return sum_rate / total


def statistics_feedback_count(group_eigenvalues: Sequence[np.ndarray], antenna_count: int) -> int:
    """Scalars needed to feed back the dominant eigenpairs of each group
    correlation, given its eigenvalues (descending; the reduced ones of
    ``Grouping.reduced_eigs`` carry every nonzero one): per group, the
    smallest rank capturing ``STATISTICS_ENERGY_FRACTION`` of the trace,
    times one real eigenvalue plus one complex ``antenna_count``-vector.
    """
    total = 0
    for values in group_eigenvalues:
        values = np.maximum(values, 0.0)
        trace = float(np.sum(values))
        cumulative = np.cumsum(values)
        rank = int(np.searchsorted(cumulative, STATISTICS_ENERGY_FRACTION * trace) + 1)
        rank = min(rank, values.size)
        total += rank * (2 * antenna_count + 1)
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
    return stats_period * int(sum(s**2 for s in group_sizes)) + statistics_count


class SchemeFailure(RuntimeError):
    """A stage of a Monte Carlo run failed; the original error is the cause.

    ``point`` indexes the run's point configs, and ``scheme`` names the
    scheme whose stage failed, or is None for a shared stage: a block's
    path draw, named by the block's first live point, or its channels on
    one array, named by that array's first live point.
    """

    def __init__(self, scheme: SchemeId | None, point: int) -> None:
        stage = "a shared stage" if scheme is None else f"scheme {scheme.value}"
        super().__init__(f"{stage} failed at point {point}")
        self.scheme = scheme
        self.point = point


def scenario_key(config: SystemConfig) -> tuple:
    """The fields of ``config`` that ``make_scenario`` reads: configs with
    equal keys get the same user params, and so the same path draws, from
    the same seeds, whatever their arrays."""
    return (config.K, config.G, config.angular_spread, config.path_count, config.aod_jitter)


def context_key(config: SystemConfig) -> tuple:
    """The fields of ``config`` that ``build_context`` reads: configs with
    equal keys get the same context from the same seed."""
    return (config.M, config.element_spacing, *scenario_key(config))


class Context(NamedTuple):
    """What every scheme at the points of one ``context_key`` shares."""

    grouping: Grouping
    scenario: list[channel_mod.UserChannelParams]
    geometry: channel_mod.ArrayGeometry


def build_context(config: SystemConfig, seed: int) -> Context:
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
    return Context(group_users(correlations, config.G), scenario, geometry)


def monte_carlo_rates(
    schemes: Sequence[SchemeId],
    points: Sequence[SystemConfig],
    seed: int,
    *,
    contexts: Sequence[Context],
) -> list[list[RunMetrics]]:
    """Average rates over independent channel draws with the long-term
    precoder held fixed: one list per point config, holding one
    ``RunMetrics`` per scheme in the order of ``schemes``.

    ``contexts[p]`` is point p's context (``build_context``), and every
    context holds one scenario, so the points are a sweep's points on one
    set of users, over any arrays; each point runs its own ``n_slots``
    slots.  The analog stage of a statistical scheme is designed once from
    the correlations per ``context_key`` and distinct value of the config
    fields its ``design_reads`` names; the baseband stage is redone every
    slot.  Slot t draws its channel from entropy (seed, user, t), so runs
    are reproducible and slots may be evaluated in any order.  Blocks of at
    most ``SLOT_BLOCK`` slots, up to the largest count, have their paths
    drawn once (``channel.draw_paths``) and their channels built once per
    ``context_key`` (``channel.channel_from_paths``), then run through
    every (point, scheme) precoder build and SINR as one stack, a point
    with fewer slots taking the leading ones, so all cells see the same
    channels (common random numbers) and each gets the numbers of a run of
    its own.  A block's draw is dropped once the block is done.  A failing
    stage raises ``SchemeFailure`` naming the point and the scheme.
    """
    if not points or len(contexts) != len(points):
        raise ValueError(f"need points and one context per point, got {len(points)} points, {len(contexts)} contexts")
    scenario = contexts[0].scenario
    if any(context.scenario != scenario for context in contexts):
        raise ValueError("the points' contexts must share one scenario")
    if not schemes:
        raise ValueError("need at least one scheme")
    counts = [point.n_slots for point in points]
    keys = [context_key(point) for point in points]

    rates = [[np.zeros((count, points[0].K)) for _ in schemes] for count in counts]
    outage_slots = [[0] * len(schemes) for _ in points]
    failed: tuple[int, SchemeId | None] = (0, None)  # the (point, scheme) whose stage is running
    try:
        designs: dict[tuple, object] = {}  # (context key, scheme, the design_reads values) -> long-term state
        states = []
        for p, (point, context) in enumerate(zip(points, contexts)):
            states.append([])
            for current in schemes:
                failed = (p, current)
                key = (keys[p], current, *(getattr(point, name) for name in SCHEMES[current].design_reads))
                if key not in designs:
                    designs[key] = design_long_term(current, context.grouping, point)
                states[p].append(designs[key])
        for start in range(0, max(counts), SLOT_BLOCK):
            live = [p for p, count in enumerate(counts) if count > start]
            failed = (live[0], None)
            paths = channel_mod.draw_paths(scenario, seed, range(start, min(start + SLOT_BLOCK, max(counts))))
            channels: dict[tuple, np.ndarray] = {}  # context key -> this block's channels on its array
            for p in live:
                point, context = points[p], contexts[p]
                if keys[p] not in channels:
                    failed = (p, None)
                    channels[keys[p]] = channel_mod.channel_from_paths(paths, scenario, context.geometry)
                stack = channels[keys[p]][: counts[p] - start]
                for i, (current, state) in enumerate(zip(schemes, states[p])):
                    failed = (p, current)
                    precoders = build_precoders(current, state, stack, context.grouping, point)
                    rates[p][i][start : start + len(stack)] = evaluate_slot(stack, precoders, context.grouping)
                    outage_slots[p][i] += len({t for t, _ in precoders.outage_groups})
        runs = []
        for p, (point, context) in enumerate(zip(points, contexts)):
            runs.append([])
            for current, scheme_rates, outages in zip(schemes, rates[p], outage_slots[p]):
                failed = (p, current)
                runs[p].append(_run_metrics(current, point, context.grouping, scheme_rates, outages))
    except Exception as exc:
        raise SchemeFailure(failed[1], failed[0]) from exc
    return runs


def _run_metrics(
    scheme: SchemeId,
    config: SystemConfig,
    grouping: Grouping,
    rates: np.ndarray,
    outage_slots: int,
) -> RunMetrics:
    """Aggregates of one scheme's (n_slots, K) rates."""
    n_slots = rates.shape[0]
    per_user_rate = rates.mean(axis=0)
    per_slot_mean = rates.mean(axis=1)
    per_slot_sum = rates.sum(axis=1)
    avg_stderr = float(per_slot_mean.std(ddof=1) / np.sqrt(n_slots)) if n_slots > 1 else 0.0
    sum_stderr = float(per_slot_sum.std(ddof=1) / np.sqrt(n_slots)) if n_slots > 1 else 0.0

    sum_rate = float(per_user_rate.sum())
    ee = energy_efficiency(sum_rate, config, SCHEMES[scheme].fully_connected)

    eigenvalues = [values for values, _ in grouping.reduced_eigs] if SCHEMES[scheme].statistical else []
    stats_count = statistics_feedback_count(eigenvalues, config.M)
    feedback = feedback_overhead(
        scheme, config.M, config.K, config.T, [len(m) for m in grouping.members], stats_count
    )

    return RunMetrics(
        per_user_rate=per_user_rate,
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
