"""Comparison schemes and per-slot precoder construction.

The four baselines are representative stand-ins for the usual comparison
points, not reproductions of any specific published algorithm:

* ``FULL_DIGITAL_ZF`` - zero-forcing on the instantaneous channel with one
  beam per user; proxy upper bound for hybrid precoding with full real-time
  CSI at L = K.
* ``FRPS_STATISTICAL`` - fully-connected analog stage built from phase-only
  projections of the dominant eigenvectors of each group correlation.
* ``FIXED_SUBARRAY`` - static contiguous antenna-to-chain mapping with
  instantaneous phase alignment.
* ``ADAPTIVE_INSTANT`` - greedy antenna-to-chain selection on instantaneous
  gains under the same one-shifter-per-antenna constraints as the proposed
  scheme.

All schemes share the B-bit phase grid and nearest-point quantization rule
so differences reflect the connection strategy, not the quantizer, and all
share the per-group zero-forcing baseband stage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from .baseband import power_allocation, zf_precoder, effective_channel
from .config import SchemeId, SystemConfig
from .grouping import Grouping
from .numerics import check_condition, hermitian_eig  # noqa: F401  (bench/run.py traces this binding)
from .rf_precoder import (
    RfPrecoder,
    align_column_phase,
    grfp_assign,
    nearest_phase_index,
    phase_grid,
    solve_relaxed,
)


@dataclass
class SlotPrecoders:
    """Everything the metrics stage needs for a stack of n slots.

    ``f_groups[g]`` holds the analog columns of group g, shared (M, S_g) or
    one set per slot (n, M, S_g); for the full-digital scheme these are the
    digital beams and ``w_groups[g]`` is the identity.  ``w_groups[g]`` is
    (n, S_g, S_g) and ``power`` (n, K), indexed by global user index.
    ``outage_groups`` lists the (slot, group) pairs in outage: that group's
    ``w_groups[g]`` slice is all zero there, so its users transmit nothing,
    cause no interference, and log zero rate.
    """

    f_groups: list[np.ndarray]
    w_groups: list[np.ndarray]
    power: np.ndarray
    outage_groups: list[tuple[int, int]]


@dataclass(frozen=True)
class Scheme:
    """How one scheme is designed, rebuilt every slot and accounted.

    ``design(grouping, config)`` returns the slow-timescale state, designed
    from the grouping (correlations) alone, or None for a real-time scheme;
    it reads no ``SystemConfig`` field but those ``design_reads`` names, so
    configs that agree on them share one design on one grouping.
    ``build(state, channel, grouping, config)`` assembles the precoders of
    a stack of slots.  ``statistical`` schemes feed back correlation statistics
    once per period; ``fully_connected`` schemes are costed one phase
    shifter per (antenna, chain) pair (see ``metrics.energy_efficiency``).
    """

    statistical: bool
    fully_connected: bool
    design: Callable[[Grouping, SystemConfig], Any]
    design_reads: tuple[str, ...]
    build: Callable[[Any, np.ndarray, Grouping, SystemConfig], SlotPrecoders]


def fixed_subarray_map(antenna_count: int, chain_count: int) -> np.ndarray:
    """Static contiguous antenna-to-chain mapping (even split).

    Zero-based form of assigning one-based antenna m to chain
    ceil(m * L / M).
    """
    m = np.arange(1, antenna_count + 1)
    return (m * chain_count - 1) // antenna_count


def design_long_term(scheme: SchemeId, grouping: Grouping, config: SystemConfig) -> Any:
    """Design the slow-timescale part of a scheme.

    Statistical schemes see only the grouping (correlations); there is no
    channel argument, which enforces the mixed-timescale contract
    structurally.  Returns None for schemes with no slow-timescale state.
    """
    return SCHEMES[scheme].design(grouping, config)


def build_precoders(
    scheme: SchemeId,
    long_state: Any,
    channel: np.ndarray,
    grouping: Grouping,
    config: SystemConfig,
) -> SlotPrecoders:
    """Assemble the per-slot (analog, baseband, power) triple of a scheme
    for a stack of slots (n, M, K); a single slot is a stack of one.

    Statistical schemes reuse ``long_state`` untouched; real-time schemes
    rebuild their analog stage from the current channels.  Zero-forcing and
    power normalization run per group; a near-singular effective channel
    marks that group as an outage in that slot instead of aborting it.
    """
    return SCHEMES[scheme].build(long_state, channel, grouping, config)


def _design_mphp(grouping: Grouping, config: SystemConfig) -> RfPrecoder:
    return grfp_assign(solve_relaxed(grouping, power=config.P), grouping, bits=config.B)


def _design_frps(grouping: Grouping, config: SystemConfig) -> np.ndarray:
    """Fully-connected analog stage: quantized phases of aligned dominant
    eigenvectors of each group correlation, B @ the leading S_g vectors of
    ``grouping.reduced_eigs[g]``, in one stack."""
    basis, m_ant = grouping.joint.basis, grouping.antenna_count
    columns = [(basis @ vectors[:, : len(chains)]).T for (_, vectors), chains in zip(grouping.reduced_eigs, grouping.rf_chains)]
    phases = nearest_phase_index(align_column_phase(np.concatenate(columns), config.B), config.B)
    # Chain blocks follow group order, so row l of the stack is chain l's column.
    return np.ascontiguousarray((phase_grid(config.B)[phases] / np.sqrt(m_ant)).T)


def _no_long_term(grouping: Grouping, config: SystemConfig) -> None:
    return None


def _build_fixed_subarray(
    _: None, channel: np.ndarray, grouping: Grouping, config: SystemConfig
) -> SlotPrecoders:
    return _zf_all_groups(fixed_subarray_precoder(channel, grouping, config.B), channel, grouping, config)


def _build_adaptive_instant(
    _: None, channel: np.ndarray, grouping: Grouping, config: SystemConfig
) -> SlotPrecoders:
    return _zf_all_groups(adaptive_instant_precoder(channel, grouping, config.B), channel, grouping, config)


def fixed_subarray_precoder(channel: np.ndarray, grouping: Grouping, bits: int) -> RfPrecoder:
    """Static even antenna split with instantaneous phase alignment, per slot of a stack."""
    mapping = fixed_subarray_map(channel.shape[-2], channel.shape[-1])
    return _aligned_quantized_precoder(channel, mapping, grouping.chain_users, bits)


def adaptive_instant_precoder(channel: np.ndarray, grouping: Grouping, bits: int) -> RfPrecoder:
    """Greedy instantaneous antenna selection with aligned quantized phases, per slot of a stack."""
    chain_to_user = grouping.chain_users
    mapping = _greedy_instant_map(channel, chain_to_user)
    return _aligned_quantized_precoder(channel, mapping, chain_to_user, bits)


def _aligned_quantized_precoder(
    channel: np.ndarray,
    antenna_to_chain: np.ndarray,
    chain_to_user: np.ndarray,
    bits: int,
) -> RfPrecoder:
    """Per-antenna phases matched to the served user's channel entry, quantized."""
    antenna_count, chain_count = channel.shape[-2], chain_to_user.size
    served = np.broadcast_to(chain_to_user[antenna_to_chain], channel.shape[:-1])
    phase_index = nearest_phase_index(np.take_along_axis(channel, served[..., None], axis=-1)[..., 0], bits)
    taps = phase_grid(bits)[phase_index] / np.sqrt(antenna_count)
    f = np.where(antenna_to_chain[..., None] == np.arange(chain_count), taps[..., None], 0.0)
    return RfPrecoder(
        f=f,
        antenna_to_chain=antenna_to_chain.copy(),
        phase_index=phase_index,
        bits=bits,
    )


def _greedy_instant_map(channel: np.ndarray, chain_to_user: np.ndarray) -> np.ndarray:
    """Greedy antenna-to-chain selection by instantaneous channel magnitude.

    A first pass gives every chain its strongest unclaimed antenna (so no
    chain is left empty); remaining antennas then join the chain whose user
    they serve best.  Ties go to the lowest antenna or chain index.
    """
    gains = np.abs(channel[..., chain_to_user])  # (..., M, L): antenna m, chain l
    mapping = np.full(gains.shape[:-1], -1, dtype=int)
    for chain in range(chain_to_user.size):
        masked = np.where(mapping == -1, gains[..., chain], -1.0)
        np.put_along_axis(mapping, np.argmax(masked, axis=-1)[..., None], chain, axis=-1)
    return np.where(mapping == -1, np.argmax(gains, axis=-1), mapping)


def _build_full_digital(
    _: None,
    channel: np.ndarray,
    grouping: Grouping,
    config: SystemConfig,
) -> SlotPrecoders:
    """Unit-norm zero-forcing beams on the instantaneous channels; a slot
    whose channel fails the condition test puts every group in outage."""
    passed = check_condition(channel)[:, None, None]
    gram = np.swapaxes(channel.conj(), -1, -2) @ channel
    eye = np.eye(gram.shape[-1], dtype=complex)
    beams = channel @ np.linalg.solve(np.where(passed, gram, eye), eye)
    norms = np.linalg.norm(beams, axis=-2, keepdims=True)
    beams = np.divide(beams, norms, out=np.zeros_like(beams), where=passed)
    f_groups = [beams[..., members] for members in grouping.members]
    w_groups = [np.where(passed, np.eye(len(members), dtype=complex), 0.0) for members in grouping.members]
    return _with_power(f_groups, w_groups, grouping, config)


def _zf_all_groups(
    analog: RfPrecoder | np.ndarray, channel: np.ndarray, grouping: Grouping, config: SystemConfig
) -> SlotPrecoders:
    """Per-group zero-forcing and power on a stack of channels (n, M, K)
    behind an analog stage: an ``RfPrecoder`` or a fully-connected matrix,
    shared (M, L) or one per slot (n, M, L)."""
    f = analog.f if isinstance(analog, RfPrecoder) else analog
    f_groups = [f[..., chains] for chains in grouping.rf_chains]
    w_groups = [
        zf_precoder(effective_channel(channel[..., members], f_group))
        for members, f_group in zip(grouping.members, f_groups)
    ]
    return _with_power(f_groups, w_groups, grouping, config)


def _with_power(f_groups: list, w_groups: list, grouping: Grouping, config: SystemConfig) -> SlotPrecoders:
    """Per-group powers behind stacked baseband stages; a slot whose
    ``w_groups[g]`` slice is all zero puts group g in outage there."""
    power = np.zeros((w_groups[0].shape[0], grouping.user_count))
    outage = []
    for g, (f_group, w, members) in enumerate(zip(f_groups, w_groups, grouping.members)):
        usable = w.any(axis=(-2, -1))
        f_usable = f_group[usable] if f_group.ndim == 3 else f_group
        power[np.ix_(usable, members)] = power_allocation(f_usable, w[usable], config.P, config.K)
        outage += [(int(t), g) for t in np.flatnonzero(~usable)]
    return SlotPrecoders(f_groups=f_groups, w_groups=w_groups, power=power, outage_groups=sorted(outage))


# The one place that tells the schemes apart.  Entries reach solve_relaxed,
# zf_precoder and the other stages through this module's names at call time,
# so a name patched on the module (as bench/run.py's traced run does) is seen.
# FULL_DIGITAL_ZF stands in for conventional fully-connected hybrid
# precoding with L = K chains, so it is costed as fully connected.
SCHEMES: dict[SchemeId, Scheme] = {
    SchemeId.MPHP: Scheme(True, False, _design_mphp, ("B", "P"), _zf_all_groups),
    SchemeId.FULL_DIGITAL_ZF: Scheme(False, True, _no_long_term, (), _build_full_digital),
    SchemeId.FRPS_STATISTICAL: Scheme(True, True, _design_frps, ("B",), _zf_all_groups),
    SchemeId.FIXED_SUBARRAY: Scheme(False, False, _no_long_term, (), _build_fixed_subarray),
    SchemeId.ADAPTIVE_INSTANT: Scheme(False, False, _no_long_term, (), _build_adaptive_instant),
}
