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

from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Any, Callable

import numpy as np

from .baseband import power_allocation, zf_precoder, effective_channel
from .grouping import Grouping
from .numerics import NearSingularError, check_condition, hermitian_eig
from .rf_precoder import (
    RfPrecoder,
    grfp_assign,
    nearest_phase_index,
    phase_grid,
    solve_relaxed,
)

if TYPE_CHECKING:
    from .experiment import SystemConfig


class SchemeId(str, Enum):
    MPHP = "MPHP"
    FULL_DIGITAL_ZF = "FULL_DIGITAL_ZF"
    FRPS_STATISTICAL = "FRPS_STATISTICAL"
    FIXED_SUBARRAY = "FIXED_SUBARRAY"
    ADAPTIVE_INSTANT = "ADAPTIVE_INSTANT"


@dataclass
class SlotPrecoders:
    """Everything the metrics stage needs for one slot.

    ``f_groups[g]`` holds the (M, S_g) analog columns of group g (for the
    full-digital scheme these are the digital beams and ``w_groups[g]`` is
    the identity).  ``w_groups[g]`` is None when group g is in outage this
    slot; ``power`` is indexed by global user index.  Groups listed in
    ``outage_groups`` are silent: their users transmit nothing, cause no
    interference, and log zero rate.
    """

    f_groups: list[np.ndarray]
    w_groups: list[np.ndarray | None]
    power: np.ndarray
    outage_groups: list[int] = field(default_factory=list)


@dataclass(frozen=True)
class Scheme:
    """How one scheme is designed, rebuilt every slot and accounted.

    ``design(grouping, config)`` returns the slow-timescale state, designed
    from the grouping (correlations) alone, or None for a real-time scheme.
    ``build(state, channel, grouping, config)`` assembles the slot's
    precoders.  ``statistical`` schemes feed back correlation statistics
    once per period; ``connectivity`` selects how phase shifters are costed
    (see ``metrics.PowerModel``).
    """

    statistical: bool
    connectivity: str
    design: Callable[[Grouping, "SystemConfig"], Any]
    build: Callable[[Any, np.ndarray, Grouping, "SystemConfig"], SlotPrecoders]


def fixed_subarray_map(antenna_count: int, chain_count: int) -> np.ndarray:
    """Static contiguous antenna-to-chain mapping (even split).

    Zero-based form of assigning one-based antenna m to chain
    ceil(m * L / M).
    """
    m = np.arange(1, antenna_count + 1)
    return (m * chain_count - 1) // antenna_count


def design_long_term(scheme: SchemeId, grouping: Grouping, config: "SystemConfig") -> Any:
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
    config: "SystemConfig",
) -> SlotPrecoders:
    """Assemble the per-slot (analog, baseband, power) triple for a scheme.

    Statistical schemes reuse ``long_state`` untouched; real-time schemes
    rebuild their analog stage from the current channel.  Zero-forcing and
    power normalization run per group; a near-singular effective channel
    marks that group as an outage instead of aborting the slot.
    """
    return SCHEMES[scheme].build(long_state, channel, grouping, config)


def _design_mphp(grouping: Grouping, config: "SystemConfig") -> RfPrecoder:
    relaxed = solve_relaxed(
        grouping,
        n_users=config.K,
        power=config.P,
        objective_exponent=config.objective_exponent,
    )
    return grfp_assign(relaxed, grouping, bits=config.B, antenna_count=config.M)


def _design_frps(grouping: Grouping, config: "SystemConfig") -> np.ndarray:
    """Fully-connected analog stage: quantized phases of dominant eigenvectors."""
    n_chains = sum(len(m) for m in grouping.members)
    grid = phase_grid(config.B)
    f = np.zeros((config.M, n_chains), dtype=complex)
    for g in range(grouping.group_count):
        _, vectors = hermitian_eig(grouping.group_correlations[g])
        for i, chain in enumerate(grouping.rf_chains[g]):
            f[:, int(chain)] = grid[nearest_phase_index(vectors[:, i], config.B)] / np.sqrt(config.M)
    return f


def _no_long_term(grouping: Grouping, config: "SystemConfig") -> None:
    return None


def _build_mphp(
    rf: RfPrecoder, channel: np.ndarray, grouping: Grouping, config: "SystemConfig"
) -> SlotPrecoders:
    return _zf_all_groups(rf.f, channel, grouping, config)


def _build_fixed_subarray(
    _: None, channel: np.ndarray, grouping: Grouping, config: "SystemConfig"
) -> SlotPrecoders:
    return _zf_all_groups(fixed_subarray_precoder(channel, grouping, config.B).f, channel, grouping, config)


def _build_adaptive_instant(
    _: None, channel: np.ndarray, grouping: Grouping, config: "SystemConfig"
) -> SlotPrecoders:
    return _zf_all_groups(adaptive_instant_precoder(channel, grouping, config.B).f, channel, grouping, config)


def fixed_subarray_precoder(channel: np.ndarray, grouping: Grouping, bits: int) -> RfPrecoder:
    """Static even antenna split with instantaneous phase alignment."""
    mapping = fixed_subarray_map(channel.shape[0], channel.shape[1])
    return _aligned_quantized_precoder(channel, mapping, grouping.chain_users, bits)


def adaptive_instant_precoder(channel: np.ndarray, grouping: Grouping, bits: int) -> RfPrecoder:
    """Greedy instantaneous antenna selection with aligned quantized phases."""
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
    antenna_count, chain_count = channel.shape[0], chain_to_user.size
    antennas = np.arange(antenna_count)
    phase_index = nearest_phase_index(channel[antennas, chain_to_user[antenna_to_chain]], bits)
    f = np.zeros((antenna_count, chain_count), dtype=complex)
    f[antennas, antenna_to_chain] = phase_grid(bits)[phase_index] / np.sqrt(antenna_count)
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
    antenna_count = channel.shape[0]
    chain_count = chain_to_user.size
    gains = np.abs(channel[:, chain_to_user])  # (M, L): antenna m, chain l
    mapping = np.full(antenna_count, -1, dtype=int)
    for chain in range(chain_count):
        masked = np.where(mapping == -1, gains[:, chain], -1.0)
        mapping[int(np.argmax(masked))] = chain
    for m in range(antenna_count):
        if mapping[m] == -1:
            mapping[m] = int(np.argmax(gains[m]))
    return mapping


def _full_digital_beams(channel: np.ndarray) -> np.ndarray:
    """Unit-norm zero-forcing beams on the instantaneous channel."""
    check_condition(channel, "channel condition number")
    gram = channel.conj().T @ channel
    beams = channel @ np.linalg.solve(gram, np.eye(gram.shape[0], dtype=complex))
    return beams / np.linalg.norm(beams, axis=0)[None, :]


def _build_full_digital(
    _: None,
    channel: np.ndarray,
    grouping: Grouping,
    config: "SystemConfig",
) -> SlotPrecoders:
    n_users = channel.shape[1]
    try:
        beams = _full_digital_beams(channel)
    except NearSingularError:
        return SlotPrecoders(
            f_groups=[np.zeros((channel.shape[0], len(m)), dtype=complex) for m in grouping.members],
            w_groups=[None] * grouping.group_count,
            power=np.zeros(n_users),
            outage_groups=list(range(grouping.group_count)),
        )
    f_groups = [beams[:, members] for members in grouping.members]
    w_groups = [np.eye(len(members), dtype=complex) for members in grouping.members]
    power = np.zeros(n_users)
    for f_group, w, members in zip(f_groups, w_groups, grouping.members):
        power[members] = power_allocation(f_group, w, config.P, config.K)
    return SlotPrecoders(f_groups=f_groups, w_groups=w_groups, power=power)


def _zf_all_groups(
    f: np.ndarray,
    channel: np.ndarray,
    grouping: Grouping,
    config: "SystemConfig",
) -> SlotPrecoders:
    """Per-group zero-forcing and power behind the (M, L) analog stage ``f``."""
    f_groups = [f[:, grouping.rf_chains[g]] for g in range(grouping.group_count)]
    power = np.zeros(channel.shape[1])
    w_groups: list[np.ndarray | None] = []
    outage: list[int] = []
    for g in range(grouping.group_count):
        channel_group = channel[:, grouping.members[g]]
        try:
            w = zf_precoder(effective_channel(channel_group, f_groups[g]))
            power[grouping.members[g]] = power_allocation(f_groups[g], w, config.P, config.K)
        except NearSingularError:
            w = None
            outage.append(g)
        w_groups.append(w)
    return SlotPrecoders(f_groups=f_groups, w_groups=w_groups, power=power, outage_groups=outage)


# The one place that tells the schemes apart.  Entries reach solve_relaxed,
# zf_precoder and the other stages through this module's names at call time,
# so a name patched on the module (as bench/run.py's traced run does) is seen.
# FULL_DIGITAL_ZF stands in for conventional fully-connected hybrid
# precoding with L = K chains, so it is costed as fully connected.
SCHEMES: dict[SchemeId, Scheme] = {
    SchemeId.MPHP: Scheme(True, "partially-connected", _design_mphp, _build_mphp),
    SchemeId.FULL_DIGITAL_ZF: Scheme(False, "fully-connected", _no_long_term, _build_full_digital),
    SchemeId.FRPS_STATISTICAL: Scheme(True, "fully-connected", _design_frps, _zf_all_groups),
    SchemeId.FIXED_SUBARRAY: Scheme(False, "partially-connected", _no_long_term, _build_fixed_subarray),
    SchemeId.ADAPTIVE_INSTANT: Scheme(False, "partially-connected", _no_long_term, _build_adaptive_instant),
}
