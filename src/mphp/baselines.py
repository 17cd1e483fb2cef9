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

All schemes share the B-bit phase grid and one nearest-point quantization
rule (``rf_precoder.nearest_phase_index``: floor(angle / step + 1/2), which
also decides half steps), so differences reflect the connection strategy,
not the quantizer, and all share the per-group zero-forcing baseband stage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from .baseband import power_allocation, zf_precoder, effective_channel
from .config import SchemeId, SystemConfig
from .grouping import Grouping
from .numerics import hermitian_eig  # noqa: F401  (unused; bench/run.py traces it)
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

    Column k of ``beams`` (n, M, K) is user k's beam b_k = F_g w_k, its
    group's analog columns times its zero-forcing column (for the
    full-digital scheme, its unit-norm ZF beam), and ``power`` (n, K) its
    transmit power; both are indexed by global user index.  The beams do not
    depend on P; only ``power`` does.  ``usable`` (n, G) is False where a
    group is in outage in a slot: that group's beams are zero there, so its
    users transmit nothing, cause no interference, and log zero rate.
    """

    beams: np.ndarray
    power: np.ndarray
    usable: np.ndarray

    @property
    def outage_groups(self) -> list[tuple[int, int]]:
        """The (slot, group) pairs in outage, in order, read off ``usable``."""
        return [(int(t), int(g)) for t, g in np.argwhere(~self.usable)]


@dataclass(frozen=True)
class Scheme:
    """How one scheme is designed, rebuilt every slot and accounted.

    ``design(grouping, config)`` returns the slow-timescale state, designed
    from the grouping (correlations) alone, or None for a real-time scheme;
    it reads no ``SystemConfig`` field but those ``design_reads`` names, so
    configs that agree on them share one design on one grouping.
    ``build(state, channel, grouping, config)`` returns the beams (n, M, K)
    of a stack of slots and the (n, G) mask of the groups not in outage;
    ``build_precoders`` sets the powers.  ``statistical`` schemes feed back
    correlation statistics once per period; ``fully_connected`` schemes are
    costed one phase shifter per (antenna, chain) pair (see
    ``metrics.energy_efficiency``).
    """

    statistical: bool
    fully_connected: bool
    design: Callable[[Grouping, SystemConfig], Any]
    design_reads: tuple[str, ...]
    build: Callable[[Any, np.ndarray, Grouping, SystemConfig], tuple[np.ndarray, np.ndarray]]


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
    """Assemble the per-slot beams and powers of a scheme for a stack of
    slots (n, M, K); a single slot is a stack of one.

    Statistical schemes reuse ``long_state`` untouched; real-time schemes
    rebuild their analog stage from the current channels.  The scheme's
    build zero-forces (``zf_precoder``: per group, or once on H^H for full
    digital), and a near-singular channel marks its group as an outage in
    that slot instead of aborting it; then ``_with_power`` sets every power
    in one step.
    """
    return _with_power(*SCHEMES[scheme].build(long_state, channel, grouping, config), grouping, config)


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


def fixed_subarray_precoder(channel: np.ndarray, grouping: Grouping, bits: int) -> RfPrecoder:
    """Static even antenna split with instantaneous phase alignment, per
    slot of a stack: one-based antenna m feeds chain ceil(m * L / M)."""
    m_ant, chains = channel.shape[-2:]
    mapping = (np.arange(1, m_ant + 1) * chains - 1) // m_ant
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
    served = np.broadcast_to(chain_to_user[antenna_to_chain], channel.shape[:-1])
    phase_index = nearest_phase_index(np.take_along_axis(channel, served[..., None], axis=-1)[..., 0], bits)
    return RfPrecoder(antenna_to_chain, phase_index, bits, chain_to_user.size)


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
) -> tuple[np.ndarray, np.ndarray]:
    """Unit-norm zero-forcing beams on the instantaneous channels, from one
    ``zf_precoder`` call on the stack of H^H; a slot whose channel fails the
    condition test puts every group in outage."""
    beams = zf_precoder(np.swapaxes(channel.conj(), -1, -2))
    usable = np.broadcast_to(beams.any(axis=(-2, -1))[:, None], (len(beams), grouping.group_count))
    return beams, usable


def _zf_all_groups(f: np.ndarray, channel: np.ndarray, grouping: Grouping, config: SystemConfig) -> tuple[np.ndarray, np.ndarray]:
    """Per-group zero-forcing on a stack of channels (n, M, K) behind an
    analog matrix, shared (M, L) or one per slot (n, M, L): user k's beam is
    its group's analog columns F_g times its ZF column w_k."""
    beams = np.zeros(channel.shape, dtype=complex)
    usable = np.zeros((len(channel), grouping.group_count), dtype=bool)
    for g, (chains, members) in enumerate(zip(grouping.rf_chains, grouping.members)):
        f_group = f[..., chains]
        w = zf_precoder(effective_channel(channel[..., members], f_group))
        beams[..., members] = f_group @ w
        usable[:, g] = w.any(axis=(-2, -1))
    return beams, usable


def _with_power(beams: np.ndarray, usable: np.ndarray, grouping: Grouping, config: SystemConfig) -> SlotPrecoders:
    """Powers of a stack of beams (n, M, K); ``usable[t, g]`` False puts
    group g in outage in slot t, where its beams are zero."""
    live = usable[:, grouping.assignments]
    power = np.zeros(live.shape)
    # The live beams as the columns of one (M, N) view with M contiguous,
    # so each energy sums over M in the order of a single group's.
    power[live] = power_allocation(np.swapaxes(beams, -1, -2)[live].T, config.P, config.K)
    return SlotPrecoders(beams=beams, power=power, usable=usable)


# The one place that tells the schemes apart.  The entries, and the builders
# they call, name solve_relaxed, zf_precoder and the other stages in their
# bodies, so each is looked up on this module at call time and a name patched
# on it (as bench/run.py's traced run does) is seen.  Every build zero-forces
# through ``zf_precoder`` and returns (beams, usable); none sets a power.
# MPHP and the real-time schemes zero-force behind an ``RfPrecoder``'s matrix
# ``f``.  FULL_DIGITAL_ZF stands in for conventional fully-connected hybrid
# precoding with L = K chains, so it is costed as fully connected.
SCHEMES: dict[SchemeId, Scheme] = {
    SchemeId.MPHP: Scheme(True, False, _design_mphp, ("B", "P"), lambda state, *slots: _zf_all_groups(state.f, *slots)),
    SchemeId.FULL_DIGITAL_ZF: Scheme(False, True, _no_long_term, (), _build_full_digital),
    SchemeId.FRPS_STATISTICAL: Scheme(True, True, _design_frps, ("B",), _zf_all_groups),
    SchemeId.FIXED_SUBARRAY: Scheme(
        False, False, _no_long_term, (),
        lambda _, h, grouping, config: _zf_all_groups(fixed_subarray_precoder(h, grouping, config.B).f, h, grouping, config),
    ),
    SchemeId.ADAPTIVE_INSTANT: Scheme(
        False, False, _no_long_term, (),
        lambda _, h, grouping, config: _zf_all_groups(adaptive_instant_precoder(h, grouping, config.B).f, h, grouping, config),
    ),
}
