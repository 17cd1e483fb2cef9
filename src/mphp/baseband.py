"""Short-timescale per-group baseband processing.

Given the analog precoder, each group sees a low-dimensional effective
channel; a zero-forcing precoder with unit-norm columns removes intra-group
interference, and a per-user power normalization keeps the total transmit
power at P across all users.
"""

from __future__ import annotations

import numpy as np

from .numerics import solve_right_inverse


class DegenerateBeamError(ValueError):
    """A user's combined analog+baseband beam has zero norm; power is undefined."""


def effective_channel(channel_group: np.ndarray, rf_group: np.ndarray) -> np.ndarray:
    """Reduced channel H_g^H F_g seen by the group's baseband stage (slot axes broadcast)."""
    if channel_group.shape[-2] != rf_group.shape[-2]:
        raise ValueError(
            f"antenna dimensions differ: {channel_group.shape[-2]} vs {rf_group.shape[-2]}"
        )
    return np.swapaxes(channel_group.conj(), -1, -2) @ rf_group


def zf_precoder(effective: np.ndarray) -> np.ndarray:
    """Zero-forcing precoder with unit-norm columns for each channel of a
    stack (..., S, n), S <= n users on n inputs: a group's effective
    channel (n = S) or, for full digital, a whole slot's H^H (n = M).

    Its columns are those of ``solve_right_inverse``'s pseudo-inverse,
    normalised, so the product of the channel with its precoder is diagonal
    with real positive entries (the inverse column norms).  A matrix that
    fails the condition test, or whose unnormalized precoder has a zero
    column, gets an all-zero precoder, which marks its group as an outage
    there.
    """
    w0 = solve_right_inverse(effective)
    norms = np.linalg.norm(w0, axis=-2, keepdims=True)
    usable = np.all(norms != 0, axis=(-2, -1), keepdims=True)
    return np.divide(w0, norms, out=np.zeros_like(w0), where=usable)


def power_allocation(beams: np.ndarray, total_power: float, n_users: int) -> np.ndarray:
    """Per-user transmit powers P / (K * ||b_k||^2) of the beams b_k = F_g w_k,
    the columns of ``beams`` (..., M, S).

    Summed over all K users (across groups), p_k * ||b_k||^2 adds up to the
    power budget exactly.  Leading slot axes broadcast.
    """
    beam_energy = np.sum(np.abs(beams) ** 2, axis=-2)
    if np.any(beam_energy == 0):
        raise DegenerateBeamError("a user beam has zero norm through the analog precoder")
    return total_power / (n_users * beam_energy)
