"""Short-timescale per-group baseband processing.

Given the analog precoder, each group sees a low-dimensional effective
channel; a zero-forcing precoder with unit-norm columns removes intra-group
interference, and a per-user power normalization keeps the total transmit
power at P across all users.
"""

from __future__ import annotations

import numpy as np

from .numerics import NearSingularError, solve_right_inverse


class DegenerateBeamError(ValueError):
    """A user's combined analog+baseband beam has zero norm; power is undefined."""


def effective_channel(channel_group: np.ndarray, rf_group: np.ndarray) -> np.ndarray:
    """Reduced channel H_g^H F_g seen by the group's baseband stage."""
    if channel_group.shape[0] != rf_group.shape[0]:
        raise ValueError(
            f"antenna dimensions differ: {channel_group.shape[0]} vs {rf_group.shape[0]}"
        )
    return channel_group.conj().T @ rf_group


def zf_precoder(effective: np.ndarray) -> np.ndarray:
    """Zero-forcing baseband precoder with unit-norm columns.

    The product of the effective channel with the result is diagonal with
    real positive entries (the inverse column norms).

    Raises:
        NearSingularError: effective channel condition number is beyond the
            shared cutoff; the caller treats the group as an outage.
    """
    if effective.shape[0] != effective.shape[1]:
        raise ValueError(f"effective channel must be square, got {effective.shape}")
    w0 = solve_right_inverse(effective)
    norms = np.linalg.norm(w0, axis=0)
    if np.any(norms == 0):
        raise NearSingularError("zero column in the unnormalized precoder")
    return w0 / norms[None, :]


def power_allocation(
    rf_group: np.ndarray,
    w_group: np.ndarray,
    total_power: float,
    n_users: int,
) -> np.ndarray:
    """Per-user transmit powers P / (K * ||F_g w_k||^2).

    Summed over all K users (across groups), p_k * ||F_g w_k||^2 adds up to
    the power budget exactly.
    """
    beam_energy = np.sum(np.abs(rf_group @ w_group) ** 2, axis=0)
    if np.any(beam_energy == 0):
        raise DegenerateBeamError("a user beam has zero norm through the analog precoder")
    return total_power / (n_users * beam_energy)
