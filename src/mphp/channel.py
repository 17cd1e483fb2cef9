"""Block-fading downlink channel from a geometric multipath model.

Each user radiates over ``path_count`` rays whose departure angles follow a
truncated Gaussian around the user's mean angle of departure (AoD).  The
same density drives both the per-slot channel draws and the closed-form
spatial correlation matrices, so sample statistics converge to the reported
correlations by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import NormalDist
from typing import Sequence

import numpy as np

from .numerics import hermitian_eig  # noqa: F401  (unused; bench/run.py traces it)

# Truncation of the AoD density, in standard deviations around the mean.
AOD_TRUNCATION_SIGMAS = 2.0

# Entropy tag separating scenario draws from channel draws under one seed.
_SCENARIO_STREAM = 0x5CE

_STANDARD_NORMAL = NormalDist()
_CDF_LOW = _STANDARD_NORMAL.cdf(-AOD_TRUNCATION_SIGMAS)
_CDF_WIDTH = _STANDARD_NORMAL.cdf(AOD_TRUNCATION_SIGMAS) - _CDF_LOW


@dataclass(frozen=True)
class ArrayGeometry:
    """Uniform linear array at the base station."""

    antenna_count: int
    element_spacing: float = 0.5  # wavelengths

    def __post_init__(self) -> None:
        if self.antenna_count < 1:
            raise ValueError(f"antenna_count must be >= 1, got {self.antenna_count}")
        if self.element_spacing <= 0:
            raise ValueError(f"element_spacing must be > 0, got {self.element_spacing}")


@dataclass(frozen=True)
class UserChannelParams:
    """Per-user multipath statistics: AoD density and mean power."""

    mean_aod: float  # radians, in (-pi/2, pi/2)
    angular_spread: float  # radians, std of the AoD density
    path_count: int
    mean_power: float = 1.0

    def __post_init__(self) -> None:
        if not -np.pi / 2 < self.mean_aod < np.pi / 2:
            raise ValueError(f"mean_aod must lie in (-pi/2, pi/2), got {self.mean_aod}")
        if self.angular_spread < 0:
            raise ValueError(f"angular_spread must be >= 0, got {self.angular_spread}")
        if self.path_count < 1:
            raise ValueError(f"path_count must be >= 1, got {self.path_count}")
        if self.mean_power <= 0:
            raise ValueError(f"mean_power must be > 0, got {self.mean_power}")


def steering_vector(theta: float, geometry: ArrayGeometry) -> np.ndarray:
    """Array response for departure angle ``theta``; entries unit modulus."""
    return _steering_matrix(np.array([theta]), geometry)[:, 0]


def _steering_matrix(thetas: np.ndarray, geometry: ArrayGeometry) -> np.ndarray:
    """Stack steering vectors column-wise over the last axis of ``thetas``."""
    m = np.arange(geometry.antenna_count)[:, None]
    return np.exp(2j * np.pi * geometry.element_spacing * m * np.sin(np.asarray(thetas))[..., None, :])


def truncated_normal_ppf(uniforms: Sequence[float]) -> np.ndarray:
    """Inverse CDF of the standard normal truncated to +-AOD_TRUNCATION_SIGMAS."""
    return np.array([_STANDARD_NORMAL.inv_cdf(_CDF_LOW + u * _CDF_WIDTH) for u in uniforms])


def correlation_from_params(
    params: UserChannelParams,
    geometry: ArrayGeometry,
    quadrature_points: int = 256,
) -> np.ndarray:
    """Spatial correlation matrix E[h h^H] under the truncated-Gaussian AoD density.

    Midpoint quadrature over the truncated support, renormalized to trace
    M * mean_power; at zero spread the one point ``mean_aod`` with weight 1,
    the outer product mean_power * a a^H as a Toeplitz matrix.  A ULA correlation is Hermitian Toeplitz, R[m, n] =
    c[m - n] with c[-d] = conj(c[d]), so only the M lags c[d] = sum_i w_i
    exp(j phi_i d), phi_i = 2 pi spacing sin(theta_i), are summed, in a new,
    exactly Hermitian array.  They match the steering product A diag(w) A^H
    to about 1e-14 relative (Frobenius) at M = 128 and 1e-13 at M = 1024,
    the rounding of the phase argument phi_i d in either form.  That product
    is PSD, so no projection is needed: negative eigenvalues are rounding.
    """
    if quadrature_points < 32:
        raise ValueError(f"quadrature_points must be >= 32, got {quadrature_points}")
    m_ant = geometry.antenna_count
    if params.angular_spread == 0.0:
        thetas, weights = np.array([params.mean_aod]), np.array([1.0])
    else:
        half_width = AOD_TRUNCATION_SIGMAS * params.angular_spread
        lo = params.mean_aod - half_width
        step = 2.0 * half_width / quadrature_points
        thetas = lo + (np.arange(quadrature_points) + 0.5) * step
        weights = np.exp(-0.5 * ((thetas - params.mean_aod) / params.angular_spread) ** 2)
        weights /= weights.sum()

    # Lag d = b q + r, b = ceil(sqrt(M)): exp(j phi d) is a coarse (b q) times a fine (r) table entry.
    phi = 2.0 * np.pi * geometry.element_spacing * np.sin(thetas)
    b = int(np.ceil(np.sqrt(m_ant)))
    coarse = np.exp(1j * np.outer(b * np.arange(-(-m_ant // b)), phi)) * weights
    lags = (coarse @ np.exp(1j * np.outer(np.arange(b), phi)).T).ravel()[:m_ant]
    # Lag 0 sums the weights times exp(0), so it is real, and R is exactly Hermitian.
    lags *= params.mean_power / lags[0].real
    # Row m of R is the reversed window m of [conj(c[M-1]), ..., conj(c[1]), c[0], ..., c[M-1]].
    both = np.append(lags[:0:-1].conj(), lags)
    return np.array(np.lib.stride_tricks.sliding_window_view(both, m_ant)[:, ::-1], order="C")


@dataclass(frozen=True)
class ChannelPaths:
    """The array-independent part of a stack of slot draws (see ``draw_paths``)."""

    aods: np.ndarray  # (n_slots, total path count): each user's path AoDs, users in order
    gains: tuple[np.ndarray, ...]  # per user, (n_slots, path_count) complex CN(0, 1) path gains


def draw_paths(params: Sequence[UserChannelParams], seed: int, slots: Sequence[int]) -> ChannelPaths:
    """Each slot's path AoDs and gains, for any array.

    Each (user, slot) generator, seeded with entropy (seed, user, slot),
    draws its path uniforms (none at zero spread) and then its gains; all
    uniforms go through one truncated-normal inverse CDF.
    """
    if len(params) < 1:
        raise ValueError("need at least one user")
    if not slots or seed < 0 or min(slots) < 0:
        raise ValueError("need at least one slot; seed and slot must be non-negative")
    uniforms: list[float] = []
    gains: list[np.ndarray] = []
    for t in slots:
        for user, p in enumerate(params):
            rng = np.random.default_rng([seed, user, int(t)])
            if p.angular_spread > 0.0:
                uniforms.extend(rng.uniform(size=p.path_count).tolist())
            real = rng.standard_normal(p.path_count)
            gains.append((real + 1j * rng.standard_normal(p.path_count)) / np.sqrt(2.0))

    counts = [p.path_count for p in params]
    aods = np.tile(np.repeat([p.mean_aod for p in params], counts), (len(slots), 1))
    spreads = np.repeat([p.angular_spread for p in params], counts)
    drawn = spreads > 0.0
    standard = truncated_normal_ppf(uniforms)
    aods[:, drawn] = standard.reshape(len(slots), -1) * spreads[drawn] + aods[:, drawn]
    return ChannelPaths(aods, tuple(np.stack(gains[user :: len(params)]) for user in range(len(params))))


def channel_from_paths(
    paths: ChannelPaths, params: Sequence[UserChannelParams], geometry: ArrayGeometry
) -> np.ndarray:
    """The (n_slots, M, K) channels of ``paths`` on ``geometry``.

    One steering matrix covers every path of every slot; the per-user
    column product stays separate, so each column sums in the same order
    as a single-user draw.
    """
    a = _steering_matrix(paths.aods, geometry)
    h = np.empty((len(paths.aods), geometry.antenna_count, len(params)), dtype=complex)
    end = 0
    for user, (p, g) in enumerate(zip(params, paths.gains)):
        end += p.path_count
        h[..., user] = np.sqrt(p.mean_power / p.path_count) * (a[..., end - p.path_count : end] @ g[..., None])[..., 0]
    return h


def draw_channel(
    params: Sequence[UserChannelParams],
    geometry: ArrayGeometry,
    seed: int,
    slot: int | Sequence[int] = 0,
) -> np.ndarray:
    """Draw one block-fading channel matrix H of shape (M, K), or, for a
    sequence of slot indices, one per slot stacked as (n, M, K).

    Column k is user k's channel: sqrt(mean_power / path_count) times the
    sum of CN(0,1)-weighted steering vectors at sampled AoDs.  Regeneration
    is bit-identical for the same (seed, user index, slot index), alone or
    in a stack.  This is ``channel_from_paths(draw_paths(...))``; the path
    draw reads no array, so one draw can serve several arrays.
    """
    slots = [slot] if np.ndim(slot) == 0 else list(slot)
    h = channel_from_paths(draw_paths(params, seed, slots), params, geometry)
    return h[0] if np.ndim(slot) == 0 else h


def make_scenario(
    n_users: int,
    n_clusters: int,
    *,
    angular_spread: float = 0.1,
    path_count: int = 6,
    aod_jitter: float = 0.02,
    mean_power: float = 1.0,
    seed: int = 0,
) -> list[UserChannelParams]:
    """Clustered-user scenario: users share per-cluster AoD statistics.

    Cluster centers sit at the interior midpoints of an even split of
    (-pi/3, pi/3); users join clusters round-robin with a small uniform
    jitter on their mean AoD, so same-cluster users have nearly identical
    correlation matrices.
    """
    if n_clusters < 1 or n_clusters > n_users:
        raise ValueError(f"need 1 <= n_clusters <= n_users, got {n_clusters} and {n_users}")
    span = 2.0 * np.pi / 3.0
    centers = -np.pi / 3.0 + span * (np.arange(n_clusters) + 0.5) / n_clusters
    rng = np.random.default_rng([seed, _SCENARIO_STREAM])
    jitter = rng.uniform(-aod_jitter, aod_jitter, size=n_users)
    return [
        UserChannelParams(
            mean_aod=float(centers[u % n_clusters] + jitter[u]),
            angular_spread=angular_spread,
            path_count=path_count,
            mean_power=mean_power,
        )
        for u in range(n_users)
    ]


def scenario_correlations(
    params: Sequence[UserChannelParams],
    geometry: ArrayGeometry,
    quadrature_points: int = 256,
) -> list[np.ndarray]:
    """Per-user correlation matrices for a scenario."""
    return [correlation_from_params(p, geometry, quadrature_points) for p in params]
