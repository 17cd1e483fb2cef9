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
# Rows of the fine steering table; fixed, so a steering row does not depend on the array size.
STEERING_FINE = 8

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
    """Stack steering vectors column-wise over the last axis of ``thetas``.

    Entry m = 8 q + r (8 = ``STEERING_FINE``) is the coarse exp(j c 8q sin
    theta) times the fine exp(j c r sin theta), c = 2 pi spacing: M / 8 + 8
    exponentials per angle instead of M, within about 1e-12 of
    exp(j c m sin theta) at M = 1024.  The fine width is fixed, so entry m
    does not depend on the array size.
    """
    sines = np.sin(np.asarray(thetas))[..., None, :]
    coarse_rows = STEERING_FINE * np.arange(-(-geometry.antenna_count // STEERING_FINE))
    coarse, fine = (
        np.exp(1j * (2.0 * np.pi * geometry.element_spacing * rows[:, None] * sines))
        for rows in (coarse_rows, np.arange(STEERING_FINE))
    )
    table = coarse[..., :, None, :] * fine[..., None, :, :]
    return table.reshape(*table.shape[:-3], -1, table.shape[-1])[..., : geometry.antenna_count, :]


def truncated_normal_ppf(uniforms: Sequence[float]) -> np.ndarray:
    """Inverse CDF of the standard normal truncated to +-AOD_TRUNCATION_SIGMAS."""
    return np.array([_STANDARD_NORMAL.inv_cdf(_CDF_LOW + u * _CDF_WIDTH) for u in uniforms])


def draw_channel(
    params: Sequence[UserChannelParams],
    geometry: ArrayGeometry,
    seed: int,
    slot: int | Sequence[int] = 0,
) -> np.ndarray:
    """Draw one block-fading channel matrix H of shape (M, K), or, for a
    sequence of slot indices, one per slot stacked as (n, M, K).

    Slot t's one generator, seeded with entropy (seed, t), draws 3 p
    uniforms per user of p paths, users in order: p for the AoDs (drawn at
    zero spread too), then p moduli u1 and p phases u2 of the gains
    sqrt(-ln(1 - u1)) exp(2j pi u2), which are exactly CN(0, 1).  So a
    user's numbers sit at an offset fixed by the path counts of the users
    before it: slot t regenerates bit for bit alone or in a stack, and user
    k's column is the same whatever users follow it.  The drawn AoD
    uniforms go through one truncated-normal inverse CDF.

    Column k is user k's sum of its paths' steering vectors, each times its
    gain and sqrt(mean_power / path_count), added path by path in order.
    A user with fewer paths than the most is padded with zero-gain paths,
    which add exact zeros; with equal counts the (n, M, K, paths) view of
    the scaled steering table allocates nothing.  Every step is
    elementwise, so row m does not depend on the array size: a narrower
    array's channels are the leading rows of a wider one's.
    """
    slots = [slot] if np.ndim(slot) == 0 else list(slot)
    if len(params) < 1:
        raise ValueError("need at least one user")
    if not slots or seed < 0 or min(slots) < 0:
        raise ValueError("need at least one slot; seed and slot must be non-negative")
    h = _path_sum(*_path_draws(params, seed, slots), params, geometry)
    return h[0] if np.ndim(slot) == 0 else h


def _path_draws(params: Sequence[UserChannelParams], seed: int, slots: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """``draw_channel``'s (n, total paths) AoDs and gains, users' paths in order."""
    counts = np.array([p.path_count for p in params])
    total, per_user = int(counts.sum()), np.repeat(counts, counts)
    # A user after o paths starts at 3 o: its path i's AoD is at 3 o + i, the modulus p later, the phase 2 p later.
    aod_at = 2 * np.repeat(np.cumsum(counts) - counts, counts) + np.arange(total)
    uniforms = np.stack([np.random.default_rng([seed, int(t)]).random(3 * total) for t in slots])
    moduli, phases = (np.take(uniforms, aod_at + k * per_user, axis=1) for k in (1, 2))
    gains = np.sqrt(-np.log1p(-moduli)) * np.exp(2j * np.pi * phases)

    aods = np.tile(np.repeat([p.mean_aod for p in params], counts), (len(slots), 1))
    spreads = np.repeat([p.angular_spread for p in params], counts)
    drawn = spreads > 0.0
    standard = truncated_normal_ppf(uniforms[:, aod_at[drawn]].ravel().tolist())
    aods[:, drawn] = standard.reshape(len(slots), -1) * spreads[drawn] + aods[:, drawn]
    return aods, gains


def _path_sum(aods: np.ndarray, gains: np.ndarray, params: Sequence[UserChannelParams], geometry: ArrayGeometry) -> np.ndarray:
    """``draw_channel``'s (n, M, K) sum of the paths ``_path_draws`` drew; ``aods`` and ``gains`` stay as they are."""
    counts = np.array([p.path_count for p in params])
    width = int(counts.max())
    padded = (np.arange(width) < counts[:, None]).ravel()
    if not padded.all():
        unpadded = aods, gains
        aods, gains = np.zeros((len(aods), padded.size)), np.zeros((len(aods), padded.size), dtype=complex)
        aods[:, padded], gains[:, padded] = unpadded
    scale = np.repeat([np.sqrt(p.mean_power / p.path_count) for p in params], width)
    terms = _steering_matrix(aods, geometry)
    terms *= (scale * gains)[..., None, :]
    by_path = terms.reshape(*terms.shape[:-1], len(params), width)
    h = np.zeros(by_path.shape[:-1], dtype=complex)
    for i in range(width):
        h += by_path[..., i]
    return h


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
) -> np.ndarray:
    """Per-user spatial correlation matrices E[h h^H] under the
    truncated-Gaussian AoD density, all users in one pass, as one new
    C-contiguous (K, M, M) array: row k is user k's matrix, itself
    writeable and C-contiguous, and the only copy made of it.

    Midpoint quadrature over the truncated support, renormalized to trace
    M * mean_power; at zero spread the one point ``mean_aod`` with weight 1,
    the outer product mean_power * a a^H as a Toeplitz matrix.  A ULA
    correlation is Hermitian Toeplitz, R[m, n] = c[m - n] with
    c[-d] = conj(c[d]), so only the M lags c[d] = sum_i w_i exp(j phi_i d),
    phi_i = 2 pi spacing sin(theta_i), are summed, in a new, exactly
    Hermitian array.  They match the steering product A diag(w) A^H to
    about 1e-14 relative (Frobenius) at M = 128 and 1e-13 at M = 1024, the
    rounding of the phase argument phi_i d in either form.  That product is
    PSD, so no projection is needed: negative eigenvalues are rounding.
    Users with the same number of quadrature points share one batched lag
    sum, which multiplies each user's tables as that user's own product
    would, so a user's matrix does not depend on the users beside it.
    """
    if quadrature_points < 32:
        raise ValueError(f"quadrature_points must be >= 32, got {quadrature_points}")
    m_ant = geometry.antenna_count
    means = np.array([[p.mean_aod] for p in params])
    spreads = np.array([[p.angular_spread] for p in params])
    lags = np.empty((len(params), m_ant), dtype=complex)
    zero = spreads[:, 0] == 0.0
    if zero.any():
        lags[zero] = _lag_sums(means[zero], np.ones((np.count_nonzero(zero), 1)), geometry)
    if not zero.all():
        mean, spread = means[~zero], spreads[~zero]
        half_width = AOD_TRUNCATION_SIGMAS * spread
        step = 2.0 * half_width / quadrature_points
        thetas = (mean - half_width) + (np.arange(quadrature_points) + 0.5) * step
        weights = np.exp(-0.5 * ((thetas - mean) / spread) ** 2)
        weights /= weights.sum(axis=1, keepdims=True)
        lags[~zero] = _lag_sums(thetas, weights, geometry)
    # Lag 0 sums the weights times exp(0), so it is real, and R is exactly Hermitian.
    lags *= np.array([p.mean_power for p in params])[:, None] / lags[:, :1].real
    # Row m of R is the reversed window m of [conj(c[M-1]), ..., conj(c[1]), c[0], ..., c[M-1]].
    both = np.concatenate([lags[:, :0:-1].conj(), lags], axis=1)
    return np.array(np.lib.stride_tricks.sliding_window_view(both, m_ant, axis=1)[..., ::-1], order="C")


def _lag_sums(thetas: np.ndarray, weights: np.ndarray, geometry: ArrayGeometry) -> np.ndarray:
    """The unnormalized lags c[d] = sum_i w_i exp(j phi_i d), d < M, of each
    row of ``thetas`` and ``weights`` (n, Q).  Lag d = b q + r,
    b = ceil(sqrt(M)): exp(j phi d) is a coarse (b q) times a fine (r)
    table entry, so the sum is one (M / b x Q) @ (Q x b) product per row."""
    m_ant = geometry.antenna_count
    phi = (2.0 * np.pi * geometry.element_spacing * np.sin(thetas))[:, None, :]
    b = int(np.ceil(np.sqrt(m_ant)))
    coarse = np.exp(1j * ((b * np.arange(-(-m_ant // b)))[:, None] * phi)) * weights[:, None, :]
    fine = np.exp(1j * (np.arange(b)[:, None] * phi))
    return (coarse @ np.swapaxes(fine, -1, -2)).reshape(len(thetas), -1)[:, :m_ant]
