"""Long-timescale RF precoder design.

Per group, the analog precoder is obtained in two stages:

1. A relaxed max-min problem on the statistical signal-to-leakage-and-noise
   ratio (SSLNR), solved per group by eigendecomposition of the signal
   correlation minus a weighted leakage correlation, with the weight found
   by bisection on the fixed-point equation of the optimal value.
2. A greedy projection (GRFP) of the relaxed solution onto the hardware
   constraint set: each antenna connects to exactly one RF chain through one
   phase shifter whose phase lives on a B-bit grid, and every chain keeps at
   least one antenna.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grouping import Grouping
from .numerics import hermitian_eig

BISECTION_TOL = 1e-9
BISECTION_MAX_ITERS = 200


class DegenerateGroupError(ValueError):
    """Group correlation has no usable signal subspace (zero dominant energy)."""


class ZeroColumnError(ValueError):
    """A relaxed precoder column is identically zero; antennas cannot be ranked."""


@dataclass
class RfPrecoder:
    """Structured analog precoder: one phase-shifter tap per antenna.

    Row m of ``f`` has its single nonzero in column ``antenna_to_chain[m]``,
    with value (1/sqrt(M)) * exp(2j*pi*phase_index[m] / 2**bits).
    """

    f: np.ndarray  # (M, L) complex
    antenna_to_chain: np.ndarray  # (M,) int
    phase_index: np.ndarray  # (M,) int
    bits: int


@dataclass
class RelaxedSolution:
    """Per-group output of the relaxed SSLNR optimization."""

    alpha_star: list[float]
    f_star: list[np.ndarray]  # per group, (M, S_g) scaled eigenvector columns


def phase_grid(bits: int) -> np.ndarray:
    """The 2**bits feasible phase-shifter values on the unit circle."""
    if bits < 1:
        raise ValueError(f"bits must be >= 1, got {bits}")
    n = np.arange(2**bits)
    return np.exp(2j * np.pi * n / 2**bits)


def nearest_phase_index(value: complex, bits: int) -> int:
    """Grid index minimizing chord distance to value's phase; 0 for value = 0.

    Ties resolve to the lowest index.
    """
    mag = abs(value)
    if mag == 0.0:
        return 0
    unit = value / mag
    return int(np.argmin(np.abs(unit - phase_grid(bits))))


def leakage_correlation(grouping: Grouping, g: int) -> np.ndarray:
    """Size-weighted sum of the other groups' average correlations."""
    if not 0 <= g < grouping.group_count:
        raise ValueError(f"group index {g} out of range")
    sizes = grouping.sizes
    m_ant = grouping.group_correlations[0].shape[0]
    out = np.zeros((m_ant, m_ant), dtype=complex)
    for other in range(grouping.group_count):
        if other == g:
            continue
        out += sizes[g] * sizes[other] * grouping.group_correlations[other]
    return out


def relaxed_step(
    signal_corr: np.ndarray,
    leak_corr: np.ndarray,
    alpha: float,
    streams: int,
    objective_exponent: int = 2,
) -> tuple[np.ndarray, float]:
    """Optimal relaxed precoder and objective value at a fixed leakage weight.

    Eigendecomposes ``signal_corr - alpha * leak_corr`` (descending) and keeps
    the ``streams`` dominant eigenvectors; a column whose eigenvalue is
    negative is shrunk to norm 1/sqrt(M) (the lower end of the feasible
    column-norm range), otherwise it keeps norm 1.  The returned value is the
    weighted sum of the selected eigenvalues; ``objective_exponent`` selects
    whether the column scaling enters linearly or squared (squared is the
    trace-consistent default).
    """
    if alpha < 0:
        raise ValueError(f"alpha must be >= 0, got {alpha}")
    if objective_exponent not in (1, 2):
        raise ValueError(f"objective_exponent must be 1 or 2, got {objective_exponent}")
    m_ant = signal_corr.shape[0]
    values, vectors = hermitian_eig(signal_corr - alpha * leak_corr)
    top_values = values[:streams]
    scales = np.where(top_values >= 0, 1.0, 1.0 / np.sqrt(m_ant))
    f_star = vectors[:, :streams] * scales[None, :]
    f_value = float(np.sum(top_values * scales**objective_exponent))
    return f_star, f_value


def solve_alpha_star(
    signal_corr: np.ndarray,
    leak_corr: np.ndarray,
    streams: int,
    n_users: int,
    power: float,
    tol: float = BISECTION_TOL,
    max_iters: int = BISECTION_MAX_ITERS,
    objective_exponent: int = 2,
) -> tuple[float, np.ndarray]:
    """Solve f(alpha) = (K * S_g / P) * alpha by bisection.

    f is non-increasing (the leakage correlation is PSD) and the right-hand
    side grows linearly, so the crossing is unique; the bracket upper end
    doubles from 1 until the right-hand side dominates.  Returns the crossing
    ``alpha_star`` (relative residual at most ``tol``) and the relaxed
    precoder evaluated there.

    Raises:
        DegenerateGroupError: f(0) <= 0, i.e. the group correlation carries
            no energy on its dominant subspace.
    """
    if tol <= 0:
        raise ValueError(f"tol must be > 0, got {tol}")
    slope = n_users * streams / power

    def objective(alpha: float) -> float:
        _, value = relaxed_step(signal_corr, leak_corr, alpha, streams, objective_exponent)
        return value

    f0 = objective(0.0)
    if f0 <= 0:
        raise DegenerateGroupError(f"relaxed objective at alpha=0 is {f0:.3e}, expected > 0")

    def residual_ok(alpha: float, value: float) -> bool:
        rhs = slope * alpha
        return rhs > 0 and abs(value - rhs) <= tol * rhs

    hi = 1.0
    value_hi = objective(hi)
    while value_hi > slope * hi:
        hi *= 2.0
        value_hi = objective(hi)
    if residual_ok(hi, value_hi):
        f_star, _ = relaxed_step(signal_corr, leak_corr, hi, streams, objective_exponent)
        return hi, f_star

    lo = 0.0
    alpha = hi
    for _ in range(max_iters):
        alpha = 0.5 * (lo + hi)
        value = objective(alpha)
        if residual_ok(alpha, value):
            f_star, _ = relaxed_step(signal_corr, leak_corr, alpha, streams, objective_exponent)
            return alpha, f_star
        if value > slope * alpha:
            lo = alpha
        else:
            hi = alpha
    raise RuntimeError(
        f"bisection did not reach relative residual {tol:g} in {max_iters} iterations"
    )


def solve_relaxed(
    grouping: Grouping,
    n_users: int,
    power: float,
    tol: float = BISECTION_TOL,
    max_iters: int = BISECTION_MAX_ITERS,
    objective_exponent: int = 2,
) -> RelaxedSolution:
    """Run the relaxed per-group solve for every group."""
    alphas: list[float] = []
    precoders: list[np.ndarray] = []
    for g in range(grouping.group_count):
        alpha, f_star = solve_alpha_star(
            grouping.group_correlations[g],
            leakage_correlation(grouping, g),
            streams=len(grouping.members[g]),
            n_users=n_users,
            power=power,
            tol=tol,
            max_iters=max_iters,
            objective_exponent=objective_exponent,
        )
        alphas.append(alpha)
        precoders.append(f_star)
    return RelaxedSolution(alpha_star=alphas, f_star=precoders)


def grfp_assign(
    relaxed: RelaxedSolution,
    grouping: Grouping,
    bits: int,
    antenna_count: int,
) -> RfPrecoder:
    """Greedily project the relaxed solution onto the hardware constraints.

    Groups are visited in ascending order of their leakage weight (most
    constrained group first, ties to the lowest group index); each visit to a
    group column claims the unassigned antenna with the largest relaxed
    magnitude and fixes its shifter to the nearest grid phase.  One sweep over
    all group columns assigns one antenna per RF chain, and sweeps repeat
    round-robin until all antennas are connected, so chains accumulate
    antennas while the sweep priority is preserved.
    """
    n_chains = sum(len(m) for m in grouping.members)
    if n_chains > antenna_count:
        raise ValueError(f"need at least as many antennas as chains ({n_chains})")
    for g, f_star in enumerate(relaxed.f_star):
        zero_cols = np.where(~np.any(np.abs(f_star) > 0, axis=0))[0]
        if zero_cols.size:
            raise ZeroColumnError(f"group {g} relaxed column {zero_cols[0]} is identically zero")

    order = np.argsort(np.asarray(relaxed.alpha_star), kind="stable")
    inv_sqrt_m = 1.0 / np.sqrt(antenna_count)
    grid = phase_grid(bits)

    f = np.zeros((antenna_count, n_chains), dtype=complex)
    antenna_to_chain = np.full(antenna_count, -1, dtype=int)
    phase_index = np.zeros(antenna_count, dtype=int)
    unassigned = np.ones(antenna_count, dtype=bool)
    assigned = 0

    while assigned < antenna_count:
        for g in order:
            g = int(g)
            f_star = relaxed.f_star[g]
            chains = grouping.rf_chains[g]
            for i in range(len(chains)):
                magnitudes = np.where(unassigned, np.abs(f_star[:, i]), -1.0)
                antenna = int(np.argmax(magnitudes))
                n_star = nearest_phase_index(f_star[antenna, i], bits)
                chain = int(chains[i])
                f[antenna, chain] = inv_sqrt_m * grid[n_star]
                antenna_to_chain[antenna] = chain
                phase_index[antenna] = n_star
                unassigned[antenna] = False
                assigned += 1
                if assigned == antenna_count:
                    break
            if assigned == antenna_count:
                break

    return RfPrecoder(f=f, antenna_to_chain=antenna_to_chain, phase_index=phase_index, bits=bits)


def validate_rf_precoder(precoder: RfPrecoder) -> None:
    """Check the hardware constraints exactly; raise ValueError on violation.

    Exactness means each stored nonzero must equal the value reconstructed
    from its phase index, not merely match in magnitude.
    """
    f = precoder.f
    m_ant, n_chains = f.shape
    nonzero = f != 0
    rows_bad = np.where(nonzero.sum(axis=1) != 1)[0]
    if rows_bad.size:
        raise ValueError(f"antenna {rows_bad[0]} must connect to exactly one chain")
    cols_empty = np.where(nonzero.sum(axis=0) == 0)[0]
    if cols_empty.size:
        raise ValueError(f"chain {cols_empty[0]} has no antenna connected")
    grid = phase_grid(precoder.bits)
    expected_cols = np.argmax(nonzero, axis=1)
    if not np.array_equal(expected_cols, precoder.antenna_to_chain):
        raise ValueError("antenna_to_chain map disagrees with the nonzero pattern")
    reconstructed = grid[precoder.phase_index] / np.sqrt(m_ant)
    stored = f[np.arange(m_ant), precoder.antenna_to_chain]
    mismatch = np.where(stored != reconstructed)[0]
    if mismatch.size:
        raise ValueError(f"antenna {mismatch[0]} entry is off the quantized grid")


def sslnr(
    f_group: np.ndarray,
    grouping: Grouping,
    g: int,
    n_users: int,
    power: float,
) -> float:
    """Statistical SLNR of one group for a candidate per-group precoder.

    Signal energy on the group's average correlation over size-weighted
    leakage into the other groups' correlations plus the noise term
    K * S_g / P.
    """
    signal = float(np.real(np.trace(f_group.conj().T @ grouping.group_correlations[g] @ f_group)))
    leakage = float(np.real(np.trace(f_group.conj().T @ leakage_correlation(grouping, g) @ f_group)))
    noise = n_users * grouping.sizes[g] / power
    return signal / (leakage + noise)
