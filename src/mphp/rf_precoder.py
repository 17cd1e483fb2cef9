"""Long-timescale RF precoder design.

Per group, the analog precoder is obtained in two stages:

1. A relaxed max-min problem on the statistical signal-to-leakage-and-noise
   ratio (SSLNR), solved per group by eigendecomposition of the signal
   correlation minus a weighted leakage correlation.  The weight is the
   bisection midpoint on the fixed-point equation of the optimal value,
   bit-identical to plain bisection.  Newton steps bound the root from
   values-only eigensolves, and a midpoint farther from it than the
   residual band plus a rounding allowance is decided without an
   eigendecomposition; that margin is exact, not padded, so only the last
   few midpoints get a full eigendecomposition.
2. A greedy projection (GRFP) of the relaxed solution onto the hardware
   constraint set: each antenna connects to exactly one RF chain through one
   phase shifter whose phase lives on a B-bit grid, and every chain keeps at
   least one antenna.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grouping import Grouping
from .numerics import EigenDecomposition, hermitian_eig, hermitian_eigvals

BISECTION_TOL = 1e-9
BISECTION_MAX_ITERS = 200
# Newton steps solve_alpha_star takes before it replays the bisection.
_NEWTON_MAX_STEPS = 8

_TINY = np.finfo(float).tiny
_SUBNORMAL_SCALE = 2.0**600


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


def nearest_phase_index(value: complex | np.ndarray, bits: int) -> int | np.ndarray:
    """Grid index minimizing chord distance to value's phase; 0 for value = 0.

    A scalar gives an ``int``; an array gives an integer array of its shape,
    quantized elementwise against one grid.  Ties resolve to the lowest index.
    """
    grid = phase_grid(bits)
    # A scalar keeps the scalar abs(): the array abs can differ in the last
    # bit, which could flip a near-tie in grfp_assign's per-antenna calls.
    # A subnormal magnitude is first scaled by an exact power of two, since
    # dividing by it computes 1/|value|, which overflows; normal values keep
    # their bits.
    if np.ndim(value) == 0:
        mag = abs(value)
        if mag == 0.0:
            return 0
        if mag < _TINY:
            value = value * _SUBNORMAL_SCALE
            mag = abs(value)
        return int(np.argmin(np.abs(value / mag - grid)))
    values = np.asarray(value, dtype=complex)
    mag = np.abs(values)
    nonzero = mag != 0.0
    subnormal = nonzero & (mag < _TINY)
    if subnormal.any():
        values = values.copy()
        values[subnormal] *= _SUBNORMAL_SCALE
        mag[subnormal] = np.abs(values[subnormal])
    unit = np.divide(values, mag, out=np.zeros_like(values), where=nonzero)
    return np.where(nonzero, np.argmin(np.abs(unit[..., None] - grid), axis=-1), 0)


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
    signal_eig: EigenDecomposition | None = None,
) -> tuple[np.ndarray, float]:
    """Optimal relaxed precoder and objective value at a fixed leakage weight.

    Eigendecomposes ``signal_corr - alpha * leak_corr`` (descending) and keeps
    the ``streams`` dominant eigenvectors; a column whose eigenvalue is
    negative is shrunk to norm 1/sqrt(M) (the lower end of the feasible
    column-norm range), otherwise it keeps norm 1.  The returned value is the
    weighted sum of the selected eigenvalues; ``objective_exponent`` selects
    whether the column scaling enters linearly or squared (squared is the
    trace-consistent default).  ``signal_eig``, the decomposition of
    ``signal_corr`` alone, stands in for the decomposition where the
    difference has exactly the bits of ``signal_corr`` (at ``alpha = 0``,
    unless ``- 0.0 * leak_corr`` flips the sign of a zero entry).
    """
    if alpha < 0:
        raise ValueError(f"alpha must be >= 0, got {alpha}")
    if objective_exponent not in (1, 2):
        raise ValueError(f"objective_exponent must be 1 or 2, got {objective_exponent}")
    m_ant = signal_corr.shape[0]
    shifted = signal_corr - alpha * leak_corr
    same_bits = shifted.dtype == signal_corr.dtype and shifted.tobytes() == signal_corr.tobytes()
    if signal_eig is None or not same_bits:
        signal_eig = hermitian_eig(shifted)
    values, vectors = signal_eig
    scales, f_value = _scaled_objective(values[:streams], m_ant, objective_exponent)
    return vectors[:, :streams] * scales[None, :], f_value


def _scaled_objective(top_values: np.ndarray, m_ant: int, objective_exponent: int) -> tuple[np.ndarray, float]:
    """Column scales and f for the selected eigenvalues (see ``relaxed_step``)."""
    scales = np.where(top_values >= 0, 1.0, 1.0 / np.sqrt(m_ant))
    return scales, float(np.sum(top_values * scales**objective_exponent))


def relaxed_value(
    signal_corr: np.ndarray, leak_corr: np.ndarray, alpha: float, streams: int, objective_exponent: int = 2
) -> float:
    """``relaxed_step``'s value from a values-only eigensolve; the last bits may differ."""
    top_values = hermitian_eigvals(signal_corr - alpha * leak_corr)[:streams]
    return _scaled_objective(top_values, signal_corr.shape[0], objective_exponent)[1]


def _objective_derivative(f_star: np.ndarray, leak_corr: np.ndarray, objective_exponent: int) -> float:
    """df/dalpha at an evaluated point: -sum_i s_i^e u_i^H L u_i (Hellmann–Feynman).

    Column i of ``f_star`` is s_i u_i with unit u_i, so each term is
    s_i^(e-2) f_i^H L f_i.
    """
    quad = np.real(np.sum(f_star.conj() * (leak_corr @ f_star), axis=0))
    return -float(np.sum(quad * np.linalg.norm(f_star, axis=0) ** (objective_exponent - 2)))


def solve_alpha_star(
    signal_corr: np.ndarray,
    leak_corr: np.ndarray,
    streams: int,
    n_users: int,
    power: float,
    tol: float = BISECTION_TOL,
    max_iters: int = BISECTION_MAX_ITERS,
    objective_exponent: int = 2,
    signal_eig: EigenDecomposition | None = None,
) -> tuple[float, np.ndarray]:
    """Solve f(alpha) = (K * S_g / P) * alpha; the answer is the bisection's.

    f is non-increasing (the leakage correlation is PSD) and the right-hand
    side grows linearly, so the crossing is unique.  The returned weight is
    defined by plain bisection: the bracket upper end doubles from 1 until
    the right-hand side dominates, then [0, hi] is halved until a midpoint
    has relative residual at most ``tol``.  Returns that midpoint
    ``alpha_star`` and the relaxed precoder evaluated there, bit-identical
    to plain bisection.

    The bisection's sign decisions are certified instead of evaluated where
    possible.  With g(a) = f(a) - slope * a, Newton steps on g (Dinkelbach's
    iteration) first locate the root.  The first step takes f' from the
    ``alpha = 0`` precoder (Hellmann–Feynman); later steps take the secant
    slope of f between the last two Newton points.  Since f is
    non-increasing, g(a) - g(alpha*) has the sign of alpha* - a and
    |g(a)| >= slope * |a - alpha*|; so every evaluation at a certifies
    |alpha* - a| <= |g(a)| / slope + allowance(a), where allowance(a) bounds
    the rounding of the computed g(a) in units of alpha.  The tightest such
    interval is kept as ``center`` +- ``radius``.

    A Newton point is never returned: it only locates the root and
    certifies an interval, and the certificate reads eigenvalues alone.  So
    Newton points are evaluated values-only (``relaxed_value``).  Their
    values may differ from ``relaxed_step``'s in the last bits, but
    allowance(a) bounds the rounding of any backward-stable Hermitian
    eigensolver (16 * M ulps of ||R|| + a * ||L|| per selected eigenvalue),
    so the certificate holds for either.

    The bisection is then replayed.  A midpoint x with
    |x - center| > radius + tol * x + allowance(x) is decided without an
    eigendecomposition, and this margin is exact, with no slack: there
    |x - alpha*| > tol * x + allowance(x), so the computed |g(x)| / slope
    >= |x - alpha*| - allowance(x) > tol * x.  The midpoint therefore
    misses the residual band |g(x)| <= tol * slope * x, and its computed
    g(x) has the sign of the true one, that of center - x.  Only points
    near the root, among them the returned one, are evaluated, each by
    ``relaxed_step``: the returned ``alpha_star`` and precoder come from the
    same ``hermitian_eig`` call as in plain bisection, bit for bit.  If
    Newton gives no usable bound, every point is evaluated, as in plain
    bisection.
    ``signal_eig``, the decomposition of ``signal_corr``, spares the
    ``alpha = 0`` evaluation its own (see ``relaxed_step``).

    Raises:
        DegenerateGroupError: f(0) <= 0, i.e. the group correlation carries
            no energy on its dominant subspace.
        RuntimeError: no bisection midpoint met ``tol`` in ``max_iters``
            halvings; the message names the rounding floor when the
            residual band lies below the rounding of f.
    """
    if tol <= 0:
        raise ValueError(f"tol must be > 0, got {tol}")
    slope = n_users * streams / power

    def objective(alpha: float) -> tuple[np.ndarray, float]:
        return relaxed_step(signal_corr, leak_corr, alpha, streams, objective_exponent, signal_eig)

    f_star, f0 = objective(0.0)
    if f0 <= 0:
        raise DegenerateGroupError(f"relaxed objective at alpha=0 is {f0:.3e}, expected > 0")

    # A generous bound, in units of alpha, on the rounding in a computed
    # g(alpha): 16 * M ulps of ||R||_F + alpha * ||L||_F for each of the S
    # selected eigenvalues of R - alpha * L, and the rounding of slope * alpha
    # and of the residual test.  The skip margin below is exact only with it.
    eps = np.finfo(float).eps
    fp_scale = 16 * signal_corr.shape[0] * streams * eps / slope
    fp_signal = fp_scale * float(np.linalg.norm(signal_corr))
    fp_leak = fp_scale * float(np.linalg.norm(leak_corr))

    def allowance(alpha: float) -> float:
        return fp_signal + alpha * fp_leak + 4 * eps * alpha

    # alpha* lies within radius of center, from the tightest evaluation.
    center, radius = 0.0, np.inf

    def certify(alpha: float, value: float) -> None:
        nonlocal center, radius
        bound = abs(value - slope * alpha) / slope + allowance(alpha)
        if bound < radius:
            center, radius = alpha, bound

    alpha, value = 0.0, f0
    certify(alpha, value)
    derivative = _objective_derivative(f_star, leak_corr, objective_exponent)
    for _ in range(_NEWTON_MAX_STEPS):
        if not (np.isfinite(derivative) and derivative < slope):
            break
        step = alpha - (value - slope * alpha) / (derivative - slope)
        if not step > alpha:
            break
        step_value = relaxed_value(signal_corr, leak_corr, step, streams, objective_exponent)
        derivative = (step_value - value) / (step - alpha)
        alpha, value = step, step_value
        certify(alpha, value)
        if radius <= tol * alpha:  # already inside the residual band
            break

    def decide(alpha: float) -> tuple[np.ndarray | None, bool, bool]:
        """(precoder or None, value > slope * alpha, residual_ok) at alpha."""
        if abs(alpha - center) > radius + tol * alpha + allowance(alpha):
            return None, alpha < center, False
        f_alpha, value = objective(alpha)
        certify(alpha, value)
        rhs = slope * alpha
        return f_alpha, value > rhs, rhs > 0 and abs(value - rhs) <= tol * rhs

    hi = 1.0
    f_hi, above, ok = decide(hi)
    while above:
        hi *= 2.0
        f_hi, above, ok = decide(hi)
    if ok:
        return hi, f_hi

    lo = 0.0
    for _ in range(max_iters):
        alpha = 0.5 * (lo + hi)
        f_star, above, ok = decide(alpha)
        if ok:
            return alpha, f_star
        if above:
            lo = alpha
        else:
            hi = alpha
    # Forming R - alpha * L rounds f by about eps * (||R|| + alpha * ||L||).
    alpha = 0.5 * (lo + hi)
    floor = eps * (float(np.linalg.norm(signal_corr)) + alpha * float(np.linalg.norm(leak_corr)))
    band = tol * slope * alpha
    if band < floor:
        raise RuntimeError(f"bisection stalled at the rounding floor: tol * slope * alpha = {band:.3e} at "
                           f"alpha = {alpha:.6g} is below eps * (||R|| + alpha * ||L||) = {floor:.3e}; raise tol")
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
            signal_eig=grouping.group_eigs[g],
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
