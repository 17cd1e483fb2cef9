"""Long-timescale RF precoder design.

Per group, the analog precoder is obtained in two stages:

1. A relaxed max-min problem on the statistical signal-to-leakage-and-noise
   ratio (SSLNR), solved per group by eigendecomposition of the signal
   correlation minus a weighted leakage correlation, on the users' joint
   signal subspace (``Grouping.joint``), whose reduced group correlations
   the grouping already holds; the grouping's decomposition of the sum of
   the user correlations is the one M x M eigensolve of the long-term
   stage, and all of it runs in real arithmetic for a ULA's correlations
   (``numerics.real_frame``).  The weight solves the fixed-point equation
   of the optimal value: safeguarded Newton (Dinkelbach) steps inside a
   shrinking bracket, each one eigendecomposition, return the first weight
   within the relative residual tolerance.
2. A greedy projection (GRFP) of the relaxed solution onto the hardware
   constraint set: each antenna connects to exactly one RF chain through one
   phase shifter whose phase lives on a B-bit grid, and every chain keeps at
   least one antenna.  Each column's phase and the order of equal relaxed
   magnitudes are fixed by rules, never by the eigensolver's phase or noise.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .grouping import Grouping
from .numerics import EigenDecomposition, hermitian_eig

ALPHA_TOL = 1e-9
ALPHA_MAX_ITERS = 200
# Tie band of the GRFP and column phase rules: gaps of sorted magnitudes (share of the
# largest) or phase errors (radians), scores (share of the best), arc widths (grid steps).
_TIE_TOL = 1e-9


class DegenerateGroupError(ValueError):
    """Group correlation has no usable signal subspace (zero dominant energy)."""


class ZeroColumnError(ValueError):
    """A relaxed precoder column is identically zero; antennas cannot be ranked."""


@dataclass(frozen=True)
class RfPrecoder:
    """Analog precoder as the hardware sets it: per antenna, the RF chain the
    connection network gives it and its shifter's B-bit grid phase; ``chains``
    is the chain count L.  On a stack of n slots the real-time baselines
    (``baselines.fixed_subarray_precoder``, ``adaptive_instant_precoder``) add
    a slot axis to ``phase_index``, the adaptive one to ``antenna_to_chain``
    too; the fixed map is shared (M,).  Both arrays are made read-only, as
    ``f`` is derived from them once."""

    antenna_to_chain: np.ndarray  # (M,) int, or (n, M) from adaptive_instant_precoder on a stack
    phase_index: np.ndarray  # (M,) int, or (n, M) on a stack
    bits: int
    chains: int

    def __post_init__(self) -> None:
        self.antenna_to_chain.flags.writeable = False
        self.phase_index.flags.writeable = False

    @cached_property
    def f(self) -> np.ndarray:
        """The read-only analog matrix (M, L), or (n, M, L) on a stack: row m is
        grid[phase_index[m]] / sqrt(M) in column ``antenna_to_chain[m]``, else 0."""
        taps = phase_grid(self.bits)[self.phase_index] / np.sqrt(self.phase_index.shape[-1])
        f = np.where(self.antenna_to_chain[..., None] == np.arange(self.chains), taps[..., None], 0.0)
        f.flags.writeable = False
        return f


@dataclass
class RelaxedSolution:
    """Per-group output of the relaxed SSLNR optimization."""

    alpha_star: list[float]
    f_star: list[np.ndarray]  # per group, (M, S_g) scaled eigenvector columns


@lru_cache(maxsize=None)
def phase_grid(bits: int) -> np.ndarray:
    """The 2**bits feasible phase-shifter values on the unit circle, once per ``bits``, read-only."""
    if bits < 1:
        raise ValueError(f"bits must be >= 1, got {bits}")
    n = np.arange(2**bits)
    grid = np.exp(2j * np.pi * n / 2**bits)
    grid.flags.writeable = False
    return grid


def _grid_position(values: np.ndarray, bits: int) -> np.ndarray:
    """Each value's phase in B-bit grid steps plus one half: its floor is the
    nearest grid point's index (mod 2**bits), so a half step rounds up."""
    return np.angle(values) / (2 * np.pi / 2**bits) + 0.5


def nearest_phase_index(value: complex | np.ndarray, bits: int) -> int | np.ndarray:
    """Index of the grid point nearest value's phase, floor(arg / step + 1/2)
    mod 2**bits, the rounding ``align_column_phase`` applies; 0 for value = 0.

    A scalar gives an ``int``; an array gives an integer array of its shape,
    quantized elementwise against one grid.
    """
    values = np.asarray(value, dtype=complex)
    index = np.where(values != 0, np.floor(_grid_position(values, bits)).astype(int) % 2**bits, 0)
    return int(index) if index.ndim == 0 else index


def leakage_correlation(grouping: Grouping, g: int) -> np.ndarray:
    """Group g's leakage correlation in the joint subspace (b x b): the sum
    over o != g of S_g * S_o * ``grouping.joint.reduced[o]``, which is
    B^H L_g B for the size-weighted sum L_g of the other groups' average
    correlations, B = ``grouping.joint.basis``."""
    if not 0 <= g < grouping.group_count:
        raise ValueError(f"group index {g} out of range")
    sizes, reduced = grouping.sizes, grouping.joint.reduced
    out = np.zeros_like(reduced[g])
    for other, corr in enumerate(reduced):
        if other != g:
            out += sizes[g] * sizes[other] * corr
    return out


def relaxed_step(
    signal_corr: np.ndarray,
    leak_corr: np.ndarray,
    alpha: float,
    streams: int,
    antenna_count: int | None = None,
) -> tuple[np.ndarray, float]:
    """Optimal relaxed precoder and objective value at a fixed leakage weight.

    Eigendecomposes ``signal_corr - alpha * leak_corr`` (descending) and keeps
    the ``streams`` dominant eigenvectors (``_dominant_columns``); M is
    ``antenna_count``, by default the matrix size.
    """
    if alpha < 0:
        raise ValueError(f"alpha must be >= 0, got {alpha}")
    eig = hermitian_eig(signal_corr - alpha * leak_corr)
    return _dominant_columns(eig, streams, antenna_count or signal_corr.shape[0])


def _dominant_columns(eig: EigenDecomposition, streams: int, antenna_count: int) -> tuple[np.ndarray, float]:
    """The ``streams`` leading eigenvectors of a descending decomposition; a
    column whose eigenvalue is negative is shrunk to norm 1/sqrt(M) (the
    lower end of the feasible column-norm range), otherwise it keeps norm 1.
    The value is the trace of F^H (R - alpha L) F: each selected eigenvalue
    times its column's squared norm."""
    values, vectors = eig
    top = values[:streams]
    scales = np.where(top >= 0, 1.0, 1.0 / np.sqrt(antenna_count))
    return vectors[:, :streams] * scales[None, :], float(np.sum(top * scales**2))


def _objective_derivative(f_star: np.ndarray, leak_corr: np.ndarray) -> float:
    """df/dalpha at an evaluated point: -trace(F^H L F) (Hellmann–Feynman)."""
    return -float(np.sum(np.real(np.sum(f_star.conj() * (leak_corr @ f_star), axis=0))))


def solve_alpha_star(
    signal_corr: np.ndarray,
    leak_corr: np.ndarray,
    streams: int,
    n_users: int,
    power: float,
    tol: float = ALPHA_TOL,
    max_iters: int = ALPHA_MAX_ITERS,
    antenna_count: int | None = None,
    *,
    _start: tuple[np.ndarray, float] | None = None,
) -> tuple[float, np.ndarray]:
    """Solve f(alpha) = (K * S_g / P) * alpha by safeguarded Newton steps.

    f is non-increasing (the leakage correlation is PSD) and the right-hand
    side grows linearly, so g(a) = f(a) - slope * a has one root, in the
    bracket [0, f(0) / slope].  A Newton step on g is Dinkelbach's iteration
    on the SSLNR fixed point; it takes f' at each evaluated point from that
    point's precoder (Hellmann–Feynman).  Each evaluation moves the bracket
    end on its side of the root to it, and a step that leaves the bracket is
    replaced by the bracket's midpoint.  Returns the first evaluated
    ``alpha_star`` with relative residual |g| / (slope * alpha) at most
    ``tol``, and the relaxed precoder ``relaxed_step`` gives there
    (``antenna_count`` is passed on to it).  Where the residual band lies
    below the rounding of f, the bracket can stop shrinking first: once no
    float lies strictly inside it, alpha* is pinned to within one float
    spacing of its ends, and the evaluated end with the smaller |g| is
    returned with its precoder.  ``solve_relaxed`` passes as ``_start`` the
    ``alpha = 0`` evaluation, from ``Grouping.reduced_eigs``.

    Raises:
        DegenerateGroupError: f(0) <= 0, i.e. the group correlation carries
            no energy on its dominant subspace.
        RuntimeError: no point met ``tol`` in ``max_iters`` evaluations after
            ``alpha = 0``, and the bracket still held a float inside it.
    """
    if tol <= 0:
        raise ValueError(f"tol must be > 0, got {tol}")
    slope = n_users * streams / power

    def objective(alpha: float) -> tuple[np.ndarray, float]:
        return relaxed_step(signal_corr, leak_corr, alpha, streams, antenna_count)

    f_star, value = objective(0.0) if _start is None else _start
    if value <= 0:
        raise DegenerateGroupError(f"relaxed objective at alpha=0 is {value:.3e}, expected > 0")

    # g(lo) > 0, and the root lies in the open bracket (lo, hi): hi starts
    # one float above f(0) / slope, later it is a point where g <= 0.  Each
    # evaluated end keeps (|g|, alpha, precoder) there.
    alpha, lo, hi = 0.0, 0.0, float(np.nextafter(value / slope, np.inf))
    ends: dict[bool, tuple[float, float, np.ndarray]] = {}
    for _ in range(max_iters):
        residual = value - slope * alpha
        if residual > 0:
            lo = alpha
        else:
            hi = alpha
        ends[residual > 0] = (abs(residual), alpha, f_star)
        step = alpha - residual / (_objective_derivative(f_star, leak_corr) - slope)
        if not lo < step < hi:
            step = 0.5 * (lo + hi)
            if not lo < step < hi:
                _, alpha, f_star = min(ends.values(), key=lambda end: end[0])
                return alpha, f_star
        alpha = step
        f_star, value = objective(alpha)
        if abs(value - slope * alpha) <= tol * slope * alpha:
            return alpha, f_star
    raise RuntimeError(
        f"alpha* solve did not reach relative residual {tol:g} in {max_iters} iterations"
    )


def solve_relaxed(grouping: Grouping, power: float) -> RelaxedSolution:
    """Run the relaxed per-group solve for every group on the joint subspace.

    Each group's ``solve_alpha_star`` runs on the grouping's reduced
    B^H R_g B (``grouping.joint.reduced[g]``) and ``leakage_correlation``,
    with B = ``grouping.joint.basis`` (M x b), and its columns are lifted by
    B.  R_g and L_g vanish off B up to rounding, so both solves agree with
    the M x M ones unless a selected eigenvalue is negative with b < M; the
    column then keeps its eigenvector, shrunk to 1/sqrt(M), where the
    M x M solve takes a null vector off B.  The ``alpha = 0`` start is read
    off ``grouping.reduced_eigs``, so no step is M x M, and for a ULA's
    correlations (``numerics.real_frame``) each Newton eigensolve is real.
    The noise term K * S_g / P takes K from the grouping.
    """
    basis = grouping.joint.basis
    # relaxed_step at alpha = 0 decomposes signal - 0.0 * leak, which is signal.
    solved = [
        solve_alpha_star(
            signal,
            leakage_correlation(grouping, g),
            streams=len(members),
            n_users=grouping.user_count,
            power=power,
            antenna_count=basis.shape[0],
            _start=_dominant_columns(eig, len(members), basis.shape[0]),
        )
        for g, (signal, eig, members) in enumerate(zip(grouping.joint.reduced, grouping.reduced_eigs, grouping.members))
    ]
    return RelaxedSolution(alpha_star=[alpha for alpha, _ in solved], f_star=[basis @ f for _, f in solved])


def align_column_phase(columns: np.ndarray, bits: int) -> np.ndarray:
    """Each column of a stack (n, M) rotated to the global phase its B-bit
    rounding rule picks; a single column (M,) is a stack of one.

    The taps q of v * e^{j phi} change at one phase per nonzero entry within
    a grid step; a cumulative sum scores |q^H v| on every arc between them
    wider than ``_TIE_TOL`` of a step, and the best wins (Sohrabi & Yu, IEEE
    JSTSP 2016).  Zero entries bound no arc and add nothing to a score.
    Scores within ``_TIE_TOL`` tie, as mirror-conjugate columns of Hermitian
    Toeplitz correlations do; the lexicographically smallest tap vector of
    the nonzero entries wins, shifted so that the reference antenna's tap is
    0: the lowest index with magnitude within ``_TIE_TOL`` of the largest.
    The column turns to the winning arc's midpoint and back by that tap.
    """
    stack = np.atleast_2d(columns)
    rows, width = np.indices(stack.shape)
    step = 2 * np.pi / 2**bits
    nonzero = stack != 0
    shifted = _grid_position(stack, bits)
    taps = np.floor(shifted)
    # Arc j of a row: [lower[j], upper[j]) steps of rotation, the first j taps
    # of ``order`` moved up; zero entries sort last and close no arc.
    order = np.argsort(np.where(nonzero, taps - shifted, np.inf), axis=-1, kind="stable")
    rank = np.argsort(order, axis=-1)
    count = nonzero.sum(axis=-1)
    has_arc = width < count[:, None]
    upper = np.where(has_arc, (taps - shifted)[rows, order] + 1.0, 0.0)
    lower = np.concatenate([upper[rows[:, 0], count - 1][:, None] - 1.0, upper[:, :-1]], axis=-1)
    terms = np.where(nonzero, stack * np.exp(-1j * step * taps), 0.0)
    before = np.concatenate([np.zeros_like(terms[:, :1]), np.cumsum(terms[rows, order], axis=-1)[:, :-1]], axis=-1)
    score = np.abs(terms.sum(axis=-1, keepdims=True) + (np.exp(-1j * step) - 1.0) * before)
    wide = has_arc & (upper - lower > _TIE_TOL)
    best = np.where(wide, score, 0.0).max(axis=-1, keepdims=True)
    row, arcs = np.nonzero(wide & (score >= (1.0 - _TIE_TOL) * best))
    mag = np.abs(stack)
    ref = np.argmax(mag >= (1.0 - _TIE_TOL) * mag.max(axis=-1, keepdims=True), axis=-1)[row]
    # Per candidate arc, the taps of the nonzero entries shifted by the
    # reference's; a stable sort by row, then taps, puts each row's winner first.
    arc_taps = taps[row] + (rank[row] < arcs[:, None])
    keys = np.where(nonzero[row], (arc_taps - np.take_along_axis(arc_taps, ref[:, None], -1)) % 2**bits, 0.0)
    ranked = np.lexsort(np.vstack([keys.T[::-1], row]))
    win = ranked[np.flatnonzero(np.diff(row[ranked], prepend=-1))]
    row, arcs, ref = row[win], arcs[win], ref[win]
    turn = 0.5 * (lower[row, arcs] + upper[row, arcs]) - arc_taps[win, ref]
    aligned = stack * np.exp(1j * step * turn)[:, None]
    return aligned if np.ndim(columns) == 2 else aligned[0]


def _claim_order(columns: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """Antennas in the order GRFP claims them, per relaxed column of a stack
    (n, M); a single column (M,) is a stack of one.

    ``taps`` holds each antenna's grid point.  Antennas go by descending
    magnitude; a run of sorted magnitudes whose adjacent gaps are at most
    ``_TIE_TOL`` times the largest is one tie block, ordered by ascending
    phase-quantisation error |arg(f_m * conj(tap_m))|, where a run of
    sorted errors with gaps of at most ``_TIE_TOL`` ties, then by index.
    """
    stack = np.atleast_2d(columns)
    rows = np.indices(stack.shape)[0]
    first = np.zeros_like(rows[:, :1])
    mag = np.abs(stack)
    by_mag = np.argsort(-mag, axis=-1, kind="stable")
    sorted_mag = mag[rows, by_mag]
    gaps = -np.diff(sorted_mag, axis=-1) > _TIE_TOL * sorted_mag[:, :1]
    block = np.concatenate([first, np.cumsum(gaps, axis=-1)], axis=-1)
    error = np.abs(np.angle(stack * np.conj(taps)))
    order = np.lexsort((error[rows, by_mag], block))
    ranked = by_mag[rows, order]
    breaks = (np.diff(block[rows, order], axis=-1) > 0) | (np.diff(error[rows, ranked], axis=-1) > _TIE_TOL)
    tie = np.concatenate([first, np.cumsum(breaks, axis=-1)], axis=-1)
    claims = ranked[rows, np.lexsort((ranked, tie))]
    return claims if np.ndim(columns) == 2 else claims[0]


def grfp_assign(relaxed: RelaxedSolution, grouping: Grouping, bits: int) -> RfPrecoder:
    """Greedily project the relaxed solution onto the hardware constraints,
    one antenna per row of the relaxed columns.

    Groups are visited in ascending order of their leakage weight (most
    constrained group first, ties to the lowest group index); each visit to a
    group column claims the unassigned antenna with the largest relaxed
    magnitude and fixes its shifter to the nearest grid phase of the column
    as ``align_column_phase`` turns it.  One sweep over all group columns
    assigns one antenna per RF chain, and sweeps repeat round-robin until
    all antennas are connected, so chains accumulate antennas while the
    sweep priority is preserved.  All group columns are aligned, quantised
    and ranked (``_claim_order``) in one stack.

    ULA group correlations are Hermitian Toeplitz, so magnitudes tie in
    mirror pairs |f_m| = |f_(M-1-m)| up to rounding, which a sort alone would
    break by the last bits of the eigensolve.  A tie goes to the antenna
    whose tap lies closer to the relaxed phase, as antenna m adds
    |f_m| * cos(delta_m) / sqrt(M) to Re q^H f (delta_m its quantisation
    error), then to the lower index (``_claim_order``).
    """
    antenna_count, n_chains = relaxed.f_star[0].shape[0], grouping.user_count
    if n_chains > antenna_count:
        raise ValueError(f"need at least as many antennas as chains ({n_chains})")
    for g, f_star in enumerate(relaxed.f_star):
        zero_cols = np.where(~np.any(np.abs(f_star) > 0, axis=0))[0]
        if zero_cols.size:
            raise ZeroColumnError(f"group {g} relaxed column {zero_cols[0]} is identically zero")

    # One row per group column, groups in index order, so row l is what
    # chain l carries: the column at its phase, each antenna's phase index,
    # and an iterator over its antennas in claim order, which a visit
    # advances past the antennas already claimed.
    aligned = align_column_phase(np.concatenate([f_star.T for f_star in relaxed.f_star]), bits)
    phases = nearest_phase_index(aligned, bits)
    claims = [iter(column) for column in _claim_order(aligned, phase_grid(bits)[phases]).tolist()]
    order = np.argsort(np.asarray(relaxed.alpha_star), kind="stable")
    visits = np.concatenate([grouping.rf_chains[g] for g in order]).tolist()
    chain_of = [-1] * antenna_count
    for step in range(antenna_count):
        chain = visits[step % len(visits)]
        antenna = next(m for m in claims[chain] if chain_of[m] < 0)
        chain_of[antenna] = chain

    antenna_to_chain = np.array(chain_of)
    return RfPrecoder(antenna_to_chain, phases[antenna_to_chain, np.arange(antenna_count)], bits, n_chains)


def validate_rf_precoder(precoder: RfPrecoder) -> None:
    """Check one design (M,) against the hardware; raise ValueError if an antenna's
    chain lies outside [0, L), a chain has no antenna, or a phase index is off the
    2**B grid.  One tap per antenna, on the grid, holds by construction of ``f``."""
    chain_of, phases, chains = precoder.antenna_to_chain, precoder.phase_index, precoder.chains
    outside = np.flatnonzero((chain_of < 0) | (chain_of >= chains))
    if outside.size:
        raise ValueError(f"antenna {outside[0]} connects to chain {chain_of[outside[0]]}, outside [0, {chains})")
    empty = np.flatnonzero(np.bincount(chain_of, minlength=chains) == 0)
    if empty.size:
        raise ValueError(f"chain {empty[0]} has no antenna connected")
    off_grid = np.flatnonzero((phases < 0) | (phases >= 2**precoder.bits))
    if off_grid.size:
        raise ValueError(f"antenna {off_grid[0]} phase index {phases[off_grid[0]]} is off the {precoder.bits}-bit grid")


def sslnr(
    f_group: np.ndarray,
    grouping: Grouping,
    g: int,
    power: float,
) -> float:
    """Statistical SLNR of one group for a candidate per-group precoder
    (M x S_g).

    Signal energy on the group's average correlation over size-weighted
    leakage into the other groups' correlations plus the noise term
    K * S_g / P, both evaluated in the joint subspace: with C = B^H F,
    tr(F^H R_g F) is tr(C^H (B^H R_g B) C), as R_g vanishes off B up to
    rounding.
    """
    c = grouping.joint.basis.conj().T @ f_group
    signal = float(np.real(np.trace(c.conj().T @ grouping.joint.reduced[g] @ c)))
    leakage = float(np.real(np.trace(c.conj().T @ leakage_correlation(grouping, g) @ c)))
    noise = grouping.user_count * grouping.sizes[g] / power
    return signal / (leakage + noise)
