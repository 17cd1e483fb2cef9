"""Linear-algebra contracts shared by the whole pipeline, for complex
matrices and, in the long-term stage, real ones.

One numeric policy for the repo: every Hermitian eigendecomposition and
every condition test of the pipeline goes through this module, and
``CONDITION_LIMIT``, the one cut-off for a near-singular matrix, is defined
here and nowhere else, as is ``real_frame``, which makes a ULA's
correlations real.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

# Condition-number cutoff above which a matrix is treated as near singular.
CONDITION_LIMIT = 1e12


class NearSingularError(ArithmeticError):
    """LAPACK failed inside a condition estimate or a solve.

    Raised only where a ``LinAlgError`` from the SVD or the solve is wrapped.
    A matrix that is merely near singular is not an error: it fails
    ``check_condition`` and its group is an outage in that slot.  The
    pipeline never catches this, so a run that raises it stops.
    """


def hermitian_part(a: np.ndarray) -> np.ndarray:
    """Project onto the Hermitian subspace: (A + A^H) / 2.  A real input
    stays real: its Hermitian part is its symmetric part."""
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return 0.5 * (a + a.conj().T)


class EigenDecomposition(NamedTuple):
    """Hermitian eigendecomposition with eigenvalues sorted descending.

    Column i of ``eigenvectors`` pairs with ``eigenvalues[i]`` and carries
    whatever unit-modulus factor LAPACK returns: a sign for a real input.
    The long-term stage decomposes the sum of the user correlations in
    ``real_frame`` and each group's reduced correlation in the joint basis
    (``grouping.JointSubspace``), so for a ULA every vector it lifts to the
    antennas is Q times a real vector.  Projectors, traces and magnitudes
    do not depend on the factor, and GRFP and the FRPS baseline remove it
    (``rf_precoder.align_column_phase``) before rounding to the phase grid.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def hermitian_eig(a: np.ndarray) -> EigenDecomposition:
    """Eigendecompose a Hermitian matrix, eigenvalues descending.

    The input is symmetrized before factorization so the stored-Hermitian
    invariant holds exactly regardless of rounding in the caller.
    """
    a = hermitian_part(a)
    if a.shape[0] == 0:
        raise ValueError("cannot eigendecompose an empty matrix")
    values, vectors = np.linalg.eigh(a)
    order = np.arange(values.size)[::-1]
    return EigenDecomposition(
        eigenvalues=np.ascontiguousarray(values[order]),
        eigenvectors=np.ascontiguousarray(vectors[:, order]),
    )


def real_frame(a: np.ndarray) -> tuple[np.ndarray, Callable[[np.ndarray], np.ndarray]]:
    """A stack (..., M, M) in the frame where the long-term stage runs, and
    the lift of frame vectors (M, c) to antenna coordinates.  An exactly
    centro-Hermitian stack (J A J = conj(A), J the exchange matrix), as
    every Hermitian Toeplitz ULA correlation is, goes to the real symmetric
    Q^H A Q, with Q = (1/sqrt(2)) [[I, iI], [J, -iJ]] (a middle row and
    column e_n for odd M) the real-valued transform of unitary ESPRIT
    (Haardt & Nossek, IEEE TSP 1995), and the lift is V -> Q V.  With
    A = X + iY in n x n blocks, Q^H A Q = [[X11 + X12 J, Y12 J - Y11],
    [Y11 + Y12 J, X11 - X12 J]]: O(M^2) slices.  Any other stack stays as
    it is, with the identity lift."""
    a = np.asarray(a)
    n, hi = a.shape[-1] // 2, (a.shape[-1] + 1) // 2
    # Rows hi: mirror rows :n, so comparing rows :hi covers every entry.
    if not np.array_equal(a[..., ::-1, ::-1][..., :hi, :], a[..., :hi, :].conj()):
        return a, lambda vectors: vectors
    x, y = a.real, a.imag
    x11, y11 = x[..., :n, :n], y[..., :n, :n]
    x12j, y12j = x[..., :n, ::-1][..., :n], y[..., :n, ::-1][..., :n]
    out = np.empty(a.shape)
    np.add(x11, x12j, out=out[..., :n, :n])
    np.subtract(y12j, y11, out=out[..., :n, hi:])
    np.add(y11, y12j, out=out[..., hi:, :n])
    np.subtract(x11, x12j, out=out[..., hi:, hi:])
    if hi > n:
        out[..., n, n] = x[..., n, n]
        out[..., :n, n] = out[..., n, :n] = np.sqrt(2.0) * x[..., :n, n]
        out[..., hi:, n] = out[..., n, hi:] = np.sqrt(2.0) * y[..., :n, n]
    return out, _lift


def _lift(vectors: np.ndarray) -> np.ndarray:
    """Q V: rows (V1 + i V2) / sqrt(2), V's middle row for odd M, then the
    first rows' conjugates in reverse order."""
    n, hi = vectors.shape[0] // 2, (vectors.shape[0] + 1) // 2
    out = np.empty(vectors.shape, dtype=complex)
    out.real[:n], out.imag[:n] = vectors[:n], vectors[hi:]
    out[:n] *= np.sqrt(0.5)
    out[n:hi] = vectors[n:hi]
    out[hi:] = out[:n][::-1].conj()
    return out


def above_rounding(eigenvalues: np.ndarray, antenna_count: int) -> np.ndarray:
    """Mask of the descending ``eigenvalues`` that exceed the rounding level
    ``antenna_count * eps * eigenvalues[0]`` of an M x M Hermitian
    eigensolve (M = ``antenna_count``).  A matrix projected from an M x M
    correlation keeps M here: it carries that matrix's rounding.  Its count
    is the matrix's numerical rank; a zero matrix has none."""
    return eigenvalues > antenna_count * np.finfo(float).eps * eigenvalues[0]


def _finite_or_zero(a: np.ndarray) -> np.ndarray:
    """``a`` with each matrix of the stack that holds a non-finite entry
    swapped for a zero matrix, whose condition number is inf."""
    a = np.asarray(a)
    return np.where(np.isfinite(a).all(axis=(-2, -1))[..., None, None], a, 0.0)


def check_condition(a: np.ndarray) -> np.ndarray:
    """Condition test of each matrix in a stack (..., m, n).

    A matrix passes when its 2-norm condition number is finite and at most
    ``CONDITION_LIMIT``; one with non-finite entries fails.  Returns a
    boolean array over the leading axes (a numpy bool for a single matrix).

    Raises:
        NearSingularError: the SVD behind the estimate fails.
    """
    try:
        cond = np.linalg.cond(_finite_or_zero(a))
    except np.linalg.LinAlgError as exc:
        raise NearSingularError(f"condition estimate failed: {exc}") from exc
    return cond <= CONDITION_LIMIT


def zero_forcing_beams(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The condition test of each channel of a stack (..., M, K), M >= K,
    and its unit-norm zero-forcing beams: the normalised columns of
    (H^H)^+ = U diag(1/s) V^H of one thin SVD H = U diag(s) V^H, which
    null the other users to about eps * cond(H).  The test is
    ``check_condition``'s on the same singular values; a failing channel
    gets zero beams.

    Raises:
        NearSingularError: the SVD fails.
    """
    try:
        u, s, vh = np.linalg.svd(_finite_or_zero(h), full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NearSingularError(f"SVD failed: {exc}") from exc
    with np.errstate(divide="ignore", invalid="ignore"):
        passed = s[..., 0] / s[..., -1] <= CONDITION_LIMIT
    # Failing channels keep no inverse singular value, so a zero one is never divided by.
    inverse = np.divide(1.0, s, out=np.zeros_like(s), where=passed[..., None])
    beams = (u * inverse[..., None, :]) @ vh
    norms = np.linalg.norm(beams, axis=-2, keepdims=True)
    return passed, np.divide(beams, norms, out=np.zeros_like(beams), where=passed[..., None, None])


def solve_right_inverse(a: np.ndarray) -> np.ndarray:
    """Return B with A @ B = I for each square matrix A of a stack
    (..., m, m); a matrix that fails ``check_condition`` gets B = 0.

    Raises:
        NearSingularError: the condition estimate or the solve fails.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim < 2 or a.shape[-2] != a.shape[-1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[-1] == 0:
        raise ValueError("cannot invert an empty matrix")
    passed = check_condition(a)[..., None, None]
    eye = np.eye(a.shape[-1], dtype=complex)
    try:
        # Failing matrices are swapped for I, so they cannot stop the solve.
        return np.where(passed, np.linalg.solve(np.where(passed, a, eye), eye), 0.0)
    except np.linalg.LinAlgError as exc:
        raise NearSingularError(str(exc)) from exc
