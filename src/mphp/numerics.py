"""Linear-algebra contracts shared by the whole pipeline, for complex
matrices and, in the long-term stage, real ones.

One numeric policy for the repo: every Hermitian eigendecomposition and
every zero-forcing inverse of the pipeline, with its condition test, goes
through this module, and ``CONDITION_LIMIT``, the one cut-off for a
near-singular matrix, is defined here and nowhere else, as is
``real_frame``, which makes a ULA's correlations real.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

# Condition-number cutoff above which a matrix is treated as near singular.
CONDITION_LIMIT = 1e12


class NearSingularError(ArithmeticError):
    """LAPACK failed inside the SVD of ``solve_right_inverse``.

    Raised only where a ``LinAlgError`` from the SVD is wrapped.  A matrix
    that is merely near singular is not an error: it fails the condition
    test, gets a zero inverse, and its group is an outage in that slot.  The
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


def solve_right_inverse(a: np.ndarray) -> np.ndarray:
    """The minimum-norm right inverse B (A @ B = I) of each matrix of a
    stack (..., m, n), m <= n: B = U diag(1/s) V^H from one thin SVD
    A^H = U diag(s) V^H, the pseudo-inverse that zero-forcing takes
    (Spencer, Swindlehurst & Haardt, IEEE TSP 2004).  A matrix passes the
    condition test when its least singular value is positive and its
    condition number s[0] / s[-1] is at most ``CONDITION_LIMIT``, tested
    without dividing; one with non-finite entries fails.  A failing matrix
    gets B = 0.

    Raises:
        ValueError: the stack is empty or tall (m > n).
        NearSingularError: the SVD fails.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim < 2 or a.shape[-2] > a.shape[-1]:
        raise ValueError(f"expected a square or wide matrix, got shape {a.shape}")
    if a.shape[-2] == 0:
        raise ValueError("cannot invert an empty matrix")
    # A matrix with a non-finite entry is swapped for a zero one, which fails the test.
    finite = np.isfinite(a).all(axis=(-2, -1))[..., None, None]
    try:
        u, s, vh = np.linalg.svd(np.where(finite, np.swapaxes(a, -1, -2).conj(), 0.0), full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NearSingularError(f"SVD failed: {exc}") from exc
    passed = (s[..., -1] > 0) & (s[..., 0] <= CONDITION_LIMIT * s[..., -1])
    # Failing matrices keep no inverse singular value, so a zero one is never divided by.
    inverse = np.divide(1.0, s, out=np.zeros_like(s), where=passed[..., None])
    return (u * inverse[..., None, :]) @ vh
