"""Complex linear-algebra contracts shared by the whole pipeline.

One numeric policy for the repo: every Hermitian eigendecomposition and
every condition test of the pipeline goes through this module, and
``CONDITION_LIMIT``, the one cut-off for a near-singular matrix, is defined
here and nowhere else.
"""

from __future__ import annotations

from typing import NamedTuple

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
    """Project onto the Hermitian subspace: (A + A^H) / 2."""
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return 0.5 * (a + a.conj().T)


class EigenDecomposition(NamedTuple):
    """Hermitian eigendecomposition with eigenvalues sorted descending.

    Column i of ``eigenvectors`` pairs with ``eigenvalues[i]`` and carries
    whatever unit-modulus factor LAPACK returns.  Projectors, traces and
    magnitudes do not depend on it, and GRFP and the FRPS baseline remove it
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


def above_rounding(eigenvalues: np.ndarray, antenna_count: int) -> np.ndarray:
    """Mask of the descending ``eigenvalues`` that exceed the rounding level
    ``antenna_count * eps * eigenvalues[0]`` of an M x M Hermitian
    eigensolve (M = ``antenna_count``).  A matrix projected from an M x M
    correlation keeps M here: it carries that matrix's rounding.  Its count
    is the matrix's numerical rank; a zero matrix has none."""
    return eigenvalues > antenna_count * np.finfo(float).eps * eigenvalues[0]


def check_condition(a: np.ndarray) -> np.ndarray:
    """Condition test of each matrix in a stack (..., m, n).

    A matrix passes when its 2-norm condition number is finite and at most
    ``CONDITION_LIMIT``; one with non-finite entries fails.  Returns a
    boolean array over the leading axes (a numpy bool for a single matrix).

    Raises:
        NearSingularError: the SVD behind the estimate fails.
    """
    a = np.asarray(a)
    finite = np.isfinite(a).all(axis=(-2, -1))
    try:
        # A zero matrix stands in for a non-finite one: its estimate is inf.
        cond = np.linalg.cond(np.where(finite[..., None, None], a, 0.0))
    except np.linalg.LinAlgError as exc:
        raise NearSingularError(f"condition estimate failed: {exc}") from exc
    return cond <= CONDITION_LIMIT


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
