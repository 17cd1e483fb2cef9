"""Complex linear-algebra contracts shared by the whole pipeline.

Single numeric policy for the repo: the tolerances defined here are reused
by every downstream module instead of being re-tuned locally.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

# Reconstruction error allowed for an eigendecomposition (Frobenius, relative).
RECONSTRUCTION_TOL = 1e-10
# Relative residual allowed for a linear solve on a well-conditioned matrix.
SOLVE_TOL = 1e-8
# Condition-number cutoff above which a matrix is treated as near singular.
CONDITION_LIMIT = 1e12


class NearSingularError(ArithmeticError):
    """Matrix is too ill-conditioned to invert reliably.

    Callers in the per-slot pipeline treat this as an outage: the affected
    group logs zero rate for the slot and the slot still counts in averages.
    """


def hermitian_part(a: np.ndarray) -> np.ndarray:
    """Project onto the Hermitian subspace: (A + A^H) / 2."""
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return 0.5 * (a + a.conj().T)


class EigenDecomposition(NamedTuple):
    """Hermitian eigendecomposition with eigenvalues sorted descending.

    Column i of ``eigenvectors`` pairs with ``eigenvalues[i]``.  No phase
    canonicalization is applied to the eigenvectors, so each column carries
    whatever unit-modulus factor LAPACK returns.  Projectors, traces and
    magnitudes built from the columns do not depend on it, but the B-bit
    phase quantization in ``rf_precoder.grfp_assign`` and the FRPS baseline
    does: rounding to the nearest grid point is not phase-equivariant.
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


def hermitian_eigvals(a: np.ndarray) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix, descending: ``hermitian_eig``
    without the eigenvectors, symmetrized the same way."""
    a = hermitian_part(a)
    if a.shape[0] == 0:
        raise ValueError("cannot eigendecompose an empty matrix")
    return np.ascontiguousarray(np.linalg.eigvalsh(a)[::-1])


def check_condition(a: np.ndarray, label: str = "condition number") -> np.ndarray:
    """Condition test of one matrix or of each matrix in a stack (..., m, n).

    A matrix passes when its 2-norm condition number is finite and at most
    ``CONDITION_LIMIT``; one with non-finite entries fails.  Returns a
    boolean array over the leading axes.

    Raises:
        NearSingularError: ``a`` is a single matrix and fails (``label``
            names it in the message), or the SVD behind the estimate fails.
    """
    a = np.asarray(a)
    finite = np.isfinite(a).all(axis=(-2, -1))
    if a.ndim == 2 and not finite:
        raise NearSingularError("condition estimate failed: non-finite entries")
    try:
        # A zero matrix stands in for a non-finite one: its estimate is inf.
        cond = np.linalg.cond(np.where(finite[..., None, None], a, 0.0))
    except np.linalg.LinAlgError as exc:
        raise NearSingularError(f"condition estimate failed: {exc}") from exc
    passed = cond <= CONDITION_LIMIT
    if a.ndim == 2 and not passed:
        raise NearSingularError(f"{label} {cond:.3e} exceeds {CONDITION_LIMIT:.0e}")
    return passed


def solve_right_inverse(a: np.ndarray) -> np.ndarray:
    """Return B with A @ B = I for square A, or for each matrix of a stack
    (..., m, m), where one that fails ``check_condition`` gets B = 0.

    Raises:
        NearSingularError: a single matrix fails ``check_condition`` (or the
            factorization itself fails).
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
