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


def check_condition(a: np.ndarray, label: str = "condition number") -> None:
    """Raise unless the 2-norm condition number of ``a`` is finite and at most ``CONDITION_LIMIT``.

    Raises:
        NearSingularError: the estimate exceeds the limit, is not finite, or
            the SVD behind it fails; ``label`` names the matrix in the message.
    """
    try:
        cond = np.linalg.cond(a)
    except np.linalg.LinAlgError as exc:
        raise NearSingularError(f"condition estimate failed: {exc}") from exc
    if not np.isfinite(cond) or cond > CONDITION_LIMIT:
        raise NearSingularError(f"{label} {cond:.3e} exceeds {CONDITION_LIMIT:.0e}")


def solve_right_inverse(a: np.ndarray) -> np.ndarray:
    """Return B with A @ B = I for square A.

    Raises:
        NearSingularError: condition-number estimate exceeds
            ``CONDITION_LIMIT`` (or the factorization itself fails).
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] == 0:
        raise ValueError("cannot invert an empty matrix")
    check_condition(a)
    try:
        return np.linalg.solve(a, np.eye(a.shape[0], dtype=complex))
    except np.linalg.LinAlgError as exc:
        raise NearSingularError(str(exc)) from exc
