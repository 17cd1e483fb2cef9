"""User grouping by spatial-correlation similarity.

Users whose dominant correlation subspaces are close (in chordal distance)
are clustered into groups; each group is later served by a contiguous block
of RF chains and designed against its average correlation matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .numerics import EigenDecomposition, above_rounding, hermitian_eig, real_frame

# Slack for the non-increasing clustering-cost check (float accumulation).
_COST_SLACK = 1e-9
# Distances closer than this are ties; ties resolve to the lowest index so
# symmetric inputs (e.g. all users identical) stay deterministic and stable.
_TIE_TOL = 1e-12


class JointSubspace(NamedTuple):
    """The users' joint signal subspace, where the long-term stage runs.
    ``eig`` decomposes the sum of the user correlations (M x M); ``basis``
    (M x b) is its leading eigenvectors, those above rounding
    (``numerics.above_rounding``) and at least ``max_g S_g`` of them; and
    ``reduced[g]`` is basis^H R_g basis.  ``group_users`` makes them in the
    ``numerics.real_frame`` of the correlations: for a ULA's (nonzero
    spread) ``reduced`` is real and the vectors are Q times real vectors."""

    eig: EigenDecomposition
    basis: np.ndarray
    reduced: list[np.ndarray]


@dataclass
class Grouping:
    """Partition of users into groups plus per-group chain sets and statistics.

    ``members[g]`` lists user indices (ascending) of group g; the i-th user
    of a group pairs with the i-th chain in ``rf_chains[g]``.  Chain sets are
    contiguous blocks in group order, so they partition range(K).  Both are
    made from ``assignments`` on first read.
    """

    assignments: np.ndarray  # user -> group index
    group_correlations: list[np.ndarray]
    cost_history: list[float] = field(default_factory=list)
    # group_users passes its joint subspace, lifted to antenna coordinates.
    _joint: JointSubspace | None = field(default=None, repr=False)

    @cached_property
    def members(self) -> list[np.ndarray]:
        return [np.flatnonzero(self.assignments == g) for g in range(int(self.assignments.max()) + 1)]

    @cached_property
    def rf_chains(self) -> list[np.ndarray]:
        ends = np.cumsum(self.sizes)
        return [np.arange(end - size, end) for size, end in zip(self.sizes, ends)]

    @property
    def group_count(self) -> int:
        return len(self.members)

    @property
    def sizes(self) -> np.ndarray:
        return np.array([len(m) for m in self.members])

    @property
    def user_count(self) -> int:
        return int(self.assignments.size)

    @property
    def antenna_count(self) -> int:
        return self.group_correlations[0].shape[0]

    @cached_property
    def joint(self) -> JointSubspace:
        """The joint subspace, made on first read, with ``basis`` and
        ``reduced`` read-only.  A grouping built without ``_joint``
        decomposes sum_g |g| R_g and projects each group correlation on the
        basis, in antenna coordinates.  ``dataclasses.replace`` carries it."""
        joint = self._joint
        if joint is None:
            eig = hermitian_eig(sum(size * corr for size, corr in zip(self.sizes, self.group_correlations)))
            above = int(np.count_nonzero(above_rounding(eig.eigenvalues, eig.eigenvalues.size)))
            basis = eig.eigenvectors[:, : max(above, *self.sizes)]
            joint = JointSubspace(eig, basis, [basis.conj().T @ corr @ basis for corr in self.group_correlations])
        for array in (joint.basis, *joint.reduced):
            array.flags.writeable = False
        return joint

    @cached_property
    def reduced_eigs(self) -> list[EigenDecomposition]:
        """Eigendecomposition (b x b) of each ``joint.reduced[g]``, made on first read."""
        return [hermitian_eig(corr) for corr in self.joint.reduced]

    @cached_property
    def group_eigs(self) -> list[EigenDecomposition]:
        """Eigendecomposition (M x M, descending) of each group correlation,
        made on first read from ``reduced_eigs[g]``: its vectors lifted by the
        basis, and the sum's other eigenvectors at eigenvalue 0, placed
        before any negative (rounding-level) eigenvalue.  So the sum is the
        one M x M eigensolve of the long-term stage; FRPS and the feedback
        count read this.  The basis drops the sum's directions below the
        rounding level, so the pairs rebuild R_g only to about 1e-9
        lambda_1 (7e-9 seen at M = 128, one user per group); only the
        projectors onto the S_g leading eigenvectors match a fresh M x M
        solve's, to about 1e-11."""
        basis, rest = self.joint.basis, self.joint.eig.eigenvectors[:, self.joint.basis.shape[1] :]
        out = []
        for values, vectors in self.reduced_eigs:
            cut, lifted = int(np.count_nonzero(values >= 0)), basis @ vectors
            values = np.concatenate([values[:cut], np.zeros(rest.shape[1]), values[cut:]])
            out.append(EigenDecomposition(values, np.concatenate([lifted[:, :cut], rest, lifted[:, cut:]], axis=1)))
        return out

    @property
    def chain_users(self) -> np.ndarray:
        """User index served by each RF chain (chain blocks follow group order)."""
        return np.concatenate(self.members)


def _frame_eig(matrix: np.ndarray) -> EigenDecomposition:
    """``hermitian_eig`` of a matrix in ``numerics.real_frame``.  A real
    one's vectors V take one Newton-Schulz step, V (3I - V^T V) / 2: the
    real solver leaves them orthonormal to about 2e-15, the complex one to
    1e-15, and the reduced eigenvalues carry that error."""
    eig = hermitian_eig(matrix)
    if np.iscomplexobj(matrix):
        return eig
    vectors = eig.eigenvectors
    return eig._replace(eigenvectors=vectors @ (1.5 * np.eye(vectors.shape[1]) - 0.5 * (vectors.T @ vectors)))


def _dominant_projector(corr: np.ndarray, rank: int, antenna_count: int) -> np.ndarray:
    """Orthogonal projector onto the span of the dominant eigenvectors of
    ``corr``: at most ``rank`` of them, and none at or below the rounding
    level (``numerics.above_rounding``), which no channel decides."""
    values, vectors = hermitian_eig(corr)
    u = vectors[:, : min(rank, np.count_nonzero(above_rounding(values, antenna_count)))]
    return u @ u.conj().T


def chordal_distance(corr_a: np.ndarray, corr_b: np.ndarray, subspace_rank: int) -> float:
    """Chordal distance ||P_a - P_b||_F between the dominant subspaces of
    two correlations.  ``subspace_rank`` is an upper bound: each subspace
    has at most that many dimensions and no more than its correlation's
    numerical rank, so two rank-1 correlations are compared as rank 1 at
    any ``subspace_rank``."""
    m_ant = corr_a.shape[0]
    if subspace_rank < 1 or subspace_rank > m_ant:
        raise ValueError(f"subspace_rank must be in [1, {m_ant}], got {subspace_rank}")
    return _projector_distance(
        _dominant_projector(corr_a, subspace_rank, m_ant), _dominant_projector(corr_b, subspace_rank, m_ant)
    )


def default_subspace_rank(antenna_count: int) -> int:
    return math.ceil(antenna_count / 8)


def _projector_distance(proj_a: np.ndarray, proj_b: np.ndarray) -> float:
    return float(np.linalg.norm(proj_a - proj_b))


def _assign(user_projectors: list[np.ndarray], centroids: list[np.ndarray]) -> np.ndarray:
    """Nearest-centroid assignment; ties resolved toward the lowest group index."""
    n_users = len(user_projectors)
    out = np.zeros(n_users, dtype=int)
    for k in range(n_users):
        dists = np.array([_projector_distance(user_projectors[k], c) for c in centroids])
        out[k] = int(np.argmax(dists <= dists.min() + _TIE_TOL))
    return out


def _repair_empty(
    assignments: np.ndarray,
    user_projectors: list[np.ndarray],
    centroids: list[np.ndarray],
    n_groups: int,
) -> np.ndarray:
    """Move the user farthest from its centroid into each empty group.

    Only users from groups of size >= 2 are movable; ties go to the lowest
    user index via stable argmax on negated distance.
    """
    assignments = assignments.copy()
    for g in range(n_groups):
        while np.count_nonzero(assignments == g) == 0:
            sizes = np.bincount(assignments, minlength=n_groups)
            movable = [k for k in range(assignments.size) if sizes[assignments[k]] >= 2]
            dists = np.array(
                [_projector_distance(user_projectors[k], centroids[assignments[k]]) for k in movable]
            )
            chosen = movable[int(np.argmax(dists >= dists.max() - _TIE_TOL))]
            assignments[chosen] = g
    return assignments


def group_users(
    correlations: Sequence[np.ndarray],
    group_count: int,
    subspace_rank: int | None = None,
    max_iters: int = 100,
) -> Grouping:
    """Cluster users into ``group_count`` groups by chordal distance.

    Lloyd-style alternation: centroids start from the dominant subspaces of
    a farthest-point sample of users (always including user 0), then
    assignment (nearest centroid) and centroid update (dominant subspace of
    the group-average correlation) alternate until the assignment is stable
    or ``max_iters`` is hit.  Groups are finally relabeled by their smallest
    member so chain blocks follow user order.

    ``subspace_rank`` (default ``ceil(M / 8)``) is an upper bound on each
    subspace's dimension, which is also capped at the numerical rank of its
    matrix, as in ``chordal_distance``.  The loop runs in the span of the
    correlations: one M x M eigendecomposition of their sum gives a basis U
    (M x r) of it, and every user and centroid matrix is decomposed as
    U^H R U, at size r x r.  Each capped subspace lies in span(U), so the
    distances are the full-space ones up to rounding.  The grouping keeps
    that decomposition and each group's member average of the users'
    U^H R_k U for its ``joint`` subspace, so the long-term stage makes no
    other M x M eigendecomposition.  All of it runs in the
    ``numerics.real_frame`` of the correlations, in real arithmetic when
    they are centro-Hermitian; only the sum's eigenvectors are lifted.
    """
    n_users = len(correlations)
    if group_count > n_users:
        raise ValueError(f"group_count {group_count} exceeds user count {n_users}")
    if group_count < 1:
        raise ValueError("group_count must be >= 1")
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    m_ant = correlations[0].shape[0]
    rank = default_subspace_rank(m_ant) if subspace_rank is None else subspace_rank
    if rank < 1 or rank > m_ant:
        raise ValueError(f"subspace_rank must be in [1, {m_ant}], got {rank}")

    frame, lift = real_frame(np.stack(correlations))
    eig = _frame_eig(sum(frame))
    basis = eig.eigenvectors[:, above_rounding(eig.eigenvalues, m_ant)]
    if basis.shape[1] == 0:
        raise ValueError("every correlation is zero")
    reduced = basis.conj().T @ frame @ basis
    user_projectors = [_dominant_projector(r, rank, m_ant) for r in reduced]

    # Farthest-point seeding from user 0.
    seeds = [0]
    while len(seeds) < group_count:
        min_dist = np.array(
            [min(_projector_distance(user_projectors[k], user_projectors[s]) for s in seeds)
             for k in range(n_users)]
        )
        min_dist[seeds] = -1.0
        seeds.append(int(np.argmax(min_dist)))
    centroids = [user_projectors[s].copy() for s in seeds]

    def total_cost(assignment: np.ndarray) -> float:
        return sum(
            _projector_distance(user_projectors[k], centroids[assignment[k]])
            for k in range(n_users)
        )

    assignments = None
    cost_history: list[float] = []
    for _ in range(max_iters):
        new_assignments = _assign(user_projectors, centroids)
        if assignments is not None:
            # Reassignment under fixed centroids never increases the cost;
            # the subsequent centroid update carries no such guarantee.
            assert total_cost(new_assignments) <= total_cost(assignments) + _COST_SLACK, (
                "reassignment increased the clustering cost"
            )
        new_assignments = _repair_empty(new_assignments, user_projectors, centroids, group_count)
        cost_history.append(total_cost(new_assignments))

        if assignments is not None and np.array_equal(new_assignments, assignments):
            break
        assignments = new_assignments
        centroids = [
            _dominant_projector(_average_correlation(reduced, assignments, g), rank, m_ant)
            for g in range(group_count)
        ]

    return _finalize(correlations, frame, lift, reduced, eig, assignments, group_count, cost_history)


def _average_correlation(
    correlations: Sequence[np.ndarray], assignments: np.ndarray, g: int
) -> np.ndarray:
    members = np.where(assignments == g)[0]
    return sum(correlations[int(k)] for k in members) / len(members)


def _finalize(
    correlations: Sequence[np.ndarray],
    frame: np.ndarray,
    lift: Callable[[np.ndarray], np.ndarray],
    reduced: np.ndarray,
    eig: EigenDecomposition,
    assignments: np.ndarray,
    group_count: int,
    cost_history: list[float],
) -> Grouping:
    """Relabel groups by smallest member, average each group's full M x M
    correlations and hand over the joint subspace: the sum's decomposition
    ``eig``, lifted, and each group's reduced correlation in the ``frame``:
    its average of the ``reduced`` stack, or, when the basis needs more
    columns than U has (co-located users, r < S_g), its average correlation
    projected on them."""
    order = sorted(range(group_count), key=lambda g: int(np.where(assignments == g)[0][0]))
    relabel = {old: new for new, old in enumerate(order)}
    new_assignments = np.array([relabel[int(g)] for g in assignments])

    group_correlations = [
        _average_correlation(correlations, new_assignments, g) for g in range(group_count)
    ]
    span = eig.eigenvectors[:, : max(reduced.shape[-1], *np.bincount(new_assignments))]
    on_span = [_average_correlation(reduced, new_assignments, g) for g in range(group_count)]
    if span.shape[1] > reduced.shape[-1]:
        on_span = [span.conj().T @ _average_correlation(frame, new_assignments, g) @ span for g in range(group_count)]
    lifted = eig._replace(eigenvectors=lift(eig.eigenvectors))
    return Grouping(
        assignments=new_assignments,
        group_correlations=group_correlations,
        cost_history=cost_history,
        _joint=JointSubspace(lifted, lifted.eigenvectors[:, : span.shape[1]], on_span),
    )
