"""User grouping by spatial-correlation similarity.

Users whose dominant correlation subspaces are close (in chordal distance)
are clustered into groups; each group is later served by a contiguous block
of RF chains and designed against its average correlation matrix, which the
grouping keeps in the users' joint signal subspace.
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
# Most Lloyd steps ``group_users`` takes before it stops unconverged.
MAX_ITERS = 100


class JointSubspace(NamedTuple):
    """The users' joint signal subspace, where the long-term stage runs.
    ``basis`` (M x b) is the leading eigenvectors of the sum of the user
    correlations, lifted to antenna coordinates: those above rounding
    (``numerics.above_rounding``) and at least ``max_g S_g`` of them; and
    ``reduced[g]`` is basis^H R_g basis, R_g the member average of group
    g's correlations.  They are made in the ``numerics.real_frame`` of the
    correlations: for a ULA's ``reduced`` is real and the basis is Q times
    real vectors.  Every array is read-only."""

    basis: np.ndarray
    reduced: list[np.ndarray]


@dataclass
class Grouping:
    """Partition of users into groups and each group's statistics.

    ``members[g]`` lists user indices (ascending) of group g; the i-th user
    of a group pairs with the i-th chain in ``rf_chains[g]``.  Chain sets are
    contiguous blocks in group order, so they partition range(K).  Both are
    made from ``assignments`` on first read.  The group correlations are
    held once, reduced to the joint subspace (``joint``); R_g vanishes off
    its basis up to rounding, so basis @ reduced[g] @ basis^H gives R_g
    back up to rounding.
    ``group_users`` and ``grouping_from_labels`` build it.
    """

    assignments: np.ndarray  # user -> group index
    joint: JointSubspace
    cost_history: list[float] = field(default_factory=list)

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
        return self.joint.basis.shape[0]

    @cached_property
    def reduced_eigs(self) -> list[EigenDecomposition]:
        """Eigendecomposition (b x b) of each ``joint.reduced[g]``; B @ its
        vectors are R_g's leading eigenvectors.  ``group_users`` and
        ``grouping_from_labels`` set them when they build the grouping:
        ``group_users`` reuses its last Lloyd step's centroid
        decompositions, which are of these matrices, and a widened basis
        or given labels take one stacked decomposition.  A grouping made
        another way (a ``dataclasses.replace`` copy) decomposes each matrix
        on first read."""
        return [hermitian_eig(corr) for corr in self.joint.reduced]

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


def _dominant_projectors(eig: EigenDecomposition, rank: int, antenna_count: int) -> list[np.ndarray]:
    """Orthogonal projector onto the span of the dominant eigenvectors of
    each matrix of a stacked decomposition: at most ``rank`` of them, and
    none at or below the rounding level (``numerics.above_rounding``),
    which no channel decides."""
    projectors = []
    for values, vectors in zip(*eig):
        u = vectors[:, : min(rank, np.count_nonzero(above_rounding(values, antenna_count)))]
        projectors.append(u @ u.conj().T)
    return projectors


def chordal_distance(corr_a: np.ndarray, corr_b: np.ndarray, subspace_rank: int) -> float:
    """Chordal distance ||P_a - P_b||_F between the dominant subspaces of
    two correlations.  ``subspace_rank`` is an upper bound: each subspace
    has at most that many dimensions and no more than its correlation's
    numerical rank, so two rank-1 correlations are compared as rank 1 at
    any ``subspace_rank``."""
    m_ant = corr_a.shape[0]
    if subspace_rank < 1 or subspace_rank > m_ant:
        raise ValueError(f"subspace_rank must be in [1, {m_ant}], got {subspace_rank}")
    return _projector_distance(*_dominant_projectors(hermitian_eig(np.stack([corr_a, corr_b])), subspace_rank, m_ant))


def default_subspace_rank(antenna_count: int) -> int:
    return math.ceil(antenna_count / 8)


def _projector_distance(proj_a: np.ndarray, proj_b: np.ndarray) -> float:
    return float(np.linalg.norm(proj_a - proj_b))


def _repair_empty(labels: np.ndarray, dist: np.ndarray, n_groups: int) -> np.ndarray:
    """Move the user farthest from its centroid into each empty group.

    ``dist[k, g]`` is user k's distance to centroid g.  Only users from
    groups of size >= 2 are movable; ties go to the lowest user index via
    stable argmax on negated distance.
    """
    labels = labels.copy()
    for g in range(n_groups):
        while np.count_nonzero(labels == g) == 0:
            sizes = np.bincount(labels, minlength=n_groups)
            movable = np.flatnonzero(sizes[labels] >= 2)
            dists = dist[movable, labels[movable]]
            labels[movable[np.argmax(dists >= dists.max() - _TIE_TOL)]] = g
    return labels


def _total_cost(dist: np.ndarray, labels: np.ndarray) -> float:
    """Sum of each user's distance to its group's centroid, added as Python
    floats in user order."""
    return sum(dist[np.arange(labels.size), labels].tolist())


def group_users(
    correlations: Sequence[np.ndarray],
    group_count: int,
    subspace_rank: int | None = None,
) -> Grouping:
    """Cluster users into ``group_count`` groups by chordal distance.

    Lloyd-style alternation: centroids start from the dominant subspaces of
    a farthest-point sample of users (always including user 0), then
    assignment (nearest centroid) and centroid update (dominant subspace of
    the group-average correlation) alternate until the assignment is stable
    or ``MAX_ITERS`` is hit.  Groups are finally relabeled by their smallest
    member so chain blocks follow user order.

    ``subspace_rank`` (default ``ceil(M / 8)``) is an upper bound on each
    subspace's dimension, which is also capped at the numerical rank of its
    matrix, as in ``chordal_distance``.  The loop runs in the span of the
    correlations: one M x M eigendecomposition of their sum gives a basis U
    (M x r) of it, and every user and centroid matrix is decomposed as
    U^H R U, at size r x r: the K users in two stacked ``hermitian_eig``
    calls of half of them each, and each step's G centroids in one.  Each
    capped subspace lies in span(U), so the distances are the full-space
    ones up to rounding, and each Lloyd step computes every (user,
    centroid) distance once, into one K x G table.
    The grouping keeps the sum's leading eigenvectors and each group's
    member average of the users' U^H R_k U for its ``joint`` subspace, so
    the long-term stage makes no other M x M eigendecomposition.  A group's
    reduced correlation is the matrix of its last centroid, so the last
    step's centroid decompositions become ``Grouping.reduced_eigs`` (a
    widened basis, r < S_g, decomposes its reduced stack in one call), and
    reading them decomposes nothing.  All of it runs in the
    ``numerics.real_frame`` of the correlations, in real arithmetic when
    they are centro-Hermitian; only the basis is lifted.

    ``correlations`` is read as given: ``channel.scenario_correlations``'
    (K, M, M) array without a copy, a list of matrices stacked once.  The
    stage keeps neither that stack nor the real frame past the users'
    reduced products, so beside the caller's correlations it holds about
    the K reduced matrices and the users' projectors (each K r^2 floats).
    """
    n_users = len(correlations)
    if group_count > n_users:
        raise ValueError(f"group_count {group_count} exceeds user count {n_users}")
    if group_count < 1:
        raise ValueError("group_count must be >= 1")
    m_ant = correlations[0].shape[0]
    rank = default_subspace_rank(m_ant) if subspace_rank is None else subspace_rank
    if rank < 1 or rank > m_ant:
        raise ValueError(f"subspace_rank must be in [1, {m_ant}], got {rank}")

    span = _span(correlations)
    labels, cost_history, eigs = _lloyd(span.reduced, group_count, rank, m_ant)
    order = sorted(range(group_count), key=lambda g: np.flatnonzero(labels == g)[0])
    labels = np.argsort(order)[labels]
    # New group j is old group order[j], whose last centroid update decomposed its member average.
    return _grouping(span, labels, cost_history, EigenDecomposition(*(part[order] for part in eigs)))


def _lloyd(
    reduced: np.ndarray, group_count: int, rank: int, antenna_count: int
) -> tuple[np.ndarray, list[float], EigenDecomposition]:
    """``group_users``' labels, its cost history and its last step's stacked
    centroid decompositions, from the users' reduced correlations
    ``reduced`` (K x r x r).  Slice i of a stacked decomposition is
    bit-equal to the call on matrix i, so the users are decomposed in two
    halves, and their eigenvectors, the symmetrized copy of the stack and
    the projectors are never all held at once.  Each step's centroids are
    dropped before the next step's are made.  So beside ``reduced`` and
    the users' projectors no more than about one more (K, r, r) array is
    alive at a time."""
    n_users = len(reduced)
    user_projectors = [
        p
        for half in np.array_split(reduced, min(n_users, 2))
        for p in _dominant_projectors(hermitian_eig(half), rank, antenna_count)
    ]

    # Farthest-point seeding from user 0: ``nearest[k]`` is user k's
    # distance to its nearest seed, and each new seed adds one column.
    seeds = [0]
    nearest = np.full(n_users, np.inf)
    while len(seeds) < group_count:
        newest = user_projectors[seeds[-1]]
        nearest = np.minimum(nearest, [_projector_distance(p, newest) for p in user_projectors])
        nearest[seeds] = -1.0
        seeds.append(int(np.argmax(nearest)))
    centroids = [user_projectors[s] for s in seeds]

    labels = eigs = None
    cost_history: list[float] = []
    for _ in range(MAX_ITERS):
        dist = np.array([[_projector_distance(p, c) for c in centroids] for p in user_projectors])
        new_labels = np.argmax(dist <= dist.min(axis=1, keepdims=True) + _TIE_TOL, axis=1)
        if labels is not None:
            # Reassignment under fixed centroids never increases the cost;
            # the subsequent centroid update carries no such guarantee.
            assert _total_cost(dist, new_labels) <= _total_cost(dist, labels) + _COST_SLACK, (
                "reassignment increased the clustering cost"
            )
        new_labels = _repair_empty(new_labels, dist, group_count)
        cost_history.append(_total_cost(dist, new_labels))

        if labels is not None and np.array_equal(new_labels, labels):
            break
        labels = new_labels
        # The next centroids replace these; dropping them first lowers the peak.
        centroids = eigs = None
        eigs = hermitian_eig(np.stack([_average_correlation(reduced, labels, g) for g in range(group_count)]))
        centroids = _dominant_projectors(eigs, rank, antenna_count)
    return labels, cost_history, eigs


def grouping_from_labels(correlations: Sequence[np.ndarray], assignments: Sequence[int]) -> Grouping:
    """The grouping with the given labels (``assignments[k]`` is user k's
    group) and its joint subspace made from ``correlations`` as
    ``group_users`` makes it.  The labels are kept as given: one integer
    per correlation, using every group 0..G-1."""
    labels = np.array(assignments)
    if labels.ndim != 1 or labels.size == 0 or labels.size != len(correlations):
        raise ValueError(f"expected one label per correlation ({len(correlations)}), got shape {labels.shape}")
    if not np.issubdtype(labels.dtype, np.integer) or labels.min() < 0 or not np.bincount(labels).all():
        raise ValueError(f"labels must be integers using every group 0..G-1, got {labels.tolist()}")
    return _grouping(_span(correlations), labels, [])


class _Span(NamedTuple):
    """The caller's user correlations T_k, as given, the lift of their
    ``numerics.real_frame``, the eigenvectors of their sum in that frame
    (descending), and each user's U^H T_k U there (K x r x r), U the sum's
    r eigenvectors above rounding.  The frame itself (K x M x M) is not
    kept: it is freed once the products U^H T_k exist, so the Lloyd loop
    holds the correlations only as the caller does.  ``_grouping`` derives
    the frame again in the one case that reads it (a widened basis)."""

    correlations: Sequence[np.ndarray]
    lift: Callable[[np.ndarray], np.ndarray]
    vectors: np.ndarray
    reduced: np.ndarray


def _span(correlations: Sequence[np.ndarray]) -> _Span:
    # ``asarray`` stacks a list of matrices and takes a (K, M, M) array as it is.
    frame, lift = real_frame(np.asarray(correlations))
    values, vectors = _frame_eig(sum(frame))
    basis = vectors[:, above_rounding(values, frame.shape[-1])]
    if basis.shape[1] == 0:
        raise ValueError("every correlation is zero")
    # U^H T_k U is (U^H T_k) U; the frame is dropped before the second product.
    left = basis.conj().T @ frame
    del frame
    return _Span(correlations, lift, vectors, left @ basis)


def _average_correlation(correlations: Sequence[np.ndarray], assignments: np.ndarray, g: int) -> np.ndarray:
    members = np.where(assignments == g)[0]
    return sum(correlations[int(k)] for k in members) / len(members)


def _grouping(
    span: _Span, assignments: np.ndarray, cost_history: list[float], averages_eig: EigenDecomposition | None = None
) -> Grouping:
    """The grouping of the labels ``assignments`` and its joint subspace:
    the sum's leading eigenvectors, lifted, and each group's reduced
    correlation in the frame: its member average of ``span.reduced``, or,
    when the basis needs more columns than U has (co-located users,
    r < S_g), its member average of the correlations' frame, derived again
    from ``span.correlations``, projected on them.  Its
    ``reduced_eigs`` are ``averages_eig``, the stacked decomposition of the
    member averages of ``span.reduced`` in group order, when those are the
    reduced correlations; otherwise one stacked decomposition of them."""
    group_count, rank = int(assignments.max()) + 1, span.reduced.shape[-1]
    width = max(rank, *np.bincount(assignments))
    wide = span.vectors[:, :width]
    if width > rank:
        frame = real_frame(np.asarray(span.correlations))[0]
        reduced = [wide.conj().T @ _average_correlation(frame, assignments, g) @ wide for g in range(group_count)]
    else:
        reduced = [_average_correlation(span.reduced, assignments, g) for g in range(group_count)]
    joint = JointSubspace(span.lift(wide), reduced)
    for array in (joint.basis, *reduced):
        array.flags.writeable = False
    grouping = Grouping(assignments, joint, cost_history)
    if averages_eig is None or width > rank:
        averages_eig = hermitian_eig(np.stack(reduced))
    # Assigning sets the cached property, so a read decomposes nothing.
    grouping.reduced_eigs = [EigenDecomposition(*matrix_eig) for matrix_eig in zip(*averages_eig)]
    return grouping
