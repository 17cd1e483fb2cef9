"""User grouping by spatial-correlation similarity.

Users whose dominant correlation subspaces are close (in chordal distance)
are clustered into groups; each group is later served by a contiguous block
of RF chains and designed against its average correlation matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .numerics import hermitian_eig

# Slack for the non-increasing clustering-cost check (float accumulation).
_COST_SLACK = 1e-9
# Distances closer than this are ties; ties resolve to the lowest index so
# symmetric inputs (e.g. all users identical) stay deterministic and stable.
_TIE_TOL = 1e-12


@dataclass
class Grouping:
    """Partition of users into groups plus per-group chain sets and statistics.

    ``members[g]`` lists user indices (ascending) of group g; the i-th user
    of a group pairs with the i-th chain in ``rf_chains[g]``.  Chain sets are
    contiguous blocks in group order, so they partition range(K) for L = K.
    """

    assignments: np.ndarray  # user -> group index
    members: list[np.ndarray]
    rf_chains: list[np.ndarray]
    group_correlations: list[np.ndarray]
    cost_history: list[float] = field(default_factory=list)

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
    def chain_users(self) -> np.ndarray:
        """User index served by each RF chain (chain blocks follow group order)."""
        return np.concatenate(self.members)

    def chain_user(self, chain: int) -> int:
        """User index served by a given RF chain."""
        users = self.chain_users
        if not 0 <= chain < users.size:
            raise ValueError(f"chain {chain} not present in any group")
        return int(users[chain])


def _dominant_projector(corr: np.ndarray, rank: int) -> np.ndarray:
    """Orthogonal projector onto the span of the rank dominant eigenvectors."""
    _, vectors = hermitian_eig(corr)
    u = vectors[:, :rank]
    return u @ u.conj().T


def chordal_distance(corr_a: np.ndarray, corr_b: np.ndarray, subspace_rank: int) -> float:
    """Chordal distance between the dominant subspaces of two correlations."""
    if subspace_rank < 1 or subspace_rank > corr_a.shape[0]:
        raise ValueError(f"subspace_rank must be in [1, {corr_a.shape[0]}], got {subspace_rank}")
    diff = _dominant_projector(corr_a, subspace_rank) - _dominant_projector(corr_b, subspace_rank)
    return float(np.linalg.norm(diff))


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

    user_projectors = [_dominant_projector(r, rank) for r in correlations]

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
            _dominant_projector(_average_correlation(correlations, assignments, g), rank)
            for g in range(group_count)
        ]

    return _finalize(correlations, assignments, group_count, cost_history)


def _average_correlation(
    correlations: Sequence[np.ndarray], assignments: np.ndarray, g: int
) -> np.ndarray:
    members = np.where(assignments == g)[0]
    return sum(correlations[int(k)] for k in members) / len(members)


def _finalize(
    correlations: Sequence[np.ndarray],
    assignments: np.ndarray,
    group_count: int,
    cost_history: list[float],
) -> Grouping:
    """Relabel groups by smallest member and lay out contiguous chain blocks."""
    order = sorted(range(group_count), key=lambda g: int(np.where(assignments == g)[0][0]))
    relabel = {old: new for new, old in enumerate(order)}
    new_assignments = np.array([relabel[int(g)] for g in assignments])

    members = [np.where(new_assignments == g)[0] for g in range(group_count)]
    offsets = np.concatenate([[0], np.cumsum([len(m) for m in members])])
    rf_chains = [np.arange(offsets[g], offsets[g + 1]) for g in range(group_count)]
    group_correlations = [
        _average_correlation(correlations, new_assignments, g) for g in range(group_count)
    ]
    return Grouping(
        assignments=new_assignments,
        members=members,
        rf_chains=rf_chains,
        group_correlations=group_correlations,
        cost_history=cost_history,
    )
