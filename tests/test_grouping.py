import itertools

import numpy as np
import pytest

from mphp import grouping as grouping_mod
from mphp import rf_precoder as rf_precoder_mod
from mphp.channel import ArrayGeometry, UserChannelParams, make_scenario, scenario_correlations
from mphp.baselines import SchemeId, design_long_term
from mphp.config import SystemConfig
from mphp.experiment import parse_config
from mphp.grouping import (
    Grouping,
    chordal_distance,
    default_subspace_rank,
    group_users,
    grouping_from_labels,
)
from mphp.metrics import build_context, statistics_feedback_count
from mphp.numerics import above_rounding, hermitian_eig, real_frame
from mphp.rf_precoder import solve_relaxed

from conftest import CO_LOCATED, count_calls, group_averages, random_psd


def cluster_correlations(aods, spread, m_ant, quadrature=64):
    geom = ArrayGeometry(m_ant)
    params = [UserChannelParams(a, spread, path_count=4) for a in aods]
    return scenario_correlations(params, geom, quadrature)


class TestChordalDistance:
    def test_identical_matrices(self, rng):
        r = random_psd(rng, 6)
        assert chordal_distance(r, r, 2) == 0.0

    def test_orthogonal_rank_one_subspaces(self):
        # ||e1 e1^H - e2 e2^H||_F = sqrt(2)
        r_a = np.diag([1.0, 0.0]).astype(complex)
        r_b = np.diag([0.0, 1.0]).astype(complex)
        assert chordal_distance(r_a, r_b, 1) == pytest.approx(np.sqrt(2.0), abs=1e-12)

    def test_same_subspace_different_eigenbasis(self, rng):
        # Two matrices sharing a dominant 2-subspace but rotated inside it.
        q, _ = np.linalg.qr(rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))
        basis = q[:, :2]
        rot = np.array([[np.cos(0.7), -np.sin(0.7)], [np.sin(0.7), np.cos(0.7)]], dtype=complex)
        r_a = basis @ np.diag([3.0, 2.0]) @ basis.conj().T + 0.01 * np.eye(5)
        rotated = basis @ rot
        r_b = rotated @ np.diag([2.5, 1.5]) @ rotated.conj().T + 0.01 * np.eye(5)
        assert chordal_distance(r_a, r_b, 2) <= 1e-10

    def test_rank_capped_at_numerical_rank(self):
        # Rank-1 correlations have one signal direction: at rank 4 the other
        # three would be whatever null-space basis LAPACK returns.
        steering = np.exp(1j * np.pi * np.outer(np.arange(8), np.sin([0.3, -0.4])))
        r_a, r_b = (np.outer(a, a.conj()) for a in steering.T)
        assert chordal_distance(r_a, r_b, 4) == chordal_distance(r_a, r_b, 1)
        assert 0.0 < chordal_distance(r_a, r_b, 4) <= np.sqrt(2.0)

    def test_invalid_rank(self, rng):
        r = random_psd(rng, 4)
        with pytest.raises(ValueError):
            chordal_distance(r, r, 0)
        with pytest.raises(ValueError):
            chordal_distance(r, r, 5)


class TestGroupUsers:
    def test_single_group_averages_everything(self, rng):
        corrs = [random_psd(rng, 5) for _ in range(4)]
        grouping = group_users(corrs, 1, subspace_rank=2)
        assert grouping.group_count == 1
        assert np.array_equal(grouping.assignments, np.zeros(4, dtype=int))
        basis, (reduced,) = grouping.joint.basis, grouping.joint.reduced
        assert np.allclose(basis @ reduced @ basis.conj().T, sum(corrs) / 4)

    def test_matches_brute_force_on_separated_clusters(self):
        # 4 users in two clusters at +-0.5 rad, spread 0.01; oracle enumerates
        # every 2-partition and scores it with the same centroid rule.
        corrs = cluster_correlations([0.5, -0.5, 0.5, -0.5], 0.01, m_ant=8)
        rank = 1

        def projector(matrix):
            _, vectors = hermitian_eig(matrix)
            u = vectors[:, :rank]
            return u @ u.conj().T

        def partition_cost(labels):
            cost = 0.0
            for g in (0, 1):
                members = [k for k in range(4) if labels[k] == g]
                centroid = projector(sum(corrs[k] for k in members) / len(members))
                cost += sum(np.linalg.norm(projector(corrs[k]) - centroid) for k in members)
            return cost

        candidates = [
            labels
            for labels in itertools.product((0, 1), repeat=4)
            if labels[0] == 0 and 0 < sum(labels) < 4
        ]
        best = min(candidates, key=partition_cost)
        assert best == (0, 1, 0, 1)

        grouping = group_users(corrs, 2, subspace_rank=rank)
        assert tuple(grouping.assignments) == best

    def test_identical_users_terminate_quickly_and_deterministically(self):
        corr = random_psd(np.random.default_rng(0), 6, trace=6.0)
        corrs = [corr.copy() for _ in range(4)]
        a = group_users(corrs, 2, subspace_rank=2)
        b = group_users(corrs, 2, subspace_rank=2)
        assert np.array_equal(a.assignments, b.assignments)
        assert len(a.cost_history) <= 2
        assert sorted(len(m) for m in a.members) == [1, 3]

    @pytest.mark.parametrize("seed", range(6))
    def test_invariants_on_random_instances(self, seed):
        rng = np.random.default_rng(seed)
        n_users = int(rng.integers(2, 9))
        n_groups = int(rng.integers(1, n_users + 1))
        corrs = [random_psd(rng, 8, dof=2, trace=8.0) for _ in range(n_users)]
        grouping = group_users(corrs, n_groups, subspace_rank=2)

        sizes = grouping.sizes
        assert sizes.sum() == n_users
        assert np.all(sizes >= 1)
        # contiguous chain blocks in group order
        flat_chains = np.concatenate(grouping.rf_chains)
        assert np.array_equal(flat_chains, np.arange(n_users))
        basis = grouping.joint.basis
        for g in range(n_groups):
            assert len(grouping.rf_chains[g]) == sizes[g]
            expected = sum(corrs[int(k)] for k in grouping.members[g]) / sizes[g]
            got = basis @ grouping.joint.reduced[g] @ basis.conj().T
            assert np.linalg.norm(got - expected) <= 1e-12 * max(np.linalg.norm(expected), 1.0)
        # groups relabeled by smallest member: first members strictly increasing
        first_members = [int(m[0]) for m in grouping.members]
        assert first_members == sorted(first_members)
        assert first_members[0] == 0

    def test_deterministic(self):
        corrs = cluster_correlations([0.4, -0.4, 0.43, -0.37, 0.02], 0.05, m_ant=8)
        a = group_users(corrs, 3, subspace_rank=1)
        b = group_users(corrs, 3, subspace_rank=1)
        assert np.array_equal(a.assignments, b.assignments)
        assert a.cost_history == b.cost_history

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("m_ant", [32, 64, 128, 256])
    def test_zero_spread_splits_the_clusters(self, m_ant, seed):
        # Each user's correlation is rank one, so a projector of rank
        # ceil(M / 8) > 1 would be mostly LAPACK's null-space basis.
        corrs = scenario_correlations(make_scenario(8, 3, angular_spread=0.0, seed=seed), ArrayGeometry(m_ant))
        assert "".join(map(str, group_users(corrs, 3).assignments)) == "01201201"

    def test_all_zero_correlations_rejected(self):
        with pytest.raises(ValueError, match="every correlation is zero"):
            group_users([np.zeros((4, 4), dtype=complex)] * 3, 2)

    def test_too_many_groups_rejected(self, rng):
        corrs = [random_psd(rng, 4) for _ in range(2)]
        with pytest.raises(ValueError):
            group_users(corrs, 3)

    def test_default_subspace_rank(self):
        assert default_subspace_rank(64) == 8
        assert default_subspace_rank(8) == 1
        assert default_subspace_rank(9) == 2

    def test_chain_user_lookup(self, rng):
        corrs = [random_psd(rng, 5) for _ in range(3)]
        grouping = group_users(corrs, 2, subspace_rank=1)
        # Chain rf_chains[g][i] serves the i-th user of group g, and each user has one chain.
        for members, chains in zip(grouping.members, grouping.rf_chains):
            assert np.array_equal(grouping.chain_users[chains], members)
        assert sorted(grouping.chain_users.tolist()) == [0, 1, 2]


class TestDistanceCalls:
    """Each (user, centroid) distance is computed once: seeding adds one
    column of K distances per new seed, and each Lloyd step one K x G table
    that the assignment, the cost check, ``cost_history`` and the
    empty-group repair all read."""

    def test_default_config(self, monkeypatch):
        config = SystemConfig()
        calls = count_calls(monkeypatch, grouping_mod, "_projector_distance")
        grouping, _, _ = build_context(config, 1)
        assert len(grouping.cost_history) > 1
        assert len(calls) == config.K * (config.G - 1) + config.K * config.G * len(grouping.cost_history)

    def test_empty_group_repaired(self, monkeypatch):
        # Identical users tie at every distance, so the assignment sends all
        # four to group 0 and the repair moves one into group 1.
        corr = random_psd(np.random.default_rng(0), 6, trace=6.0)
        calls = count_calls(monkeypatch, grouping_mod, "_projector_distance")
        repairs = count_calls(monkeypatch, grouping_mod, "_repair_empty")
        grouping = group_users([corr.copy() for _ in range(4)], 2, subspace_rank=2)
        assert np.bincount(repairs[0][0], minlength=2).tolist() == [4, 0]
        assert sorted(grouping.sizes) == [1, 3]
        assert len(calls) == 4 * 1 + 4 * 2 * len(grouping.cost_history)


def test_grouping_dataclass_roundtrip(rng):
    corrs = [random_psd(rng, 4) for _ in range(3)]
    g = group_users(corrs, 2, subspace_rank=1)
    assert isinstance(g, Grouping)
    assert g.user_count == 3


def full_space_lloyd(correlations, group_count, rank, max_iters=100):
    """The Lloyd loop as it ran in C^M, before group_users moved to the span
    of the correlations: every user and centroid projector is built from
    exactly ``rank`` eigenvectors of an M x M decomposition.  Returns the
    assignments relabeled by smallest member."""

    def projector(matrix):
        u = hermitian_eig(matrix).eigenvectors[:, :rank]
        return u @ u.conj().T

    def dist(a, b):
        return np.linalg.norm(a - b)

    users = [projector(r) for r in correlations]
    seeds = [0]
    while len(seeds) < group_count:
        min_dist = np.array([min(dist(p, users[s]) for s in seeds) for p in users])
        min_dist[seeds] = -1.0
        seeds.append(int(np.argmax(min_dist)))
    centroids = [users[s] for s in seeds]
    assignments = None
    for _ in range(max_iters):
        new = np.array([int(np.argmax(d <= d.min() + 1e-12)) for d in (np.array([dist(p, c) for c in centroids]) for p in users)])
        for g in range(group_count):  # move the farthest movable user into an empty group
            while not np.any(new == g):
                sizes = np.bincount(new, minlength=group_count)
                movable = [k for k in range(len(users)) if sizes[new[k]] >= 2]
                d = np.array([dist(users[k], centroids[new[k]]) for k in movable])
                new[movable[int(np.argmax(d >= d.max() - 1e-12))]] = g
        if assignments is not None and np.array_equal(new, assignments):
            break
        assignments = new
        centroids = [
            projector(sum(correlations[k] for k in np.flatnonzero(assignments == g)) / np.count_nonzero(assignments == g))
            for g in range(group_count)
        ]
    order = sorted(range(group_count), key=lambda g: np.flatnonzero(assignments == g)[0])
    return np.argsort(order)[assignments]


ORACLE_SPREADS = (0.01, 0.03, 0.1, 0.3)
ORACLE_SIZES = ((8, 3), (4, 2), (16, 4), (12, 3), (8, 1), (8, 8))


class TestMatchesFullSpaceOracle:
    """At nonzero spread every capped subspace lies in the span of the
    correlations, so the reduced loop assigns as the full-space one did."""

    @pytest.mark.parametrize("m_ant", [8, 32, 64, 128, 256])
    def test_grid(self, m_ant):
        for i, spread in enumerate(ORACLE_SPREADS):
            n_users, n_groups = ORACLE_SIZES[(i + m_ant) % len(ORACLE_SIZES)]
            if n_users > m_ant:
                continue
            corrs = scenario_correlations(
                make_scenario(n_users, n_groups, angular_spread=spread, seed=i), ArrayGeometry(m_ant), 64
            )
            expected = full_space_lloyd(corrs, n_groups, default_subspace_rank(m_ant))
            assert np.array_equal(group_users(corrs, n_groups).assignments, expected), (spread, n_users, n_groups)


def assert_reduced_eigs_match_fresh(grouping, group_corrs):
    """Each group's b x b decomposition agrees with a fresh M x M one of its
    average correlation: the leading b eigenvalues within M * eps *
    lambda_1, and the projector onto the S_g leading eigenvectors, B times
    the reduced ones (what FRPS reads), within 1e-10."""
    m_ant = grouping.antenna_count
    eps = np.finfo(float).eps
    basis = grouping.joint.basis
    for corr, members, (values, vectors) in zip(group_corrs, grouping.members, grouping.reduced_eigs):
        fresh_values, fresh_vectors = hermitian_eig(corr)
        width = basis.shape[1]
        assert values.shape == (width,) and vectors.shape == (width, width)
        assert np.all(np.diff(values) <= 0)
        assert np.abs(values - fresh_values[:width]).max() <= m_ant * eps * fresh_values[0]
        streams = len(members)
        lifted, fresh = basis @ vectors[:, :streams], fresh_vectors[:, :streams]
        assert np.allclose(lifted.conj().T @ lifted, np.eye(streams), rtol=0, atol=1e-13)
        assert np.abs(lifted @ lifted.conj().T - fresh @ fresh.conj().T).max() <= 1e-10


class TestGroupEigsReuse:
    """Each group's statistics are held once, reduced to the joint subspace,
    and decomposed there (``reduced_eigs``) for every reader; the sum of the
    correlations is the only M x M decomposition of a grouping."""

    @pytest.mark.parametrize("n_groups", [1, 3, 8])
    @pytest.mark.parametrize("m_ant", [8, 64, 128])
    def test_equal_to_fresh_decomposition(self, m_ant, n_groups):
        corrs = scenario_correlations(make_scenario(8, 3, seed=m_ant), ArrayGeometry(m_ant))
        grouping = group_users(corrs, n_groups)
        assert_reduced_eigs_match_fresh(grouping, group_averages(corrs, grouping))

    @pytest.mark.parametrize("n_groups", [1, 3, 8])
    @pytest.mark.parametrize("m_ant", [8, 64, 128])
    def test_reduced_correlations(self, m_ant, n_groups):
        # The stage runs in the real frame of the correlations: the basis
        # (the eigenvectors above rounding) is Q U with U real, each reduced
        # correlation is real and the member average of the users' U^T T_k U
        # (T_k = Q^H R_k Q), and it is B^H R_g B up to rounding.
        corrs = scenario_correlations(make_scenario(8, 3, seed=m_ant), ArrayGeometry(m_ant))
        grouping = group_users(corrs, n_groups)
        frame, lift = real_frame(np.stack(corrs))
        assert frame.dtype == np.float64
        values, vectors = grouping_mod._frame_eig(sum(frame))
        basis = grouping.joint.basis
        assert np.array_equal(basis, lift(vectors[:, : np.count_nonzero(above_rounding(values, m_ant))]))
        q = lift(np.eye(m_ant))
        span = q.conj().T @ basis
        assert np.abs(span.imag).max() <= 1e-15
        users = span.real.T @ frame @ span.real
        for members, corr, reduced in zip(grouping.members, group_averages(corrs, grouping), grouping.joint.reduced):
            assert reduced.dtype == np.float64
            tol = 1e-13 * np.linalg.norm(corr)
            assert np.allclose(reduced, sum(users[k] for k in members) / len(members), rtol=0, atol=tol)
            assert np.allclose(reduced, basis.conj().T @ corr @ basis, rtol=0, atol=tol)

    @pytest.mark.parametrize("n_groups", [1, 3, 8])
    def test_full_size_decompositions(self, monkeypatch, n_groups):
        m_ant = 64
        corrs = scenario_correlations(make_scenario(8, 3, seed=5), ArrayGeometry(m_ant))
        calls = count_calls(monkeypatch, grouping_mod, "hermitian_eig")

        def full_size():
            return sum(args[0].shape[-1] == m_ant for args in calls)

        grouping = group_users(corrs, n_groups)
        assert full_size() == 1  # the sum of the correlations; users and centroids are r x r stacks
        assert all(args[0].shape[-1] < m_ant for args in calls[1:])
        before = len(calls)
        # The last Lloyd step's centroid decompositions are the groups' own.
        assert len(grouping.reduced_eigs) == n_groups
        assert len(calls) == before
        width = grouping.joint.basis.shape[1]
        # The relaxed solve, FRPS and the feedback count read the joint
        # subspace and its b x b decompositions: the relaxed solve's own
        # eigensolves (the Newton steps) are b x b, and nothing more is
        # decomposed here.
        relaxed_calls = count_calls(monkeypatch, rf_precoder_mod, "hermitian_eig")
        solve_relaxed(grouping, 1.0)
        design_long_term(SchemeId.FRPS_STATISTICAL, grouping, SystemConfig(M=m_ant, K=8, G=n_groups))
        statistics_feedback_count([values for values, _ in grouping.reduced_eigs], m_ant)
        assert len(calls) == before
        assert relaxed_calls and all(args[0].shape == (width, width) for args in relaxed_calls)

    def test_run_stopped_by_max_iters(self, monkeypatch):
        rng = np.random.default_rng(1)
        corrs = [random_psd(rng, 8, dof=2, trace=8.0) for _ in range(8)]
        converged = group_users(corrs, 3, subspace_rank=2)
        monkeypatch.setattr(grouping_mod, "MAX_ITERS", 1)
        stopped = group_users(corrs, 3, subspace_rank=2)
        assert len(converged.cost_history) > 1
        assert not np.array_equal(stopped.assignments, converged.assignments)
        assert_same_joint(grouping_from_labels(corrs, stopped.assignments).joint, stopped.joint)
        assert_reduced_eigs_match_fresh(stopped, group_averages(corrs, stopped))


def assert_reduced_eigs_are_fresh(grouping):
    """Each of ``reduced_eigs`` is byte-equal to a fresh decomposition of
    its ``joint.reduced[g]``."""
    assert len(grouping.reduced_eigs) == grouping.group_count
    for (values, vectors), reduced in zip(grouping.reduced_eigs, grouping.joint.reduced):
        fresh = hermitian_eig(reduced)
        assert values.tobytes() == fresh.eigenvalues.tobytes()
        assert vectors.shape == fresh.eigenvectors.shape
        assert vectors.tobytes() == fresh.eigenvectors.tobytes()


class TestReducedEigsReused:
    """Every way of building a grouping sets ``reduced_eigs`` byte-equal to
    fresh decompositions, and reading them decomposes nothing."""

    @pytest.mark.parametrize("seed", [1, 2, 3, 7919])
    @pytest.mark.parametrize("n_groups", [1, 3, 8])
    @pytest.mark.parametrize("m_ant", [16, 32, 64, 128])
    def test_converged_group_users(self, monkeypatch, m_ant, n_groups, seed):
        corrs = scenario_correlations(make_scenario(8, 3, seed=seed), ArrayGeometry(m_ant))
        calls = count_calls(monkeypatch, grouping_mod, "hermitian_eig")
        grouping = group_users(corrs, n_groups)
        # The sum, the users in one stack, then one stack of centroids per
        # update, the last of which gives ``reduced_eigs``.
        width, updates = grouping.joint.basis.shape[1], len(grouping.cost_history) - 1
        expected = [(m_ant, m_ant), (8, width, width)] + [(n_groups, width, width)] * updates
        assert [args[0].shape for args in calls] == expected
        grouping.reduced_eigs
        assert len(calls) == len(expected)
        assert_reduced_eigs_are_fresh(grouping)

    def test_group_users_stopped_by_max_iters(self, monkeypatch):
        rng = np.random.default_rng(1)
        corrs = [random_psd(rng, 8, dof=2, trace=8.0) for _ in range(8)]
        converged = group_users(corrs, 3, subspace_rank=2)
        monkeypatch.setattr(grouping_mod, "MAX_ITERS", 1)
        stopped = group_users(corrs, 3, subspace_rank=2)
        assert not np.array_equal(stopped.assignments, converged.assignments)
        assert_reduced_eigs_are_fresh(stopped)

    @pytest.mark.parametrize("labels", [[0, 0, 1, 2], [2, 0, 1, 0], [1, 1, 0, 0]])
    def test_grouping_from_labels(self, rng, labels):
        corrs = [random_psd(rng, 6, dof=2) for _ in range(4)]
        assert_reduced_eigs_are_fresh(grouping_from_labels(corrs, labels))

    @pytest.mark.parametrize("seed", [1, 7919])
    def test_co_located_widening(self, monkeypatch, seed):
        # Rank-one correlations and two users in one group: the basis takes
        # a second column beyond the sum's rank.
        grouping, scenario, geometry = build_context(parse_config(CO_LOCATED), seed)
        corrs = scenario_correlations(scenario, geometry)
        values = hermitian_eig(sum(corrs)).eigenvalues
        assert grouping.joint.basis.shape[1] > np.count_nonzero(above_rounding(values, geometry.antenna_count))
        calls = count_calls(monkeypatch, grouping_mod, "hermitian_eig")
        grouping.reduced_eigs
        assert calls == []
        assert_reduced_eigs_are_fresh(grouping)


def assert_same_joint(got, expected):
    for array, own in zip((got.basis, *got.reduced), (expected.basis, *expected.reduced)):
        assert array.dtype == own.dtype and np.array_equal(array, own)
    assert len(got.reduced) == len(expected.reduced)


class TestGroupingFromLabels:
    """The labels-in constructor builds the joint subspace by the path
    ``group_users`` takes, and keeps the labels it is given."""

    @pytest.mark.parametrize(
        "config",
        [SystemConfig(), SystemConfig(M=8, K=8, G=3), SystemConfig(angular_spread=0.0), parse_config(CO_LOCATED)],
        ids=["default", "M=K", "zero-spread", "co-located"],
    )
    @pytest.mark.parametrize("seed", [1, 7919])
    def test_group_users_labels_give_its_joint(self, config, seed):
        grouping, scenario, geometry = build_context(config, seed)
        corrs = scenario_correlations(scenario, geometry)
        rebuilt = grouping_from_labels(corrs, grouping.assignments)
        assert np.array_equal(rebuilt.assignments, grouping.assignments)
        assert_same_joint(rebuilt.joint, grouping.joint)

    def test_arrays_read_only_from_construction(self, rng):
        corrs = [random_psd(rng, 6, dof=2) for _ in range(4)]
        for grouping in (group_users(corrs, 2, subspace_rank=1), grouping_from_labels(corrs, [0, 1, 1, 0])):
            joint = grouping.joint
            for array in (joint.basis, *joint.reduced):
                assert not array.flags.writeable
                with pytest.raises(ValueError):
                    array[(0,) * array.ndim] = 1.0

    def test_keeps_the_labels(self, rng):
        # Group 0 need not hold user 0: the blocks follow the labels.
        corrs = [random_psd(rng, 5) for _ in range(3)]
        grouping = grouping_from_labels(corrs, [1, 0, 1])
        assert grouping.assignments.tolist() == [1, 0, 1]
        assert [m.tolist() for m in grouping.members] == [[1], [0, 2]]
        assert [c.tolist() for c in grouping.rf_chains] == [[0], [1, 2]]
        basis = grouping.joint.basis
        for expected, reduced in zip(group_averages(corrs, grouping), grouping.joint.reduced):
            assert np.allclose(basis @ reduced @ basis.conj().T, expected, rtol=0, atol=1e-12)

    def test_one_full_size_decomposition(self, monkeypatch, rng):
        corrs = [random_psd(rng, 6, dof=1) for _ in range(4)]
        calls = count_calls(monkeypatch, grouping_mod, "hermitian_eig")
        grouping = grouping_from_labels(corrs, [0, 0, 1, 2])
        width = grouping.joint.basis.shape[1]
        # The sum of the correlations, then the three groups' reduced correlations in one stack.
        assert [args[0].shape for args in calls] == [(6, 6), (3, width, width)]
        grouping.reduced_eigs
        assert len(calls) == 2

    @pytest.mark.parametrize(
        "labels",
        [[0, 1], [0, 1, 1, 0], [[0, 1, 1]], [0, 2, 2], [-1, 0, 0], [0.0, 1.0, 1.0], [True, False, True]],
    )
    def test_bad_labels_rejected(self, rng, labels):
        corrs = [random_psd(rng, 4) for _ in range(3)]
        with pytest.raises(ValueError):
            grouping_from_labels(corrs, labels)
