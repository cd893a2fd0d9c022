import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st

from memmatch import model
from memmatch.clustering import (
    DistanceMatrix,
    build_memory,
    cluster_joint,
    dbscan,
    pairwise_cosine_distance,
    sub_cluster,
)
from memmatch.metrics import ari
from memmatch.model import (
    ConfidenceWeights,
    EmbeddingSet,
    PipelineConfig,
    PseudoLabeling,
    normalize_rows,
)
from reference import naive_dbscan, naive_kmeans, naive_sub_cluster, occupied


def unit_circle(angles_deg):
    ang = np.deg2rad(np.asarray(angles_deg, float))
    return np.stack([np.cos(ang), np.sin(ang)], axis=1)


def make_set(features, modality="v", truth=None):
    feats = np.asarray(features, float)
    return EmbeddingSet(
        features=feats,
        modality=np.full(feats.shape[0], modality),
        true_identity=truth,
    )


def random_points(rng, n, d):
    return normalize_rows(rng.standard_normal((n, d)))


class TestPairwiseCosineDistance:
    def test_identical_rows(self):
        dm = pairwise_cosine_distance(np.array([[1.0, 0.0], [1.0, 0.0]]))
        assert dm.d[0, 1] == pytest.approx(0.0, abs=1e-15)

    def test_orthogonal_and_antipodal(self):
        dm = pairwise_cosine_distance(np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]]))
        assert dm.d[0, 1] == pytest.approx(1.0)
        assert dm.d[0, 2] == pytest.approx(2.0)

    @given(st.integers(0, 10_000))
    def test_matrix_contract(self, seed):
        rng = np.random.default_rng(seed)
        dm = pairwise_cosine_distance(random_points(rng, 12, 5))
        assert np.array_equal(dm.d, dm.d.T)
        assert np.all(np.diag(dm.d) == 0.0)
        assert dm.d.min() >= 0.0 and dm.d.max() <= 2.0


class TestDistanceMatrix:
    @pytest.mark.parametrize("shape", [(2, 3), (4,), (2, 2, 2)], ids=["non-square", "1-D", "3-D"])
    def test_non_square_rejected(self, shape):
        with pytest.raises(ValueError, match="square"):
            DistanceMatrix(np.zeros(shape))

    def test_read_only_view_without_copy(self):
        arr = np.zeros((3, 3))
        dm = DistanceMatrix(arr)
        assert np.shares_memory(dm.d, arr)
        assert not dm.d.flags.writeable
        assert arr.flags.writeable


class TestDbscan:
    def test_five_identical_points(self):
        dm = pairwise_cosine_distance(np.tile([1.0, 0.0], (5, 1)))
        labels = dbscan(dm, eps=0.1, min_samples=4, scope="v")
        assert labels.cluster_count == 1
        assert labels.labels.tolist() == [0] * 5

    def test_isolated_point_is_noise(self):
        dm = pairwise_cosine_distance(np.array([[1.0, 0.0]]))
        labels = dbscan(dm, eps=0.6, min_samples=4)
        assert labels.labels.tolist() == [-1]
        assert labels.cluster_count == 0

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_naive_reference(self, seed):
        rng = np.random.default_rng(seed)
        pts = random_points(rng, 40, 4)
        dm = pairwise_cosine_distance(pts)
        eps = float(rng.uniform(0.05, 0.6))
        # the full matrix, then a non-contiguous diagonal-block view of it
        for d in (dm.d, dm.d[15:, 15:]):
            mine = dbscan(DistanceMatrix(d), eps, min_samples=4).labels
            assert np.array_equal(mine, naive_dbscan(d, eps, 4))

    @given(st.integers(0, 10_000))
    def test_permutation_invariant_partition(self, seed):
        rng = np.random.default_rng(seed)
        pts = random_points(rng, 25, 3)
        dm = pairwise_cosine_distance(pts)
        base = dbscan(dm, 0.25, 3).labels
        perm = rng.permutation(25)
        permuted = dbscan(DistanceMatrix(dm.d[np.ix_(perm, perm)]), 0.25, 3).labels
        assert ari(base[perm], permuted) == 1.0


class TestClusterJoint:
    def cfg(self, eps=0.3, min_samples=3):
        return PipelineConfig(dbscan_eps=eps, dbscan_min_samples=min_samples)

    def test_small_offset_groups_across_modalities(self):
        # identity A at 0 deg, identity B at 120 deg; infrared copies offset
        # by 20 deg: cross-modality cosine distance 1-cos(20deg)=0.060 < eps,
        # inter-identity >= 1-cos(100deg)=1.17 > eps.
        vis = make_set(unit_circle([0, 1, 2, 120, 121, 122]))
        inf = make_set(unit_circle([20, 21, 22, 140, 141, 142]), modality="r")
        lv, lr, lj = cluster_joint(vis, inf, self.cfg())
        assert lv.cluster_count == 2 and lr.cluster_count == 2
        assert lj.cluster_count == 2
        # same identity, both modalities, single joint cluster
        assert len(set(lj.labels[[0, 1, 2, 6, 7, 8]].tolist())) == 1
        assert len(set(lj.labels[[3, 4, 5, 9, 10, 11]].tolist())) == 1

    def test_wide_offset_keeps_modalities_apart(self):
        # 70 deg modality offset: 1-cos(70deg)=0.658 > eps, so the joint run
        # reproduces the union of the per-modality clusters.
        vis = make_set(unit_circle([0, 1, 2, 180, 181, 182]))
        inf = make_set(unit_circle([70, 71, 72, 250, 251, 252]), modality="r")
        lv, lr, lj = cluster_joint(vis, inf, self.cfg())
        assert lv.cluster_count == 2 and lr.cluster_count == 2
        assert lj.cluster_count == 4
        joint_from_parts = np.concatenate([lv.labels, lr.labels + 2])
        assert ari(lj.labels, joint_from_parts) == 1.0

    @given(
        st.integers(0, 10_000),
        st.integers(1, 30),
        st.integers(1, 30),
        st.integers(2, 8),
        st.floats(0.05, 0.6),
        st.integers(1, 5),
    )
    def test_scopes_match_own_matrices(self, seed, n_v, n_r, dim, eps, min_samples):
        # The per-modality scopes read diagonal blocks of the joint matrix;
        # they must label exactly as DBSCAN on each modality's own matrix
        # (the blocks may differ from it by BLAS rounding, a few ulp).
        assume(n_v != n_r)
        rng = np.random.default_rng(seed)
        vis = make_set(random_points(rng, n_v, dim))
        inf = make_set(random_points(rng, n_r, dim), modality="r")
        lv, lr, _ = cluster_joint(vis, inf, self.cfg(eps, min_samples))
        for got, own in ((lv, vis), (lr, inf)):
            ref = dbscan(pairwise_cosine_distance(own.features), eps, min_samples)
            assert np.array_equal(got.labels, ref.labels)
            assert got.cluster_count == ref.cluster_count

    @given(
        st.integers(0, 10_000),
        st.integers(1, 30),
        st.integers(1, 30),
        st.integers(2, 8),
        st.floats(0.05, 0.6),
        st.integers(1, 5),
    )
    def test_rows_labelled_in_their_modality_are_joint_labelled(self, seed, n_v, n_r, dim, eps, min_samples):
        # A modality scope reads a diagonal block of the joint matrix, so a
        # row's joint neighbourhood holds its modality one: a core point
        # there is a joint core point, and its cluster is joint-labelled.
        # The training loop relies on this, drawing only labelled rows.
        rng = np.random.default_rng(seed)
        vis = make_set(random_points(rng, n_v, dim))
        inf = make_set(random_points(rng, n_r, dim), modality="r")
        lv, lr, lj = cluster_joint(vis, inf, self.cfg(eps, min_samples))
        own = np.concatenate([lv.labels, lr.labels])
        assert not np.any((own >= 0) & (lj.labels < 0))

    @pytest.mark.parametrize("rows", [1, 3, 7])
    @given(
        st.integers(0, 10_000),
        st.integers(1, 25),
        st.integers(1, 25),
        st.integers(2, 6),
        st.floats(0.05, 0.8),
        st.integers(1, 5),
    )
    def test_block_boundaries(self, rows, seed, n_v, n_r, dim, eps, min_samples):
        # Sweep blocks of 1, 3 or 7 rows, with blocks straddling the
        # visible/infrared boundary and a short last block.
        assume(n_v != n_r and (rows == 1 or (n_v + n_r) % rows))
        rng = np.random.default_rng(seed)
        vis = make_set(random_points(rng, n_v, dim))
        inf = make_set(random_points(rng, n_r, dim), modality="r")
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(model, "BLOCK_BYTES", rows * 8 * (n_v + n_r))
            labelings = cluster_joint(vis, inf, self.cfg(eps, min_samples))
        scopes = (vis.features, inf.features, np.vstack([vis.features, inf.features]))
        for got, feats in zip(labelings, scopes):
            ref = naive_dbscan(pairwise_cosine_distance(feats).d, eps, min_samples)
            assert np.array_equal(got.labels, ref)
            assert got.cluster_count == ref.max() + 1

    def test_peak_memory_below_dense_matrix(self):
        # 4000 random unit vectors in 64 dimensions are nearly orthogonal, so
        # the sweep keeps few pairs; a dense N x N float64 matrix alone would
        # be 8 * N^2 bytes.
        rng = np.random.default_rng(0)
        vis = make_set(random_points(rng, 2000, 64))
        inf = make_set(random_points(rng, 2000, 64), modality="r")
        tracemalloc.start()
        try:
            cluster_joint(vis, inf, self.cfg(eps=0.3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * 8 * 4000**2

    def test_single_sample_per_modality_is_noise(self):
        vis = make_set(unit_circle([0]))
        inf = make_set(unit_circle([10]), modality="r")
        lv, lr, lj = cluster_joint(vis, inf, self.cfg(min_samples=4))
        assert lv.labels.tolist() == [-1]
        assert lr.labels.tolist() == [-1]
        assert lj.labels.tolist() == [-1, -1]


class TestLabelSemantics:
    """DBSCAN labeling rules, through ``dbscan`` on a matrix and through
    every scope of ``cluster_joint``."""

    @staticmethod
    def labelings(feats, eps, min_samples):
        # Both modalities hold a copy of ``feats`` in orthogonal coordinates:
        # the same distances within each, distance 1 across.
        feats = np.asarray(feats, float)
        zeros = np.zeros_like(feats)
        vis = make_set(np.hstack([feats, zeros]))
        inf = make_set(np.hstack([zeros, feats]), modality="r")
        cfg = PipelineConfig(dbscan_eps=eps, dbscan_min_samples=min_samples)
        lv, lr, lj = cluster_joint(vis, inf, cfg)
        via_matrix = dbscan(pairwise_cosine_distance(feats), eps, min_samples)
        return [via_matrix.labels, lv.labels, lr.labels, lj.labels[: len(feats)]]

    @pytest.mark.parametrize(
        "eps, min_samples, message",
        [(0.0, 2, "eps"), (float("nan"), 2, "eps"), (0.3, 0, "min_samples")],
        ids=["zero-eps", "nan-eps", "zero-min-samples"],
    )
    def test_invalid_parameters_rejected(self, eps, min_samples, message):
        pts = unit_circle([0, 1, 2])
        with pytest.raises(ValueError, match=message):
            dbscan(pairwise_cosine_distance(pts), eps, min_samples)
        cfg = PipelineConfig(dbscan_eps=eps, dbscan_min_samples=min_samples)
        with pytest.raises(ValueError, match=message):
            cluster_joint(make_set(pts), make_set(pts, modality="r"), cfg)

    def test_border_joins_earlier_discovered_cluster(self):
        # Point 0 at 0 deg is within 5 deg of one core of each cluster but has
        # only 3 neighbours itself.  Cluster B (negative angles) is found first,
        # from point 1, although point 0's core neighbour in A has the lower
        # index (2 < 5).
        angles = [0, -8, 4.5, -9, 8, -4.5, 9, -10, 10]
        eps = 1 - np.cos(np.deg2rad(5))
        expected = [0, 0, 1, 0, 1, 0, 1, 0, 1]
        for labels in self.labelings(unit_circle(angles), eps, 4):
            assert labels.tolist() == expected

    def test_min_samples_one_makes_every_point_core(self):
        pts = random_points(np.random.default_rng(4), 30, 4)
        ref = naive_dbscan(pairwise_cosine_distance(pts).d, 0.2, 1)
        assert ref.max() + 1 > 10  # many small clusters, not one component
        for labels in self.labelings(pts, 0.2, 1):
            assert np.all(labels >= 0)
            assert np.array_equal(labels, ref)

    def test_duplicate_rows_cluster_together(self):
        x, y = normalize_rows(np.array([[3.0, 1.0, 2.0], [-1.0, 2.0, 0.5]]))
        for labels in self.labelings([x, y, x, y, x, y, x], 0.01, 3):
            assert labels.tolist() == [0, 1, 0, 1, 0, 1, 0]

    def test_antipodal_points_are_neighbours_at_eps_two(self):
        # A unit row whose self-dot rounds above 1, so 1 - <x, -x> computes
        # to just above 2 and only the clip to [0, 2] keeps the pair.
        pts = random_points(np.random.default_rng(0), 200, 3)
        x = next(p for p in pts if 1.0 - (np.stack([p, -p]) @ np.stack([p, -p]).T)[0, 1] > 2.0)
        pair = np.stack([x, -x])
        assert dbscan(pairwise_cosine_distance(pair), 2.0, 2).labels.tolist() == [0, 0]
        cfg = PipelineConfig(dbscan_eps=2.0, dbscan_min_samples=2)
        lv, lr, lj = cluster_joint(make_set([x]), make_set([-x], modality="r"), cfg)
        assert lv.labels.tolist() == [-1] and lr.labels.tolist() == [-1]
        assert lj.labels.tolist() == [0, 0]


class TestBuildMemory:
    def test_plain_mean(self):
        es = make_set([[1.0, 0.0], [0.0, 1.0]])
        labels = PseudoLabeling.from_labels("v", [0, 0])
        bank = build_memory(es, labels)
        assert np.allclose(bank.centroids, [[0.5, 0.5]])
        assert bank.counts.tolist() == [2]

    def test_weighted_keeps_member_count_divisor(self):
        es = make_set([[1.0, 0.0], [0.0, 1.0]])
        labels = PseudoLabeling.from_labels("v", [0, 0])
        weights = ConfidenceWeights(scope="v", w=np.array([1.0, 0.0]), gmm=None)
        bank = build_memory(es, labels, weights)
        assert np.allclose(bank.centroids, [[0.5, 0.0]])

    def test_unit_weights_equal_unweighted_exactly(self):
        rng = np.random.default_rng(5)
        es = make_set(random_points(rng, 17, 6))
        labels = PseudoLabeling.from_labels("v", rng.integers(0, 3, 17))
        ones = ConfidenceWeights(scope="v", w=np.ones(17), gmm=None)
        plain = build_memory(es, labels)
        weighted = build_memory(es, labels, ones)
        assert np.array_equal(plain.centroids, weighted.centroids)

    def test_noise_excluded(self):
        es = make_set([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
        labels = PseudoLabeling.from_labels("v", [0, 0, -1])
        bank = build_memory(es, labels)
        assert np.allclose(bank.centroids, [[0.5, 0.5]])


class TestSubCluster:
    def test_separable_two_groups(self):
        es = make_set([[1.0, 0.0], [0.99, 0.14], [0.0, 1.0], [0.14, 0.99]])
        feats = normalize_rows(es.features)
        es = make_set(feats)
        labels = PseudoLabeling.from_labels("v", [0, 0, 0, 0])
        bank = sub_cluster(es, labels, n=2)
        active = occupied(bank, 0)
        expected = {tuple(np.round(feats[:2].mean(0), 12)), tuple(np.round(feats[2:].mean(0), 12))}
        got = {tuple(np.round(c, 12)) for c in active}
        assert got == expected

    def test_n1_equals_memory_bank(self):
        rng = np.random.default_rng(11)
        es = make_set(random_points(rng, 23, 5))
        labels = PseudoLabeling.from_labels("v", rng.integers(0, 4, 23))
        single = sub_cluster(es, labels, n=1)
        bank = build_memory(es, labels)
        assert np.abs(single.memories[:, 0, :] - bank.centroids).max() <= 1e-9

    def test_small_cluster_occupancy(self):
        es = make_set(normalize_rows(np.array([[1.0, 0.0], [0.9, 0.1], [0.0, 1.0]])))
        labels = PseudoLabeling.from_labels("v", [0, 0, 0])
        bank = sub_cluster(es, labels, n=4)
        assert int((bank.occupancy[0] > 0).sum()) == 3
        assert int((bank.occupancy[0] == 0).sum()) == 1

    def test_duplicate_points_leave_cells_empty(self):
        es = make_set(np.tile([1.0, 0.0], (5, 1)))
        labels = PseudoLabeling.from_labels("v", [0] * 5)
        bank = sub_cluster(es, labels, n=3)
        assert int((bank.occupancy[0] > 0).sum()) == 1
        assert bank.occupancy[0].sum() == 5

    @given(
        st.integers(0, 10_000),
        st.lists(st.integers(1, 9), min_size=1, max_size=8),
        st.integers(1, 5),
        st.integers(2, 5),
        st.booleans(),
    )
    @example(seed=0, sizes=[3, 1, 3], n=1, dim=2, coarse=False)
    @example(seed=2, sizes=[7, 3, 7, 1], n=4, dim=2, coarse=True)
    def test_matches_per_cluster_oracle(self, seed, sizes, n, dim, coarse):
        # Ragged sizes put clusters with m < n, m = n and m > n side by side
        # and stack clusters of equal size into one group; noise rows take no
        # part.  The coarse grid makes duplicate points, so farthest-point
        # seeding repeats a seed and its cell stays empty.  dim >= 2: numpy
        # sums a single column pairwise, so at dim 1 the oracle's mean rounds
        # differently from 8 members on.
        rng = np.random.default_rng(seed)
        labels = np.concatenate([np.repeat(np.arange(len(sizes)), sizes), [-1, -1]])
        rng.shuffle(labels)
        feats = rng.standard_normal((labels.size, dim))
        if coarse:
            feats = np.round(feats)
        bank = sub_cluster(make_set(feats), PseudoLabeling.from_labels("v", labels), n)
        memories, occupancy = naive_sub_cluster(feats, labels, n)
        assert np.array_equal(bank.memories, memories)
        assert np.array_equal(bank.occupancy, occupancy)

    def test_group_split_by_block_budget(self):
        # One 40-member cluster's (m, k, d) temporary is 80 KiB at n = 4 and
        # d = 64, so the 30 clusters of size 40 run in two groups.
        rng = np.random.default_rng(7)
        labels = np.repeat(np.arange(30), 40)
        rng.shuffle(labels)
        feats = random_points(rng, labels.size, 64)
        assert 30 * 40 * 4 * 64 * 8 > model.BLOCK_BYTES
        bank = sub_cluster(make_set(feats), PseudoLabeling.from_labels("v", labels), 4)
        memories, occupancy = naive_sub_cluster(feats, labels, 4)
        assert np.array_equal(bank.memories, memories)
        assert np.array_equal(bank.occupancy, occupancy)

    @given(st.integers(0, 10_000))
    def test_kmeans_objective_non_increasing(self, seed):
        rng = np.random.default_rng(seed)
        pts = rng.standard_normal((20, 3))
        _, _, history = naive_kmeans(pts, k=4)
        assert np.all(np.diff(history) <= 1e-9)

    def test_occupied_submemories_are_member_means(self):
        rng = np.random.default_rng(3)
        es = make_set(random_points(rng, 30, 4))
        labels = PseudoLabeling.from_labels("v", rng.integers(0, 3, 30))
        bank = sub_cluster(es, labels, n=3)
        for p in range(3):
            members = es.features[labels.members(p)]
            mem = occupied(bank, p)
            assign = np.argmin(((members[:, None, :] - mem[None]) ** 2).sum(-1), axis=1)
            for slot in range(mem.shape[0]):
                sel = members[assign == slot]
                assert sel.shape[0] == bank.occupancy[p, slot]
                assert np.linalg.norm(sel.mean(axis=0) - mem[slot]) <= 1e-9
