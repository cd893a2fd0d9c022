import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from memmatch import model
from memmatch.metrics import (
    RANKS,
    ari,
    ari_fraction,
    ari_report,
    retrieval_eval,
)
from memmatch.model import EmbeddingSet, normalize_rows
from reference import ari_pair_counting, labeling, naive_retrieval_eval

label_lists = st.lists(st.integers(-1, 4), min_size=2, max_size=25)


def id_set(features, ids, modality="v"):
    feats = normalize_rows(np.asarray(features, float))
    return EmbeddingSet(
        features=feats,
        modality=np.full(feats.shape[0], modality),
        true_identity=None if ids is None else np.asarray(ids),
    )


class TestAri:
    def test_identical_partitions(self):
        assert ari([0, 0, 1, 1, 2], [5, 5, 9, 9, 7]) == 1.0

    def test_one_cluster_vs_singletons(self):
        assert ari([0, 0, 0, 0], [0, 1, 2, 3]) == 0.0

    def test_hand_computed_case(self):
        # contingency: index=2, sum_a=3, sum_b=6, total=15 -> ARI = 8/33
        assert ari_fraction([0, 0, 1, 1, 2, 2], [0, 0, 0, 1, 1, 1]) == Fraction(8, 33)
        assert ari([0, 0, 1, 1, 2, 2], [0, 0, 0, 1, 1, 1]) == pytest.approx(8 / 33, abs=1e-15)

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            ari([0], [0])

    @given(label_lists, st.randoms())
    def test_symmetry(self, a, rnd):
        b = list(a)
        rnd.shuffle(b)
        assert ari(a, b) == ari(b, a)

    @given(label_lists)
    def test_relabeling_invariance(self, a):
        b = [(x * 7 + 3) % 11 if x >= 0 else -1 for x in a]
        mapped = [x + 20 if x >= 0 else -1 for x in a]
        assert ari(a, b) == ari(mapped, b)

    @given(label_lists, label_lists.map(lambda xs: xs))
    def test_matches_pair_counting_brute_force(self, a, b):
        n = min(len(a), len(b))
        if n < 2:
            return
        a, b = a[:n], b[:n]
        assert ari_fraction(a, b) == ari_pair_counting(a, b)

    def test_noise_as_singletons(self):
        # two noise samples never count as "together", so they behave as
        # fresh singleton clusters on each side
        with_noise = ari([0, 0, -1, -1], [0, 0, 1, 1])
        explicit = ari([0, 0, 1, 2], [0, 0, 1, 1])
        assert with_noise == explicit

    def test_contingency_marginals(self):
        # marginals [2, 1] and [1, 2], no cell holding a pair: ARI -1/2
        assert ari_fraction([0, 0, 1], [1, 0, 1]) == ari_pair_counting([0, 0, 1], [1, 0, 1]) == Fraction(-1, 2)


class TestAriReport:
    def make_pair(self, vis_labels, inf_labels, vis_truth, inf_truth):
        rng = np.random.default_rng(0)
        vis = id_set(rng.standard_normal((len(vis_truth), 4)), vis_truth)
        inf = id_set(rng.standard_normal((len(inf_truth), 4)), inf_truth, modality="r")
        return (
            labeling("v", vis_labels),
            labeling("r", inf_labels),
            vis,
            inf,
        )

    def test_perfect_pipeline(self):
        args = self.make_pair([0, 0, 1, 1], [0, 1, 1], [0, 0, 1, 1], [0, 1, 1])
        assert ari_report(*args) == (1.0, 1.0, 1.0)

    def test_flipped_correspondence_hurts_only_all(self):
        # per-modality clusters perfect, but the two identities' labels are
        # swapped between modalities
        args = self.make_pair(
            [0, 0, 1, 1], [1, 1, 0, 0], [0, 0, 1, 1], [0, 0, 1, 1]
        )
        rgb, ir, all_ = ari_report(*args)
        assert rgb == 1.0 and ir == 1.0
        assert all_ < 1.0

    def test_random_labels_near_zero(self):
        rng = np.random.default_rng(42)
        vals = []
        for _ in range(30):
            truth = np.repeat(np.arange(5), 8)
            noise_labels = rng.integers(0, 5, 40)
            vals.append(ari(noise_labels, truth))
        assert abs(float(np.mean(vals))) < 0.05

    def test_missing_truth_rejected(self):
        labels_v, labels_r, vis, inf = self.make_pair([0, 0], [0, 0], [0, 0], [0, 0])
        bare = EmbeddingSet(features=vis.features, modality=vis.modality)
        with pytest.raises(ValueError, match="ground-truth"):
            ari_report(labels_v, labels_r, bare, inf)


class TestRetrievalEval:
    def test_exact_duplicates_perfect(self):
        rng = np.random.default_rng(1)
        feats = rng.standard_normal((6, 5))
        query = id_set(feats, [0, 1, 2, 3, 4, 5], modality="r")
        gallery = id_set(feats, [0, 1, 2, 3, 4, 5])
        report = retrieval_eval(query, gallery)
        assert report.rank[1] == 1.0
        assert report.map == 1.0

    def test_wrong_then_right(self):
        query = id_set([[1.0, 0.0]], [0], modality="r")
        gallery = id_set([[1.0, 0.0], [0.9, 0.1]], [7, 0])
        report = retrieval_eval(query, gallery)
        assert report.rank[1] == 0.0
        assert report.rank[5] == 1.0
        assert report.map == pytest.approx(0.5)

    def test_tie_broken_by_gallery_index(self):
        query = id_set([[1.0, 0.0]], [0], modality="r")
        gallery = id_set([[1.0, 0.0], [1.0, 0.0]], [0, 1])
        report = retrieval_eval(query, gallery)
        assert report.rank[1] == 1.0  # index 0 (correct) wins the tie
        flipped = retrieval_eval(query, id_set([[1.0, 0.0], [1.0, 0.0]], [1, 0]))
        assert flipped.rank[1] == 0.0

    def test_query_without_gallery_identity_excluded(self):
        query = id_set([[1.0, 0.0], [0.0, 1.0]], [0, 99], modality="r")
        gallery = id_set([[1.0, 0.0]], [0])
        report = retrieval_eval(query, gallery)
        assert report.excluded_queries == 1
        assert report.valid_queries == 1

    @given(st.integers(0, 10_000))
    def test_similarity_preserving_transform_invariance(self, seed):
        # a common orthogonal rotation preserves every query-gallery
        # similarity, hence the full ranking and all metrics
        rng = np.random.default_rng(seed)
        feats_q = rng.standard_normal((5, 4))
        feats_g = rng.standard_normal((9, 4))
        ids_q = rng.integers(0, 3, 5)
        ids_g = np.concatenate([np.arange(3), rng.integers(0, 3, 6)])
        q = id_set(feats_q, ids_q, modality="r")
        g = id_set(feats_g, ids_g)
        base = retrieval_eval(q, g)
        rot, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        q_rot = EmbeddingSet(
            features=q.features @ rot, modality=q.modality, true_identity=q.true_identity
        )
        g_rot = EmbeddingSet(
            features=g.features @ rot, modality=g.modality, true_identity=g.true_identity
        )
        again = retrieval_eval(q_rot, g_rot)
        assert again.map == pytest.approx(base.map, abs=1e-12)
        assert again.rank == base.rank

    @given(st.data())
    def test_matches_naive_ranking(self, data):
        # Small-integer features make every dot product exact, so exact ties
        # occur; blocks of 1-3 query rows split the queries unevenly.
        n_q, n_g = data.draw(st.integers(1, 12)), data.draw(st.integers(1, 25))
        dim, rows = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
        ints = st.integers(-2, 2)

        def int_set(n, max_id, modality):
            row = st.lists(ints, min_size=dim, max_size=dim)
            feats = data.draw(st.lists(row, min_size=n, max_size=n))
            ids = data.draw(st.lists(st.integers(0, max_id), min_size=n, max_size=n))
            return EmbeddingSet(features=np.array(feats, float), modality=np.full(n, modality),
                                true_identity=np.array(ids))

        query, gallery = int_set(n_q, 5, "r"), int_set(n_g, 3, "v")  # ids 4, 5: no positive
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(model, "BLOCK_BYTES", rows * 8 * n_g)
            try:
                expected = naive_retrieval_eval(query, gallery)
            except ValueError:
                with pytest.raises(ValueError, match="no query identity"):
                    retrieval_eval(query, gallery)
                return
            got = retrieval_eval(query, gallery)
        assert got.rank == expected.rank
        assert got.valid_queries == expected.valid_queries
        assert got.excluded_queries == expected.excluded_queries
        assert got.map == pytest.approx(expected.map, rel=1e-12, abs=0)

    def test_small_gallery_ties_by_index(self):
        # five gallery items, all at similarity 1: rank-k stops at the gallery
        # size, and a positive at index 3 ranks 4th
        query = id_set([[1.0, 0.0]], [0], modality="r")
        gallery = id_set([[1.0, 0.0]] * 5, [1, 2, 3, 0, 4])
        report = retrieval_eval(query, gallery)
        assert report.rank == {1: 0.0, 5: 1.0, 10: 1.0, 20: 1.0}
        assert report.map == 0.25

    @pytest.mark.parametrize("side", ["query", "gallery"])
    def test_non_finite_features_rejected(self, side):
        sets = {"query": id_set([[1.0, 0.0]], [0], modality="r"),
                "gallery": id_set([[1.0, 0.0]] * 2, [0, 1])}
        feats = sets[side].features.copy()
        feats[0, 0] = np.nan
        sets[side] = EmbeddingSet(features=feats, modality=sets[side].modality,
                                  true_identity=sets[side].true_identity)
        with pytest.raises(ValueError, match="finite"):
            retrieval_eval(sets["query"], sets["gallery"])

    def test_rank_keys_are_ranks(self):
        query = id_set([[1.0, 0.0]], [0], modality="r")
        gallery = id_set([[0.0, 1.0], [1.0, 0.0]], [1, 0])
        assert tuple(retrieval_eval(query, gallery).rank) == RANKS

    def test_peak_memory_below_dense_matrix(self):
        # one dense query x gallery float64 array alone would be 8 * 3000^2 bytes
        rng = np.random.default_rng(0)
        ids = np.repeat(np.arange(30), 100)
        query = id_set(rng.standard_normal((3000, 64)), ids, modality="r")
        gallery = id_set(rng.standard_normal((3000, 64)), ids)
        tracemalloc.start()
        try:
            retrieval_eval(query, gallery)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 3000**2
