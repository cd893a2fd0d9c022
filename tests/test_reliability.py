import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from memmatch.clustering import build_memory
from memmatch.model import EmbeddingSet, GmmFit, MemoryBank, PseudoLabeling, normalize_rows
from memmatch.reliability import (
    DegenerateLossError,
    IdLossVector,
    _em_trace,
    confidence,
    fit_gmm2,
    id_loss,
    uniform_confidence,
)


def make_set(features):
    feats = np.asarray(features, float)
    return EmbeddingSet(features=feats, modality=np.full(feats.shape[0], "v"))


def loss_vector(values, excluded=None):
    values = np.asarray(values, float)
    if excluded is None:
        excluded = np.zeros(values.shape, dtype=bool)
    return IdLossVector(scope="v", losses=values, excluded=np.asarray(excluded, bool))


class TestIdLoss:
    def test_single_cluster_zero_loss(self):
        es = make_set([[1.0, 0.0], [0.0, 1.0]])
        labels = PseudoLabeling.from_labels("v", [0, 0])
        bank = build_memory(es, labels)
        out = id_loss(es, labels, bank, tau=1.0)
        assert np.allclose(out.losses, 0.0)

    def test_closed_form_two_clusters(self):
        # sample 0 sits exactly on its centroid, the other centroid is
        # orthogonal: loss = -log(e / (e + 1))
        es = make_set([[1.0, 0.0], [0.0, 1.0]])
        labels = PseudoLabeling.from_labels("v", [0, 1])
        bank = build_memory(es, labels)
        out = id_loss(es, labels, bank, tau=1.0)
        assert out.losses[0] == pytest.approx(np.log1p(np.exp(-1.0)), abs=1e-12)

    def test_closed_form_wrong_side(self):
        # each sample orthogonal to its own centroid and aligned with the
        # other one: logits (0, 1) for label 0, so loss = -log(1/(1+e))
        es = make_set([[0.0, 1.0], [1.0, 0.0]])
        labels = PseudoLabeling.from_labels("v", [0, 1])
        bank = MemoryBank(scope="v", centroids=np.array([[1.0, 0.0], [0.0, 1.0]]), counts=np.array([1, 1]))
        out = id_loss(es, labels, bank, tau=1.0)
        assert out.losses[0] == pytest.approx(np.log1p(np.e), abs=1e-12)
        assert out.losses[1] == pytest.approx(np.log1p(np.e), abs=1e-12)

    def test_noise_flagged_excluded(self):
        es = make_set([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
        labels = PseudoLabeling.from_labels("v", [0, 0, -1])
        bank = build_memory(es, labels)
        out = id_loss(es, labels, bank, tau=0.05)
        assert out.excluded.tolist() == [False, False, True]
        assert out.losses[2] == 0.0

    @pytest.mark.parametrize("rows", [4, 8])
    def test_labeling_of_another_length_rejected(self, rows):
        es = make_set(np.eye(6))
        labels = PseudoLabeling.from_labels("v", [0, 1] * (rows // 2))
        bank = MemoryBank(scope="v", centroids=np.eye(6)[:2], counts=np.array([rows // 2] * 2))
        with pytest.raises(ValueError, match=f"^labeling has {rows} rows, the embedding set 6$"):
            id_loss(es, labels, bank, tau=0.5)

    def test_peak_is_one_logit_array(self):
        # one N x P array of logits, worked in place; the N-long vectors
        # (labels, losses, masks) are all that comes on top
        rng = np.random.default_rng(3)
        n, p, d = 2000, 200, 32
        es = make_set(normalize_rows(rng.standard_normal((n, d))))
        raw = np.concatenate([np.arange(p), rng.integers(-1, p, n - p)])
        labels = PseudoLabeling.from_labels("v", raw)
        bank = MemoryBank(scope="v", centroids=normalize_rows(rng.standard_normal((p, d))), counts=np.ones(p, int))
        tracemalloc.start()
        try:
            out = id_loss(es, labels, bank, tau=0.05)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.excluded.any()
        assert peak < 1.5 * 8 * n * p

    @given(st.integers(0, 10_000))
    def test_cluster_index_permutation_invariance(self, seed):
        rng = np.random.default_rng(seed)
        feats = rng.standard_normal((12, 4))
        feats /= np.linalg.norm(feats, axis=1, keepdims=True)
        es = make_set(feats)
        raw = rng.integers(0, 3, 12)
        raw[:3] = [0, 1, 2]  # keep every cluster occupied
        labels = PseudoLabeling.from_labels("v", raw)
        bank = build_memory(es, labels)
        base = id_loss(es, labels, bank, tau=0.3)
        perm = np.array([2, 0, 1])
        permuted_labels = PseudoLabeling.from_labels("v", perm[raw])
        permuted_bank = build_memory(es, permuted_labels)
        out = id_loss(es, permuted_labels, permuted_bank, tau=0.3)
        assert np.allclose(out.losses, base.losses, atol=1e-12)


class TestFitGmm2:
    def test_two_value_groups(self):
        data = loss_vector([0.1] * 50 + [2.0] * 50)
        fit = fit_gmm2(data)
        assert abs(fit.means[0] - 0.1) < 0.02
        assert abs(fit.means[1] - 2.0) < 0.02
        assert fit.mix[0] == pytest.approx(0.5, abs=0.01)

    def test_jittered_groups_match_moment_oracle(self):
        rng = np.random.default_rng(42)
        lo = rng.normal(0.1, 0.02, 60)
        hi = rng.normal(2.0, 0.1, 40)
        fit = fit_gmm2(loss_vector(np.concatenate([lo, hi])))
        assert fit.means[0] == pytest.approx(lo.mean(), abs=0.02)
        assert fit.means[1] == pytest.approx(hi.mean(), abs=0.05)
        assert fit.mix[0] == pytest.approx(0.6, abs=0.02)
        assert fit.variances[0] == pytest.approx(lo.var(), rel=0.5)

    def test_components_sorted_by_mean(self):
        rng = np.random.default_rng(1)
        fit = fit_gmm2(loss_vector(rng.uniform(0, 1, 30)))
        assert fit.means[0] <= fit.means[1]

    def test_single_sample_degenerate(self):
        with pytest.raises(DegenerateLossError):
            fit_gmm2(loss_vector([0.3]))

    def test_identical_losses_degenerate(self):
        with pytest.raises(DegenerateLossError, match="uniform confidence 1"):
            fit_gmm2(loss_vector([0.7] * 10))

    def test_excluded_samples_ignored(self):
        data = loss_vector([0.1, 0.1, 2.0, 2.0, 99.0], excluded=[0, 0, 0, 0, 1])
        fit = fit_gmm2(data)
        assert fit.means[1] < 3.0

    @pytest.mark.parametrize("seed", range(10))
    def test_log_likelihood_monotone(self, seed):
        rng = np.random.default_rng(seed)
        data = np.concatenate([rng.normal(0.2, 0.05, 30), rng.normal(1.5, 0.4, 30)])
        _, _, _, history = _em_trace(data)
        assert np.all(np.diff(history) >= -1e-9)

    def test_iterations_reported(self):
        rng = np.random.default_rng(2)
        fit = fit_gmm2(loss_vector(rng.uniform(0, 1, 40)))
        assert fit.iterations >= 1


class TestConfidence:
    def fit_two_groups(self):
        data = loss_vector([0.1] * 50 + [2.0] * 50)
        return data, fit_gmm2(data)

    def test_low_loss_high_confidence(self):
        data, fit = self.fit_two_groups()
        w = confidence(data, fit).w
        assert np.all(w[:50] > 0.999)
        assert np.all(w[50:] < 0.001)

    def test_equal_components_half(self):
        fit = GmmFit(
            means=np.array([1.0, 1.0]),
            variances=np.array([0.5, 0.5]),
            mix=np.array([0.5, 0.5]),
            log_likelihood=0.0,
            iterations=1,
        )
        w = confidence(loss_vector([0.2, 1.0, 3.7]), fit).w
        assert np.allclose(w, 0.5)

    def test_posteriors_sum_to_one(self):
        data, fit = self.fit_two_groups()
        from memmatch.reliability import _component_log_densities

        log_joint = _component_log_densities(data.losses, fit.means, fit.variances, fit.mix)
        row_max = log_joint.max(axis=1, keepdims=True)
        resp = np.exp(log_joint - row_max)
        posteriors = resp / resp.sum(axis=1, keepdims=True)
        assert np.abs(posteriors.sum(axis=1) - 1.0).max() <= 1e-12

    def test_noise_weight_zero(self):
        data = loss_vector([0.1] * 20 + [2.0] * 20 + [0.0], excluded=[0] * 40 + [1])
        fit = fit_gmm2(data)
        w = confidence(data, fit).w
        assert w[-1] == 0.0

    def test_monotone_when_small_mean_has_small_variance(self):
        rng = np.random.default_rng(9)
        values = np.sort(np.concatenate([rng.normal(0.3, 0.05, 40), rng.normal(2.0, 0.3, 40)]))
        data = loss_vector(values)
        fit = fit_gmm2(data)
        if fit.variances[0] <= fit.variances[1]:
            w = confidence(data, fit).w
            assert np.all(np.diff(w) <= 1e-9)
        else:
            pytest.skip("fitted small-mean component has the larger variance")

    def test_uniform_fallback(self):
        data = loss_vector([0.5, 0.5, 0.5], excluded=[0, 0, 1])
        w = uniform_confidence(data)
        assert w.w.tolist() == [1.0, 1.0, 0.0]
        assert w.gmm is None
