import tracemalloc
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, strategies as st

from memmatch.model import MemoryBank
from memmatch.objective import (
    GradientBuffer,
    LossReport,
    _median_pair_dist,
    _sq_dists,
    cluster_nce,
    inter_loss,
    intra_alignment,
)
from reference import finite_difference, gradient_gap, mmd2_double_loop, naive_inter_loss


def random_bank(rng, p, d, scope="v"):
    c = rng.standard_normal((p, d))
    c /= np.linalg.norm(c, axis=1, keepdims=True)
    return MemoryBank(scope=scope, centroids=c, counts=np.ones(p, dtype=int))


class TestClusterNce:
    def test_single_cluster_is_flat(self):
        bank = MemoryBank(scope="v", centroids=np.array([[1.0, 0.0]]), counts=np.array([3]))
        loss, grad = cluster_nce(np.array([[0.6, 0.8]]), np.array([0]), bank, tau=0.05)
        assert loss == 0.0
        assert np.all(grad == 0.0)

    def test_aligned_positive_tiny_loss(self):
        bank = MemoryBank(
            scope="v", centroids=np.array([[1.0, 0.0], [0.0, 1.0]]), counts=np.array([1, 1])
        )
        loss, _ = cluster_nce(np.array([[1.0, 0.0]]), np.array([0]), bank, tau=0.05)
        assert loss == pytest.approx(np.log1p(np.exp(-20.0)), rel=1e-6)
        assert loss == pytest.approx(2.0611536181902037e-09, rel=1e-6)

    def test_missing_memory_rejected(self):
        bank = MemoryBank(scope="v", centroids=np.eye(2), counts=np.array([1, 1]))
        with pytest.raises(ValueError, match="no memory"):
            cluster_nce(np.eye(2), np.array([0, 2]), bank, tau=0.1)
        with pytest.raises(ValueError, match="no memory"):
            cluster_nce(np.eye(2), np.array([-1, 0]), bank, tau=0.1)

    def test_missing_memory_named_by_batch_and_sample(self):
        bank = MemoryBank(scope="v", centroids=np.eye(2), counts=np.array([1, 1]))
        labels = np.zeros((3, 8), np.int64)
        labels[2, 1] = 5
        with pytest.raises(ValueError, match=r"^batch 2 sample 1 carries label 5 with no memory$"):
            cluster_nce(np.zeros((3, 8, 2)), labels, bank, tau=0.1)
        with pytest.raises(ValueError, match=r"^batch sample 17 carries label 5 with no memory$"):
            cluster_nce(np.zeros((24, 2)), labels.ravel(), bank, tau=0.1)

    def test_stacked_peak_is_one_logit_array(self):
        # the softmax is worked in place on the (B, n, P) logits: the
        # gradient, (B, n, d) with d << P, is all that comes on top
        rng = np.random.default_rng(8)
        b, n, d, p = 20, 64, 16, 200
        bank = random_bank(rng, p, d)
        feats, labels = rng.standard_normal((b, n, d)), rng.integers(0, p, (b, n))
        tracemalloc.start()
        try:
            cluster_nce(feats, labels, bank, tau=0.05)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 8 * b * n * p

    @pytest.mark.parametrize("seed", range(21))
    def test_gradient_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        p, d, b = rng.integers(2, 6), rng.integers(2, 5), rng.integers(1, 7)
        bank = random_bank(rng, p, d)
        labels = rng.integers(0, p, b)
        feats = rng.standard_normal((b, d))
        analytic = cluster_nce(feats, labels, bank, tau=0.2)[1]
        numeric = finite_difference(lambda f: cluster_nce(f, labels, bank, tau=0.2)[0], feats)
        assert gradient_gap(analytic, numeric) <= 1e-4

    @given(st.integers(0, 10_000))
    def test_rotation_invariance(self, seed):
        rng = np.random.default_rng(seed)
        d = 4
        feats = rng.standard_normal((5, d))
        bank = random_bank(rng, 3, d)
        labels = rng.integers(0, 3, 5)
        rot, _ = np.linalg.qr(rng.standard_normal((d, d)))
        rotated_bank = MemoryBank(scope="v", centroids=bank.centroids @ rot, counts=bank.counts)
        base = cluster_nce(feats, labels, bank, tau=0.1)[0]
        rotated = cluster_nce(feats @ rot, labels, rotated_bank, tau=0.1)[0]
        assert rotated == pytest.approx(base, abs=1e-9)


class TestIntra:
    def test_zero_residual(self):
        bank = MemoryBank(scope="v", centroids=np.array([[0.5, 0.5]]), counts=np.array([2]))
        feats = np.array([[0.5, 0.5], [0.5, 0.5]])
        loss, grad = intra_alignment(feats, np.array([0, 0]), bank)
        assert loss == 0.0 and np.all(grad == 0.0)

    def test_unit_residual(self):
        bank = MemoryBank(scope="v", centroids=np.array([[0.0, 0.0]]), counts=np.array([1]))
        loss, grad = intra_alignment(np.array([[1.0, 0.0]]), np.array([0]), bank)
        assert loss == pytest.approx(1.0)
        assert np.allclose(grad, [[2.0, 0.0]])

    def test_noise_rows_skipped(self):
        bank = MemoryBank(scope="v", centroids=np.array([[0.0, 0.0]]), counts=np.array([1]))
        loss, grad = intra_alignment(np.array([[1.0, 0.0], [5.0, 5.0]]), np.array([0, -1]), bank)
        assert loss == pytest.approx(1.0)
        assert np.all(grad[1] == 0.0)

    @pytest.mark.parametrize("seed", range(21))
    def test_gradient_matches_finite_differences(self, seed):
        rng = np.random.default_rng(1000 + seed)
        p, d, b = rng.integers(1, 4), rng.integers(2, 5), rng.integers(1, 7)
        bank = random_bank(rng, p, d)
        labels = rng.integers(0, p, b)
        feats = rng.standard_normal((b, d))
        analytic = intra_alignment(feats, labels, bank)[1]
        numeric = finite_difference(lambda f: intra_alignment(f, labels, bank)[0], feats)
        assert gradient_gap(analytic, numeric) <= 1e-4


def stacked(rng, labels=2, n=4, m=5, d=3):
    return rng.standard_normal((labels, n, d)), rng.standard_normal((labels, m, d))


def as_groups(x):
    return dict(enumerate(x))


class TestMmd2:
    # With one label the loss is 1/2 D(x, y) + 1/2 D(y, x) = D(x, y), the MMD^2.

    def test_identical_sets_zero(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((1, 6, 3))
        assert abs(inter_loss(x, x.copy(), sigma=0.7)[0]) <= 1e-12

    def test_singleton_closed_form(self):
        x, y = np.array([[[0.0, 0.0]]]), np.array([[[1.0, 1.0]]])
        expected = 2.0 - 2.0 * np.exp(-2.0 / (2.0 * 0.9**2))
        assert inter_loss(x, y, sigma=0.9)[0] == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_double_loop_oracle(self, seed):
        rng = np.random.default_rng(seed)
        xv, xr = stacked(rng, rng.integers(1, 4), rng.integers(1, 9), rng.integers(1, 9), 4)
        sigma = float(rng.uniform(0.3, 2.0))
        want = np.mean([mmd2_double_loop(v, r, sigma) for v, r in zip(xv, xr)])
        assert inter_loss(xv, xr, sigma)[0] == pytest.approx(want, abs=1e-12)

    @given(st.integers(0, 10_000))
    def test_symmetric_and_non_negative(self, seed):
        rng = np.random.default_rng(seed)
        xv, xr = stacked(rng, 3, 5, 7)
        a, b = inter_loss(xv, xr, 1.1)[0], inter_loss(xr, xv, 1.1)[0]
        assert abs(a - b) <= 1e-12
        assert a >= -1e-12

    def test_median_sigma_positive(self):
        rng = np.random.default_rng(1)
        x, y = rng.standard_normal((4, 2)), rng.standard_normal((5, 2))
        union = np.vstack([x, y])
        dists = [np.linalg.norm(a - b) for i, a in enumerate(union) for b in union[i + 1 :]]
        sigma = float(np.median(dists))
        assert sigma > 0
        got = inter_loss(x[None], y[None], "median")[0]
        assert got == pytest.approx(mmd2_double_loop(x, y, sigma), abs=1e-12)
        # coincident points: the bandwidth floors at 1e-12 instead of 0
        same = np.zeros((1, 3, 2))
        loss, gv, gr = inter_loss(same, same, "median")
        assert loss == 0.0
        assert np.all(gv == 0.0) and np.all(gr == 0.0)

    @pytest.mark.parametrize("ties", [False, True], ids=["distinct", "tied"])
    @pytest.mark.parametrize("rows", range(2, 8))
    def test_median_pair_dist_is_np_median(self, rows, ties):
        # unions of 2-7 rows give 1-21 pairs, odd and even counts; a coarse
        # grid ties distances and makes some points coincide
        rng = np.random.default_rng(600 + rows)
        x = rng.standard_normal((3, 2, rows, 4))
        if ties:
            x = np.round(x)
        sq = _sq_dists(x)
        i, j = np.triu_indices(rows, k=1)
        want = np.maximum(np.median(np.sqrt(sq[..., i, j]), axis=-1), 1e-12)
        assert _median_pair_dist(sq).tobytes() == want.tobytes()
        for block in np.ndindex(x.shape[:2]):
            assert _median_pair_dist(sq[block]).tobytes() == want[block].tobytes()

    @pytest.mark.parametrize("seed", range(21))
    def test_grad_first_matches_finite_differences(self, seed):
        # each half's gradient is that of D w.r.t. its own side, the other
        # side held constant (stop-gradient)
        rng = np.random.default_rng(2000 + seed)
        x = rng.standard_normal((rng.integers(1, 6), 3))
        y = rng.standard_normal((rng.integers(1, 6), 3))
        sigma = float(rng.uniform(0.5, 1.5))
        _, gv, gr = inter_loss(x[None], y[None], sigma)
        numeric_v = finite_difference(lambda f: mmd2_double_loop(f, y, sigma), x.copy())
        numeric_r = finite_difference(lambda f: mmd2_double_loop(f, x, sigma), y.copy())
        assert gradient_gap(2 * gv[0], numeric_v) <= 1e-4
        assert gradient_gap(2 * gr[0], numeric_r) <= 1e-4


class TestInterLoss:
    def test_identical_groups_zero(self):
        rng = np.random.default_rng(3)
        xv, _ = stacked(rng)
        loss, gv, gr = inter_loss(xv, xv.copy(), sigma=0.8)
        assert loss == pytest.approx(0.0, abs=1e-12)
        assert gv.shape == gr.shape == xv.shape
        assert np.all(gv == 0.0) and np.all(gr == 0.0)

    def test_stop_gradient_is_half_the_full_gradient(self):
        # D is symmetric, so the full loss's gradient w.r.t. one side is
        # twice that of the side's own half: each half holds the other side
        # constant, and a gradient through both halves would double
        rng = np.random.default_rng(4)
        xv, xr = stacked(rng, labels=3)
        _, gv, gr = inter_loss(xv, xr, sigma=1.0)
        numeric_v = finite_difference(lambda f: inter_loss(f, xr, 1.0)[0], xv.copy())
        numeric_r = finite_difference(lambda f: inter_loss(xv, f, 1.0)[0], xr.copy())
        assert gradient_gap(gv, 0.5 * numeric_v) <= 1e-6
        assert gradient_gap(gr, 0.5 * numeric_r) <= 1e-6

    @pytest.mark.parametrize("seed", range(21))
    def test_gradients_match_finite_differences_per_term(self, seed):
        rng = np.random.default_rng(3000 + seed)
        xv, xr = stacked(rng)
        sigma = float(rng.uniform(0.6, 1.4))
        _, gv, gr = inter_loss(xv, xr, sigma)
        vis, inf = as_groups(xv), as_groups(xr)
        for label in (0, 1):
            def vis_term(f, label=label):
                return naive_inter_loss({**vis, label: f}, inf, sigma, terms=("visible",))[0]

            def inf_term(f, label=label):
                return naive_inter_loss(vis, {**inf, label: f}, sigma, terms=("infrared",))[0]

            assert gradient_gap(gv[label], finite_difference(vis_term, xv[label].copy())) <= 1e-4
            assert gradient_gap(gr[label], finite_difference(inf_term, xr[label].copy())) <= 1e-4

    @pytest.mark.parametrize("terms", [("visible", "infrared"), ("visible",), ("infrared",)])
    @pytest.mark.parametrize("sigma", [0.9, "median"])
    def test_stacked_matches_per_label_loop(self, sigma, terms):
        # the stacked loss and each side's gradient against the per-label
        # loop, both halves or the one half that side's gradient comes from
        rng = np.random.default_rng(7)
        xv, xr = stacked(rng, labels=5, n=3, m=4)
        loss, gv, gr = inter_loss(xv, xr, sigma)
        want_loss, want_v, want_r, skipped = naive_inter_loss(as_groups(xv), as_groups(xr), sigma, terms)
        assert skipped == []
        halves = 2 if len(terms) == 1 else 1  # D is symmetric: the two halves are equal
        assert abs(loss - halves * want_loss) <= 1e-12 * abs(want_loss)
        for got, want in ((gv, want_v), (gr, want_r)):
            for k in want:
                assert np.abs(got[k] - want[k]).max() <= 1e-12 * np.abs(want[k]).max()

    def test_median_sigma_mode_runs(self):
        rng = np.random.default_rng(6)
        xv, xr = stacked(rng)
        loss, gv, gr = inter_loss(xv, xr, sigma="median")
        assert np.isfinite(loss)
        assert np.isfinite(gv).all() and np.isfinite(gr).all()


class TestLeadingBatchAxes:
    """Stacked batches give each batch's own result bit for bit: the
    training loop stacks runs of PK batches into one call."""

    @pytest.mark.parametrize("seed", range(6))
    def test_cluster_nce_and_intra(self, seed):
        rng = np.random.default_rng(4000 + seed)
        b, n, d, p = rng.integers(1, 5), rng.integers(1, 20), rng.integers(2, 70), rng.integers(1, 12)
        bank = random_bank(rng, p, d)
        feats, labels = rng.standard_normal((b, n, d)), rng.integers(0, p, (b, n))
        for fn, args in ((cluster_nce, (bank, 0.05)), (intra_alignment, (bank,))):
            losses, grads = fn(feats, labels, *args)
            assert losses.shape == (b,) and grads.shape == feats.shape
            for i in range(b):
                loss, grad = fn(feats[i], labels[i], *args)
                assert type(loss) is float and loss == losses[i]
                assert grad.tobytes() == grads[i].tobytes()

    @pytest.mark.parametrize("sigma", [0.9, "median"])
    @pytest.mark.parametrize("seed", range(4))
    def test_inter_loss(self, seed, sigma):
        rng = np.random.default_rng(5000 + seed)
        b, labels, n, m, d = rng.integers(1, 5), rng.integers(1, 5), rng.integers(1, 6), rng.integers(1, 6), 8
        xv, xr = rng.standard_normal((b, labels, n, d)), rng.standard_normal((b, labels, m, d))
        losses, gv, gr = inter_loss(xv, xr, sigma)
        assert losses.shape == (b,)
        for i in range(b):
            loss, gv_i, gr_i = inter_loss(xv[i], xr[i], sigma)
            assert type(loss) is float and loss == losses[i]
            assert gv_i.tobytes() == gv[i].tobytes() and gr_i.tobytes() == gr[i].tobytes()


class TestComposeReport:
    def test_composites_derived(self):
        # a composite cannot be passed in, so no report contradicts its terms
        for composite in ("l_cmc", "l_sca", "l_overall"):
            with pytest.raises(TypeError, match=composite):
                LossReport(1.0, 1.0, 1.0, 0.0, 0.0, 0.5, 0.05, **{composite: 3.0})
        rng = np.random.default_rng(11)
        for terms in [(-0.0,) * 7, *rng.standard_normal((20, 7)).tolist()]:
            l_v, l_r, l_vr, l_intra, l_inter, lambda_intra, lambda_inter = terms
            l_cmc = l_v + l_r + l_vr
            l_sca = lambda_intra * l_intra + lambda_inter * l_inter
            want = (l_v, l_r, l_vr, l_cmc, l_intra, l_inter, l_sca, l_cmc + l_sca)
            assert repr(astuple(LossReport(*terms))) == repr(want)  # repr tells -0.0 from 0.0

    def test_zero_weights_reduce_to_cmc(self):
        report = LossReport(1.0, 1.0, 1.0, 5.0, 5.0, 0.0, 0.0)
        assert report.l_sca == 0.0
        assert report.l_overall == pytest.approx(report.l_cmc)

    def test_published_weights_arithmetic(self):
        report = LossReport(1.0, 1.0, 1.0, 1.0, 1.0, 0.5, 0.05)
        assert report.l_cmc == pytest.approx(3.0)
        assert report.l_sca == pytest.approx(0.55)
        assert report.l_overall == pytest.approx(3.55)


def test_gradient_buffer_untouched_rows_zero():
    buf = GradientBuffer.zeros(5, 3)
    buf.add_rows(np.array([1, 3, 1]), np.ones((3, 3)))
    assert np.all(buf.g[[0, 2, 4]] == 0.0)
    assert np.allclose(buf.g[1], 2.0)  # duplicate rows accumulate
    assert np.allclose(buf.g[3], 1.0)


@given(st.integers(0, 10_000), st.integers(1, 12), st.integers(1, 4), st.booleans())
def test_gradient_buffer_adds_each_sample_in_turn(seed, n, per_batch, repeats):
    # both paths, distinct rows and repeated ones, give the bits of adding
    # the samples one by one onto what earlier terms left
    rng = np.random.default_rng(seed)
    if repeats:  # n + 1 draws from n rows, so some row repeats
        rows = rng.integers(0, n, size=(per_batch, n + 1))
    else:
        rows = rng.permutation(n * per_batch).reshape(per_batch, n)
    size = int(rows.max()) + 1
    earlier, grad = rng.standard_normal((size, 3)), rng.standard_normal(rows.shape + (3,))
    buf = GradientBuffer.zeros(size, 3, distinct=not repeats)
    buf.add_rows(np.arange(size), earlier)
    buf.add_rows(rows, grad)
    want = earlier.copy()
    for row, g in zip(rows.ravel(), grad.reshape(-1, 3)):
        want[row] = want[row] + g
    assert buf.g.tobytes() == want.tobytes()
