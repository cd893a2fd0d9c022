import numpy as np
import pytest
from hypothesis import given, strategies as st

from memmatch.model import MemoryBank
from memmatch.objective import (
    GradientBuffer,
    LossReport,
    cluster_nce,
    compose_report,
    inter_loss,
    intra_alignment,
    loss_csv_row,
    median_sigma,
    mmd2,
    mmd2_grad_first,
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


class TestMmd2:
    def test_identical_sets_zero(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((6, 3))
        assert abs(mmd2(x, x, sigma=0.7)) <= 1e-12

    def test_singleton_closed_form(self):
        x, y = np.array([[0.0, 0.0]]), np.array([[1.0, 1.0]])
        expected = 2.0 - 2.0 * np.exp(-2.0 / (2.0 * 0.9**2))
        assert mmd2(x, y, sigma=0.9) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_double_loop_oracle(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((rng.integers(1, 9), 4))
        y = rng.standard_normal((rng.integers(1, 9), 4))
        sigma = float(rng.uniform(0.3, 2.0))
        assert mmd2(x, y, sigma) == pytest.approx(mmd2_double_loop(x, y, sigma), abs=1e-12)

    @given(st.integers(0, 10_000))
    def test_symmetric_and_non_negative(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((5, 3))
        y = rng.standard_normal((7, 3))
        a, b = mmd2(x, y, 1.1), mmd2(y, x, 1.1)
        assert abs(a - b) <= 1e-12
        assert a >= -1e-12

    def test_median_sigma_positive(self):
        rng = np.random.default_rng(1)
        x, y = rng.standard_normal((4, 2)), rng.standard_normal((5, 2))
        assert median_sigma(x, y) > 0
        same = np.zeros((3, 2))
        assert median_sigma(same, same) == 1e-12

    @pytest.mark.parametrize("seed", range(21))
    def test_grad_first_matches_finite_differences(self, seed):
        rng = np.random.default_rng(2000 + seed)
        x = rng.standard_normal((rng.integers(1, 6), 3))
        y = rng.standard_normal((rng.integers(1, 6), 3))
        sigma = float(rng.uniform(0.5, 1.5))
        analytic = mmd2_grad_first(x, y, sigma)[1]
        numeric = finite_difference(lambda f: mmd2(f, y, sigma), x.copy())
        assert gradient_gap(analytic, numeric) <= 1e-4


class TestInterLoss:
    def groups(self, rng, labels=(0, 1), sizes=(4, 3)):
        vis = {l: rng.standard_normal((s, 3)) for l, s in zip(labels, sizes)}
        inf = {l: rng.standard_normal((s + 1, 3)) for l, s in zip(labels, sizes)}
        return vis, inf

    def test_identical_groups_zero(self):
        rng = np.random.default_rng(3)
        vis, _ = self.groups(rng)
        loss, gv, gr, skipped = inter_loss(vis, {k: v.copy() for k, v in vis.items()}, sigma=0.8)
        assert loss == pytest.approx(0.0, abs=1e-12)
        for g in list(gv.values()) + list(gr.values()):
            assert np.all(g == 0.0)
        assert skipped == []

    def test_stop_gradient_rows_exactly_zero(self):
        rng = np.random.default_rng(4)
        vis, inf = self.groups(rng)
        loss, gv, gr, _ = inter_loss(vis, inf, sigma=1.0, terms=("visible",))
        assert gr == {}
        assert set(gv) == {0, 1}
        full_loss, _, _, _ = inter_loss(vis, inf, sigma=1.0)
        assert full_loss == pytest.approx(2 * loss, rel=1e-9)

    def test_one_sided_cluster_skipped(self):
        rng = np.random.default_rng(5)
        vis, inf = self.groups(rng)
        vis[7] = rng.standard_normal((2, 3))
        inf[9] = np.zeros((0, 3))
        vis[9] = rng.standard_normal((2, 3))
        loss, gv, gr, skipped = inter_loss(vis, inf, sigma=1.0)
        assert skipped == [7, 9]
        assert set(gv) == {0, 1}

    @pytest.mark.parametrize("seed", range(21))
    def test_gradients_match_finite_differences_per_term(self, seed):
        rng = np.random.default_rng(3000 + seed)
        vis, inf = self.groups(rng)
        sigma = float(rng.uniform(0.6, 1.4))
        _, gv, _, _ = inter_loss(vis, inf, sigma, terms=("visible",))
        for label in (0, 1):
            def vis_term(f, label=label):
                patched = dict(vis)
                patched[label] = f
                return inter_loss(patched, inf, sigma, terms=("visible",))[0]

            numeric = finite_difference(vis_term, vis[label].copy())
            assert gradient_gap(gv[label], numeric) <= 1e-4
        _, _, gr, _ = inter_loss(vis, inf, sigma, terms=("infrared",))
        for label in (0, 1):
            def inf_term(f, label=label):
                patched = dict(inf)
                patched[label] = f
                return inter_loss(vis, patched, sigma, terms=("infrared",))[0]

            numeric = finite_difference(inf_term, inf[label].copy())
            assert gradient_gap(gr[label], numeric) <= 1e-4

    @pytest.mark.parametrize("terms", [("visible", "infrared"), ("visible",), ("infrared",)])
    @pytest.mark.parametrize("sigma", [0.9, "median"])
    def test_stacked_matches_per_label_loop(self, sigma, terms):
        rng = np.random.default_rng(7)
        # ragged size classes: (3, 4) twice, (2, 5), (1, 1) and (4, 4) once each
        sizes = {0: (3, 4), 1: (2, 5), 2: (3, 4), 3: (1, 1), 5: (4, 4)}
        vis = {k: rng.standard_normal((nv, 3)) for k, (nv, _) in sizes.items()}
        inf = {k: rng.standard_normal((nr, 3)) for k, (_, nr) in sizes.items()}
        vis[8] = rng.standard_normal((2, 3))  # one-sided: skipped
        loss, gv, gr, skipped = inter_loss(vis, inf, sigma, terms)
        want_loss, want_v, want_r, want_skipped = naive_inter_loss(vis, inf, sigma, terms)
        assert abs(loss - want_loss) <= 1e-12 * abs(want_loss)
        assert skipped == want_skipped == [8]
        for got, want in ((gv, want_v), (gr, want_r)):
            assert set(got) == set(want)
            for k in want:
                assert np.abs(got[k] - want[k]).max() <= 1e-12 * np.abs(want[k]).max()

    def test_median_sigma_mode_runs(self):
        rng = np.random.default_rng(6)
        vis, inf = self.groups(rng)
        loss, gv, gr, _ = inter_loss(vis, inf, sigma="median")
        assert np.isfinite(loss)


class TestComposeReport:
    def test_identities_enforced(self):
        with pytest.raises(ValueError):
            LossReport(
                l_v=1.0, l_r=1.0, l_vr=1.0, l_cmc=4.0, l_intra=0.0, l_inter=0.0,
                l_sca=0.0, l_overall=4.0,
            )

    def test_schedule_zeroes_inter_before_start(self):
        report = compose_report(
            l_v=1.0, l_r=1.0, l_vr=1.0, l_intra=2.0, l_inter=9.0,
            lambda_intra=0.5, lambda_inter=0.05,
            epoch=1, intra_start_epoch=1, inter_start_epoch=15,
        )
        assert report.l_inter == 0.0
        assert report.l_overall == pytest.approx(3.0 + 0.5 * 2.0)

    def test_zero_weights_reduce_to_cmc(self):
        report = compose_report(1.0, 1.0, 1.0, 5.0, 5.0, 0.0, 0.0, 20, 1, 15)
        assert report.l_sca == 0.0
        assert report.l_overall == pytest.approx(report.l_cmc)

    def test_published_weights_arithmetic(self):
        report = compose_report(1.0, 1.0, 1.0, 1.0, 1.0, 0.5, 0.05, 15, 1, 15)
        assert report.l_cmc == pytest.approx(3.0)
        assert report.l_sca == pytest.approx(0.55)
        assert report.l_overall == pytest.approx(3.55)

    def test_csv_row_format(self):
        report = compose_report(0.5, 0.25, 0.25, 0.0, 0.0, 0.5, 0.05, 1, 1, 15)
        row = loss_csv_row(3, report)
        assert row.startswith("3,0.5,0.25,0.25,1.0,")


def test_gradient_buffer_untouched_rows_zero():
    buf = GradientBuffer.zeros(5, 3)
    buf.add_rows(np.array([1, 3, 1]), np.ones((3, 3)))
    assert np.all(buf.g[[0, 2, 4]] == 0.0)
    assert np.allclose(buf.g[1], 2.0)  # duplicate rows accumulate
    assert np.allclose(buf.g[3], 1.0)
