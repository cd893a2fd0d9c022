import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from memmatch import pipeline
from memmatch.cli import main
from memmatch.clustering import build_memory, cluster_joint
from memmatch.dataio import write_embeddings
from memmatch.model import EmbeddingSet, PipelineConfig, PseudoLabeling, concat_sets, normalize_rows
from memmatch.objective import GradientBuffer, cluster_nce, intra_alignment
from memmatch.pipeline import (
    ClusteringCollapseError,
    EpochSummary,
    TrainableEmbeddings,
    TrainingDivergedError,
    ablation_configs,
    batches_per_epoch,
    config_tags,
    pk_sample,
    run_epoch,
    run_training,
)
from memmatch.rng import named_stream
from memmatch.synth import SynthSpec, generate
from reference import (
    brute_force_assignment,
    dense_sgd_replay,
    finite_difference,
    gradient_gap,
    naive_inter_loss,
    naive_pk_sample,
    sequential_epoch,
)


def tiny_spec(**overrides):
    base = dict(
        identities=5,
        samples_per_identity_per_modality=8,
        sub_modes=2,
        dim=16,
        identity_spread=1.2,
        sub_mode_spread=0.25,
        noise_sigma=0.04,
        modality_offset=0.25,
        outlier_fraction=0.0,
        seed=21,
    )
    base.update(overrides)
    return SynthSpec(**base)


def tiny_cfg(**overrides):
    base = dict(epochs=2, batch_ids=4, inter_start_epoch=1, seed=3)
    base.update(overrides)
    return PipelineConfig(**base)


def first_epoch(vis, inf, cfg):
    """The full state of a run's first training epoch, which ``run_training``
    keeps only as a summary."""
    return run_epoch(TrainableEmbeddings(vis, inf, cfg), cfg, 1, named_stream(cfg.seed, "sampler"))


def assert_bank_rebuilds(bank, es, labels, conf):
    rebuilt = build_memory(es, labels, conf)
    assert np.array_equal(bank.centroids, rebuilt.centroids)
    assert np.array_equal(bank.counts, rebuilt.counts)


def circle_set(angles_deg, modality, ids):
    ang = np.deg2rad(np.asarray(angles_deg, float))
    feats = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    return EmbeddingSet(
        features=feats,
        modality=np.full(len(angles_deg), modality),
        true_identity=np.asarray(ids),
    )


class TestPkSample:
    def setup_method(self):
        rng = np.random.default_rng(0)
        self.vis = PseudoLabeling.from_labels("v", np.repeat(np.arange(10), 6))
        self.inf = PseudoLabeling.from_labels("r", np.repeat(np.arange(10), 5))
        self.rng = rng

    def test_default_composition(self):
        cfg = PipelineConfig()
        vis_idx, inf_idx, used, shortfall = pk_sample(self.vis, self.inf, cfg, self.rng)
        assert len(vis_idx) == 8 * 4 and len(inf_idx) == 8 * 4
        assert len(used) == 8 and shortfall == 0
        for label in used:
            assert np.all(self.vis.labels[vis_idx[:4]] >= 0)

    def test_replacement_when_side_short(self):
        vis = PseudoLabeling.from_labels("v", [0, 0, 1, 1, 1, 1])
        inf = PseudoLabeling.from_labels("r", [0, 0, 0, 0, 1, 1, 1, 1])
        cfg = PipelineConfig(batch_ids=2, per_id_visible=4, per_id_infrared=4)
        vis_idx, inf_idx, used, shortfall = pk_sample(vis, inf, cfg, np.random.default_rng(1))
        assert shortfall == 0
        label0_draws = vis_idx[vis.labels[vis_idx] == 0]
        assert len(label0_draws) == 4  # drawn with replacement from 2 members
        assert set(label0_draws.tolist()) <= {0, 1}

    def test_shortfall_reported(self):
        vis = PseudoLabeling.from_labels("v", [0, 0, 1, 1])
        inf = PseudoLabeling.from_labels("r", [0, 0, 1, 1])
        cfg = PipelineConfig(batch_ids=8)
        _, _, used, shortfall = pk_sample(vis, inf, cfg, np.random.default_rng(2))
        assert len(used) == 2 and shortfall == 6

    def test_reproducible_given_stream(self):
        cfg = PipelineConfig()
        a = pk_sample(self.vis, self.inf, cfg, named_stream(5, "sampler"))
        b = pk_sample(self.vis, self.inf, cfg, named_stream(5, "sampler"))
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_noise_never_sampled(self):
        vis = PseudoLabeling.from_labels("v", [0, 0, 0, -1, -1])
        inf = PseudoLabeling.from_labels("r", [0, 0, -1])
        cfg = PipelineConfig(batch_ids=1, per_id_visible=4, per_id_infrared=4)
        vis_idx, inf_idx, _, _ = pk_sample(vis, inf, cfg, np.random.default_rng(3))
        assert np.all(vis.labels[vis_idx] == 0)
        assert np.all(inf.labels[inf_idx] == 0)

    @pytest.mark.parametrize(
        "vis_labels, inf_labels, overrides",
        [
            # noise on both sides, cfg defaults
            (np.repeat(np.arange(10), 6), np.r_[np.repeat(np.arange(10), 5), [-1, -1]], {}),
            # three shared labels for batch_ids=8: shortfall 5
            ([0, 0, 1, 1, 2, 2, -1], [2, 1, 0, 0, 1, 2], {}),
            # unequal cluster counts, 12 visible and 7 infrared
            (np.repeat(np.arange(12), 3), np.r_[np.repeat(np.arange(7), 4), -1], {"batch_ids": 5}),
            # members fewer than requested: drawn with replacement
            ([0, 1, 1, 2, 2, 2, 3, -1], [3, 2, 1, 0, 0, 1], {"batch_ids": 3, "per_id_visible": 3}),
        ],
    )
    def test_matches_naive_sampler(self, vis_labels, inf_labels, overrides):
        vis = PseudoLabeling.from_labels("v", vis_labels)
        inf = PseudoLabeling.from_labels("r", inf_labels)
        cfg = PipelineConfig(**overrides)
        fast, naive = named_stream(7, "sampler"), named_stream(7, "sampler")
        for _ in range(5):
            got, want = pk_sample(vis, inf, cfg, fast), naive_pk_sample(vis, inf, cfg, naive)
            for a, b in zip(got[:3], want[:3]):
                assert np.array_equal(a, b) and a.dtype == b.dtype
            assert got[3] == want[3]


class TestTrainableEmbeddings:
    def test_normalized_view_valid(self):
        rng = np.random.default_rng(0)
        vis, inf = generate(tiny_spec())
        t = TrainableEmbeddings(vis, inf, PipelineConfig())
        t.theta[: len(vis)] *= 3.0  # denormalize raw parameters
        out_v, _ = t.sets()
        assert np.allclose(np.linalg.norm(out_v.features, axis=1), 1.0, atol=1e-12)

    def test_step_matches_normalization_chain_rule(self):
        rng = np.random.default_rng(4)
        vis, inf = generate(tiny_spec(identities=2, samples_per_identity_per_modality=3))
        cfg = PipelineConfig(learning_rate=1.0, momentum=0.0, weight_decay=0.0)
        t = TrainableEmbeddings(vis, inf, cfg)
        t.theta[: len(vis)] *= 1.7  # make the normalization non-trivial
        theta0 = t.theta[: len(vis)].copy()
        a = rng.standard_normal(theta0.shape)

        def toy_loss(theta):
            return float((normalize_rows(theta) * a).sum())

        numeric = finite_difference(toy_loss, theta0.copy())
        t.apply_step(a, np.zeros((len(inf), inf.dim)), np.arange(len(vis)), np.arange(len(inf)))
        taken_step = theta0 - t.theta[: len(vis)]
        assert np.abs(taken_step - numeric).max() <= 1e-6

    def test_weight_decay_on_raw_parameters(self):
        vis, inf = generate(tiny_spec(identities=2, samples_per_identity_per_modality=3))
        cfg = PipelineConfig(learning_rate=0.5, momentum=0.0, weight_decay=0.1)
        t = TrainableEmbeddings(vis, inf, cfg)
        theta0 = t.theta[: len(vis)].copy()
        t.apply_step(np.zeros_like(theta0), np.zeros((len(inf), inf.dim)), np.arange(len(vis)), np.arange(len(inf)))
        assert np.allclose(t.theta[: len(vis)], theta0 * (1 - 0.5 * 0.1))


    @pytest.mark.parametrize("overrides", [{"momentum": 0.0}, {}], ids=["momentum0", "defaults"])
    def test_lazy_steps_match_dense_replay(self, overrides):
        rng = np.random.default_rng(11)
        n_v, n_r, d = 40, 25, 6
        vis = EmbeddingSet(features=normalize_rows(rng.standard_normal((n_v, d))), modality=np.full(n_v, "v"))
        inf = EmbeddingSet(features=normalize_rows(rng.standard_normal((n_r, d))), modality=np.full(n_r, "r"))
        cfg = PipelineConfig(**overrides)
        t = TrainableEmbeddings(vis, inf, cfg)
        steps = {"v": [], "r": []}
        for step in range(1000):
            grads = {}
            for key, n in (("v", n_v), ("r", n_r)):
                # rows 30.. of the visible side sit untouched for hundreds of steps
                pool = n if key == "r" or step in (0, 1, 400, 401, 997) else 30
                batch = rng.integers(0, pool, size=6)  # repeats within a batch
                rows, local = np.unique(batch, return_inverse=True)
                buf = GradientBuffer.zeros(rows.size, d)
                buf.add_rows(local, rng.standard_normal((batch.size, d)))
                grads[key] = (rows, buf.g)
                steps[key].append((rows, buf.g.copy()))
            if step % 3 == 0:  # read the batch first, as the training loop does
                t.features(np.concatenate([grads["v"][0], n_v + grads["r"][0]]))
            t.apply_step(grads["v"][1], grads["r"][1], grads["v"][0], grads["r"][0])
            if step % 250 == 0:  # an epoch start reads every row
                t.sets()
        t.sets()
        for key, theta0, part in (("v", vis.features, slice(None, n_v)), ("r", inf.features, slice(n_v, None))):
            theta, velocity = dense_sgd_replay(
                theta0, steps[key], cfg.learning_rate, cfg.momentum, cfg.weight_decay
            )
            assert np.abs(t.theta[part] - theta).max() <= 1e-10 * np.abs(theta).max()
            assert np.abs(t.velocity[part] - velocity).max() <= 1e-10 * np.abs(velocity).max()

    @given(st.integers(0, 10_000), st.integers(1, 5), st.booleans())
    def test_one_call_for_disjoint_steps_matches_steps_in_turn(self, seed, n_steps, read_first):
        # n_steps consecutive steps with pairwise disjoint rows, taken in
        # turn and as one call with ``at``
        rng = np.random.default_rng(seed)
        n, d = 30, 5
        vis = EmbeddingSet(features=normalize_rows(rng.standard_normal((n, d))), modality=np.full(n, "v"))
        inf = EmbeddingSet(features=normalize_rows(rng.standard_normal((n, d))), modality=np.full(n, "r"))
        in_turn, grouped = (TrainableEmbeddings(vis, inf, PipelineConfig()) for _ in range(2))
        warm = [(rng.permutation(n)[:6], rng.permutation(n)[:6], rng.standard_normal((12, d))) for _ in range(3)]
        for t in (in_turn, grouped):  # rows at different steps, some stale
            for rows_v, rows_r, g in warm:
                t.apply_step(g[:6], g[6:], np.sort(rows_v), np.sort(rows_r))
        split_v, split_r = (np.array_split(rng.permutation(n)[: 4 * n_steps], n_steps) for _ in range(2))
        batches = [(np.sort(v), np.sort(r)) for v, r in zip(split_v, split_r)]
        grads = [(rng.standard_normal((v.size, d)), rng.standard_normal((r.size, d))) for v, r in batches]
        for (rows_v, rows_r), (g_v, g_r) in zip(batches, grads):
            if read_first:
                in_turn.features(np.concatenate([rows_v, n + rows_r]))
            in_turn.apply_step(g_v, g_r, rows_v, rows_r)
        rows_v, rows_r = (np.concatenate([b[i] for b in batches]) for i in (0, 1))
        at = np.concatenate(
            [np.full(b[i].size, grouped.steps + k) for i in (0, 1) for k, b in enumerate(batches)]
        )
        if read_first:
            grouped.features(np.concatenate([rows_v, n + rows_r]), at)
        grouped.apply_step(
            np.concatenate([g[0] for g in grads]), np.concatenate([g[1] for g in grads]), rows_v, rows_r, at=at
        )
        assert grouped.steps == in_turn.steps
        assert grouped.theta.tobytes() == in_turn.theta.tobytes()
        assert grouped.velocity.tobytes() == in_turn.velocity.tobytes()
        assert np.array_equal(grouped.stamp, in_turn.stamp)

    @given(st.integers(0, 10_000), st.integers(1, 6), st.booleans())
    def test_disjoint_steps_in_any_order_match_steps_in_turn(self, seed, n_steps, read_first):
        # a level's steps run before lower-indexed steps of a later level:
        # steps with pairwise disjoint rows, one call each in a shuffled
        # order, leave the table and the step counter as taking them in turn
        rng = np.random.default_rng(seed)
        n, d = 30, 5
        vis = EmbeddingSet(features=normalize_rows(rng.standard_normal((n, d))), modality=np.full(n, "v"))
        inf = EmbeddingSet(features=normalize_rows(rng.standard_normal((n, d))), modality=np.full(n, "r"))
        in_turn, shuffled = (TrainableEmbeddings(vis, inf, PipelineConfig()) for _ in range(2))
        warm = [(rng.permutation(n)[:6], rng.permutation(n)[:6], rng.standard_normal((12, d))) for _ in range(3)]
        for t in (in_turn, shuffled):  # rows at different steps, some stale
            for rows_v, rows_r, g in warm:
                t.apply_step(g[:6], g[6:], np.sort(rows_v), np.sort(rows_r))
        split_v, split_r = (np.array_split(rng.permutation(n)[: 4 * n_steps], n_steps) for _ in range(2))
        batches = [(np.sort(v), np.sort(r)) for v, r in zip(split_v, split_r)]
        grads = [(rng.standard_normal((v.size, d)), rng.standard_normal((r.size, d))) for v, r in batches]
        first = in_turn.steps
        for (rows_v, rows_r), (g_v, g_r) in zip(batches, grads):
            if read_first:
                in_turn.features(np.concatenate([rows_v, n + rows_r]))
            in_turn.apply_step(g_v, g_r, rows_v, rows_r)
        for k in rng.permutation(n_steps):
            (rows_v, rows_r), (g_v, g_r) = batches[k], grads[k]
            at = np.full(rows_v.size + rows_r.size, first + k)
            if read_first:
                shuffled.features(np.concatenate([rows_v, n + rows_r]), at)
            shuffled.apply_step(g_v, g_r, rows_v, rows_r, at=at)
        for caught_up in (False, True):
            if caught_up:  # an epoch start reads every row at the step counter
                in_turn.sets(), shuffled.sets()
            assert shuffled.steps == in_turn.steps == first + n_steps
            assert shuffled.theta.tobytes() == in_turn.theta.tobytes()
            assert shuffled.velocity.tobytes() == in_turn.velocity.tobytes()
            assert shuffled.stamp.tobytes() == in_turn.stamp.tobytes()

    def test_one_call_reports_its_earliest_failing_step(self):
        # rows 2 and 5 both overflow in one call standing for two steps;
        # row 5 takes the earlier one, so taken in turn it fails first
        vis, inf = generate(tiny_spec(identities=2, samples_per_identity_per_modality=4))
        t = TrainableEmbeddings(vis, inf, PipelineConfig(learning_rate=100.0, weight_decay=0.1))
        t.theta[2] *= 1e153  # visible rows; one catch-up (x 9) stays finite, the step does not
        t.theta[5] *= 1e154
        no_rows = np.empty(0, np.int64)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrainingDivergedError, match="modality 'v' row 5 .* after a step") as err:
                t.apply_step(
                    np.zeros((2, vis.dim)), np.zeros((0, vis.dim)), np.array([2, 5]), no_rows,
                    at=np.array([1, 0]),
                )
        assert err.value.step == 0

    def test_non_finite_catch_up_raises(self):
        vis, inf = generate(tiny_spec(identities=2, samples_per_identity_per_modality=3))
        t = TrainableEmbeddings(vis, inf, PipelineConfig(learning_rate=1e150, weight_decay=0.5))
        no_grad, no_rows = np.zeros((0, vis.dim)), np.empty(0, np.int64)
        for _ in range(3):  # steps touching no row; |1 - lr * wd| = 5e149 per step
            t.apply_step(no_grad, no_grad, no_rows, no_rows)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrainingDivergedError, match="modality 'v' row 3 .* after catch-up"):
                t.features(np.array([3, 4]))

    def test_small_step_allocates_less_than_one_parameter_matrix(self):
        n, d = 200_000, 64
        vis = EmbeddingSet(features=np.full((n, d), 0.125), modality=np.full(n, "v"))
        inf = EmbeddingSet(features=np.full((16, d), 0.125), modality=np.full(16, "r"))
        t = TrainableEmbeddings(vis, inf, PipelineConfig())
        del vis
        rng = np.random.default_rng(5)
        no_rows = np.empty(0, np.int64)
        t.apply_step(rng.standard_normal((16, d)), np.zeros((0, d)), np.arange(16) * 997, no_rows)
        tracemalloc.start()
        try:
            t.apply_step(rng.standard_normal((16, d)), np.zeros((0, d)), np.arange(16) * 1009, no_rows)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * d * 8
        assert t.steps == 2

    def test_sets_hand_over_features_without_a_copy(self):
        vis, inf = generate(tiny_spec(identities=10, samples_per_identity_per_modality=200, dim=64))
        t = TrainableEmbeddings(vis, inf, PipelineConfig())
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            sets = t.sets()
            after, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert all(not es.features.flags.writeable for es in sets)
        assert sets[0].modality is vis.modality  # read-only tags are shared
        assert peak - before < 1.25 * (after - before)


class TestRunEpoch:
    def test_degenerate_spec_perfect_ari(self):
        spec = tiny_spec(sub_modes=1, modality_offset=0.0, noise_sigma=1e-6, sub_mode_spread=1e-6)
        vis, inf = generate(spec)
        cfg = tiny_cfg(epochs=1)
        result = run_training(vis, inf, cfg)
        m = result.history[0].metrics
        assert (m.ari_rgb, m.ari_ir, m.ari_all) == (1.0, 1.0, 1.0)

    def test_post_transfer_bank_matches_rebuild(self):
        vis, inf = generate(tiny_spec())
        state = first_epoch(vis, inf, tiny_cfg(epochs=1))
        assert state.assignment is not None  # the banks are in the shared label space
        assert_bank_rebuilds(state.wbank_v, state.visible, state.labels_v, state.conf_v)
        assert_bank_rebuilds(state.wbank_r, state.infrared, state.labels_r, state.conf_r)

    def test_weighted_banks_recomputable(self):
        vis, inf = generate(tiny_spec(outlier_fraction=0.1))
        state = first_epoch(vis, inf, tiny_cfg(epochs=1))
        assert (state.labels_joint.labels < 0).any()  # noise rows carry weight 0
        joint = concat_sets(state.visible, state.infrared)
        assert_bank_rebuilds(state.wbank_v, state.visible, state.labels_v, state.conf_v)
        assert_bank_rebuilds(state.wbank_r, state.infrared, state.labels_r, state.conf_r)
        assert_bank_rebuilds(state.wbank_joint, joint, state.labels_joint, state.conf_vr)

    def test_schedule_zeroes_before_start(self):
        vis, inf = generate(tiny_spec())
        cfg = tiny_cfg(epochs=4, intra_start_epoch=2, inter_start_epoch=3)
        result = run_training(vis, inf, cfg)
        assert result.history[0].losses.l_intra == 0.0
        assert result.history[0].losses.l_inter == 0.0
        assert result.history[1].losses.l_intra > 0.0
        assert result.history[1].losses.l_inter == 0.0
        assert result.history[2].losses.l_inter > 0.0

    def test_flip_when_visible_has_fewer_clusters(self):
        angles_v = [0, 1, 2, 3, 4]
        angles_r = [0, 1, 2, 3, 4, 90, 91, 92, 93, 94]
        vis = circle_set(angles_v, "v", [0] * 5)
        inf = circle_set(angles_r, "r", [0] * 5 + [1] * 5)
        cfg = PipelineConfig(
            epochs=1, dbscan_eps=0.1, dbscan_min_samples=3, batch_ids=2,
            per_id_visible=2, per_id_infrared=2, n_memories=2, seed=0,
        )
        state = first_epoch(vis, inf, cfg)
        assert state.flipped and state.assignment.flipped
        assert any("flipped" in note for note in state.notes)
        assert state.labels_v.cluster_count == 1
        assert state.labels_r.cluster_count == 2  # relabeled into visible space + fresh
        assert np.array_equal(state.labels_v.labels, state.labels_v_raw.labels)
        assert_bank_rebuilds(state.wbank_r, state.infrared, state.labels_r, state.conf_r)
        assert state.assignment.total_cost == brute_force_assignment(state.assignment.cost)

    def test_flipped_final_pass_permutes_infrared_labels(self):
        vis = circle_set([90, 91, 92, 93, 94], "v", [1] * 5)
        inf = circle_set([0, 1, 2, 3, 4, 90, 91, 92, 93, 94], "r", [0] * 5 + [1] * 5)
        cfg = PipelineConfig(
            epochs=1, dbscan_eps=0.1, dbscan_min_samples=3, batch_ids=2,
            per_id_visible=2, per_id_infrared=2, n_memories=2, seed=0,
        )
        final = run_training(vis, inf, cfg).final
        assert final.flipped
        assert final.labels_v_raw.cluster_count == 1
        # infrared cluster 1 takes visible id 0, infrared cluster 0 the fresh id 1
        assert np.array_equal(final.labels_r.labels, 1 - final.labels_r_raw.labels)
        assert_bank_rebuilds(final.wbank_r, final.infrared, final.labels_r, final.conf_r)

    def test_step_is_gradient_of_batch_loss(self):
        # one batch per epoch, plain SGD at learning rate 1: the step taken is
        # the gradient of the batch's weighted loss w.r.t. the raw parameters
        # (a fixed MMD bandwidth, as the median one is a constant in the
        # gradient; each side's MMD half holds the other side constant)
        vis, inf = generate(tiny_spec())
        cfg = tiny_cfg(
            epochs=1, batch_ids=5, per_id_visible=8, per_id_infrared=8,
            learning_rate=1.0, momentum=0.0, weight_decay=0.0, mmd_sigma=0.8,
        )
        t = TrainableEmbeddings(vis, inf, cfg)
        state = run_epoch(t, cfg, 1, named_stream(cfg.seed, "sampler"))
        vis_idx, inf_idx, used, _ = pk_sample(state.labels_v, state.labels_r, cfg, named_stream(cfg.seed, "sampler"))
        rows_v, local_v = np.unique(vis_idx, return_inverse=True)
        rows_r, local_r = np.unique(inf_idx, return_inverse=True)
        lab_v, lab_r = state.labels_v.labels, state.labels_r.labels
        joint_v, joint_r = state.labels_joint.labels[vis_idx], state.labels_joint.labels[len(vis) + inf_idx]

        def batch_loss(theta_v, theta_r, terms):
            fv, fr = normalize_rows(theta_v)[local_v], normalize_rows(theta_r)[local_r]
            keep_v, keep_r = joint_v >= 0, joint_r >= 0
            loss = cluster_nce(fv, lab_v[vis_idx], state.wbank_v, cfg.tau)[0]
            loss += cluster_nce(fr, lab_r[inf_idx], state.wbank_r, cfg.tau)[0]
            loss += cluster_nce(
                np.vstack([fv[keep_v], fr[keep_r]]),
                np.concatenate([joint_v[keep_v], joint_r[keep_r]]),
                state.wbank_joint,
                cfg.tau,
            )[0]
            intra = intra_alignment(fv, lab_v[vis_idx], state.wbank_v)[0]
            intra += intra_alignment(fr, lab_r[inf_idx], state.wbank_r)[0]
            groups_v = {int(l): fv[lab_v[vis_idx] == l] for l in used}
            groups_r = {int(l): fr[lab_r[inf_idx] == l] for l in used}
            inter = naive_inter_loss(groups_v, groups_r, cfg.mmd_sigma, terms)[0]
            return loss + cfg.lambda_intra * intra + cfg.lambda_inter * inter

        theta_v, theta_r = vis.features[rows_v].copy(), inf.features[rows_r].copy()
        numeric_v = finite_difference(lambda th: batch_loss(th, theta_r, ("visible",)), theta_v.copy())
        numeric_r = finite_difference(lambda th: batch_loss(theta_v, th, ("infrared",)), theta_r.copy())
        assert gradient_gap(theta_v - t.theta[rows_v], numeric_v) <= 1e-4
        assert gradient_gap(theta_r - t.theta[len(vis) + rows_r], numeric_r) <= 1e-4

    def test_collapse_raises_diagnostic(self):
        rng = np.random.default_rng(0)
        feats = normalize_rows(rng.standard_normal((6, 8)))
        vis = EmbeddingSet(features=feats[:3], modality=np.full(3, "v"))
        inf = EmbeddingSet(features=feats[3:], modality=np.full(3, "r"))
        cfg = PipelineConfig(epochs=1, dbscan_eps=1e-6, dbscan_min_samples=4)
        with pytest.raises(ClusteringCollapseError, match="zero clusters") as err:
            run_training(vis, inf, cfg)
        assert "scope 'v' (3 samples, dbscan_eps=1e-06, dbscan_min_samples=4)" in str(err.value)


def train_both(vis, inf, cfg, samplers=None):
    """``cfg.epochs`` epochs of ``run_epoch`` and of the per-batch oracle
    ``sequential_epoch`` from the same start, compared bit for bit; returns
    the grouped trainable and its first epoch's state."""
    grouped, oracle = TrainableEmbeddings(vis, inf, cfg), TrainableEmbeddings(vis, inf, cfg)
    s_grouped, s_oracle = samplers or (named_stream(cfg.seed, "sampler"), named_stream(cfg.seed, "sampler"))
    states = []
    for epoch in range(1, cfg.epochs + 1):
        states.append(run_epoch(grouped, cfg, epoch, s_grouped))
        want = sequential_epoch(oracle, cfg, epoch, s_oracle)
        assert repr(states[-1].losses) == repr(want.losses)  # repr tells -0.0 from 0.0
        assert states[-1].notes == want.notes
    assert grouped.steps == oracle.steps
    assert grouped.theta.tobytes() == oracle.theta.tobytes()
    assert grouped.velocity.tobytes() == oracle.velocity.tobytes()
    assert np.array_equal(grouped.stamp, oracle.stamp)
    return grouped, states[0]


def first_epoch_draws(state, cfg):
    """The PK batches of a run's first epoch, replayed from a fresh stream."""
    sampler = named_stream(cfg.seed, "sampler")
    n = batches_per_epoch(cfg, len(state.visible), len(state.infrared))
    return [pk_sample(state.labels_v, state.labels_r, cfg, sampler) for _ in range(n)]


class Rotation:
    """Stands in for the sampler's generator: every ``choice`` takes the next
    ``size`` items of its pool in turn, each pool with its own cursor, or,
    with ``advance=False``, always the first ones."""

    def __init__(self, advance: bool):
        self.advance, self.cursors = advance, {}

    def choice(self, pool, size, replace):
        pool = np.asarray(pool)
        start = self.cursors.get(pool.tobytes(), 0)
        if self.advance:
            self.cursors[pool.tobytes()] = start + size
        return pool[(start + np.arange(size)) % pool.size]


class TestGroupedEpoch:
    """``run_epoch`` takes each dependency level of PK batches as one
    stacked step; features, velocities, step stamps, losses and notes equal
    those of the per-batch oracle bit for bit."""

    def test_joint_noise_rows_in_batches(self, monkeypatch):
        # a row with a label of its own modality is never joint noise (its
        # joint neighbourhood holds its modality's), so the step has no path
        # for one; noise is put into the joint labels here, every third row,
        # and the epoch must name the first drawn one before any step
        def joint_with_noise(visible, infrared, cfg):
            labels_v, labels_r, joint = cluster_joint(visible, infrared, cfg)
            labels = joint.labels.copy()
            labels[::3] = -1
            kept = labels >= 0
            uniq, labels[kept] = np.unique(labels[kept], return_inverse=True)
            return labels_v, labels_r, PseudoLabeling(scope="vr", labels=labels, cluster_count=uniq.size)

        monkeypatch.setattr(pipeline, "cluster_joint", joint_with_noise)
        vis, inf = generate(tiny_spec(outlier_fraction=0.1))
        cfg = tiny_cfg(batch_ids=2, per_id_visible=2, per_id_infrared=2)
        trainable = TrainableEmbeddings(vis, inf, cfg)
        state = run_epoch(trainable, cfg, 1, named_stream(cfg.seed, "sampler"), train=False)
        joint = np.split(state.labels_joint.labels, [len(vis)])
        for batch, (v, r, _, _) in enumerate(first_epoch_draws(state, cfg), start=1):
            noise = [("visible", row) for row in v if joint[0][row] < 0]
            noise += [("infrared", row) for row in r if joint[1][row] < 0]
            if noise:
                break
        side, row = noise[0]
        with pytest.raises(RuntimeError, match=f"^epoch 1, batch {batch}: {side} row {row} was drawn but is noise"):
            run_epoch(trainable, cfg, 1, named_stream(cfg.seed, "sampler"))
        assert trainable.steps == 0

    def test_draws_with_replacement(self):
        vis, inf = generate(tiny_spec())
        cfg = tiny_cfg(batch_ids=2, per_id_visible=9, per_id_infrared=3)
        state = train_both(vis, inf, cfg)[1]
        assert state.labels_v.cluster_sizes().min() < cfg.per_id_visible
        assert any(np.unique(v).size < v.size for v, _, _, _ in first_epoch_draws(state, cfg))

    def test_shortfall_epoch(self):
        vis, inf = generate(tiny_spec())
        state = train_both(vis, inf, tiny_cfg(batch_ids=8, per_id_visible=1, per_id_infrared=1))[1]
        assert any("shortfall" in note for note in state.notes)

    @pytest.mark.parametrize("sigma", ["median", 0.7])
    @pytest.mark.parametrize(
        "intra, inter_start", [(0.0, 1), (0.5, 3), (0.5, 2)], ids=["inter", "intra", "both-from-2"]
    )
    def test_loss_terms_and_bandwidths(self, sigma, intra, inter_start):
        vis, inf = generate(tiny_spec(outlier_fraction=0.1))
        cfg = tiny_cfg(mmd_sigma=sigma, lambda_intra=intra, inter_start_epoch=inter_start, batch_ids=2)
        train_both(vis, inf, cfg)

    @pytest.mark.parametrize("advance, levels", [(False, 10), (True, 1)], ids=["all-conflict", "none-conflict"])
    def test_conflict_extremes(self, monkeypatch, advance, levels):
        # five clean identities of 8 rows a side; batches of one label, 4 + 4
        # rows: the same rows every batch, or every row once per epoch.  The
        # infrared rows are rolled by half an identity, so no infrared
        # cluster holds the row indices of a visible one and ``Rotation``
        # keeps their cursors apart
        spec = tiny_spec(sub_modes=1, modality_offset=0.0, noise_sigma=1e-6, sub_mode_spread=1e-6)
        vis, inf = generate(spec)
        inf = EmbeddingSet(np.roll(inf.features, 4, axis=0), inf.modality, np.roll(inf.true_identity, 4))
        cfg = tiny_cfg(epochs=1, batch_ids=1, per_id_visible=4, per_id_infrared=4)
        assert batches_per_epoch(cfg, len(vis), len(inf)) == 10
        calls = []
        original = TrainableEmbeddings.apply_step

        def counted(self, *args, **kwargs):
            calls.append(self)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(TrainableEmbeddings, "apply_step", counted)
        grouped, state = train_both(vis, inf, cfg, (Rotation(advance), Rotation(advance)))
        assert state.labels_v.cluster_sizes().tolist() == [8] * 5
        assert state.labels_r.cluster_sizes().tolist() == [8] * 5
        assert sum(c is grouped for c in calls) == levels

    def test_step_gradients_hold_every_drawn_row(self, monkeypatch):
        # the benchmark's step hook reads apply_step's first two positional
        # arguments, grad_v and grad_r, one row per distinct row stepped: on
        # draws without a repeat they add up to the rows pk_sample drew
        vis, inf = generate(tiny_spec())
        cfg = tiny_cfg(batch_ids=2, per_id_visible=2, per_id_infrared=2)
        drawn, stepped = [], []
        sample, step = pipeline.pk_sample, TrainableEmbeddings.apply_step

        def counted_sample(*args, **kwargs):
            vis_idx, inf_idx, used, shortfall = sample(*args, **kwargs)
            assert np.unique(vis_idx).size == vis_idx.size and np.unique(inf_idx).size == inf_idx.size
            drawn.append(vis_idx.size + inf_idx.size)
            return vis_idx, inf_idx, used, shortfall

        def counted_step(self, grad_v, grad_r, *args, **kwargs):
            stepped.append(grad_v.shape[0] + grad_r.shape[0])
            return step(self, grad_v, grad_r, *args, **kwargs)

        monkeypatch.setattr(pipeline, "pk_sample", counted_sample)
        monkeypatch.setattr(TrainableEmbeddings, "apply_step", counted_step)
        run_training(vis, inf, cfg)
        assert len(stepped) < len(drawn)  # stacked steps
        assert sum(stepped) == sum(drawn) > 0

    @settings(max_examples=25)
    @given(
        st.integers(3, 6),
        st.sampled_from([0.0, 0.15]),
        st.integers(1, 7),
        st.integers(1, 5),
        st.integers(1, 5),
        st.sampled_from(["median", 0.7]),
        st.sampled_from([0.0, 0.5]),
        st.integers(1, 3),
        st.integers(0, 1000),
    )
    def test_matches_sequential_oracle(
        self, identities, outliers, batch_ids, per_v, per_r, sigma, intra, inter_start, seed
    ):
        vis, inf = generate(tiny_spec(identities=identities, outlier_fraction=outliers, seed=seed))
        cfg = tiny_cfg(
            batch_ids=batch_ids, per_id_visible=per_v, per_id_infrared=per_r, mmd_sigma=sigma,
            lambda_intra=intra, inter_start_epoch=inter_start, seed=seed,
        )
        train_both(vis, inf, cfg)


class TestRunTraining:
    def test_non_finite_input_rejected(self):
        vis, inf = generate(tiny_spec())
        features = vis.features.copy()
        features[3, 0] = np.nan
        bad = EmbeddingSet(features=features, modality=vis.modality, true_identity=vis.true_identity)
        with pytest.raises(ValueError, match="visible.*non-finite"):
            run_training(bad, inf, tiny_cfg(epochs=1))
        with pytest.raises(ValueError, match="infrared.*non-finite"):
            run_training(inf, bad, tiny_cfg(epochs=1))

    def test_swapped_modalities_rejected(self):
        vis, inf = generate(SynthSpec(identities=5, samples_per_identity_per_modality=8, dim=16, seed=21))
        with pytest.raises(ValueError, match="visible set: row 0 has modality tag 'r', expected 'v'"):
            run_training(inf, vis, tiny_cfg(epochs=1))
        tags = inf.modality.copy()
        tags[5] = "v"
        mixed = EmbeddingSet(features=inf.features, modality=tags, true_identity=inf.true_identity)
        with pytest.raises(ValueError, match="infrared set: row 5 has modality tag 'v', expected 'r'"):
            run_training(vis, mixed, tiny_cfg(epochs=1))

    def test_mismatched_feature_dimensions_rejected(self):
        vis, _ = generate(tiny_spec(dim=16))
        _, inf = generate(tiny_spec(dim=17))
        message = "^invalid infrared set: feature dimension 17 differs from the visible set's 16$"
        with pytest.raises(ValueError, match=message):
            run_training(vis, inf, tiny_cfg(epochs=1))

    def test_deterministic_given_seed(self):
        vis, inf = generate(tiny_spec())
        cfg = tiny_cfg(epochs=3)
        a = run_training(vis, inf, cfg)
        b = run_training(vis, inf, cfg)
        for sa, sb in zip(a.history, b.history):
            assert sa.losses == sb.losses
            assert sa.metrics.ari_all == sb.metrics.ari_all
        assert np.array_equal(a.final.visible.features, b.final.visible.features)

    def test_epochs_zero_is_eval_only(self):
        vis, inf = generate(tiny_spec())
        result = run_training(vis, inf, tiny_cfg(epochs=0))
        assert result.history == ()
        assert result.final.metrics is not None
        # untouched up to one pass through row re-normalization
        assert np.abs(result.final.visible.features - vis.features).max() <= 1e-12

    def test_baseline_flags_reduce_bitwise(self):
        vis, inf = generate(tiny_spec())
        explicit = PipelineConfig(
            epochs=2, batch_ids=4, seed=3, inter_start_epoch=1,
            use_matching=False, gmm_weighting=False, n_memories=1,
            lambda_intra=0.0, lambda_inter=0.0,
        )
        from_lattice = ablation_configs(tiny_cfg())[0][1]
        a = run_training(vis, inf, explicit)
        b = run_training(vis, inf, from_lattice)
        assert a.history[-1].losses == b.history[-1].losses
        assert np.array_equal(a.final.visible.features, b.final.visible.features)
        assert "cmc-baseline" in a.tags

    def test_weighted_banks_built_at_epoch_start(self):
        vis, inf = generate(tiny_spec())
        cfg = tiny_cfg(epochs=1)
        trainable = TrainableEmbeddings(vis, inf, cfg)
        state = run_epoch(trainable, cfg, 1, named_stream(cfg.seed, "sampler"))
        # the state's banks are the ones built from the epoch-start features
        # and held for the whole epoch; the epoch's steps moved the features,
        # so a bank rebuilt from the features after it differs
        assert_bank_rebuilds(state.wbank_v, state.visible, state.labels_v, state.conf_v)
        moved = build_memory(trainable.sets()[0], state.labels_v, state.conf_v)
        assert not np.allclose(moved.centroids, state.wbank_v.centroids)

    def test_history_summarizes_each_epoch(self):
        vis, inf = generate(tiny_spec())
        cfg = tiny_cfg(epochs=2)
        result = run_training(vis, inf, cfg)
        trainable, sampler = TrainableEmbeddings(vis, inf, cfg), named_stream(cfg.seed, "sampler")
        states = [run_epoch(trainable, cfg, epoch, sampler) for epoch in (1, 2)]
        final = run_epoch(trainable, cfg, 3, sampler, train=False)
        assert all(type(s) is EpochSummary for s in result.history)
        assert result.history == tuple(EpochSummary.of(s) for s in states)
        assert np.array_equal(result.final.visible.features, final.visible.features)
        assert result.final.losses == final.losses and result.final.metrics == final.metrics

    def test_retained_result_does_not_grow_with_epochs(self):
        vis, inf = generate(tiny_spec(dim=64))

        def retained(epochs):
            tracemalloc.start()
            try:
                result = run_training(vis, inf, tiny_cfg(epochs=epochs))
                size, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert len(result.history) == epochs
            return size, peak

        retained(1)  # first-use allocations inside numpy and the library
        (one, peak_one), (five, peak_five) = retained(1), retained(5)
        table = (len(vis) + len(inf)) * vis.dim * 8
        assert five < one + table
        # an epoch's state must be freed when the next begins, not only by a
        # later garbage collection that the retained size would not show
        assert peak_five < peak_one + table

    def test_diverged_step_raises_training_diverged(self):
        vis, inf = generate(SynthSpec(identities=5, samples_per_identity_per_modality=8, dim=16, seed=21))
        cfg = PipelineConfig(epochs=2, dbscan_eps=0.3, learning_rate=1e150, weight_decay=0.5)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrainingDivergedError) as err:
                run_training(vis, inf, cfg)
        assert re.match(r"epoch [12], batch \d+: modality '[vr]' row \d+ has parameter norm", str(err.value))

    @pytest.mark.parametrize("seed", range(4))
    def test_diverged_report_matches_sequential(self, seed):
        vis, inf = generate(SynthSpec(identities=5, samples_per_identity_per_modality=8, dim=16, seed=21 + seed))
        cfg = PipelineConfig(
            epochs=2, dbscan_eps=0.3, learning_rate=1e150, weight_decay=0.5, seed=seed,
            batch_ids=2, per_id_visible=2, per_id_infrared=2,
        )
        assert diverged(run_epoch, vis, inf, cfg) == diverged(sequential_epoch, vis, inf, cfg)

    @pytest.mark.parametrize(
        "seed, rig, phase",
        [
            (0, [("r", 7)], "epoch 1, batch 4: modality 'r' row 7 .* after catch-up"),
            (2, [("v", 3)], "epoch 1, batch 20: modality 'v' row 3 .* after catch-up"),
            (5, [("v", 3), ("r", 20)], "epoch 1, batch 12: modality 'r' row 20 .* after catch-up"),
            (6, [("v", 3), ("r", 20)], "epoch 1, batch 9: modality 'r' row 20 .* after catch-up"),
        ],
    )
    def test_diverged_catch_up_report_matches_sequential(self, seed, rig, phase):
        # rows near overflow: caught up over two steps (|1 - lr wd| = 9)
        # they stop being finite, here in the middle of a level of batches
        vis, inf = generate(SynthSpec(identities=5, samples_per_identity_per_modality=8, dim=16, seed=21))
        cfg = PipelineConfig(
            epochs=2, dbscan_eps=0.3, learning_rate=100.0, weight_decay=0.1, seed=seed,
            batch_ids=1, per_id_visible=2, per_id_infrared=2,
        )
        grouped = diverged(run_epoch, vis, inf, cfg, rig)
        assert re.match(phase, grouped)
        assert grouped == diverged(sequential_epoch, vis, inf, cfg, rig)

    def test_step_failure_reported_before_a_later_catch_up_failure(self):
        # batch 1's row fails its step, batch 2's row the catch-up to step 1;
        # the two batches are disjoint, so one stacked step reads both first
        vis, inf = generate(SynthSpec(identities=5, samples_per_identity_per_modality=8, dim=16, seed=21))
        cfg = PipelineConfig(
            epochs=1, dbscan_eps=0.3, learning_rate=100.0, weight_decay=0.1, seed=0,
            batch_ids=1, per_id_visible=2, per_id_infrared=2,
        )
        state = run_epoch(TrainableEmbeddings(vis, inf, cfg), cfg, 1, named_stream(cfg.seed, "sampler"), train=False)
        (v1, r1, _, _), (v2, r2, _, _) = first_epoch_draws(state, cfg)[:2]
        assert not np.intersect1d(v1, v2).size and not np.intersect1d(r1, r2).size
        step_row, catch_up_row = ("v", int(v1[0])), ("r", int(r2[0]))
        for rig, phase in (
            ([catch_up_row], f"epoch 1, batch 2: modality 'r' row {r2[0]} .* after catch-up"),
            ([step_row, catch_up_row], f"epoch 1, batch 1: modality 'v' row {v1[0]} .* after a step"),
        ):
            grouped = diverged(run_epoch, vis, inf, cfg, rig, scale=1e154)
            assert re.match(phase, grouped)
            assert grouped == diverged(sequential_epoch, vis, inf, cfg, rig, scale=1e154)

    @settings(max_examples=40)
    @given(
        st.integers(0, 10_000),
        st.lists(st.tuples(st.sampled_from("vr"), st.integers(0, 39)), min_size=1, max_size=4, unique=True),
        st.sampled_from([1e152, 1e153, 1e154]),
        st.integers(1, 2),
        st.booleans(),
    )
    def test_diverged_report_matches_sequential_sweep(self, seed, rig, scale, batch_ids, huge_rate):
        # levels take batches out of index order, so the report must still
        # name the batch, row and phase the per-batch loop meets first: rows
        # rigged near overflow fail a catch-up or a step, or every row does
        # at a huge learning rate
        vis, inf = generate(SynthSpec(identities=5, samples_per_identity_per_modality=8, dim=16, seed=21))
        rate = dict(learning_rate=1e150, weight_decay=0.5) if huge_rate else dict(learning_rate=100.0, weight_decay=0.1)
        cfg = PipelineConfig(
            epochs=2, dbscan_eps=0.3, seed=seed, batch_ids=batch_ids, per_id_visible=2, per_id_infrared=2, **rate
        )
        grouped = diverged(run_epoch, vis, inf, cfg, rig, scale, must=False)
        assert grouped == diverged(sequential_epoch, vis, inf, cfg, rig, scale, must=False)

    def test_tags_for_single_memory(self):
        assert "baseline-matching" in config_tags(PipelineConfig(n_memories=1))
        assert config_tags(PipelineConfig()) == ()

    def test_batches_per_epoch_floor(self):
        cfg = PipelineConfig()
        assert batches_per_epoch(cfg, 200, 200) == 6  # 400 // 64
        assert batches_per_epoch(cfg, 10, 10) == 1



def diverged(epoch_fn, vis, inf, cfg, rig=(), scale=1e153, must=True):
    """The message of the TrainingDivergedError that training ``cfg.epochs``
    epochs with ``epoch_fn`` raises, the parameter rows ``rig`` (modality,
    row) scaled by ``scale`` first; None if none is raised and not ``must``."""
    trainable, sampler = TrainableEmbeddings(vis, inf, cfg), named_stream(cfg.seed, "sampler")
    for key, row in rig:
        trainable.theta[row if key == "v" else len(vis) + row] *= scale
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            for epoch in range(1, cfg.epochs + 1):
                epoch_fn(trainable, cfg, epoch, sampler)
        except TrainingDivergedError as err:
            return str(err)
    if must:
        pytest.fail("training did not diverge")
    return None


def same_partition(a, b):
    """Whether label vectors a and b split the rows alike: the same noise
    rows, and a one-to-one map between the other labels."""
    if not np.array_equal(a < 0, b < 0):
        return False
    pairs = np.unique(np.stack([a[a >= 0], b[b >= 0]], axis=1), axis=0)
    return len(pairs) == len(np.unique(pairs[:, 0])) == len(np.unique(pairs[:, 1]))


class TestMetamorphic:
    """An evaluation-only pass (epochs=0) on a small synthetic fixture with
    noise rows and a flipped, non-diagonal assignment."""

    def fixture(self):
        vis, inf = generate(tiny_spec(identities=8, outlier_fraction=0.1, seed=4))
        return vis, inf, tiny_cfg(epochs=0)

    def assert_same_metrics(self, got, want):
        for name in ("ari_rgb", "ari_ir", "ari_all"):
            assert getattr(got, name) == pytest.approx(getattr(want, name), rel=1e-12, abs=1e-12)
        assert got.retrieval.map == pytest.approx(want.retrieval.map, rel=1e-12)
        assert got.retrieval.rank.keys() == want.retrieval.rank.keys()
        for k, value in want.retrieval.rank.items():
            assert got.retrieval.rank[k] == pytest.approx(value, rel=1e-12)

    def test_row_permutation_only_permutes_outputs(self):
        vis, inf, cfg = self.fixture()
        rng = np.random.default_rng(5)
        pv, pr = rng.permutation(len(vis)), rng.permutation(len(inf))

        def permuted(es, order):
            return EmbeddingSet(es.features[order], es.modality[order], es.true_identity[order])

        base = run_training(vis, inf, cfg).final
        perm = run_training(permuted(vis, pv), permuted(inf, pr), cfg).final
        assert base.flipped  # the fixture exercises the flipped orientation
        # row i of the permuted run is row pv[i] (pr[i]) of the base run
        joint_order = np.concatenate([pv, len(vis) + pr])
        assert same_partition(base.labels_v_raw.labels[pv], perm.labels_v_raw.labels)
        assert same_partition(base.labels_r_raw.labels[pr], perm.labels_r_raw.labels)
        assert same_partition(base.labels_joint.labels[joint_order], perm.labels_joint.labels)
        shared_base = np.concatenate([base.labels_v.labels[pv], base.labels_r.labels[pr]])
        assert same_partition(shared_base, np.concatenate([perm.labels_v.labels, perm.labels_r.labels]))
        # the matched cluster pairs, through the renumbering of each side
        renumber = {
            key: dict(zip(b.labels[order].tolist(), p.labels.tolist()))
            for key, b, p, order in (
                ("v", base.labels_v_raw, perm.labels_v_raw, pv),
                ("r", base.labels_r_raw, perm.labels_r_raw, pr),
            )
        }
        rows, cols = (renumber["r"], renumber["v"]) if base.flipped else (renumber["v"], renumber["r"])
        assert perm.flipped == base.flipped
        assert sorted(perm.assignment.pairs()) == sorted((rows[r], cols[c]) for r, c in base.assignment.pairs())
        self.assert_same_metrics(perm.metrics, base.metrics)

    def test_rotation_leaves_outputs_unchanged(self):
        vis, inf, cfg = self.fixture()
        joint = np.vstack([vis.features, inf.features])
        # rotated cosine distances move by ulps: no pair may sit that close to eps
        assert np.abs(1.0 - joint @ joint.T - cfg.dbscan_eps).min() > 1e-9
        rot, _ = np.linalg.qr(np.random.default_rng(6).standard_normal((vis.dim, vis.dim)))

        def rotated(es):
            return EmbeddingSet(es.features @ rot, es.modality, es.true_identity)

        base = run_training(vis, inf, cfg).final
        turned = run_training(rotated(vis), rotated(inf), cfg).final
        for name in ("labels_v_raw", "labels_r_raw", "labels_v", "labels_r", "labels_joint"):
            assert np.array_equal(getattr(turned, name).labels, getattr(base, name).labels), name
        assert turned.flipped == base.flipped
        assert np.array_equal(turned.assignment.q, base.assignment.q)
        assert turned.assignment.total_cost == pytest.approx(base.assignment.total_cost, rel=1e-9)
        self.assert_same_metrics(turned.metrics, base.metrics)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_modality_swap_mirrors_outputs(self, seed):
        # with one sub-memory per cluster the matching cost is a centroid
        # distance, the same from either side; with more it sums over the
        # visible sub-memories only, so a swap may change the matching
        vis, inf = generate(
            SynthSpec(identities=12, samples_per_identity_per_modality=10, dim=16, outlier_fraction=0.1, seed=seed)
        )
        cfg = PipelineConfig(epochs=0, n_memories=1, dbscan_eps=0.3)
        joint = np.vstack([vis.features, inf.features])
        # the swap reorders the distance sweep: no pair may sit within ulps of eps
        assert np.abs(1.0 - joint @ joint.T - cfg.dbscan_eps).min() > 1e-9

        def retagged(es, tag):
            return EmbeddingSet(es.features, np.full(len(es), tag), es.true_identity)

        base = run_training(vis, inf, cfg).final
        swapped = run_training(retagged(inf, "v"), retagged(vis, "r"), cfg).final
        assert np.array_equal(swapped.labels_v_raw.labels, base.labels_r_raw.labels)
        assert np.array_equal(swapped.labels_r_raw.labels, base.labels_v_raw.labels)

        def physical_pairs(assignment, swap):
            # (visible cluster, infrared cluster) of the input data
            pairs = [(c, r) if assignment.flipped else (r, c) for r, c in assignment.pairs()]
            return sorted((b, a) if swap else (a, b) for a, b in pairs)

        assert physical_pairs(swapped.assignment, True) == physical_pairs(base.assignment, False)
        assert (swapped.metrics.ari_rgb, swapped.metrics.ari_ir) == (base.metrics.ari_ir, base.metrics.ari_rgb)
        assert swapped.metrics.ari_all == base.metrics.ari_all


class TestSweep:
    """The sweep is run through the ``sweep`` command, on tiny_spec data
    with tiny_cfg(epochs=1)."""

    def sweep_rows(self, tmp_path, axis, values=None):
        vis, inf = generate(tiny_spec())
        write_embeddings(tmp_path / "visible.emb", vis)
        write_embeddings(tmp_path / "infrared.emb", inf)
        argv = [
            "sweep",
            "--visible", str(tmp_path / "visible.emb"),
            "--infrared", str(tmp_path / "infrared.emb"),
            "--axis", axis,
            "--out", str(tmp_path / "sweep"),
        ]
        if values is not None:
            argv += ["--values", values]
        argv += ["epochs=1", "batch_ids=4", "inter_start_epoch=1", "seed=3"]
        assert main(argv) == 0
        lines = (tmp_path / "sweep" / "sweep.csv").read_text().strip().split("\n")
        return [line.split(",") for line in lines[1:]]

    def test_ablation_lattice_shape(self, tmp_path):
        rows = self.sweep_rows(tmp_path, "ablation")
        assert [r[0] for r in rows] == ["baseline", "+mmlm", "+mmlm+intra", "+mmlm+inter", "full"]
        assert all(all(cell for cell in r[1:]) for r in rows)  # every row has metrics

    def test_axis_sweep(self, tmp_path):
        rows = self.sweep_rows(tmp_path, "n_memories", "1,2")
        assert len(rows) == 2
        assert rows[0][0] == "1"
