import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from memmatch.model import (
    Assignment,
    EmbeddingSet,
    PipelineConfig,
    PseudoLabeling,
    concat_sets,
    normalize_rows,
    validate,
)
from reference import labeling


def make_set(features, modality=None, truth=None):
    feats = np.asarray(features, float)
    tags = np.full(feats.shape[0], "v") if modality is None else np.asarray(modality)
    return EmbeddingSet(features=feats, modality=tags, true_identity=truth)


class TestNormalizeRows:
    def test_three_four_five(self):
        out = normalize_rows([[3.0, 4.0]])
        assert np.allclose(out, [[0.6, 0.8]])

    def test_unit_row_unchanged(self):
        row = np.array([[0.6, 0.8]])
        assert np.allclose(normalize_rows(row), row, atol=1e-15)

    def test_zero_row_rejected(self):
        with pytest.raises(ValueError, match="row 1"):
            normalize_rows([[1.0, 0.0], [0.0, 0.0]])

    @given(
        arrays(
            float,
            st.tuples(st.integers(1, 8), st.integers(2, 6)),
            elements=st.floats(min_value=-10, max_value=10, allow_nan=False),
        ).filter(lambda m: np.all(np.linalg.norm(m, axis=1) > 1e-3))
    )
    def test_idempotent(self, matrix):
        once = normalize_rows(matrix)
        twice = normalize_rows(once)
        assert np.abs(twice - once).max() <= 1e-12


class TestValidate:
    def test_clean_set(self):
        es = make_set(normalize_rows(np.arange(1, 9, dtype=float).reshape(4, 2)))
        assert validate(es) == []

    def test_bad_norm_names_row(self):
        es = make_set([[1.0, 0.0], [0.25, 0.25]])
        report = validate(es)
        assert len(report) == 1 and "row 1" in report[0]

    def test_missing_modality_tag(self):
        es = make_set(np.eye(4)[:, :4][:4], modality=["v", "r", "v", ""])
        report = validate(es)
        assert len(report) == 1 and "row 3" in report[0]

    def test_negative_identity(self):
        es = make_set(np.eye(2), truth=np.array([0, 5]))
        assert validate(es) == []
        bad = make_set(np.eye(2), truth=np.array([0, -3]))
        assert any("row 1" in msg for msg in validate(bad))

    def test_dimension_floor(self):
        es = EmbeddingSet(features=np.ones((2, 1)), modality=np.array(["v", "v"]))
        assert any("dimension" in msg for msg in validate(es))


class TestPseudoLabeling:
    def test_from_labels_counts(self):
        lab = labeling("v", [0, 1, -1, 1, 0])
        assert lab.cluster_count == 2
        assert lab.members(1).tolist() == [1, 3]
        assert lab.noise_mask.tolist() == [False, False, True, False, False]

    @given(st.lists(st.integers(-1, 6), max_size=40))
    def test_members_match_label_scan(self, raw):
        # renumber the non-noise labels to 0..count-1 in order of value
        raw = np.asarray(raw, dtype=np.int64)
        values = np.unique(raw[raw >= 0])
        labels = np.where(raw >= 0, np.searchsorted(values, raw), -1)
        lab = labeling("v", labels)
        for p in range(-2, lab.cluster_count + 2):
            assert np.array_equal(lab.members(p), np.flatnonzero(labels == p))
        assert np.array_equal(lab.cluster_sizes(), np.bincount(labels[labels >= 0], minlength=lab.cluster_count))

    def test_gap_rejected(self):
        with pytest.raises(ValueError):
            PseudoLabeling(scope="v", labels=np.array([0, 2]), cluster_count=3)

    def test_all_noise_allowed(self):
        lab = labeling("r", [-1, -1])
        assert lab.cluster_count == 0


class TestAssignment:
    def test_valid_identity(self):
        q = np.eye(2, dtype=int)
        cost = np.array([[0.0, 5.0], [5.0, 0.0]])
        a = Assignment(q=q, cost=cost, total_cost=0.0)
        assert a.pairs() == [(0, 0), (1, 1)]

    def test_column_constraint_enforced(self):
        q = np.zeros((2, 2), dtype=int)
        with pytest.raises(ValueError, match="exactly once"):
            Assignment(q=q, cost=np.ones((2, 2)), total_cost=0.0)

    def test_row_constraint_enforced(self):
        q = np.array([[1, 1], [0, 0]])
        with pytest.raises(ValueError, match="at most once"):
            Assignment(q=q, cost=np.zeros((2, 2)), total_cost=0.0)

    def test_total_cost_checked(self):
        q = np.eye(2, dtype=int)
        with pytest.raises(ValueError, match="total_cost"):
            Assignment(q=q, cost=np.ones((2, 2)), total_cost=0.0)


class TestPipelineConfig:
    def test_published_defaults(self):
        cfg = PipelineConfig()
        assert cfg.tau == 0.05
        assert cfg.dbscan_eps == 0.6
        assert cfg.dbscan_min_samples == 4
        assert cfg.n_memories == 4
        assert cfg.lambda_intra == 0.5
        assert cfg.lambda_inter == 0.05
        assert cfg.epochs == 80
        assert cfg.intra_start_epoch == 1
        assert cfg.inter_start_epoch == 15
        assert cfg.batch_ids == 8
        assert cfg.per_id_visible == 4
        assert cfg.per_id_infrared == 4
        assert cfg.momentum == 0.9
        assert cfg.weight_decay == 5e-4
        assert cfg.validate() == []

    def test_validation_messages(self):
        bad = PipelineConfig(tau=-1, batch_ids=0, mmd_sigma="huh")
        problems = bad.validate()
        assert any("tau" in p for p in problems)
        assert any("batch_ids" in p for p in problems)
        assert any("mmd_sigma" in p for p in problems)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("dbscan_eps", float("nan")),
            ("tau", float("inf")),
            ("learning_rate", float("nan")),
            ("momentum", float("nan")),
            ("weight_decay", float("nan")),
            ("lambda_intra", float("nan")),
            ("lambda_inter", float("-inf")),
            ("mmd_sigma", float("nan")),
        ],
    )
    def test_non_finite_rejected(self, field, value):
        problems = PipelineConfig(**{field: value}).validate()
        assert any(field in p and "finite" in p for p in problems)


def test_concat_sets_order_and_truth():
    vis = make_set(np.eye(2), modality=["v", "v"], truth=np.array([0, 1]))
    inf = make_set(np.eye(2)[::-1], modality=["r", "r"], truth=np.array([1, 0]))
    joint = concat_sets(vis, inf)
    assert len(joint) == 4
    assert joint.modality.tolist() == ["v", "v", "r", "r"]
    assert joint.true_identity.tolist() == [0, 1, 1, 0]
    no_truth = concat_sets(vis, make_set(np.eye(2), modality=["r", "r"]))
    assert no_truth.true_identity is None


class TestFrozenArrays:
    def test_writable_input_is_copied(self):
        feats = normalize_rows(np.arange(1.0, 7.0).reshape(3, 2))
        es = make_set(feats)
        assert not np.shares_memory(es.features, feats)
        assert not es.features.flags.writeable
        feats[0] = [0.0, 1.0]
        assert es.features[0, 1] != 1.0

    def test_read_only_owner_is_adopted_and_views_copied(self):
        feats = normalize_rows(np.arange(1.0, 7.0).reshape(3, 2))
        feats.setflags(write=False)
        assert make_set(feats).features is feats
        view = feats[1:]
        assert view.base is not None and not view.flags.writeable
        assert not np.shares_memory(make_set(view).features, feats)
        as_int = np.array([[1, 0], [0, 1]])
        as_int.setflags(write=False)
        assert make_set(as_int).features.dtype == float  # another dtype: converted

    def test_concat_sets_holds_one_copy(self):
        # 2000 x 64 rows a side: the joint features are 2 MB
        rng = np.random.default_rng(0)
        sides = [
            EmbeddingSet(
                features=normalize_rows(rng.standard_normal((2000, 64))),
                modality=np.full(2000, tag),
                true_identity=np.arange(2000),
            )
            for tag in ("v", "r")
        ]
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            joint = concat_sets(*sides)
            after, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        retained = after - before
        assert retained >= joint.features.nbytes
        assert peak - before < 1.5 * retained
