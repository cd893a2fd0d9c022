import numpy as np
import pytest
from hypothesis import given, strategies as st

from memmatch import model
from memmatch.clustering import sub_cluster
from memmatch.matching import (
    CostMatrix,
    multi_memory_cost,
    solve_assignment,
    transfer_labels,
)
from memmatch.model import EmbeddingSet, MultiMemoryBank, PseudoLabeling, normalize_rows
from reference import brute_force_assignment, naive_multi_memory_cost


def bank_from_lists(clusters, scope="v", n=None):
    """clusters: list of lists of sub-memory vectors."""
    n = n or max(len(c) for c in clusters)
    d = len(clusters[0][0])
    memories = np.zeros((len(clusters), n, d))
    occupancy = np.zeros((len(clusters), n), dtype=int)
    for p, subs in enumerate(clusters):
        for i, sub in enumerate(subs):
            memories[p, i] = sub
            occupancy[p, i] = 1
    return MultiMemoryBank(scope=scope, memories=memories, occupancy=occupancy)


class TestMultiMemoryCost:
    def test_single_memory_degenerates_to_distance(self):
        vis = bank_from_lists([[[1.0, 0.0]], [[0.0, 1.0]]])
        inf = bank_from_lists([[[0.0, 1.0]]], scope="r")
        cost = multi_memory_cost(vis, inf)
        assert cost.m[0, 0] == pytest.approx(np.sqrt(2.0))
        assert cost.m[1, 0] == pytest.approx(0.0)

    def test_hand_computed_sum_of_mins(self):
        vis = bank_from_lists([[[0.0, 1.0], [1.0, 0.0]]])
        inf = bank_from_lists([[[0.0, 1.0]]], scope="r")
        cost = multi_memory_cost(vis, inf)
        assert cost.m[0, 0] == pytest.approx(np.sqrt(2.0))  # 0 + sqrt(2)

    def test_identical_banks_zero_diagonal(self):
        rng = np.random.default_rng(0)
        clusters = [[rng.standard_normal(3) for _ in range(2)] for _ in range(4)]
        vis = bank_from_lists(clusters)
        inf = bank_from_lists(clusters, scope="r")
        cost = multi_memory_cost(vis, inf)
        assert np.allclose(np.diag(cost.m), 0.0, atol=1e-12)

    def test_partial_occupancy_skips_empty_slots(self):
        vis = bank_from_lists([[[0.0, 1.0], [1.0, 0.0]]], n=3)
        inf = bank_from_lists([[[1.0, 0.0]]], scope="r", n=3)
        cost = multi_memory_cost(vis, inf)
        assert cost.m[0, 0] == pytest.approx(np.sqrt(2.0))

    @given(
        st.integers(0, 10_000),
        st.integers(1, 6),
        st.integers(1, 6),
        st.integers(1, 4),
        st.integers(1, 4),
        st.integers(1, 5),
    )
    def test_matches_naive_loops(self, seed, pv, pr, nv, nr, d):
        rng = np.random.default_rng(seed)

        def random_bank(p, n, scope):
            # ragged, non-prefix occupancy; empty slots hold live-looking vectors
            occupancy = rng.random((p, n)) < 0.5
            occupancy[np.arange(p), rng.integers(0, n, p)] = True
            memories = rng.standard_normal((p, n, d))
            return MultiMemoryBank(scope=scope, memories=memories, occupancy=occupancy.astype(int))

        vis, inf = random_bank(pv, nv, "v"), random_bank(pr, nr, "r")
        expected = naive_multi_memory_cost(vis.memories, vis.occupancy, inf.memories, inf.occupancy)
        np.testing.assert_allclose(multi_memory_cost(vis, inf).m, expected, rtol=1e-12, atol=0)

    def test_dimension_mismatch_names_both(self):
        vis = bank_from_lists([[[1.0, 0.0]]])
        inf = bank_from_lists([[[1.0, 0.0, 0.0]]], scope="r")
        with pytest.raises(ValueError, match="dimension 2, infrared ones 3"):
            multi_memory_cost(vis, inf)

    def test_near_coincident_slot_matches_naive(self):
        # The GEMM form loses a 1e-9 gap to cancellation (its absolute error
        # in d^2 is near 1e-15); the recheck recomputes it by subtraction.
        rng = np.random.default_rng(4)
        memories = rng.standard_normal((5, 3, 8))
        moved = memories.copy()
        moved[2, 1, 0] += 1e-9
        occupancy = np.ones((5, 3), dtype=int)
        vis = MultiMemoryBank(scope="v", memories=memories, occupancy=occupancy)
        inf = MultiMemoryBank(scope="r", memories=moved, occupancy=occupancy)
        expected = naive_multi_memory_cost(memories, occupancy, moved, occupancy)
        np.testing.assert_allclose(multi_memory_cost(vis, inf).m, expected, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("clusters_per_block", [1, 2, 3])
    def test_blocks_equal_single_block(self, clusters_per_block, monkeypatch):
        # 7 visible clusters in blocks of 1, 2 or 3; infrared clusters 0-3
        # hold near-copies of visible slots, so each of their blocks has
        # rechecks, in chunks of 1-2 rows at d = 16.
        rng = np.random.default_rng(9)
        memories = rng.standard_normal((7, 3, 16))
        occupancy = (rng.random((7, 3)) < 0.7).astype(int)
        occupancy[:, 0] = 1
        inf_memories = rng.standard_normal((5, 2, 16))
        inf_memories[:4] = memories[:4, :2] + 1e-9 * rng.standard_normal((4, 2, 16))
        inf_occupancy = np.ones((5, 2), dtype=int)
        vis = MultiMemoryBank(scope="v", memories=memories, occupancy=occupancy)
        inf = MultiMemoryBank(scope="r", memories=inf_memories, occupancy=inf_occupancy)
        whole = multi_memory_cost(vis, inf).m
        monkeypatch.setattr(model, "BLOCK_BYTES", 8 * 3 * 5 * 2 * clusters_per_block)
        assert np.array_equal(multi_memory_cost(vis, inf).m, whole)
        expected = naive_multi_memory_cost(memories, occupancy, inf_memories, inf_occupancy)
        np.testing.assert_allclose(whole, expected, rtol=1e-12, atol=0)


class TestMultiMemoryMechanism:
    """The paper's claim in miniature: two identities X and Y, each seen
    in two views, a and b.  Visible X is mostly view a and infrared X
    mostly view b; Y is the mirror image, and Y's views sit near X's, so
    the cluster means cross modalities the wrong way.  One memory per
    cluster matches those means and crosses the identities; two or more
    memories hold both views and match each identity to itself."""

    @staticmethod
    def crossed_views():
        rng = np.random.default_rng(0)
        e = np.eye(8)
        views = {"xa": e[0], "xb": e[1], "ya": e[0] + 0.3 * e[2], "yb": e[1] + 0.3 * e[3]}

        def modality(counts, tag):
            rows = np.array([views[v] for v, c in counts for _ in range(c)])
            feats = normalize_rows(rows + 0.02 * rng.standard_normal(rows.shape))
            return EmbeddingSet(features=feats, modality=np.full(len(rows), tag))

        visible = modality([("xa", 8), ("xb", 2), ("yb", 8), ("ya", 2)], "v")
        infrared = modality([("xb", 8), ("xa", 2), ("ya", 8), ("yb", 2)], "r")
        return visible, infrared  # rows 0-9 are X, rows 10-19 Y, in both

    CROSSED, TRUE = [[0, 1], [1, 0]], [[1, 0], [0, 1]]

    @pytest.mark.parametrize("n_memories, matched", [(1, CROSSED), (2, TRUE), (4, TRUE)], ids=["1", "2", "4"])
    def test_several_memories_undo_crossed_means(self, n_memories, matched):
        visible, infrared = self.crossed_views()
        truth = [0] * 10 + [1] * 10
        banks = (
            sub_cluster(es, PseudoLabeling.from_labels(scope, truth), n_memories)
            for es, scope in ((visible, "v"), (infrared, "r"))
        )
        assert solve_assignment(multi_memory_cost(*banks)).q.tolist() == matched


class TestSolveAssignment:
    def test_diagonal_optimum(self):
        a = solve_assignment(np.array([[0.0, 5.0], [5.0, 0.0]]))
        assert a.pairs() == [(0, 0), (1, 1)]
        assert a.total_cost == 0.0
        assert not a.flipped

    def test_rectangular_with_slack_row(self):
        a = solve_assignment(np.array([[1.0, 2.0], [2.0, 1.0], [3.0, 3.0]]))
        assert a.pairs() == [(0, 0), (1, 1)]
        assert a.total_cost == pytest.approx(2.0)
        assert not a.flipped

    @pytest.mark.parametrize("seed", range(10))
    def test_random_rectangular_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        cost = rng.uniform(0, 10, size=(6, 5))
        a = solve_assignment(cost)
        assert a.total_cost == pytest.approx(brute_force_assignment(cost), abs=1e-9)

    @pytest.mark.parametrize(
        "seed, shape",
        [pytest.param(seed, (5, 5), id=str(seed)) for seed in range(8)]
        + [
            pytest.param(seed, shape, id=f"{shape[0]}x{shape[1]}-{seed}")
            for shape in ((6, 4), (4, 6))
            for seed in range(8)
        ],
    )
    def test_integer_costs_exact(self, seed, shape):
        # integer costs tie often, which is where solvers' pivot rules differ
        rng = np.random.default_rng(100 + seed)
        cost = rng.integers(0, 7, size=shape).astype(float)
        a = solve_assignment(cost)
        assert a.total_cost == brute_force_assignment(cost if shape[0] >= shape[1] else cost.T)

    @given(st.integers(0, 10_000), st.floats(min_value=0.0, max_value=50.0))
    def test_constant_shift_preserves_argmin(self, seed, shift):
        rng = np.random.default_rng(seed)
        cost = rng.uniform(0, 5, size=(5, 4))
        base = solve_assignment(cost)
        shifted = solve_assignment(cost + shift)
        assert np.array_equal(base.q, shifted.q)
        assert shifted.total_cost == pytest.approx(base.total_cost + shift * 4, abs=1e-8)

    def test_fewer_visible_solved_transposed(self):
        cost = np.array([[4.0, 1.0, 3.0], [2.0, 0.0, 5.0]])
        a = solve_assignment(cost)
        assert a.flipped
        assert np.array_equal(a.cost, cost.T)
        assert a.q.shape == (3, 2) and np.all(a.q.sum(axis=0) == 1)
        assert a.total_cost == brute_force_assignment(cost.T)

    def test_nan_rejected(self):
        cost = np.ones((2, 2))
        cost[0, 1] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            solve_assignment(cost)

    @pytest.mark.parametrize(
        "cost", [np.full((2, 2), np.inf), [[-1, 2], [3, -4]]], ids=["all-inf", "negative"]
    )
    def test_raw_array_validated_as_cost_matrix(self, cost):
        with pytest.raises(ValueError, match="cost matrix entries"):
            solve_assignment(cost)

    @pytest.mark.parametrize("shape", ["square", "tall", "wide"])
    @pytest.mark.parametrize("p", [50, 300])
    def test_matches_scipy(self, p, shape):
        optimize = pytest.importorskip("scipy.optimize")
        rows, cols = {"square": (p, p), "tall": (p, p * 2 // 3), "wide": (p * 2 // 3, p)}[shape]
        cost = np.random.default_rng(p).uniform(0, 10, size=(rows, cols))
        a = solve_assignment(cost)
        assert a.flipped == (shape == "wide")
        r, c = optimize.linear_sum_assignment(cost)
        assert a.total_cost == pytest.approx(cost[r, c].sum(), abs=1e-9)
        pairs = [(col, row) if a.flipped else (row, col) for row, col in a.pairs()]
        assert sorted(pairs) == list(zip(r.tolist(), c.tolist()))

    def test_deterministic_under_ties(self):
        cost = np.zeros((4, 3))
        a1 = solve_assignment(cost)
        a2 = solve_assignment(cost)
        assert np.array_equal(a1.q, a2.q)


class TestTransferLabels:
    def test_identity_assignment_keeps_labels(self):
        vis = PseudoLabeling.from_labels("v", [0, 0, 1, 1])
        inf = PseudoLabeling.from_labels("r", [0, 1, 1])
        a = solve_assignment(np.array([[0.0, 9.0], [9.0, 0.0]]))
        out, inf_out = transfer_labels(vis, inf, a)
        assert out.labels.tolist() == [0, 0, 1, 1]
        assert out.scope == "v"
        assert inf_out is inf

    def test_cross_assignment_relabels(self):
        vis = PseudoLabeling.from_labels("v", [0, 0, 1, -1])
        inf = PseudoLabeling.from_labels("r", [0, 1])
        a = solve_assignment(np.array([[9.0, 0.0], [0.0, 9.0]]))
        out, _ = transfer_labels(vis, inf, a)
        assert out.labels.tolist() == [1, 1, 0, -1]

    def test_unmatched_cluster_gets_fresh_label(self):
        vis = PseudoLabeling.from_labels("v", [0, 1, 2, 0, 1, 2])
        inf = PseudoLabeling.from_labels("r", [0, 1])
        cost = np.array([[1.0, 2.0], [2.0, 1.0], [3.0, 3.0]])
        out, _ = transfer_labels(vis, PseudoLabeling.from_labels("r", [0, 1]), solve_assignment(cost))
        assert out.labels.tolist() == [0, 1, 2, 0, 1, 2]
        assert out.cluster_count == 3
        del inf

    def test_fresh_labels_in_ascending_original_order(self):
        vis = PseudoLabeling.from_labels("v", [0, 1, 2, 3, 3, 2, 1, 0])
        inf = PseudoLabeling.from_labels("r", [0, 0])
        cost = np.array([[5.0], [5.0], [0.0], [5.0]])  # visible 2 <-> infrared 0
        out, _ = transfer_labels(vis, inf, solve_assignment(cost))
        assert out.labels.tolist() == [1, 2, 0, 3, 3, 0, 2, 1]

    @given(st.integers(0, 10_000))
    def test_partition_structure_preserved(self, seed):
        rng = np.random.default_rng(seed)
        pv, pr = 5, 3
        vis = PseudoLabeling.from_labels("v", np.repeat(np.arange(pv), 2))
        inf = PseudoLabeling.from_labels("r", np.arange(pr))
        out, _ = transfer_labels(vis, inf, solve_assignment(rng.uniform(0, 1, (pv, pr))))
        before = vis.labels
        after = out.labels
        for i in range(len(before)):
            for j in range(len(before)):
                assert (before[i] == before[j]) == (after[i] == after[j])

    def test_transposed_moves_infrared_into_visible_space(self):
        vis = PseudoLabeling.from_labels("v", [0, 1, -1, 1])
        inf = PseudoLabeling.from_labels("r", [2, 0, 1, 2, -1, 0])
        # infrared 0 <-> visible 1, infrared 2 <-> visible 0, infrared 1 unmatched
        cost = np.array([[5.0, 9.0, 0.0], [0.0, 9.0, 5.0]])
        a = solve_assignment(cost)
        assert a.flipped
        vis_out, inf_out = transfer_labels(vis, inf, a)
        assert vis_out is vis
        assert inf_out.scope == "r"
        assert inf_out.labels.tolist() == [0, 1, 2, 0, -1, 1]
        assert inf_out.cluster_count == 3  # 2 visible ids plus fresh id 2


def test_cost_matrix_validation():
    with pytest.raises(ValueError):
        CostMatrix(np.array([[1.0, -2.0]]))
    with pytest.raises(ValueError):
        CostMatrix(np.array([[np.inf, 1.0]]))
