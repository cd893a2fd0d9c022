"""Cross-modality cluster matching.

The cost between a visible and an infrared cluster sums, over the visible
sub-memories, the distance to the closest infrared sub-memory.  All squared
distances come from one GEMM per block of visible clusters, in the form
‖a‖² + ‖b‖² − 2a·b that FAISS uses; where cancellation could make that form
inexact, the distance is recomputed by subtraction (see
``multi_memory_cost``).  The binary correspondence is solved with the side
holding more clusters as rows: it minimizes total cost under "every column
cluster exactly once, every row cluster at most once", found with the
Hungarian method with row and column potentials (exact, O(P^3), each search
step one numpy pass over the columns).  Label transfer then moves the row
side into the column side's label space.  The module stays numpy-only:
importing scipy.optimize alone raises a process's peak RSS from about 27 MB
to 76 MB.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Assignment, MultiMemoryBank, PseudoLabeling, row_blocks

# Relative error allowed in a GEMM distance before it is recomputed, and the
# unit roundoff of float64.
_RHO = 1e-13
_U = 2.0**-53


@dataclass(frozen=True)
class CostMatrix:
    """P^v x P^r matching costs; finite and non-negative."""

    m: np.ndarray

    def __post_init__(self):
        arr = np.array(self.m, dtype=float)
        if arr.ndim != 2:
            raise ValueError("cost matrix must be 2-D")
        if not np.all(np.isfinite(arr)):
            raise ValueError("cost matrix entries must be finite (no NaN or inf)")
        if arr.size and arr.min() < 0:
            raise ValueError("cost matrix entries must be non-negative")
        arr.setflags(write=False)
        object.__setattr__(self, "m", arr)

    @property
    def shape(self) -> tuple[int, int]:
        return self.m.shape


def multi_memory_cost(vis: MultiMemoryBank, inf: MultiMemoryBank) -> CostMatrix:
    """cost[p, p'] = sum over occupied visible sub-memories of the Euclidean
    distance to the nearest occupied infrared sub-memory.

    Visible clusters are taken in blocks whose (visible slot x infrared slot)
    squared distances fit in ``BLOCK_BYTES``.  Each block is one GEMM,
    ‖a‖² + ‖b‖² − 2a·b clamped at 0, with +inf on empty infrared slots; the
    minimum over each infrared cluster's slots is taken before the square
    root, which is exact because sqrt is monotone.  Each cost is one sum over
    the cluster's n visible slots, empty ones adding 0, so the result does
    not depend on the blocks.
    """
    pv, pr = vis.cluster_count, inf.cluster_count
    if pv == 0 or pr == 0:
        raise ValueError("both banks must contain at least one cluster")
    dim, n_v, n_r = vis.memories.shape[2], vis.n_memories, inf.n_memories
    if inf.memories.shape[2] != dim:
        raise ValueError(
            f"visible sub-memories have dimension {dim}, infrared ones {inf.memories.shape[2]}"
        )
    vis_flat = vis.memories.reshape(pv * n_v, dim)
    inf_flat = inf.memories.reshape(pr * n_r, dim)
    vis_sq = np.einsum("ij,ij->i", vis_flat, vis_flat)
    inf_sq = np.einsum("ij,ij->i", inf_flat, inf_flat)
    inf_empty = inf.occupancy.ravel() == 0
    vis_occupied = vis.occupancy.ravel() > 0
    # Recheck rule: δ = 2γ_{d+2}(‖a‖² + max‖b‖²), γ_k = ku / (1 − ku), bounds
    # the absolute error of a GEMM squared distance.  A minimum at or above
    # δ/(2ρ) therefore has a square root within relative error ρ; one below
    # it is recomputed by subtraction over the cluster's occupied slots.
    gamma = (dim + 2) * _U / (1 - (dim + 2) * _U)
    recheck_below = gamma * (vis_sq + inf_sq[~inf_empty].max()) / _RHO
    inf_sq[inf_empty] = np.inf
    cost = np.empty((pv, pr))
    for block in row_blocks(pv, n_v * pr * n_r):  # blocks of visible clusters
        rows = slice(block.start * n_v, block.stop * n_v)
        d2 = vis_flat[rows] @ inf_flat.T
        d2 *= -2.0
        d2 += vis_sq[rows, None]
        d2 += inf_sq
        np.maximum(d2, 0.0, out=d2)
        near = d2.reshape(-1, pr, n_r).min(axis=2)
        slot, q = np.nonzero((near < recheck_below[rows, None]) & vis_occupied[rows, None])
        np.sqrt(near, out=near)
        near[slot, q] = _nearest_by_subtraction(vis_flat[rows][slot], inf, q)
        near[~vis_occupied[rows]] = 0.0
        cost[block] = near.reshape(-1, n_v, pr).sum(axis=1)
    return CostMatrix(cost)


def _nearest_by_subtraction(points: np.ndarray, inf: MultiMemoryBank, clusters: np.ndarray) -> np.ndarray:
    """For each row i, min over the occupied slots of infrared cluster
    ``clusters[i]`` of ``‖points[i] − b‖``, with the norm of the difference."""
    out = np.empty(len(clusters))
    for block in row_blocks(len(clusters), inf.memories[0].size):
        q = clusters[block]
        dist = np.linalg.norm(points[block, None, :] - inf.memories[q], axis=2)
        dist[inf.occupancy[q] == 0] = np.inf
        out[block] = dist.min(axis=1)
    return out


def _hungarian(cost: np.ndarray) -> np.ndarray:
    """Optimal rectangular assignment (rows <= cols); returns col4row.

    Kuhn-Munkres with row/column potentials (Jonker-Volgenant form): each
    row runs one Dijkstra-like search for the cheapest augmenting path in
    reduced costs.  Column 0 is a virtual start column and rows are 1-based.
    """
    n, m = cost.shape
    c = np.zeros((n + 1, m + 1))
    c[1:, 1:] = cost
    u, v = np.zeros(n + 1), np.zeros(m + 1)
    row4col = np.zeros(m + 1, dtype=np.int64)  # 0 marks a free column
    way = np.zeros(m + 1, dtype=np.int64)
    for row in range(1, n + 1):
        row4col[0], j = row, 0
        shortest = np.full(m + 1, np.inf)
        done = np.zeros(m + 1, dtype=bool)
        while row4col[j]:
            done[j] = True
            i = row4col[j]
            reduced = c[i] - u[i] - v
            closer = ~done & (reduced < shortest)
            shortest[closer], way[closer] = reduced[closer], j
            j = int(np.argmin(np.where(done, np.inf, shortest)))
            delta = shortest[j]
            u[row4col[done]] += delta
            v[done] -= delta
            shortest[~done] -= delta
        while j:  # augment along the path back to the virtual column
            row4col[j] = row4col[way[j]]
            j = way[j]
    # the m - n free columns (row 0) sort first, then one column per row 1..n
    return np.argsort(row4col[1:], kind="stable")[m - n:]


def solve_assignment(cost) -> Assignment:
    """Cost-minimal binary matching of the P^v x P^r cost matrix.

    A raw array goes through ``CostMatrix`` first, so NaN, infinite and
    negative costs raise ValueError.  The side with more clusters becomes
    the rows: with P^v >= P^r every infrared cluster is matched to one
    visible cluster; with P^v < P^r the transpose is solved instead, every
    visible cluster is matched to one infrared cluster, and the returned
    Assignment is marked ``flipped`` and stores ``q`` and ``cost`` in that
    transposed orientation.
    """
    m = (cost if isinstance(cost, CostMatrix) else CostMatrix(cost)).m
    flipped = m.shape[0] < m.shape[1]
    if flipped:
        m = m.T.copy()
    rows, cols = m.shape
    row4col = _hungarian(m.T)
    q = np.zeros((rows, cols), dtype=np.int8)
    q[row4col, np.arange(cols)] = 1
    total = float(m[row4col, np.arange(cols)].sum())
    return Assignment(q=q, cost=m, total_cost=total, flipped=flipped)


def transfer_labels(
    vis_labels: PseudoLabeling, inf_labels: PseudoLabeling, assignment: Assignment
) -> tuple[PseudoLabeling, PseudoLabeling]:
    """Re-express the row side's labels in the column side's space.

    Returns the (visible, infrared) labelings.  The row side is infrared when
    the assignment is flipped, visible otherwise; the column side comes back
    unchanged.  Samples of a matched row cluster take the matched column
    cluster's id; unmatched row clusters get fresh ids P_col, P_col+1, ... in
    ascending original order.  Noise stays -1.
    """
    row_labels, col_labels = (inf_labels, vis_labels) if assignment.flipped else (vis_labels, inf_labels)
    n_rows, n_cols = assignment.q.shape
    if n_rows != row_labels.cluster_count or n_cols != col_labels.cluster_count:
        raise ValueError("assignment shape does not match the two labelings")
    mapping = np.full(n_rows, -1, dtype=np.int64)
    matched_rows, matched_cols = np.nonzero(assignment.q)
    mapping[matched_rows] = matched_cols
    unmatched = mapping == -1
    mapping[unmatched] = n_cols + np.arange(np.count_nonzero(unmatched))
    if len(np.unique(mapping)) != n_rows:
        raise RuntimeError("label transfer produced a non-injective cluster map")
    labels = row_labels.labels.copy()
    keep = labels >= 0
    labels[keep] = mapping[labels[keep]]
    # every column id occupied once, plus one fresh id per unmatched row
    moved = PseudoLabeling(scope=row_labels.scope, labels=labels, cluster_count=n_rows)
    return (vis_labels, moved) if assignment.flipped else (moved, inf_labels)
