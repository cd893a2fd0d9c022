"""Cross-modality cluster matching.

The cost between a visible and an infrared cluster sums, over the visible
sub-memories, the distance to the closest infrared sub-memory; it is built
with one broadcast per visible cluster against every infrared sub-memory.
The binary correspondence is solved with the side holding more clusters as
rows: it minimizes total cost under "every column cluster exactly once,
every row cluster at most once", found with the Hungarian method with row
and column potentials (exact, O(P^3), each search step one numpy pass over
the columns).  Label transfer then moves the row side into the column
side's label space.  The module stays numpy-only: importing scipy.optimize
alone raises a process's peak RSS from about 27 MB to 76 MB.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Assignment, MultiMemoryBank, PseudoLabeling


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
    distance to the nearest occupied infrared sub-memory."""
    pv, pr = vis.cluster_count, inf.cluster_count
    if pv == 0 or pr == 0:
        raise ValueError("both banks must contain at least one cluster")
    inf_flat = inf.memories.reshape(pr * inf.n_memories, -1)
    inf_empty = inf.occupancy.ravel() == 0
    cost = np.zeros((pv, pr))
    for p in range(pv):
        # distances from every infrared slot to each occupied visible slot
        dist = np.linalg.norm(vis.active(p)[None, :, :] - inf_flat[:, None, :], axis=2)
        dist[inf_empty] = np.inf
        # (P^r, m) nearest distances; summing its contiguous rows rounds
        # exactly as a 1-D sum over the m visible slots does
        cost[p] = dist.reshape(pr, inf.n_memories, -1).min(axis=1).sum(axis=1)
    return CostMatrix(cost)


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


def assignment_to_csv(assignment: Assignment) -> str:
    """`visible_cluster,infrared_cluster,cost` rows for the matched pairs,
    whichever side the assignment solved as rows."""
    lines = ["visible_cluster,infrared_cluster,cost"]
    for p, pp in assignment.pairs():
        vis, inf = (pp, p) if assignment.flipped else (p, pp)
        lines.append(f"{vis},{inf},{float(assignment.cost[p, pp])!r}")
    return "\n".join(lines) + "\n"
