"""Cross-modality cluster matching.

The cost between a visible and an infrared cluster sums, over the visible
sub-memories, the distance to the closest infrared sub-memory.  The binary
correspondence is solved with the side holding more clusters as rows: it
minimizes total cost under "every column cluster exactly once, every row
cluster at most once", found with a shortest augmenting path solver (exact,
O(P^3)).  Label transfer then moves the row side into the column side's
label space.
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
            raise ValueError("cost matrix entries must be finite")
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
    for bank, side in ((vis, "visible"), (inf, "infrared")):
        empty = np.flatnonzero(bank.occupancy.sum(axis=1) == 0)
        if empty.size:
            raise ValueError(f"{side} cluster {int(empty[0])} has no occupied sub-memory")
    cost = np.zeros((pv, pr))
    inf_active = [inf.active(pp) for pp in range(pr)]
    for p in range(pv):
        sub_v = vis.active(p)
        for pp in range(pr):
            diffs = sub_v[:, None, :] - inf_active[pp][None, :, :]
            cost[p, pp] = np.linalg.norm(diffs, axis=2).min(axis=1).sum()
    return CostMatrix(cost)


def _shortest_augmenting_path(cost: np.ndarray) -> np.ndarray:
    """Optimal rectangular assignment (rows <= cols); returns col4row."""
    n, m = cost.shape
    u = np.zeros(n)
    v = np.zeros(m)
    path = np.full(m, -1, dtype=np.int64)
    col4row = np.full(n, -1, dtype=np.int64)
    row4col = np.full(m, -1, dtype=np.int64)
    for cur_row in range(n):
        min_val = 0.0
        i = cur_row
        remaining = list(range(m))
        shortest = np.full(m, np.inf)
        sr = np.zeros(n, dtype=bool)
        sc = np.zeros(m, dtype=bool)
        sink = -1
        while sink == -1:
            sr[i] = True
            index = -1
            lowest = np.inf
            for it, j in enumerate(remaining):
                r = min_val + cost[i, j] - u[i] - v[j]
                if r < shortest[j]:
                    path[j] = i
                    shortest[j] = r
                if shortest[j] < lowest or (shortest[j] == lowest and row4col[j] == -1):
                    lowest = shortest[j]
                    index = it
            min_val = lowest
            if not np.isfinite(min_val):
                raise RuntimeError("augmenting path search stalled on an infinite cost")
            j = remaining[index]
            if row4col[j] == -1:
                sink = j
            else:
                i = int(row4col[j])
            sc[j] = True
            remaining[index] = remaining[-1]
            remaining.pop()
        u[cur_row] += min_val
        for ii in np.flatnonzero(sr):
            if ii != cur_row:
                u[ii] += min_val - shortest[col4row[ii]]
        for jj in np.flatnonzero(sc):
            v[jj] -= min_val - shortest[jj]
        j = sink
        while True:
            ii = int(path[j])
            row4col[j] = ii
            col4row[ii], j = j, col4row[ii]
            if ii == cur_row:
                break
    return col4row


def solve_assignment(cost) -> Assignment:
    """Cost-minimal binary matching of the P^v x P^r cost matrix.

    The side with more clusters becomes the rows: with P^v >= P^r every
    infrared cluster is matched to one visible cluster; with P^v < P^r the
    transpose is solved instead, every visible cluster is matched to one
    infrared cluster, and the returned Assignment is marked ``flipped`` and
    stores ``q`` and ``cost`` in that transposed orientation.
    """
    m = cost.m if isinstance(cost, CostMatrix) else np.asarray(cost, dtype=float)
    if np.any(np.isnan(m)):
        raise ValueError("cost matrix contains NaN")
    flipped = m.shape[0] < m.shape[1]
    if flipped:
        m = m.T.copy()
    rows, cols = m.shape
    row4col = _shortest_augmenting_path(m.T)
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
    for p, pp in assignment.pairs():
        mapping[p] = pp
    fresh = n_cols
    for p in range(n_rows):
        if mapping[p] == -1:
            mapping[p] = fresh
            fresh += 1
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
