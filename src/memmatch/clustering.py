"""Pseudo-label generation and cluster memory construction.

Clustering is DBSCAN over cosine distances, read as a sparse ε-graph: the
list of pairs ``i < j`` within ``eps``.  ``cluster_joint`` makes that list
with one blocked sweep over the joint features (row blocks of the
similarity matrix, never the whole N x N matrix) and takes the visible and
infrared graphs as its v-v and r-r pairs.  One vectorised labeller turns a
pair list into DBSCAN labels with the classic discovery-order numbering.
``dbscan`` keeps the precomputed-matrix interface for callers with their
own metric.  Memories are plain per-cluster means.  Sub-clustering splits
each cluster into up to ``n`` sub-memories with a deterministic k-means
(farthest-point init, Lloyd iterations) that runs all clusters of one
member count at once, stacked, with the arithmetic of a per-cluster run.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (
    JOINT,
    NOISE_LABEL,
    ConfidenceWeights,
    EmbeddingSet,
    MemoryBank,
    MultiMemoryBank,
    PipelineConfig,
    PseudoLabeling,
    row_blocks,
)

_LLOYD_MAX_STEPS = 100


@dataclass(frozen=True)
class DistanceMatrix:
    """Square distances, held as a read-only view of the caller's array."""

    d: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.d, dtype=float).view()
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError("distance matrix must be square")
        arr.setflags(write=False)
        object.__setattr__(self, "d", arr)

    def __len__(self) -> int:
        return int(self.d.shape[0])


def pairwise_cosine_distance(feats: np.ndarray) -> DistanceMatrix:
    """1 - <f_i, f_j> for unit rows: exactly symmetric, in [0, 2], zero diagonal."""
    feats = np.asarray(feats, dtype=float)
    sims = feats @ feats.T
    dist = 1.0 - 0.5 * (sims + sims.T)  # symmetrize against BLAS roundoff
    np.clip(dist, 0.0, 2.0, out=dist)
    np.fill_diagonal(dist, 0.0)
    return DistanceMatrix(dist)


def _check_params(eps: float, min_samples: int) -> None:
    if not eps > 0:
        raise ValueError("eps must be positive")
    if min_samples < 1:
        raise ValueError("min_samples must be at least 1")


def _eps_pairs(feats: np.ndarray, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """Pairs ``i < j`` of unit rows whose cosine distance, clipped to [0, 2],
    is at most ``eps``.

    Each row block ``a:b`` is compared with rows ``a:`` only, so memory stays
    at one block plus the pairs kept.
    """
    n = feats.shape[0]
    left, right = [np.empty(0, np.intp)], [np.empty(0, np.intp)]
    for block in row_blocks(n, n):
        a = block.start
        dist = feats[block] @ feats[a:].T
        np.subtract(1.0, dist, out=dist)
        np.clip(dist, 0.0, 2.0, out=dist)
        r, c = np.nonzero(dist <= eps)
        upper = c > r  # column c holds row a + c
        left.append(r[upper] + a)
        right.append(c[upper] + a)
    return np.concatenate(left), np.concatenate(right)


def _min_index_components(n: int, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """For each of ``n`` points, the smallest index in its connected
    component of the graph with edges ``(i, j)``.

    Min-label hooking: every root takes the smallest root across its edges,
    then pointer jumping flattens the forest.  Roots only ever point lower,
    so the final root of a component is its smallest index.
    """
    parent = np.arange(n)
    while True:
        pi, pj = parent[i], parent[j]
        cross = pi != pj  # edges still joining two trees
        if not cross.any():
            return parent
        i, j, pi, pj = i[cross], j[cross], pi[cross], pj[cross]
        np.minimum.at(parent, np.maximum(pi, pj), np.minimum(pi, pj))
        while True:
            jumped = parent[parent]
            if np.array_equal(jumped, parent):
                break
            parent = jumped


def _label_pairs(n: int, i: np.ndarray, j: np.ndarray, min_samples: int, scope: str) -> PseudoLabeling:
    """DBSCAN labels of ``n`` points from their ε-neighbour pairs ``(i, j)``.

    A point is core when its degree (pairs plus itself) reaches
    ``min_samples``.  Clusters are the connected components of core-core
    pairs, numbered by their smallest core index; a border point joins the
    lowest-numbered cluster among its core neighbours; the rest is noise.
    This is exactly the labeling of the sequential algorithm that grows one
    cluster at a time from seeds in ascending index order.
    """
    degree = np.bincount(i, minlength=n) + np.bincount(j, minlength=n) + 1
    core = degree >= min_samples
    both = core[i] & core[j]
    root = _min_index_components(n, i[both], j[both])
    roots = np.unique(root[core])
    labels = np.full(n, NOISE_LABEL, dtype=np.int64)
    labels[core] = np.searchsorted(roots, root[core])
    border = np.full(n, roots.size, dtype=np.int64)
    for src, dst in ((i, j), (j, i)):
        reach = core[src] & ~core[dst]
        np.minimum.at(border, dst[reach], labels[src[reach]])
    reached = border < roots.size
    labels[reached] = border[reached]
    return PseudoLabeling(scope=scope, labels=labels, cluster_count=int(roots.size))


def dbscan(dist: DistanceMatrix, eps: float, min_samples: int, scope: str = JOINT) -> PseudoLabeling:
    """Classic DBSCAN on a precomputed distance matrix.

    The matrix is read as symmetric with a zero diagonal: its upper-triangle
    entries within ``eps`` are the neighbour pairs, and every point counts
    itself.  Core point: at least ``min_samples`` neighbours.  Labels are
    those of growing clusters one at a time from seeds in ascending index
    order: contiguous in discovery order, a border point in reach of
    several clusters joins the first one discovered, unreachable points
    get -1.
    """
    _check_params(eps, min_samples)
    i, j = np.nonzero(np.triu(dist.d <= eps, 1))
    return _label_pairs(len(dist), i, j, min_samples, scope)


def cluster_joint(
    visible: EmbeddingSet, infrared: EmbeddingSet, cfg: PipelineConfig
) -> tuple[PseudoLabeling, PseudoLabeling, PseudoLabeling]:
    """Cluster each modality alone plus their concatenation (visible first).

    The joint labeling indexes visible rows 0..N-1 and infrared rows
    N..N+M-1.  One blocked sweep finds the joint ε-pairs; the modality
    scopes label its v-v and r-r pairs, so each equals DBSCAN on that
    modality's own distances (up to BLAS rounding of a few ulp).
    """
    eps, k = cfg.dbscan_eps, cfg.dbscan_min_samples
    _check_params(eps, k)
    n, m = len(visible), len(infrared)
    i, j = _eps_pairs(np.vstack([visible.features, infrared.features]), eps)
    vis, inf = j < n, i >= n  # i < j: both visible, both infrared
    return (
        _label_pairs(n, i[vis], j[vis], k, "v"),
        _label_pairs(m, i[inf] - n, j[inf] - n, k, "r"),
        _label_pairs(n + m, i, j, k, JOINT),
    )


def build_memory(
    embedding_set: EmbeddingSet,
    labels: PseudoLabeling,
    weights: ConfidenceWeights | None = None,
) -> MemoryBank:
    """Per-cluster centroids: (1/N_p) * sum of member features.

    With confidence weights, each feature is scaled by its weight but the
    divisor stays the member count N_p, so down-weighted samples shrink the
    centroid instead of renormalizing it.  Noise samples never contribute.
    """
    if len(labels) != len(embedding_set):
        raise ValueError("labeling length does not match the embedding set")
    if weights is not None and weights.scope != labels.scope:
        raise ValueError(f"weight scope {weights.scope!r} != label scope {labels.scope!r}")
    feats = embedding_set.features
    p_count = labels.cluster_count
    centroids = np.zeros((p_count, embedding_set.dim))
    counts = np.zeros(p_count, dtype=np.int64)
    scaled = feats if weights is None else feats * weights.w[:, None]
    for p in range(p_count):
        idx = labels.members(p)
        if idx.size == 0:
            raise RuntimeError(f"cluster {p} has no members; labeling invariant broken")
        centroids[p] = scaled[idx].sum(axis=0) / idx.size
        counts[p] = idx.size
    return MemoryBank(scope=labels.scope, centroids=centroids, counts=counts)


def _kmeans_stacked(points: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic Lloyd k-means of G clusters of m points each, at once.

    ``points`` is (G, m, d); returns centroids (G, k, d) and the assignment
    (G, m).  Per cluster, every step and every rounding is that of a k-means
    run on the cluster alone:
    - Seeds: first the point farthest from the cluster mean, then, k - 1
      times, the point farthest from its nearest seed; ties go to the lowest
      index.
    - Each Lloyd step assigns every point to its nearest centroid.  An empty
      cell takes the point currently farthest from its own centroid; when
      every point sits on its centroid (duplicate data) the cell stays empty
      and its slot is dropped by the caller.
    - A cluster stops once a step neither repairs a cell nor changes the
      assignment, or after ``_LLOYD_MAX_STEPS`` steps.  Otherwise each
      non-empty cell moves to its member mean: a one-hot masked sum over the
      member axis, which adds exact zeros in member order and so rounds as
      ``members.mean(axis=0)`` does for d >= 2 (at d = 1 numpy sums that
      single column pairwise instead).
    """
    g_count, m, _ = points.shape
    groups = np.arange(g_count)
    centroids = np.empty((g_count, k, points.shape[2]))
    dev = np.linalg.norm(points - points.mean(axis=1, keepdims=True), axis=2)
    centroids[:, 0] = points[groups, np.argmax(dev, axis=1)]
    nearest_seed = np.full((g_count, m), np.inf)
    for c in range(1, k):
        np.minimum(nearest_seed, np.linalg.norm(points - centroids[:, c - 1, None], axis=2), out=nearest_seed)
        centroids[:, c] = points[groups, np.argmax(nearest_seed, axis=1)]
    assign = np.full((g_count, m), -1)
    cells = np.arange(k)
    live = groups  # clusters still iterating
    for _ in range(_LLOYD_MAX_STEPS):
        if not live.size:
            break
        pts, cen = points[live], centroids[live]
        diff = pts[:, :, None, :] - cen[:, None, :, :]
        d2 = np.square(diff, out=diff).sum(axis=3)
        new = d2.argmin(axis=2)
        own = np.take_along_axis(d2, new[..., None], axis=2)[..., 0]
        local = np.arange(live.size)
        repaired = np.zeros(live.size, dtype=bool)
        for c in range(k):
            far = own.argmax(axis=1)
            fix = ~(new == c).any(axis=1) & (own[local, far] > 0.0)
            g, f = local[fix], far[fix]
            cen[g, c] = pts[g, f]
            new[g, f] = c
            own[g, f] = 0.0
            repaired |= fix
        moving = repaired | (new != assign[live]).any(axis=1)
        assign[live] = new
        pts, cen, new = pts[moving], cen[moving], new[moving]
        onehot = new[..., None] == cells  # (G, m, k)
        sums = (onehot[..., None] * pts[:, :, None, :]).sum(axis=1)
        counts = onehot.sum(axis=1)
        filled = counts > 0
        cen[filled] = sums[filled] / counts[filled][:, None]
        live = live[moving]
        centroids[live] = cen
    return centroids, assign


def sub_cluster(embedding_set: EmbeddingSet, labels: PseudoLabeling, n: int) -> MultiMemoryBank:
    """Split every cluster into up to ``n`` sub-memories via k-means.

    A cluster with m < n members yields exactly m occupied sub-memories; the
    remaining slots stay empty (zero occupancy), and occupied slots keep the
    order of their k-means cells.  Fully deterministic: the k-means starts
    from a farthest-point initialization, so no seed is taken.  Clusters of
    equal member count m are stacked and clustered together, in groups small
    enough that a (G, m, k, d) temporary fits in ``BLOCK_BYTES``.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if len(labels) != len(embedding_set):
        raise ValueError("labeling length does not match the embedding set")
    p_count, dim = labels.cluster_count, embedding_set.dim
    memories = np.zeros((p_count, n, dim))
    occupancy = np.zeros((p_count, n), dtype=np.int64)
    sizes = labels.cluster_sizes()
    for m in np.unique(sizes):
        k = min(n, int(m))
        same = np.flatnonzero(sizes == m)
        for block in row_blocks(same.size, int(m) * k * dim):
            clusters = same[block]
            points = embedding_set.features[np.stack([labels.members(p) for p in clusters])]
            centroids, assign = _kmeans_stacked(points, k)
            counts = (assign[..., None] == np.arange(k)).sum(axis=1)
            slot = np.cumsum(counts > 0, axis=1) - 1
            g, c = np.nonzero(counts)
            memories[clusters[g], slot[g, c]] = centroids[g, c]
            occupancy[clusters[g], slot[g, c]] = counts[g, c]
    return MultiMemoryBank(scope=labels.scope, memories=memories, occupancy=occupancy)
