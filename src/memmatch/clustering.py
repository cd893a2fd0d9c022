"""Pseudo-label generation and cluster memory construction.

DBSCAN runs on a precomputed cosine-distance matrix so callers can swap in
any other metric; the per-modality scopes cluster the diagonal blocks of the
one joint matrix (equal to each modality's own matrix up to a few ulp of
BLAS rounding).  Memories are plain per-cluster means; sub-clustering
splits each cluster into up to ``n`` sub-memories with a deterministic
k-means (farthest-point init, Lloyd iterations).
"""
from __future__ import annotations

from collections import deque
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
)

_UNVISITED = -2


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


def dbscan(dist: DistanceMatrix, eps: float, min_samples: int, scope: str = JOINT) -> PseudoLabeling:
    """Classic DBSCAN on a precomputed distance matrix.

    Core point: at least ``min_samples`` neighbors within ``eps`` (self
    included).  Clusters are grown one at a time scanning seeds in ascending
    index order, so a border point in reach of several clusters joins the
    first one discovered.  Labels come out contiguous in discovery order;
    unreachable points get -1.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if min_samples < 1:
        raise ValueError("min_samples must be at least 1")
    d = dist.d
    n = len(dist)
    neighbors = [np.flatnonzero(d[i] <= eps) for i in range(n)]
    core = np.array([nb.size >= min_samples for nb in neighbors])
    labels = np.full(n, _UNVISITED, dtype=np.int64)
    cluster = 0
    for i in range(n):
        if labels[i] != _UNVISITED:
            continue
        if not core[i]:
            labels[i] = NOISE_LABEL
            continue
        labels[i] = cluster
        queue = deque(int(j) for j in neighbors[i])
        while queue:
            j = queue.popleft()
            if labels[j] == NOISE_LABEL:
                labels[j] = cluster  # border point reached from a core
            if labels[j] != _UNVISITED:
                continue
            labels[j] = cluster
            if core[j]:
                queue.extend(int(k) for k in neighbors[j])
        cluster += 1
    return PseudoLabeling(scope=scope, labels=labels, cluster_count=cluster)


def cluster_joint(
    visible: EmbeddingSet, infrared: EmbeddingSet, cfg: PipelineConfig
) -> tuple[PseudoLabeling, PseudoLabeling, PseudoLabeling]:
    """Cluster each modality alone plus their concatenation (visible first).

    The joint labeling indexes visible rows 0..N-1 and infrared rows N..N+M-1;
    the modality scopes cluster the diagonal blocks of its distance matrix.
    """
    eps, k = cfg.dbscan_eps, cfg.dbscan_min_samples
    n = len(visible)
    joint = pairwise_cosine_distance(np.vstack([visible.features, infrared.features]))
    vis_labels = dbscan(DistanceMatrix(joint.d[:n, :n]), eps, k, scope="v")
    inf_labels = dbscan(DistanceMatrix(joint.d[n:, n:]), eps, k, scope="r")
    joint_labels = dbscan(joint, eps, k, scope="vr")
    return vis_labels, inf_labels, joint_labels


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


def _farthest_point_seeds(points: np.ndarray, k: int) -> list[int]:
    # First seed: the sample farthest from the cluster mean, ties to lowest index.
    dev = np.linalg.norm(points - points.mean(axis=0), axis=1)
    seeds = [int(np.argmax(dev))]
    while len(seeds) < k:
        dmin = np.min(
            np.linalg.norm(points[:, None, :] - points[seeds][None, :, :], axis=2), axis=1
        )
        seeds.append(int(np.argmax(dmin)))
    return seeds


def _kmeans(points: np.ndarray, k: int, max_iter: int = 100):
    """Deterministic Lloyd k-means.

    Returns (centroids, assignment, objective_history); the history records
    the sum of squared distances after each assignment step and is
    non-increasing.  Empty cells are reseeded to the point currently farthest
    from its own centroid; cells that stay empty (duplicate data) keep a zero
    occupancy and are dropped by the caller.
    """
    m = points.shape[0]
    centroids = points[_farthest_point_seeds(points, k)].copy()
    prev_assign = None
    history: list[float] = []
    assign = np.zeros(m, dtype=np.int64)
    for _ in range(max_iter):
        d2 = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        assign = d2.argmin(axis=1)
        repaired = False
        own = d2[np.arange(m), assign]
        for c in range(k):
            if np.any(assign == c):
                continue
            far = int(np.argmax(own))
            if own[far] <= 0.0:
                continue  # all points sit on a centroid already; leave cell empty
            centroids[c] = points[far]
            assign[far] = c
            own[far] = 0.0
            repaired = True
        history.append(float(((points - centroids[assign]) ** 2).sum()))
        if prev_assign is not None and not repaired and np.array_equal(assign, prev_assign):
            break
        prev_assign = assign.copy()
        for c in range(k):
            members = points[assign == c]
            if members.size:
                centroids[c] = members.mean(axis=0)
    return centroids, assign, np.array(history)


def sub_cluster(embedding_set: EmbeddingSet, labels: PseudoLabeling, n: int) -> MultiMemoryBank:
    """Split every cluster into up to ``n`` sub-memories via k-means.

    A cluster with m < n members yields exactly m occupied sub-memories; the
    remaining slots stay empty (zero occupancy).  Fully deterministic: the
    k-means starts from a farthest-point initialization, so no seed is taken.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if len(labels) != len(embedding_set):
        raise ValueError("labeling length does not match the embedding set")
    p_count = labels.cluster_count
    memories = np.zeros((p_count, n, embedding_set.dim))
    occupancy = np.zeros((p_count, n), dtype=np.int64)
    for p in range(p_count):
        members = embedding_set.features[labels.members(p)]
        k = min(n, members.shape[0])
        centroids, assign, _ = _kmeans(members, k)
        slot = 0
        for c in range(k):
            size = int((assign == c).sum())
            if size == 0:
                continue
            memories[p, slot] = centroids[c]
            occupancy[p, slot] = size
            slot += 1
    return MultiMemoryBank(scope=labels.scope, memories=memories, occupancy=occupancy)
