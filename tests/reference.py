"""Independent reference implementations used as test oracles.

Everything here is written in the most pedestrian way possible (explicit
loops, exhaustive enumeration, exact rational arithmetic) and stays
independent of the library code paths it checks.
"""
from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

from memmatch.metrics import RANKS, RetrievalReport


def naive_dbscan(dist: np.ndarray, eps: float, min_samples: int) -> np.ndarray:
    """Textbook DBSCAN with brute-force region queries.

    Seeds scan in ascending index order and each cluster is fully grown
    before the next seed is considered, so border points join the first
    discovered cluster.  Labels: -1 noise, 0.. clusters in discovery order.
    """
    n = dist.shape[0]
    UNSEEN = -99

    def region_query(i):
        return [j for j in range(n) if dist[i][j] <= eps]

    labels = [UNSEEN] * n
    cluster = 0
    for i in range(n):
        if labels[i] != UNSEEN:
            continue
        seeds = region_query(i)
        if len(seeds) < min_samples:
            labels[i] = -1
            continue
        labels[i] = cluster
        k = 0
        while k < len(seeds):
            j = seeds[k]
            k += 1
            if labels[j] == -1:
                labels[j] = cluster
            if labels[j] != UNSEEN:
                continue
            labels[j] = cluster
            j_neighbors = region_query(j)
            if len(j_neighbors) >= min_samples:
                seeds.extend(j_neighbors)
        cluster += 1
    return np.array(labels)


def brute_force_assignment(cost: np.ndarray) -> float:
    """Minimum total cost over all ways of giving each column a distinct row."""
    pv, pr = cost.shape
    assert pv >= pr
    best = math.inf
    for rows in itertools.permutations(range(pv), pr):
        total = sum(cost[rows[c]][c] for c in range(pr))
        best = min(best, total)
    return best


def naive_multi_memory_cost(vis_memories, vis_occupancy, inf_memories, inf_occupancy) -> np.ndarray:
    """cost[p][q]: over the occupied visible slots of cluster p, the sum of
    the Euclidean distance to the nearest occupied infrared slot of q."""
    cost = np.zeros((len(vis_memories), len(inf_memories)))
    for p in range(len(vis_memories)):
        for q in range(len(inf_memories)):
            total = 0.0
            for i in range(len(vis_memories[p])):
                if not vis_occupancy[p][i]:
                    continue
                nearest = math.inf
                for j in range(len(inf_memories[q])):
                    if inf_occupancy[q][j]:
                        nearest = min(nearest, math.dist(list(vis_memories[p][i]), list(inf_memories[q][j])))
                total += nearest
            cost[p][q] = total
    return cost


def _noise_as_singletons(labels) -> list[int]:
    out = list(labels)
    nxt = max([l for l in out if l >= 0], default=-1) + 1
    for i, l in enumerate(out):
        if l == -1:
            out[i] = nxt
            nxt += 1
    return out


def ari_pair_counting(labels_a, labels_b) -> Fraction:
    """ARI via explicit iteration over all sample pairs, exact rationals."""
    a = _noise_as_singletons(labels_a)
    b = _noise_as_singletons(labels_b)
    n = len(a)
    together_both = together_a = together_b = 0
    for i in range(n):
        for j in range(i + 1, n):
            same_a = a[i] == a[j]
            same_b = b[i] == b[j]
            together_a += same_a
            together_b += same_b
            together_both += same_a and same_b
    total_pairs = n * (n - 1) // 2
    expected = Fraction(together_a * together_b, total_pairs)
    max_index = Fraction(together_a + together_b, 2)
    if max_index == expected:
        return Fraction(1)
    return (together_both - expected) / (max_index - expected)


def mmd2_double_loop(x, y, sigma: float) -> float:
    """Biased V-statistic MMD^2 with explicit double loops."""

    def k(a, b):
        d2 = sum((ai - bi) ** 2 for ai, bi in zip(a, b))
        return math.exp(-d2 / (2.0 * sigma * sigma))

    x = [list(row) for row in np.atleast_2d(x)]
    y = [list(row) for row in np.atleast_2d(y)]
    xx = sum(k(a, b) for a in x for b in x) / len(x) ** 2
    yy = sum(k(a, b) for a in y for b in y) / len(y) ** 2
    xy = sum(k(a, b) for a in x for b in y) / (len(x) * len(y))
    return xx + yy - 2.0 * xy


def finite_difference(fn, x: np.ndarray, step: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar function of an array."""
    grad = np.zeros_like(x, dtype=float)
    flat = x.ravel()
    g = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        hi = fn(x)
        flat[i] = orig - step
        lo = fn(x)
        flat[i] = orig
        g[i] = (hi - lo) / (2.0 * step)
    return grad


def gradient_gap(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Worst absolute error normalized by the numeric gradient's scale."""
    scale = max(float(np.abs(numeric).max()), 1e-6)
    return float(np.abs(analytic - numeric).max()) / scale


def naive_retrieval_eval(query, gallery, ranks=RANKS) -> RetrievalReport:
    """Rank-k accuracy and mean average precision, cosine-similarity ranking.

    Each query ranks the full gallery by descending similarity (ties broken
    by ascending gallery index).  Queries whose identity never occurs in the
    gallery are excluded from the averages and counted.
    """
    if query.true_identity is None or gallery.true_identity is None:
        raise ValueError("ground-truth identities are required for retrieval evaluation")
    sims = query.features @ gallery.features.T
    order = np.argsort(-sims, axis=1, kind="stable")
    g_ids = gallery.true_identity
    hits_at = {k: 0 for k in ranks}
    aps: list[float] = []
    excluded = 0
    for qi in range(len(query)):
        matches = (g_ids[order[qi]] == query.true_identity[qi]).astype(np.int64)
        relevant = int(matches.sum())
        if relevant == 0:
            excluded += 1
            continue
        cum = matches.cumsum()
        for k in ranks:
            if cum[min(k, len(matches)) - 1] >= 1:
                hits_at[k] += 1
        precision = cum / np.arange(1, len(matches) + 1)
        aps.append(float((precision * matches).sum() / relevant))
    valid = len(aps)
    if valid == 0:
        raise ValueError("no query identity appears in the gallery")
    return RetrievalReport(
        rank={k: hits_at[k] / valid for k in ranks},
        map=float(np.mean(aps)),
        valid_queries=valid,
        excluded_queries=excluded,
    )
