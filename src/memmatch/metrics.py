"""Evaluation: adjusted Rand index for labeling quality, cross-modality
retrieval (rank-k / mAP) for embedding quality.

ARI is computed with exact integer arithmetic (python ints and Fractions)
until the final division, so it can be compared exactly against a
pair-counting brute force.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

import numpy as np

from .model import BLOCK_BYTES as _EVAL_BLOCK_BYTES, NOISE_LABEL, EmbeddingSet, PseudoLabeling

METRIC_CSV_HEADER = "ari_rgb,ari_ir,ari_all,rank1,rank5,rank10,rank20,map"
RANKS = (1, 5, 10, 20)


def _noise_to_singletons(labels: np.ndarray) -> np.ndarray:
    """Each noise sample becomes its own fresh singleton cluster."""
    out = labels.copy()
    noise = np.flatnonzero(out == NOISE_LABEL)
    if noise.size:
        start = int(out.max()) + 1 if np.any(out >= 0) else 0
        out[noise] = np.arange(start, start + noise.size)
    return out


def ari_fraction(labels_a, labels_b) -> Fraction:
    """Adjusted Rand index as an exact rational number."""
    a = np.asarray(labels_a, dtype=np.int64)
    b = np.asarray(labels_b, dtype=np.int64)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("label vectors must be 1-D and of equal length")
    if a.shape[0] < 2:
        raise ValueError("need at least 2 samples")
    _, ai = np.unique(_noise_to_singletons(a), return_inverse=True)
    _, bi = np.unique(_noise_to_singletons(b), return_inverse=True)
    # the non-zero cells of the contingency table, as counts of a joint key;
    # only cells holding at least one pair contribute
    _, cells = np.unique(ai * (int(bi.max()) + 1) + bi, return_counts=True)
    index = sum(comb(int(nij), 2) for nij in cells[cells >= 2])
    sum_a = sum(comb(int(n), 2) for n in np.bincount(ai))
    sum_b = sum(comb(int(n), 2) for n in np.bincount(bi))
    total_pairs = comb(a.shape[0], 2)
    expected = Fraction(sum_a * sum_b, total_pairs)
    max_index = Fraction(sum_a + sum_b, 2)
    if max_index == expected:
        return Fraction(1)  # both partitions degenerate and identical in structure
    return (index - expected) / (max_index - expected)


def ari(labels_a, labels_b) -> float:
    """Chance-corrected pair-counting agreement of two labelings in [-1, 1].

    Noise samples (label -1) are treated as singleton clusters on each side.
    """
    return float(ari_fraction(labels_a, labels_b))


def ari_report(
    vis_labels: PseudoLabeling,
    inf_labels: PseudoLabeling,
    visible: EmbeddingSet,
    infrared: EmbeddingSet,
) -> tuple[float, float, float]:
    """(RGB, IR, ALL) label quality against ground truth.

    RGB and IR score each modality's pseudo-labels alone.  ALL scores the
    concatenation of both modalities in the shared post-transfer label space
    against the concatenated true identities, so it is sensitive to wrong
    cross-modality correspondences even when each side clusters perfectly.
    """
    if visible.true_identity is None or infrared.true_identity is None:
        raise ValueError("ground-truth identities are required for the ARI report")
    rgb = ari(vis_labels.labels, visible.true_identity)
    ir = ari(inf_labels.labels, infrared.true_identity)
    joint_pred = np.concatenate([vis_labels.labels, inf_labels.labels])
    joint_true = np.concatenate([visible.true_identity, infrared.true_identity])
    return rgb, ir, ari(joint_pred, joint_true)


@dataclass(frozen=True)
class RetrievalReport:
    rank: dict[int, float]
    map: float
    valid_queries: int
    excluded_queries: int

    def csv_row(self, ari_triple: tuple[float, float, float]) -> str:
        rgb, ir, all_ = ari_triple
        vals = [rgb, ir, all_] + [self.rank[k] for k in RANKS] + [self.map]
        return ",".join(repr(float(v)) for v in vals)


def _positive_ranks(sims: np.ndarray, qi: np.ndarray, gi: np.ndarray) -> np.ndarray:
    """1-based rank of each positive ``(qi, gi)`` when its row of ``sims`` is
    ordered by descending similarity, ties to the lower gallery index.
    """
    chunk, n_g = sims.shape
    v = sims[qi, gi]
    flat = np.sort(sims, axis=1).ravel()
    base = qi * n_g
    # at_most = #{h : s_h <= v} per positive: binary lifting over every
    # ascending row at once keeps the largest count c with row[c - 1] <= v
    at_most = np.zeros(qi.size, np.intp)
    step = 1 << (n_g.bit_length() - 1)
    while step:
        probe = at_most + step
        fits = probe <= n_g
        fits &= flat[base + np.minimum(probe, n_g) - 1] <= v
        at_most[fits] = probe[fits]
        step >>= 1
    ranks = n_g - at_most + 1
    # row[at_most - 1] is v itself; an equal value just below it is a tie
    tied = np.flatnonzero((at_most >= 2) & (flat[base + np.maximum(at_most, 2) - 2] == v))
    cols = np.arange(n_g)
    for c in range(0, tied.size, chunk):  # at most one block of bytes at a time
        t = tied[c : c + chunk]
        lower = (sims[qi[t]] == v[t, None]) & (cols < gi[t, None])
        ranks[t] += np.count_nonzero(lower, axis=1)
    return ranks


def retrieval_eval(query: EmbeddingSet, gallery: EmbeddingSet) -> RetrievalReport:
    """Rank-k accuracy for k in ``RANKS`` and mean average precision under
    cosine-similarity ranking.

    Each query ranks the full gallery by descending similarity, ties broken
    by ascending gallery index, so gallery item g of a query ranks at
    #{h : s_h > s_g} + #{h < g : s_h = s_g} + 1.  Only the ranks of the
    query's positives (gallery items of its identity) are computed: each
    row of similarities is sorted once, the first term is a bisection on
    that sorted row, and the index term is counted only for positives whose
    similarity occurs more than once in the row.  With r_1 < ... < r_m the
    positive ranks, rank-k is a hit when r_1 <= k and AP is the mean of
    j / r_j.  Queries whose identity never occurs in the gallery are
    excluded from the averages and counted.  Non-finite features, which
    have no rank, raise ``ValueError``.

    Query rows are taken in blocks of at most ``_EVAL_BLOCK_BYTES`` of
    float64 similarities (at least one row), so no query x gallery array
    is ever held whole.
    """
    if query.true_identity is None or gallery.true_identity is None:
        raise ValueError("ground-truth identities are required for retrieval evaluation")
    if not (np.isfinite(query.features).all() and np.isfinite(gallery.features).all()):
        raise ValueError("retrieval evaluation needs finite features")
    n_g = len(gallery)
    rows = max(1, _EVAL_BLOCK_BYTES // (8 * max(n_g, 1)))
    hits = np.zeros(len(RANKS), np.int64)
    aps = [np.empty(0)]
    for a in range(0, len(query), rows):
        # positives (qi, gi) in row-major order: grouped by query, qi ascending
        qi, gi = np.nonzero(query.true_identity[a : a + rows, None] == gallery.true_identity)
        if qi.size == 0:
            continue
        starts = np.flatnonzero(np.diff(qi, prepend=-1))  # each query's first positive
        counts = np.diff(starts, append=qi.size)
        within = np.arange(qi.size) - np.repeat(starts, counts)
        sims = query.features[a : a + rows] @ gallery.features.T
        ranks = _positive_ranks(sims, qi, gi)
        # one sort of (qi, rank) keys orders the ranks within each query
        key = qi * (n_g + 1)
        ranks = np.sort(key + ranks) - key
        aps.append(np.add.reduceat((within + 1) / ranks, starts) / counts)
        hits += (ranks[starts] <= np.array(RANKS)[:, None]).sum(axis=1)
    aps = np.concatenate(aps)
    valid = aps.size
    if valid == 0:
        raise ValueError("no query identity appears in the gallery")
    return RetrievalReport(
        rank={k: int(h) / valid for k, h in zip(RANKS, hits)},
        map=float(np.mean(aps)),
        valid_queries=valid,
        excluded_queries=len(query) - valid,
    )
