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

from .model import NOISE_LABEL, EmbeddingSet, PseudoLabeling

METRIC_CSV_HEADER = "ari_rgb,ari_ir,ari_all,rank1,rank5,rank10,rank20,map"
RANKS = (1, 5, 10, 20)


@dataclass(frozen=True)
class ContingencyTable:
    """Co-occurrence counts of two labelings plus marginals."""

    counts: np.ndarray
    row_marginals: np.ndarray
    col_marginals: np.ndarray
    total: int

    @classmethod
    def from_labels(cls, a: np.ndarray, b: np.ndarray) -> "ContingencyTable":
        _, ai = np.unique(a, return_inverse=True)
        _, bi = np.unique(b, return_inverse=True)
        counts = np.zeros((ai.max() + 1, bi.max() + 1), dtype=np.int64)
        np.add.at(counts, (ai, bi), 1)
        return cls(
            counts=counts,
            row_marginals=counts.sum(axis=1),
            col_marginals=counts.sum(axis=0),
            total=int(counts.sum()),
        )


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
    table = ContingencyTable.from_labels(_noise_to_singletons(a), _noise_to_singletons(b))
    # only cells holding at least one pair contribute; most cells are empty
    index = sum(comb(int(nij), 2) for nij in table.counts[table.counts >= 2])
    sum_a = sum(comb(int(ai), 2) for ai in table.row_marginals)
    sum_b = sum(comb(int(bj), 2) for bj in table.col_marginals)
    total_pairs = comb(table.total, 2)
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


def retrieval_eval(query: EmbeddingSet, gallery: EmbeddingSet, ranks=RANKS) -> RetrievalReport:
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
