"""Correctness checks on the final state a training run returns.

``differences`` requires two runs of one seed to agree exactly.  ``audit``
recomputes the reported results by independent means: the assignment's
optimality with SciPy's solver, the ARI triple from pair counts, and mAP and
rank-1 from the positions of the relevant gallery items.
"""
from __future__ import annotations

import numpy as np

REL_TOL = 1e-9
_EXACT = ("total_cost", "ari", "map", "rank1")
_ARRAYS = ("labels_v", "labels_r", "labels_joint", "features_v", "features_r")


def differences(a: dict, b: dict) -> list[str]:
    """What differs between two runs' summaries; empty when identical."""
    out = [key for key in _EXACT if a[key] != b[key]]
    out += [key for key in _ARRAYS if not np.array_equal(a[key], b[key])]
    return out


def _close(x: float, y: float) -> bool:
    return abs(x - y) <= REL_TOL * max(1.0, abs(x), abs(y))


def _pairs(counts: np.ndarray) -> float:
    return float((counts * (counts - 1) / 2.0).sum())


def pair_counting_ari(pred: np.ndarray, truth: np.ndarray) -> float:
    """Adjusted Rand index, each noise sample (-1) its own cluster."""
    pred = np.asarray(pred).copy()
    noise = pred < 0
    pred[noise] = pred.max(initial=-1) + 1 + np.arange(int(noise.sum()))
    _, pi = np.unique(pred, return_inverse=True)
    _, ti = np.unique(truth, return_inverse=True)
    cells = np.unique(pi * (ti.max() + 1) + ti, return_counts=True)[1]
    index = _pairs(cells)
    sum_p, sum_t = _pairs(np.bincount(pi)), _pairs(np.bincount(ti))
    expected = sum_p * sum_t / _pairs(np.array([pred.size]))
    best = (sum_p + sum_t) / 2.0
    return 1.0 if best == expected else (index - expected) / (best - expected)


def retrieval(query: np.ndarray, q_ids: np.ndarray, gallery: np.ndarray, g_ids: np.ndarray):
    """(mAP, rank-1) of cosine ranking, ties to the lower gallery index;
    queries whose identity is absent from the gallery are left out."""
    order = np.argsort(-(query @ gallery.T), axis=1, kind="stable")
    aps, firsts = [], []
    for qi in range(query.shape[0]):
        positions = np.flatnonzero(g_ids[order[qi]] == q_ids[qi]) + 1
        if positions.size:
            aps.append(np.mean(np.arange(1, positions.size + 1) / positions))
            firsts.append(positions[0] == 1)
    return float(np.mean(aps)), float(np.mean(firsts))


def audit(s: dict) -> list[str]:
    """Independent recomputation of one run's reported results."""
    from scipy.optimize import linear_sum_assignment

    out = []
    if s["assignment_cost"] is not None:
        cost, q = s["assignment_cost"], s["assignment_q"]
        if not (np.all(q.sum(axis=0) == 1) and np.all(q.sum(axis=1) <= 1)):
            out.append("assignment does not match every column exactly once")
        rows, cols = linear_sum_assignment(cost)
        best = float(cost[rows, cols].sum())
        if not _close(best, s["total_cost"]):
            out.append(f"assignment total_cost {s['total_cost']!r} is not the optimum {best!r}")
    rgb = pair_counting_ari(s["labels_v"], s["truth_v"])
    ir = pair_counting_ari(s["labels_r"], s["truth_r"])
    all_ = pair_counting_ari(
        np.concatenate([s["labels_v"], s["labels_r"]]),
        np.concatenate([s["truth_v"], s["truth_r"]]),
    )
    for name, got, want in zip(("ari_rgb", "ari_ir", "ari_all"), s["ari"], (rgb, ir, all_)):
        if not _close(got, want):
            out.append(f"{name} reported {got!r}, recomputed {want!r}")
    map_, rank1 = retrieval(s["features_r"], s["truth_r"], s["features_v"], s["truth_v"])
    if not _close(s["map"], map_):
        out.append(f"map reported {s['map']!r}, recomputed {map_!r}")
    if not _close(s["rank1"], rank1):
        out.append(f"rank1 reported {s['rank1']!r}, recomputed {rank1!r}")
    return out
