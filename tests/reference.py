"""Independent reference implementations used as test oracles.

Everything here is written in the most pedestrian way possible (explicit
loops, exhaustive enumeration, exact rational arithmetic) and stays
independent of the library code paths it checks.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import replace
from fractions import Fraction

import numpy as np

from memmatch.metrics import RANKS, RetrievalReport
from memmatch.model import PseudoLabeling
from memmatch.objective import LossReport, cluster_nce, inter_loss, intra_alignment
from memmatch.pipeline import TrainingDivergedError, batches_per_epoch, pk_sample, run_epoch


def labeling(scope: str, labels) -> PseudoLabeling:
    """A labeling of ``labels`` (-1 noise) whose cluster count is the
    largest label plus one, 0 when every sample is noise."""
    arr = np.asarray(labels, dtype=np.int64)
    count = int(arr.max()) + 1 if arr.size and arr.max() >= 0 else 0
    return PseudoLabeling(scope=scope, labels=arr, cluster_count=count)


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


def naive_kmeans(points: np.ndarray, k: int, max_iter: int = 100):
    """Deterministic Lloyd k-means of one cluster.

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


def occupied(bank, p: int) -> np.ndarray:
    """The occupied sub-memories of cluster p of a MultiMemoryBank, (m, d)."""
    return bank.memories[p][bank.occupancy[p] > 0]


def naive_sub_cluster(features: np.ndarray, labels: np.ndarray, n: int):
    """(memories, occupancy) of one ``naive_kmeans`` per cluster, with
    k = min(n, members); non-empty cells fill the slots in cell order."""
    p_count = int(labels.max()) + 1 if labels.size else 0
    memories = np.zeros((p_count, n, features.shape[1]))
    occupancy = np.zeros((p_count, n), dtype=np.int64)
    for p in range(p_count):
        members = features[np.flatnonzero(labels == p)]
        k = min(n, members.shape[0])
        centroids, assign, _ = naive_kmeans(members, k)
        slot = 0
        for c in range(k):
            size = int((assign == c).sum())
            if size == 0:
                continue
            memories[p, slot] = centroids[c]
            occupancy[p, slot] = size
            slot += 1
    return memories, occupancy


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


def dense_sgd_replay(theta, steps, learning_rate: float, momentum: float, weight_decay: float):
    """Replay SGD steps updating every row at every step.

    ``steps`` lists (rows, grad) per step: grad[i] is the normalized-view
    gradient of row rows[i]; all other rows get zero.  Each step chains the
    gradient through the row normalization, adds weight decay, then updates
    momentum and parameters of all N rows.  Returns (theta, velocity).
    """
    theta = np.array(theta, dtype=float)
    velocity = np.zeros_like(theta)
    for rows, grad in steps:
        full = np.zeros_like(theta)
        full[rows] = grad
        norms = np.maximum(np.linalg.norm(theta, axis=1, keepdims=True), 1e-12)
        unit = theta / norms
        g_theta = (full - (full * unit).sum(axis=1, keepdims=True) * unit) / norms
        g_theta = g_theta + weight_decay * theta
        velocity = momentum * velocity + g_theta
        theta -= learning_rate * velocity
    return theta, velocity


def _naive_sq_dists(a, b):
    d = (a**2).sum(axis=1)[:, None] + (b**2).sum(axis=1)[None, :] - 2.0 * (a @ b.T)
    return np.maximum(d, 0.0)


def _naive_mmd2_grad_first(x, y, sigma: float):
    n, m = x.shape[0], y.shape[0]
    kxx, kxy, kyy = (np.exp(-_naive_sq_dists(a, b) / (2.0 * sigma**2)) for a, b in ((x, x), (x, y), (y, y)))
    value = float(kxx.mean() + kyy.mean() - 2.0 * kxy.mean())
    gxx = (kxx @ x - kxx.sum(axis=1)[:, None] * x) / (n * n)
    gxy = (kxy @ y - kxy.sum(axis=1)[:, None] * x) / (n * m)
    return value, (2.0 / sigma**2) * (gxx - gxy)


def naive_inter_loss(vis_groups, inf_groups, sigma, terms=("visible", "infrared")):
    """Cross-modality MMD alignment, one label at a time: for every label
    non-empty on both sides, 1/2 mmd2(v, sg(r)) + 1/2 mmd2(r, sg(v)), with
    sigma a number or "median" (median pairwise distance of the label's
    union, self-pairs excluded, floored at 1e-12), averaged over the labels.
    Returns (loss, visible grads, infrared grads, skipped labels)."""
    keys = sorted(set(vis_groups) | set(inf_groups))
    shared = [k for k in keys if len(vis_groups.get(k, ())) and len(inf_groups.get(k, ()))]
    skipped = [k for k in keys if k not in shared]
    vis_grads, inf_grads = {}, {}
    if not shared:
        return 0.0, vis_grads, inf_grads, skipped
    p = len(shared)
    total = 0.0
    for k in shared:
        xv = np.asarray(vis_groups[k], dtype=float)
        xr = np.asarray(inf_groups[k], dtype=float)
        if isinstance(sigma, str):
            union = np.vstack([xv, xr])
            d = np.sqrt(_naive_sq_dists(union, union))
            iu = np.triu_indices(union.shape[0], k=1)
            s = max(float(np.median(d[iu])) if iu[0].size else 0.0, 1e-12)
        else:
            s = float(sigma)
        if "visible" in terms:
            val_v, grad_v = _naive_mmd2_grad_first(xv, xr, s)
            total += 0.5 * val_v
            vis_grads[k] = 0.5 * grad_v / p
        if "infrared" in terms:
            val_r, grad_r = _naive_mmd2_grad_first(xr, xv, s)
            total += 0.5 * val_r
            inf_grads[k] = 0.5 * grad_r / p
    return total / p, vis_grads, inf_grads, skipped


def naive_pk_sample(vis_labels, inf_labels, cfg, rng):
    """PK batch by scanning the label vectors: the labels occupied on both
    sides by set intersection, each label's members by a full comparison."""
    vis, inf = vis_labels.labels, inf_labels.labels
    shared = np.intersect1d(np.unique(vis[vis >= 0]), np.unique(inf[inf >= 0]))
    if shared.size == 0:
        raise ValueError("no label is occupied in both modalities")
    if shared.size >= cfg.batch_ids:
        chosen = rng.choice(shared, size=cfg.batch_ids, replace=False)
        shortfall = 0
    else:
        chosen = shared
        shortfall = cfg.batch_ids - shared.size
    vis_idx, inf_idx = [], []
    for label in chosen:
        members_v = np.flatnonzero(vis == label)
        members_r = np.flatnonzero(inf == label)
        vis_idx.append(
            rng.choice(members_v, size=cfg.per_id_visible, replace=members_v.size < cfg.per_id_visible)
        )
        inf_idx.append(
            rng.choice(members_r, size=cfg.per_id_infrared, replace=members_r.size < cfg.per_id_infrared)
        )
    return np.concatenate(vis_idx), np.concatenate(inf_idx), np.asarray(chosen), shortfall


def sequential_epoch(trainable, cfg, epoch, sampler):
    """One training epoch with one SGD step per PK batch, in order: each
    batch is sampled, read, differentiated and stepped before the next one
    is drawn.  Returns the epoch's state like ``run_epoch``, with the last
    batch's shortfall; a diverged row raises ``TrainingDivergedError``
    naming the epoch and the batch."""
    state = run_epoch(trainable, cfg, epoch, sampler, train=False)
    n_vis, n_inf = len(state.visible), len(state.infrared)
    do_intra = epoch >= cfg.intra_start_epoch and cfg.lambda_intra > 0
    do_inter = epoch >= cfg.inter_start_epoch and cfg.lambda_inter > 0
    n_batches = batches_per_epoch(cfg, n_vis, n_inf)
    terms = ("l_v", "l_r", "l_vr", "l_intra", "l_inter")
    sums = dict.fromkeys(terms, 0.0)
    for batch in range(1, n_batches + 1):
        vis_idx, inf_idx, used, shortfall = pk_sample(state.labels_v, state.labels_r, cfg, sampler)
        rows_v, local_v = np.unique(vis_idx, return_inverse=True)
        rows_r, local_r = np.unique(inf_idx, return_inverse=True)
        try:
            feats = trainable.features(np.concatenate([rows_v, n_vis + rows_r]))
        except TrainingDivergedError as err:
            raise TrainingDivergedError(f"epoch {epoch}, batch {batch}: {err}") from None
        fv, fr = feats[local_v], feats[rows_v.size + local_r]
        # per modality, each row's terms accumulate in this order, samples in turn
        buf_v, buf_r = np.zeros((rows_v.size, fv.shape[1])), np.zeros((rows_r.size, fr.shape[1]))

        l_v, g_v = cluster_nce(fv, state.labels_v.labels[vis_idx], state.wbank_v, cfg.tau)
        np.add.at(buf_v, local_v, g_v)
        l_r, g_r = cluster_nce(fr, state.labels_r.labels[inf_idx], state.wbank_r, cfg.tau)
        np.add.at(buf_r, local_r, g_r)

        joint = state.labels_joint.labels
        labs_vr = np.concatenate([joint[vis_idx], joint[n_vis + inf_idx]])
        l_vr, g_vr = cluster_nce(np.vstack([fv, fr]), labs_vr, state.wbank_joint, cfg.tau)
        np.add.at(buf_v, local_v, g_vr[: vis_idx.size])
        np.add.at(buf_r, local_r, g_vr[vis_idx.size :])

        l_intra = 0.0
        if do_intra:
            li_v, gi_v = intra_alignment(fv, state.labels_v.labels[vis_idx], state.wbank_v)
            li_r, gi_r = intra_alignment(fr, state.labels_r.labels[inf_idx], state.wbank_r)
            l_intra = li_v + li_r
            np.add.at(buf_v, local_v, cfg.lambda_intra * gi_v)
            np.add.at(buf_r, local_r, cfg.lambda_intra * gi_r)

        l_inter = 0.0
        if do_inter:
            l_inter, vg, ig = inter_loss(
                fv.reshape(used.size, cfg.per_id_visible, -1),
                fr.reshape(used.size, cfg.per_id_infrared, -1),
                cfg.mmd_sigma,
            )
            np.add.at(buf_v, local_v, cfg.lambda_inter * vg.reshape(fv.shape))
            np.add.at(buf_r, local_r, cfg.lambda_inter * ig.reshape(fr.shape))

        try:
            trainable.apply_step(buf_v, buf_r, rows_v, rows_r)
        except TrainingDivergedError as err:
            raise TrainingDivergedError(f"epoch {epoch}, batch {batch}: {err}") from None
        for term, value in zip(terms, (l_v, l_r, l_vr, l_intra, l_inter)):
            sums[term] += value

    losses = LossReport(
        **{term: total / n_batches for term, total in sums.items()},
        lambda_intra=cfg.lambda_intra,
        lambda_inter=cfg.lambda_inter,
    )
    return replace(state, losses=losses, shortfall=shortfall)
