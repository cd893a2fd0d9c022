"""Which memmatch functions the traced run wraps, and the per-layer metrics
derived from their spans and counts.

Functions are wrapped at the names ``memmatch.pipeline`` calls them by, so a
span sits at each boundary the training loop crosses.  The two calls inside
``cluster_joint`` are wrapped in ``memmatch.clustering``, and the per-batch
methods on their classes.  Span names are ``<layer>.<function>``, where the
layer is the memmatch module the function lives in.
"""
from __future__ import annotations

import numpy as np

from tracing import OVERHEAD, Timeline, Tracer, percentile_report, self_times

ROOT = "run_training"
LAYERS = ("clustering", "matching", "reliability", "objective", "metrics")


def _arg(args, kwargs, i: int, name: str):
    return args[i] if len(args) > i else kwargs[name]


def _count_distance(counts, args, kwargs, result, exc):
    if result is not None:
        n = len(result)
        counts["clustering.distance_bytes"] += 8.0 * n * n


def _count_dbscan(counts, args, kwargs, result, exc):
    if result is None:
        return
    dist, eps = _arg(args, kwargs, 0, "dist"), _arg(args, kwargs, 1, "eps")
    n = len(result)
    counts["clustering.eps_pairs"] += float(np.count_nonzero(dist.d <= eps))
    counts["clustering.pairs"] += float(n) * n
    counts["clustering.points"] += n
    counts["clustering.noise"] += int(np.count_nonzero(result.labels < 0))
    counts["clustering.clusters"] += result.cluster_count


def _count_cost(counts, args, kwargs, result, exc):
    vis, inf = _arg(args, kwargs, 0, "vis"), _arg(args, kwargs, 1, "inf")
    active_v = np.count_nonzero(vis.occupancy > 0, axis=1)
    active_r = np.count_nonzero(inf.occupancy > 0, axis=1)
    counts["matching.cost_cells"] += vis.cluster_count * inf.cluster_count
    counts["matching.subpair_dists"] += float(active_v.sum()) * float(active_r.sum())


def _count_assign(counts, args, kwargs, result, exc):
    if result is not None:
        counts["matching.assign_p"] = max(counts["matching.assign_p"], max(result.cost.shape))


def _count_gmm(counts, args, kwargs, result, exc):
    counts["reliability.gmm_calls"] += 1
    if exc is not None:
        if type(exc).__name__ == "DegenerateLossError":
            counts["reliability.gmm_fallbacks"] += 1
    else:
        counts["reliability.gmm_iters"] += result.iterations


def _count_add_rows(counts, args, kwargs, result, exc):
    counts["objective.rows"] += len(_arg(args, kwargs, 1, "rows"))


def _count_pk(counts, args, kwargs, result, exc):
    if result is not None:
        vis_idx, inf_idx, _, shortfall = result
        counts["pipeline.batch_rows"] += len(vis_idx) + len(inf_idx)
        counts["pipeline.shortfall_batches"] += shortfall > 0


def _count_step(counts, args, kwargs, result, exc):
    grad_v, grad_r = _arg(args, kwargs, 1, "grad_v"), _arg(args, kwargs, 2, "grad_r")
    counts["pipeline.step_rows"] += grad_v.shape[0] + grad_r.shape[0]


def _count_epoch(counts, args, kwargs, result, exc):
    if result is not None:
        counts["matching.flips"] += bool(result.flipped)


def _count_retrieval(counts, args, kwargs, result, exc):
    query, gallery = _arg(args, kwargs, 0, "query"), _arg(args, kwargs, 1, "gallery")
    counts["metrics.retrieval_cells"] += float(len(query)) * len(gallery)


def _table_cells(pred: np.ndarray, truth: np.ndarray) -> tuple[int, int]:
    """(non-zero, all) cells of the contingency table ARI builds, with each
    noise sample its own singleton cluster."""
    pred = pred.copy()
    noise = pred < 0
    pred[noise] = pred.max(initial=-1) + 1 + np.arange(int(noise.sum()))
    _, pi = np.unique(pred, return_inverse=True)
    _, ti = np.unique(truth, return_inverse=True)
    nonzero = np.unique(pi * (ti.max() + 1) + ti).size
    return nonzero, (pi.max() + 1) * (ti.max() + 1)


def _count_ari(counts, args, kwargs, result, exc):
    lab_v, lab_r = _arg(args, kwargs, 0, "vis_labels"), _arg(args, kwargs, 1, "inf_labels")
    vis, inf = _arg(args, kwargs, 2, "visible"), _arg(args, kwargs, 3, "infrared")
    pairs = (
        (lab_v.labels, vis.true_identity),
        (lab_r.labels, inf.true_identity),
        (
            np.concatenate([lab_v.labels, lab_r.labels]),
            np.concatenate([vis.true_identity, inf.true_identity]),
        ),
    )
    for pred, truth in pairs:
        nonzero, cells = _table_cells(np.asarray(pred), np.asarray(truth))
        counts["metrics.ari_nonzero_cells"] += nonzero
        counts["metrics.ari_cells"] += cells


def install(tracer: Tracer) -> None:
    """Wrap every traced memmatch function; ``tracer.restore`` undoes it."""
    from memmatch import clustering, objective, pipeline

    module_calls = (
        (clustering, "pairwise_cosine_distance", "clustering.distance", _count_distance),
        (clustering, "dbscan", "clustering.dbscan", _count_dbscan),
        (pipeline, "cluster_joint", "clustering.cluster_joint", None),
        (pipeline, "build_memory", "clustering.build_memory", None),
        (pipeline, "sub_cluster", "clustering.sub_cluster", None),
        (pipeline, "multi_memory_cost", "matching.cost", _count_cost),
        (pipeline, "solve_assignment", "matching.assign", _count_assign),
        (pipeline, "transfer_labels", "matching.transfer", None),
        (pipeline, "id_loss", "reliability.id_loss", None),
        (pipeline, "fit_gmm2", "reliability.gmm", _count_gmm),
        (pipeline, "confidence", "reliability.confidence", None),
        (pipeline, "uniform_confidence", "reliability.uniform_confidence", None),
        (pipeline, "cluster_nce", "objective.nce", None),
        (pipeline, "intra_alignment", "objective.intra", None),
        (pipeline, "inter_loss", "objective.inter", None),
        (pipeline, "retrieval_eval", "metrics.retrieval", _count_retrieval),
        (pipeline, "ari_report", "metrics.ari", _count_ari),
        (pipeline, "pk_sample", "pipeline.pk_sample", _count_pk),
        (pipeline, "run_epoch", "pipeline.run_epoch", _count_epoch),
    )
    for owner, attr, name, count in module_calls:
        tracer.wrap(owner, attr, name, count)
    trainable = getattr(pipeline, "TrainableEmbeddings", None)
    buffer = getattr(objective, "GradientBuffer", None)
    for owner, attr, name, count in (
        (trainable, "sets", "pipeline.sets", None),
        (trainable, "apply_step", "pipeline.apply_step", _count_step),
        (buffer, "add_rows", "objective.add_rows", _count_add_rows),
    ):
        if owner is None:
            tracer.missing.add(name)
        else:
            tracer.wrap(owner, attr, name, count)


def _ratio(num: float, den: float):
    return num / den if den else 0.0


def epoch_windows(tl: Timeline) -> list[tuple[int, float, float, float]]:
    """Per training epoch: (run_epoch span, its start, first pk_sample start,
    last apply_step end).  The evaluation-only pass has no batches."""
    out = []
    for e in tl.by_name["pipeline.run_epoch"]:
        pks = tl.within("pipeline.pk_sample", e)
        steps = tl.within("pipeline.apply_step", e)
        if pks and steps:
            out.append((e, tl.spans[e][1], tl.spans[pks[0]][1], tl.spans[steps[-1]][2]))
    return out


def step_gaps(tl: Timeline) -> list[float]:
    """Seconds between consecutive apply_step ends within one epoch, net of
    tracer overhead."""
    gaps = []
    for e, _, _, _ in epoch_windows(tl):
        ends = [tl.spans[i][2] for i in tl.within("pipeline.apply_step", e)]
        gaps.extend(tl.net(a, b) for a, b in zip(ends, ends[1:]))
    return gaps


def derive(tracer: Tracer) -> tuple[dict, list[float]]:
    """Per-layer metrics ``{name: (value, unit)}`` of one traced run, plus
    its raw step gaps (pooled across runs before taking percentiles)."""
    spans, c = tracer.spans, tracer.counts
    tl = Timeline(spans)
    selfs = self_times(spans)
    total = sum(tl.net(spans[i][1], spans[i][2]) for i in tl.by_name[ROOT])
    windows = epoch_windows(tl)
    epochs = tl.by_name["pipeline.run_epoch"]
    batch_loop = sum(tl.net(first, last) for _, _, first, last in windows)
    dist, db, cost, gmm = "clustering.distance", "clustering.dbscan", "matching.cost", "reliability.gmm"
    pk, step, epoch = "pipeline.pk_sample", "pipeline.apply_step", "pipeline.run_epoch"
    # (metric, unit, spans it needs, value): null when a needed function is
    # missing from the code or its count hook could not read the call.
    rows = [
        ("clustering.distance_s", "s", [dist], tl.busy(dist)),
        ("clustering.distance_bytes", "bytes", [dist], c["clustering.distance_bytes"]),
        ("clustering.dbscan_s", "s", [db], tl.busy(db)),
        ("clustering.eps_pair_frac", "ratio", [db], _ratio(c["clustering.eps_pairs"], c["clustering.pairs"])),
        ("clustering.noise_frac", "ratio", [db], _ratio(c["clustering.noise"], c["clustering.points"])),
        ("clustering.clusters", "count", [db], c["clustering.clusters"]),
        ("clustering.cluster_joint_self_s", "s", ["clustering.cluster_joint"],
         sum(selfs[i] for i in tl.by_name["clustering.cluster_joint"])),
        ("clustering.sub_cluster_s", "s", ["clustering.sub_cluster"], tl.busy("clustering.sub_cluster")),
        ("clustering.build_memory_s", "s", ["clustering.build_memory"], tl.busy("clustering.build_memory")),
        ("matching.cost_s", "s", [cost], tl.busy(cost)),
        ("matching.cost_cells", "count", [cost], c["matching.cost_cells"]),
        ("matching.subpair_dists", "count", [cost], c["matching.subpair_dists"]),
        ("matching.assign_s", "s", ["matching.assign"], tl.busy("matching.assign")),
        ("matching.assign_p", "count", ["matching.assign"], c["matching.assign_p"]),
        ("matching.transfer_s", "s", ["matching.transfer"], tl.busy("matching.transfer")),
        ("matching.flips", "count", [epoch], c["matching.flips"]),
        ("reliability.id_loss_s", "s", ["reliability.id_loss"], tl.busy("reliability.id_loss")),
        ("reliability.gmm_s", "s", [gmm], tl.busy(gmm)),
        ("reliability.gmm_iters", "count", [gmm], c["reliability.gmm_iters"]),
        ("reliability.gmm_fallback_frac", "ratio", [gmm],
         _ratio(c["reliability.gmm_fallbacks"], c["reliability.gmm_calls"])),
        ("reliability.confidence_s", "s", ["reliability.confidence", "reliability.uniform_confidence"],
         tl.busy("reliability.confidence") + tl.busy("reliability.uniform_confidence")),
        ("objective.nce_s", "s", ["objective.nce"], tl.busy("objective.nce")),
        ("objective.intra_s", "s", ["objective.intra"], tl.busy("objective.intra")),
        ("objective.inter_s", "s", ["objective.inter"], tl.busy("objective.inter")),
        ("objective.add_rows_s", "s", ["objective.add_rows"], tl.busy("objective.add_rows")),
        ("objective.rows", "count", ["objective.add_rows"], c["objective.rows"]),
        ("pipeline.analysis_s", "s", [epoch, pk], sum(tl.net(start, first) for _, start, first, _ in windows)),
        ("pipeline.batch_loop_s", "s", [pk, step], batch_loop),
        ("pipeline.batches", "count", [step], len(tl.by_name[step])),
        ("pipeline.sets_s", "s", ["pipeline.sets"], tl.busy("pipeline.sets")),
        ("pipeline.apply_step_s", "s", [step], tl.busy(step)),
        ("pipeline.pk_sample_s", "s", [pk], tl.busy(pk)),
        ("pipeline.rows_useful_frac", "ratio", [pk, step], _ratio(c["pipeline.batch_rows"], c["pipeline.step_rows"])),
        ("pipeline.shortfall_batches", "count", [pk], c["pipeline.shortfall_batches"]),
        ("pipeline.final_eval_s", "s", [epoch], tl.net(spans[epochs[-1]][1], spans[epochs[-1]][2]) if epochs else 0.0),
        ("metrics.retrieval_s", "s", ["metrics.retrieval"], tl.busy("metrics.retrieval")),
        ("metrics.retrieval_cells", "count", ["metrics.retrieval"], c["metrics.retrieval_cells"]),
        ("metrics.ari_s", "s", ["metrics.ari"], tl.busy("metrics.ari")),
        ("metrics.ari_nonzero_frac", "ratio", ["metrics.ari"],
         _ratio(c["metrics.ari_nonzero_cells"], c["metrics.ari_cells"])),
    ]
    rows += [(f"{layer}.share", "ratio", [], _ratio(tl.layer_busy(layer), total)) for layer in LAYERS]
    rows.append(("pipeline.batch_loop_share", "ratio", [pk, step], _ratio(batch_loop, total)))
    unavailable = tracer.missing | tracer.broken
    out = {
        name: (None if unavailable.intersection(needs) else float(value), unit)
        for name, unit, needs, value in rows
    }
    out["trace.train_s"] = (total, "s")
    out["trace.count_s"] = (sum(spans[i][2] - spans[i][1] for i in tl.by_name[OVERHEAD]), "s")
    out["trace.spans"] = (float(len(spans)), "count")
    gaps = [] if step in unavailable else step_gaps(tl)
    return out, gaps


def step_percentiles(gaps: list[float]) -> dict:
    return percentile_report("pipeline.step_ms", gaps)
