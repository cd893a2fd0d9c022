"""Desk-scale training loop over free embedding parameters.

Per epoch: re-cluster everything, build memories, sub-cluster and match the
two modalities, transfer labels into the shared space, weigh samples by GMM
confidence, rebuild weighted memories, then run PK-sampled batches of SGD on
the raw embedding parameters (gradients are chain-ruled through the row
normalization).  The only randomness is the PK sampler's, the named stream
"sampler" of cfg.seed (clustering and k-means are deterministic); synthetic
data draws from its own stream, "synth" of SynthSpec.seed.
"""
from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np

from .clustering import build_memory, cluster_joint, sub_cluster
from .matching import multi_memory_cost, solve_assignment, transfer_labels
from .metrics import RetrievalReport, ari_report, retrieval_eval
from .model import (
    INFRARED,
    VISIBLE,
    Assignment,
    ConfidenceWeights,
    EmbeddingSet,
    MemoryBank,
    PipelineConfig,
    PseudoLabeling,
    concat_sets,
    normalize_rows,
    validate,
)
from .objective import (
    GradientBuffer,
    LossReport,
    cluster_nce,
    compose_report,
    inter_loss,
    intra_alignment,
)
from .reliability import (
    DegenerateLossError,
    IdLossVector,
    confidence,
    fit_gmm2,
    id_loss,
    uniform_confidence,
)
from .rng import named_stream


class ClusteringCollapseError(RuntimeError):
    """A required scope produced zero clusters (eps is likely mis-set)."""


class TrainingDivergedError(RuntimeError):
    """A parameter row stopped being finite (the step is likely too large)."""


@dataclass(frozen=True)
class MetricReport:
    ari_rgb: float
    ari_ir: float
    ari_all: float
    retrieval: RetrievalReport

    def csv_row(self) -> str:
        return self.retrieval.csv_row((self.ari_rgb, self.ari_ir, self.ari_all))


@dataclass(frozen=True)
class EpochState:
    """Everything one epoch produced; immutable snapshot.

    ``visible``/``infrared`` are the features the epoch started from and
    ``labels_*_raw`` each modality's own clustering.  ``labels_v``/``labels_r``
    and the weighted banks ``wbank_*`` live in the shared label space after
    matching (``assignment`` is None when matching is off); ``losses`` are
    the per-batch means (zeros for an evaluation-only pass).
    """

    epoch: int
    visible: EmbeddingSet
    infrared: EmbeddingSet
    labels_v_raw: PseudoLabeling
    labels_r_raw: PseudoLabeling
    labels_v: PseudoLabeling
    labels_r: PseudoLabeling
    labels_joint: PseudoLabeling
    assignment: Assignment | None
    id_v: IdLossVector
    id_r: IdLossVector
    id_vr: IdLossVector
    conf_v: ConfidenceWeights
    conf_r: ConfidenceWeights
    conf_vr: ConfidenceWeights
    wbank_v: MemoryBank
    wbank_r: MemoryBank
    wbank_joint: MemoryBank
    losses: LossReport
    metrics: MetricReport | None
    notes: tuple[str, ...]

    @property
    def flipped(self) -> bool:
        """Whether matching ran infrared-as-rows (fewer visible clusters)."""
        return self.assignment is not None and self.assignment.flipped


@dataclass(frozen=True)
class EpochSummary:
    """What ``TrainingResult.history`` keeps of a training epoch."""

    epoch: int
    losses: LossReport
    metrics: MetricReport | None
    notes: tuple[str, ...]

    @classmethod
    def of(cls, state: EpochState) -> EpochSummary:
        return cls(epoch=state.epoch, losses=state.losses, metrics=state.metrics, notes=state.notes)


class TrainableEmbeddings:
    """Free N x d parameters per modality standing in for a feature extractor.

    Downstream consumers only ever see the row-normalized view; gradient
    steps go through the normalization's Jacobian, then SGD with momentum mu
    and weight decay lam at learning rate eta on the raw parameters, the
    three fixed from ``cfg`` at construction.

    A step costs O(batch), not O(N d).  A row the step leaves out has zero
    gradient, so its (theta, v) moves by one fixed linear map:
    theta' = (1 - eta lam) theta - eta mu v and v' = lam theta + mu v, i.e.
    A = [[1 - eta lam, -eta mu], [lam, mu]].  Each row records the step it
    is current at and is caught up with A^lag when it is next read, by
    ``features`` (a batch) or ``sets`` (an epoch start), or stepped.  Rows of
    ``params`` and ``velocity`` are therefore stale until read.  A row whose
    norm stops being finite, after a step or a catch-up, raises
    ``TrainingDivergedError``.
    """

    def __init__(self, visible: EmbeddingSet, infrared: EmbeddingSet, cfg: PipelineConfig):
        self.params = {"v": visible.features.copy(), "r": infrared.features.copy()}
        self.velocity = {k: np.zeros_like(p) for k, p in self.params.items()}
        # read-only arrays, shared with the inputs and every set ``sets`` makes
        self.modality = {"v": visible.modality, "r": infrared.modality}
        self.truth = {"v": visible.true_identity, "r": infrared.true_identity}
        lr, mu, lam = cfg.learning_rate, cfg.momentum, cfg.weight_decay
        self.learning_rate, self.momentum, self.weight_decay = lr, mu, lam
        self.steps = 0
        self._current = {k: np.zeros(len(p), np.int64) for k, p in self.params.items()}
        self._map = np.array([[1.0 - lr * lam, -lr * mu], [lam, mu]])
        self._powers = np.eye(2)[None]  # _powers[k] = A^k, grown on demand

    def _power(self, lag: np.ndarray) -> np.ndarray:
        have = len(self._powers)
        need = int(lag.max()) + 1
        if need > have:
            grown = np.empty((max(need, 2 * have), 2, 2))
            grown[:have] = self._powers
            for k in range(have, len(grown)):
                grown[k] = self._map @ grown[k - 1]
            self._powers = grown
        return self._powers[lag]

    def _check(self, key: str, rows: np.ndarray, after: str) -> None:
        sq_norms = np.square(self.params[key][rows]).sum(axis=1)
        bad = np.flatnonzero(~np.isfinite(sq_norms))
        if bad.size:
            norm = float(np.sqrt(sq_norms[bad[0]]))
            raise TrainingDivergedError(
                f"modality {key!r} row {int(rows[bad[0]])} has parameter norm {norm!r} after {after} "
                f"(learning_rate={self.learning_rate}, weight_decay={self.weight_decay}, momentum={self.momentum})"
            )

    def _catch_up(self, key: str, rows: np.ndarray) -> None:
        lag = self.steps - self._current[key][rows]
        stale = lag > 0
        if not stale.any():
            return
        rows, a = rows[stale], self._power(lag[stale])[..., None]
        theta, vel = self.params[key][rows], self.velocity[key][rows]
        self.params[key][rows] = a[:, 0, 0] * theta + a[:, 0, 1] * vel
        self.velocity[key][rows] = a[:, 1, 0] * theta + a[:, 1, 1] * vel
        self._current[key][rows] = self.steps
        self._check(key, rows, "catch-up")

    def features(self, key: str, rows: np.ndarray) -> np.ndarray:
        """Row-normalized current parameters of modality ``key``'s rows."""
        self._catch_up(key, rows)
        return normalize_rows(self.params[key][rows])

    def sets(self) -> tuple[EmbeddingSet, EmbeddingSet]:
        out = []
        for key in ("v", "r"):
            self._catch_up(key, np.arange(len(self.params[key])))
            features = normalize_rows(self.params[key])
            features.setflags(write=False)  # so the set adopts it without a copy
            out.append(
                EmbeddingSet(
                    features=features,
                    modality=self.modality[key],
                    true_identity=self.truth[key],
                )
            )
        return out[0], out[1]

    def apply_step(
        self, grad_v: np.ndarray, grad_r: np.ndarray, rows_v: np.ndarray, rows_r: np.ndarray
    ) -> None:
        """One SGD step.  ``grad_v[i]`` is the gradient w.r.t. the normalized
        view of the distinct visible row ``rows_v[i]`` (likewise infrared);
        every other row has zero gradient and is caught up when read."""
        for key, grad, rows in (("v", grad_v, rows_v), ("r", grad_r, rows_r)):
            self._catch_up(key, rows)
            theta = self.params[key][rows]
            norms = np.maximum(np.linalg.norm(theta, axis=1, keepdims=True), 1e-12)
            unit = theta / norms
            # d(theta/|theta|)/dtheta applied to the normalized-view gradient
            g_theta = (grad - (grad * unit).sum(axis=1, keepdims=True) * unit) / norms
            g_theta = g_theta + self.weight_decay * theta
            velocity = self.momentum * self.velocity[key][rows] + g_theta
            self.velocity[key][rows] = velocity
            self.params[key][rows] = theta - self.learning_rate * velocity
            self._current[key][rows] = self.steps + 1
            self._check(key, rows, "a step")
        self.steps += 1


def pk_sample(
    vis_labels: PseudoLabeling,
    inf_labels: PseudoLabeling,
    cfg: PipelineConfig,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """One PK batch from the shared label space.

    Picks cfg.batch_ids labels occupied on both sides (all of them, with the
    shortfall reported, when fewer exist), then per label per_id_visible
    visible and per_id_infrared infrared samples; a side with fewer members
    than requested is sampled with replacement.  Both labelings are
    contiguous, so the labels occupied on both sides are
    0..min(cluster counts)-1.  The rows come label-major: the visible rows
    of the i-th chosen label are ``vis_idx[i * per_id_visible:][:per_id_visible]``.
    """
    shared = np.arange(min(vis_labels.cluster_count, inf_labels.cluster_count))
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
        members_v = vis_labels.members(int(label))
        members_r = inf_labels.members(int(label))
        vis_idx.append(
            rng.choice(members_v, size=cfg.per_id_visible, replace=members_v.size < cfg.per_id_visible)
        )
        inf_idx.append(
            rng.choice(members_r, size=cfg.per_id_infrared, replace=members_r.size < cfg.per_id_infrared)
        )
    return np.concatenate(vis_idx), np.concatenate(inf_idx), np.asarray(chosen), shortfall


@contextmanager
def _diverged_at(where: str):
    """Prefix a TrainingDivergedError raised inside with where it happened."""
    try:
        yield
    except TrainingDivergedError as err:
        raise TrainingDivergedError(f"{where}: {err}") from None


def _weigh(
    es: EmbeddingSet, labels: PseudoLabeling, cfg: PipelineConfig
) -> tuple[IdLossVector, ConfidenceWeights, MemoryBank]:
    """One scope's id-losses against its plain cluster memories, their GMM
    confidence (uniform when weighting is off or the fit is degenerate), and
    the memories rebuilt with those weights."""
    losses = id_loss(es, labels, build_memory(es, labels), cfg.tau)
    try:
        fit = fit_gmm2(losses) if cfg.gmm_weighting else None
    except DegenerateLossError:
        fit = None
    conf = uniform_confidence(losses) if fit is None else confidence(losses, fit)
    return losses, conf, build_memory(es, labels, conf)


_LOSS_TERMS = ("l_v", "l_r", "l_vr", "l_intra", "l_inter")


def _mean_losses(cfg: PipelineConfig, epoch: int, sums: dict[str, float], n_batches: int) -> LossReport:
    denom = max(n_batches, 1)
    return compose_report(
        **{term: total / denom for term, total in sums.items()},
        lambda_intra=cfg.lambda_intra,
        lambda_inter=cfg.lambda_inter,
        epoch=epoch,
        intra_start_epoch=cfg.intra_start_epoch,
        inter_start_epoch=cfg.inter_start_epoch,
    )


def _metric_report(
    visible: EmbeddingSet, infrared: EmbeddingSet, labels_v: PseudoLabeling, labels_r: PseudoLabeling
) -> MetricReport | None:
    if visible.true_identity is None or infrared.true_identity is None:
        return None
    rgb, ir, all_ = ari_report(labels_v, labels_r, visible, infrared)
    retrieval = retrieval_eval(query=infrared, gallery=visible)
    return MetricReport(ari_rgb=rgb, ari_ir=ir, ari_all=all_, retrieval=retrieval)


def _analyze(trainable: TrainableEmbeddings, cfg: PipelineConfig, epoch: int) -> EpochState:
    """The epoch-start half: cluster, match, weigh and evaluate.  The state
    returned is that of an evaluation-only pass (zero losses)."""
    with _diverged_at(f"epoch {epoch}, at its start"):
        visible, infrared = trainable.sets()
    labels_v_raw, labels_r_raw, labels_joint = cluster_joint(visible, infrared, cfg)
    for lab in (labels_v_raw, labels_r_raw, labels_joint):
        if lab.cluster_count == 0:
            raise ClusteringCollapseError(
                f"epoch {epoch}: clustering produced zero clusters in scope {lab.scope!r} ({len(lab)} "
                f"samples, dbscan_eps={cfg.dbscan_eps}, dbscan_min_samples={cfg.dbscan_min_samples})"
            )

    notes: tuple[str, ...] = ()
    assignment = None
    labels_v, labels_r = labels_v_raw, labels_r_raw
    if cfg.use_matching:
        cost = multi_memory_cost(
            sub_cluster(visible, labels_v_raw, cfg.n_memories), sub_cluster(infrared, labels_r_raw, cfg.n_memories)
        )
        assignment = solve_assignment(cost)
        labels_v, labels_r = transfer_labels(labels_v_raw, labels_r_raw, assignment)
        if assignment.flipped:
            notes = (
                f"epoch {epoch}: matching flipped (visible clusters "
                f"{labels_v_raw.cluster_count} < infrared {labels_r_raw.cluster_count}); "
                "infrared labels were transferred into the visible space",
            )
    id_v, conf_v, wbank_v = _weigh(visible, labels_v, cfg)
    id_r, conf_r, wbank_r = _weigh(infrared, labels_r, cfg)
    id_vr, conf_vr, wbank_joint = _weigh(concat_sets(visible, infrared), labels_joint, cfg)
    return EpochState(
        epoch=epoch,
        visible=visible,
        infrared=infrared,
        labels_v_raw=labels_v_raw,
        labels_r_raw=labels_r_raw,
        labels_v=labels_v,
        labels_r=labels_r,
        labels_joint=labels_joint,
        assignment=assignment,
        id_v=id_v,
        id_r=id_r,
        id_vr=id_vr,
        conf_v=conf_v,
        conf_r=conf_r,
        conf_vr=conf_vr,
        wbank_v=wbank_v,
        wbank_r=wbank_r,
        wbank_joint=wbank_joint,
        losses=_mean_losses(cfg, epoch, dict.fromkeys(_LOSS_TERMS, 0.0), 0),
        metrics=_metric_report(visible, infrared, labels_v, labels_r),
        notes=notes,
    )


def batches_per_epoch(cfg: PipelineConfig, n_visible: int, n_infrared: int) -> int:
    batch = cfg.batch_ids * (cfg.per_id_visible + cfg.per_id_infrared)
    return max(1, (n_visible + n_infrared) // batch)


def run_epoch(
    trainable: TrainableEmbeddings,
    cfg: PipelineConfig,
    epoch: int,
    sampler: np.random.Generator,
    train: bool = True,
) -> EpochState:
    """One full epoch; with train=False only the analysis/metrics half runs."""
    state = _analyze(trainable, cfg, epoch)
    if not train:
        return state

    n_vis, n_inf = len(state.visible), len(state.infrared)
    do_intra = epoch >= cfg.intra_start_epoch and cfg.lambda_intra > 0
    do_inter = epoch >= cfg.inter_start_epoch and cfg.lambda_inter > 0
    n_batches = batches_per_epoch(cfg, n_vis, n_inf)
    sums = dict.fromkeys(_LOSS_TERMS, 0.0)
    notes: list[str] = []
    for batch in range(1, n_batches + 1):
        vis_idx, inf_idx, used, shortfall = pk_sample(state.labels_v, state.labels_r, cfg, sampler)
        if shortfall and not notes:  # the shortfall note is the loop's only note
            notes.append(
                f"epoch {epoch}: only {used.size} shared labels for batch_ids={cfg.batch_ids} "
                f"(shortfall {shortfall})"
            )
        # gradients are kept per distinct batch row: local_v[i] is the
        # buffer row of sample vis_idx[i]
        rows_v, local_v = np.unique(vis_idx, return_inverse=True)
        rows_r, local_r = np.unique(inf_idx, return_inverse=True)
        with _diverged_at(f"epoch {epoch}, batch {batch}"):
            fv = trainable.features("v", rows_v)[local_v]
            fr = trainable.features("r", rows_r)[local_r]
        buf_v = GradientBuffer.zeros(rows_v.size, fv.shape[1])
        buf_r = GradientBuffer.zeros(rows_r.size, fr.shape[1])

        l_v, g_v = cluster_nce(fv, state.labels_v.labels[vis_idx], state.wbank_v, cfg.tau)
        buf_v.add_rows(local_v, g_v)
        l_r, g_r = cluster_nce(fr, state.labels_r.labels[inf_idx], state.wbank_r, cfg.tau)
        buf_r.add_rows(local_r, g_r)

        jl_v = state.labels_joint.labels[vis_idx]
        jl_r = state.labels_joint.labels[n_vis + inf_idx]
        keep_v, keep_r = jl_v >= 0, jl_r >= 0
        l_vr = 0.0
        if keep_v.any() or keep_r.any():
            feats_vr = np.vstack([fv[keep_v], fr[keep_r]])
            labs_vr = np.concatenate([jl_v[keep_v], jl_r[keep_r]])
            l_vr, g_vr = cluster_nce(feats_vr, labs_vr, state.wbank_joint, cfg.tau)
            split = int(keep_v.sum())
            buf_v.add_rows(local_v[keep_v], g_vr[:split])
            buf_r.add_rows(local_r[keep_r], g_vr[split:])

        l_intra = 0.0
        if do_intra:
            li_v, gi_v = intra_alignment(fv, state.labels_v.labels[vis_idx], state.wbank_v)
            li_r, gi_r = intra_alignment(fr, state.labels_r.labels[inf_idx], state.wbank_r)
            l_intra = li_v + li_r
            buf_v.add_rows(local_v, cfg.lambda_intra * gi_v)
            buf_r.add_rows(local_r, cfg.lambda_intra * gi_r)

        l_inter = 0.0
        if do_inter:
            # pk_sample's rows are label-major, so each label's group is a block
            l_inter, vg, ig = inter_loss(
                fv.reshape(used.size, cfg.per_id_visible, -1),
                fr.reshape(used.size, cfg.per_id_infrared, -1),
                cfg.mmd_sigma,
            )
            buf_v.add_rows(local_v, cfg.lambda_inter * vg.reshape(fv.shape))
            buf_r.add_rows(local_r, cfg.lambda_inter * ig.reshape(fr.shape))

        with _diverged_at(f"epoch {epoch}, batch {batch}"):
            trainable.apply_step(buf_v.g, buf_r.g, rows_v, rows_r)
        for term, value in zip(_LOSS_TERMS, (l_v, l_r, l_vr, l_intra, l_inter)):
            sums[term] += value

    return replace(
        state, losses=_mean_losses(cfg, epoch, sums, n_batches), notes=state.notes + tuple(notes)
    )


@dataclass(frozen=True)
class TrainingResult:
    """A summary per training epoch in ``history``; one full state, ``final``."""

    config: PipelineConfig
    history: tuple[EpochSummary, ...]
    final: EpochState
    tags: tuple[str, ...]


def config_tags(cfg: PipelineConfig) -> tuple[str, ...]:
    tags = []
    if cfg.n_memories == 1:
        tags.append("baseline-matching")
    if not cfg.use_matching and cfg.lambda_intra == 0 and cfg.lambda_inter == 0 and not cfg.gmm_weighting:
        tags.append("cmc-baseline")
    return tuple(tags)


def run_training(
    visible: EmbeddingSet, infrared: EmbeddingSet, cfg: PipelineConfig
) -> TrainingResult:
    """Run cfg.epochs epochs then a final evaluation-only pass.

    epochs=0 degenerates to a pure evaluation of the initial embeddings.
    Invalid inputs raise ValueError before any work: a config that fails
    ``cfg.validate()``, an embedding set that fails ``validate``, or a set
    with a row not tagged with its own modality (swapped inputs).
    """
    problems = cfg.validate()
    if problems:
        raise ValueError("invalid config: " + "; ".join(problems))
    sets = (("visible", visible, VISIBLE), ("infrared", infrared, INFRARED))
    for name, embedding_set, _ in sets:
        problems = validate(embedding_set)
        if problems:
            raise ValueError(f"invalid {name} set: " + "; ".join(problems))
    for name, embedding_set, tag in sets:
        wrong = np.flatnonzero(embedding_set.modality != tag)
        if wrong.size:
            row, found = wrong[0], str(embedding_set.modality[wrong[0]])
            raise ValueError(f"invalid {name} set: row {row} has modality tag {found!r}, expected {tag!r}")
    trainable = TrainableEmbeddings(visible, infrared, cfg)
    sampler = named_stream(cfg.seed, "sampler")
    history = tuple(
        EpochSummary.of(run_epoch(trainable, cfg, epoch, sampler, train=True)) for epoch in range(1, cfg.epochs + 1)
    )
    final = run_epoch(trainable, cfg, cfg.epochs + 1, sampler, train=False)
    return TrainingResult(config=cfg, history=history, final=final, tags=config_tags(cfg))


def ablation_configs(base: PipelineConfig) -> list[tuple[str, PipelineConfig]]:
    """The five-step configuration lattice: CMC baseline, +matching, +intra,
    +inter, full."""
    on = replace(base, use_matching=True, gmm_weighting=True)
    return [
        (
            "baseline",
            replace(
                base,
                use_matching=False,
                gmm_weighting=False,
                n_memories=1,
                lambda_intra=0.0,
                lambda_inter=0.0,
            ),
        ),
        ("+mmlm", replace(base, use_matching=True, gmm_weighting=False, lambda_intra=0.0, lambda_inter=0.0)),
        ("+mmlm+intra", replace(on, lambda_inter=0.0)),
        ("+mmlm+inter", replace(on, lambda_intra=0.0)),
        ("full", on),
    ]

