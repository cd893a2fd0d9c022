"""Desk-scale training loop over free embedding parameters.

Per epoch: re-cluster everything, build memories, sub-cluster and match the
two modalities, transfer labels into the shared space, weigh samples by GMM
confidence, rebuild weighted memories, then run PK-sampled batches of SGD on
the raw embedding parameters (gradients are chain-ruled through the row
normalization).  The only randomness is the PK sampler's, the named stream
"sampler" of cfg.seed (clustering and k-means are deterministic); synthetic
data draws from its own stream, "synth" of SynthSpec.seed.

Batches are grouped, not reordered.  The epoch's PK batches are drawn
first, in order, then cut into maximal runs of consecutive batches whose
rows are pairwise disjoint, and each run is one stacked step.  This is
exact: labels and memories stay fixed for the epoch, so a batch's loss and
gradient read only its own rows, and an SGD update with momentum and weight
decay reads only its row's parameters, velocity and gradient.  So the batches
of a run cannot see each other's updates; each row is caught up to its
batch's step, stepped there, and the losses and per-row sums keep the
sequential order of terms.  A run of one batch is the plain per-batch step.
"""
from __future__ import annotations

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
    """A parameter row stopped being finite (the step is likely too large).

    ``step`` is the index of the step the row was caught up to or took."""

    def __init__(self, message: str, step: int | None = None):
        super().__init__(message)
        self.step = step


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
    ``params`` and ``velocity`` are therefore stale until read.

    One read and one ``apply_step`` may stand for several consecutive steps
    whose rows are pairwise disjoint: each row then carries the index of
    the step it belongs to, is caught up to that index and stamped one past
    it.  A row's update reads only its own parameters, velocity and
    gradient, and the catch-up replays exactly the zero-gradient steps in
    between, so this is the arithmetic of taking the steps one by one, bit
    for bit (updates with disjoint supports commute).

    A row whose norm stops being finite, after a catch-up or a step, raises
    ``TrainingDivergedError``.  A call checks its catch-ups, then its steps;
    each check names the row of the lowest step index, visible before
    infrared, then ascending row, and carries that index as ``step``.
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

    def _check(self, reads, after: str) -> None:
        """Raise for the earliest non-finite row of ``reads``, (key, rows, at)
        triples: the lowest step index, then the order of ``reads``, then
        the order of ``rows``."""
        first = None
        for key, rows, at in reads:
            sq_norms = np.square(self.params[key][rows]).sum(axis=1)
            bad = np.flatnonzero(~np.isfinite(sq_norms))
            if bad.size:
                i = bad[np.argmin(at[bad])]
                if first is None or at[i] < first[0]:
                    first = (int(at[i]), key, int(rows[i]), float(np.sqrt(sq_norms[i])))
        if first is not None:
            step, key, row, norm = first
            raise TrainingDivergedError(
                f"modality {key!r} row {row} has parameter norm {norm!r} after {after} "
                f"(learning_rate={self.learning_rate}, weight_decay={self.weight_decay}, momentum={self.momentum})",
                step=step,
            )

    def _catch_up(
        self, rows_v: np.ndarray, rows_r: np.ndarray, at: tuple[np.ndarray, np.ndarray] | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Bring the rows to their step indices ``at`` (default: the current
        step) and check those that moved; returns the indices."""
        if at is None:
            at = np.full(rows_v.shape, self.steps), np.full(rows_r.shape, self.steps)
        moved = []
        for key, rows, to in (("v", rows_v, at[0]), ("r", rows_r, at[1])):
            lag = to - self._current[key][rows]
            stale = lag > 0
            rows, to = rows[stale], to[stale]
            if rows.size:
                a = self._power(lag[stale])[..., None]
                theta, vel = self.params[key][rows], self.velocity[key][rows]
                self.params[key][rows] = a[:, 0, 0] * theta + a[:, 0, 1] * vel
                self.velocity[key][rows] = a[:, 1, 0] * theta + a[:, 1, 1] * vel
                self._current[key][rows] = to
            moved.append((key, rows, to))
        self._check(moved, "catch-up")
        return at

    def features(
        self, rows_v: np.ndarray, rows_r: np.ndarray, at: tuple[np.ndarray, np.ndarray] | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Row-normalized parameters of the visible ``rows_v`` and infrared
        ``rows_r``, each caught up to its step index in ``at`` (default: the
        current step)."""
        self._catch_up(rows_v, rows_r, at)
        return normalize_rows(self.params["v"][rows_v]), normalize_rows(self.params["r"][rows_r])

    def sets(self) -> tuple[EmbeddingSet, EmbeddingSet]:
        self._catch_up(np.arange(len(self.params["v"])), np.arange(len(self.params["r"])))
        out = []
        for key in ("v", "r"):
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
        self,
        grad_v: np.ndarray,
        grad_r: np.ndarray,
        rows_v: np.ndarray,
        rows_r: np.ndarray,
        at: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> None:
        """One SGD step.  ``grad_v[i]`` is the gradient w.r.t. the normalized
        view of the distinct visible row ``rows_v[i]`` (likewise infrared);
        every other row has zero gradient and is caught up when read.

        ``at`` gives each row the index of the step it takes (default: all
        the current step).  The call then stands for the steps up to the
        largest index, and rows of different steps must be disjoint."""
        at_v, at_r = self._catch_up(rows_v, rows_r, at)
        for key, grad, rows, stamp in (("v", grad_v, rows_v, at_v + 1), ("r", grad_r, rows_r, at_r + 1)):
            theta = self.params[key][rows]
            norms = np.maximum(np.linalg.norm(theta, axis=1, keepdims=True), 1e-12)
            unit = theta / norms
            # d(theta/|theta|)/dtheta applied to the normalized-view gradient
            g_theta = (grad - (grad * unit).sum(axis=1, keepdims=True) * unit) / norms
            g_theta = g_theta + self.weight_decay * theta
            velocity = self.momentum * self.velocity[key][rows] + g_theta
            self.velocity[key][rows] = velocity
            self.params[key][rows] = theta - self.learning_rate * velocity
            self._current[key][rows] = stamp
        self._check([("v", rows_v, at_v), ("r", rows_r, at_r)], "a step")
        self.steps = 1 + max(self.steps, int(at_v.max(initial=0)), int(at_r.max(initial=0)))


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
    try:
        visible, infrared = trainable.sets()
    except TrainingDivergedError as err:
        raise TrainingDivergedError(f"epoch {epoch}, at its start: {err}", err.step) from None
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


def _disjoint_runs(draws, n_visible: int, n_rows: int) -> list[list[int]]:
    """The epoch's batches cut into maximal runs of consecutive batches whose
    rows (visible and infrared, as joint indices) are pairwise disjoint."""
    run_of = np.full(n_rows, -1)  # the last run that drew each joint row
    runs: list[list[int]] = []
    for b, (vis_idx, inf_idx, _, _) in enumerate(draws):
        rows = np.concatenate([vis_idx, n_visible + inf_idx])
        if not runs or (run_of[rows] == len(runs) - 1).any():
            runs.append([])
        run_of[rows] = len(runs) - 1
        runs[-1].append(b)
    return runs


def _step_run(
    trainable: TrainableEmbeddings,
    state: EpochState,
    cfg: PipelineConfig,
    vis: np.ndarray,
    inf: np.ndarray,
    terms: tuple[bool, bool],
) -> np.ndarray:
    """One SGD step for each of B consecutive PK batches with pairwise
    disjoint rows, taken as one stacked step: ``vis`` (B, n) and ``inf``
    (B, m) are the batches' sampled rows.  Returns the (B, 5) loss terms."""
    n_batches, dim = len(vis), trainable.params["v"].shape[1]
    first = trainable.steps
    # gradients are kept per distinct row: local_v[b, i] is the buffer row of
    # sample vis[b, i]; each row belongs to one batch and steps at its index
    rows_v, local_v = np.unique(vis.ravel(), return_inverse=True)
    rows_r, local_r = np.unique(inf.ravel(), return_inverse=True)
    local_v, local_r = local_v.reshape(vis.shape), local_r.reshape(inf.shape)
    at_v, at_r = np.empty(rows_v.size, np.int64), np.empty(rows_r.size, np.int64)
    at_v[local_v] = at_r[local_r] = first + np.arange(n_batches)[:, None]
    try:
        fv, fr = trainable.features(rows_v, rows_r, at=(at_v, at_r))
    except TrainingDivergedError as err:
        if err.step > first:  # the batches before the failed read step first
            _step_run(trainable, state, cfg, vis[: err.step - first], inf[: err.step - first], terms)
        raise
    fv, fr = fv[local_v], fr[local_r]

    lab_v, lab_r = state.labels_v.labels[vis], state.labels_r.labels[inf]
    l_v, g_v = cluster_nce(fv, lab_v, state.wbank_v, cfg.tau)
    l_r, g_r = cluster_nce(fr, lab_r, state.wbank_r, cfg.tau)
    # one buffer for both modalities, infrared rows after the visible ones;
    # each sample's terms are added in the sequential order, nce first
    local = np.concatenate([local_v, rows_v.size + local_r], axis=1)
    grads = [(local, np.concatenate([g_v, g_r], axis=1))]

    # the joint scope drops noise rows, so batches stack by their kept count
    feats = np.concatenate([fv, fr], axis=1)
    joint = state.labels_joint.labels
    labels = np.concatenate([joint[vis], joint[len(state.visible) + inf]], axis=1)
    keep = labels >= 0
    kept = keep.sum(axis=1)
    l_vr = np.zeros(n_batches)
    for k in np.unique(kept[kept > 0]):
        sel = keep & (kept == k)[:, None]
        l_vr[kept == k], g_vr = cluster_nce(
            feats[sel].reshape(-1, k, dim), labels[sel].reshape(-1, k), state.wbank_joint, cfg.tau
        )
        grads.append((local[sel], g_vr))

    do_intra, do_inter = terms
    l_intra = np.zeros(n_batches)
    if do_intra:
        li_v, gi_v = intra_alignment(fv, lab_v, state.wbank_v)
        li_r, gi_r = intra_alignment(fr, lab_r, state.wbank_r)
        l_intra = li_v + li_r
        grads.append((local, cfg.lambda_intra * np.concatenate([gi_v, gi_r], axis=1)))

    l_inter = np.zeros(n_batches)
    if do_inter:
        # pk_sample's rows are label-major, so each label's group is a block
        labels_per_batch = vis.shape[1] // cfg.per_id_visible
        l_inter, vg, ig = inter_loss(
            fv.reshape(n_batches, labels_per_batch, cfg.per_id_visible, dim),
            fr.reshape(n_batches, labels_per_batch, cfg.per_id_infrared, dim),
            cfg.mmd_sigma,
        )
        g_inter = np.concatenate([vg.reshape(fv.shape), ig.reshape(fr.shape)], axis=1)
        grads.append((local, cfg.lambda_inter * g_inter))

    buf = GradientBuffer.zeros(rows_v.size + rows_r.size, dim)
    buf.add_rows(
        np.concatenate([i.ravel() for i, _ in grads]), np.concatenate([g.reshape(-1, dim) for _, g in grads])
    )
    trainable.apply_step(buf.g[: rows_v.size], buf.g[rows_v.size :], rows_v, rows_r, at=(at_v, at_r))
    return np.stack([l_v, l_r, l_vr, l_intra, l_inter], axis=1)


def run_epoch(
    trainable: TrainableEmbeddings,
    cfg: PipelineConfig,
    epoch: int,
    sampler: np.random.Generator,
    train: bool = True,
) -> EpochState:
    """One full epoch; with train=False only the analysis/metrics half runs.

    The epoch's PK batches are drawn first, in order, and each maximal run
    of consecutive batches with pairwise disjoint rows is one stacked step
    (the module docstring says why that is exact)."""
    state = _analyze(trainable, cfg, epoch)
    if not train:
        return state

    n_vis, n_inf = len(state.visible), len(state.infrared)
    terms = (
        epoch >= cfg.intra_start_epoch and cfg.lambda_intra > 0,
        epoch >= cfg.inter_start_epoch and cfg.lambda_inter > 0,
    )
    n_batches = batches_per_epoch(cfg, n_vis, n_inf)
    draws = [pk_sample(state.labels_v, state.labels_r, cfg, sampler) for _ in range(n_batches)]
    notes: tuple[str, ...] = ()
    _, _, used, shortfall = draws[0]  # the same for every batch: the labels are fixed
    if shortfall:
        notes = (
            f"epoch {epoch}: only {used.size} shared labels for batch_ids={cfg.batch_ids} (shortfall {shortfall})",
        )
    first = trainable.steps
    sums = dict.fromkeys(_LOSS_TERMS, 0.0)
    try:
        for run in _disjoint_runs(draws, n_vis, n_vis + n_inf):
            vis = np.stack([draws[b][0] for b in run])
            inf = np.stack([draws[b][1] for b in run])
            for values in _step_run(trainable, state, cfg, vis, inf, terms):
                for term, value in zip(_LOSS_TERMS, values):
                    sums[term] += float(value)
    except TrainingDivergedError as err:
        raise TrainingDivergedError(f"epoch {epoch}, batch {err.step - first + 1}: {err}", err.step) from None

    return replace(
        state, losses=_mean_losses(cfg, epoch, sums, n_batches), notes=state.notes + notes
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

