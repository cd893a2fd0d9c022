"""Desk-scale training loop over free embedding parameters.

Per epoch: re-cluster everything, build memories, sub-cluster and match the
two modalities, transfer labels into the shared space, weigh samples by GMM
confidence, rebuild weighted memories, then run PK-sampled batches of SGD on
the raw embedding parameters (gradients are chain-ruled through the row
normalization).  The only randomness is the PK sampler's, the named stream
"sampler" of cfg.seed (clustering and k-means are deterministic); synthetic
data draws from its own stream, "synth" of SynthSpec.seed.

Batches keep their sequential arithmetic but not their sequential timing.
The epoch's PK batches are drawn first, in order, and each gets a dependency
level: one past the highest level of any earlier batch that shares a joint
row with it (the row of ``concat_sets(visible, infrared)``, the one
numbering of batches, gradients and the optimizer's tables).  Each level is
one stacked step, so a batch waits only for the batches it shares rows with.
This is exact, bit for bit: labels and memories stay fixed for the epoch, so
a batch's loss and gradient read only its own rows, and an SGD update with
momentum and weight decay reads only its row's parameters, velocity and
gradient.  A row's batches fall in ascending levels, so its updates keep
their sequential order; each row is caught up to its own batch's step index
and stepped there, the per-row gradient sums keep the sequential order of
terms, and the losses are summed in batch order.  A divergence is reported
as the per-batch loop would meet it first.  The index work of the levels is
done once per epoch.
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


@dataclass(frozen=True)
class EpochState:
    """Everything one epoch produced; immutable snapshot.

    ``visible``/``infrared`` are the features the epoch started from and
    ``labels_*_raw`` each modality's own clustering.  ``labels_v``/``labels_r``
    and the weighted banks ``wbank_*`` live in the shared label space after
    matching (``assignment`` is None when matching is off); ``losses`` are
    the per-batch means and ``shortfall`` how many labels each PK batch fell
    short of ``cfg.batch_ids`` (zeros for an evaluation-only pass).
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
    shortfall: int

    @property
    def flipped(self) -> bool:
        """Whether matching ran infrared-as-rows (fewer visible clusters)."""
        return self.assignment is not None and self.assignment.flipped


@dataclass(frozen=True)
class EpochSummary:
    """What ``TrainingResult.history`` keeps of a training epoch: with its
    losses and metrics, each modality's own cluster count before matching,
    the matching orientation and the PK shortfall."""

    epoch: int
    losses: LossReport
    metrics: MetricReport | None
    clusters_v_raw: int
    clusters_r_raw: int
    flipped: bool
    shortfall: int

    @classmethod
    def of(cls, state: EpochState) -> EpochSummary:
        counts = state.labels_v_raw.cluster_count, state.labels_r_raw.cluster_count
        return cls(state.epoch, state.losses, state.metrics, *counts, state.flipped, state.shortfall)


class TrainableEmbeddings:
    """Free parameters standing in for a feature extractor, one per row of
    ``concat_sets(visible, infrared)``: visible rows first, so infrared row
    i is joint row ``n_visible + i``.  ``theta``, ``velocity`` and ``stamp``
    (the step each row is current at) are joint tables, and every read and
    step addresses them by joint row.

    Downstream consumers only ever see the row-normalized view; gradient
    steps go through the normalization's Jacobian, then SGD with momentum mu
    and weight decay lam at learning rate eta on the raw parameters, the
    three fixed from ``cfg`` at construction.

    A step costs O(batch), not O(N d).  A row the step leaves out has zero
    gradient, so its (theta, v) moves by one fixed linear map:
    theta' = (1 - eta lam) theta - eta mu v and v' = lam theta + mu v, i.e.
    A = [[1 - eta lam, -eta mu], [lam, mu]].  Each row is caught up with
    A^lag when it is next read, by ``features`` (a batch) or ``sets`` (an
    epoch start), or stepped, so rows of ``theta`` and ``velocity`` are
    stale until read.

    One read and one ``apply_step`` may stand for several steps whose rows
    are pairwise disjoint, in any order of their indices: ``at`` gives each
    row the index of the step it belongs to, the row is caught up to that
    index and stamped one past it, and ``steps`` becomes one past the
    largest index taken.  The catch-up replays exactly the zero-gradient
    steps in between, so this is the arithmetic of taking the steps one by
    one (the module docstring says why).

    A row whose norm stops being finite, after a catch-up or a step, raises
    ``TrainingDivergedError``.  A call checks its catch-ups, then its steps;
    each check names the row of the lowest step index, then the first in
    the order given, by modality and row within it, and carries that index
    as ``step``.
    """

    def __init__(self, visible: EmbeddingSet, infrared: EmbeddingSet, cfg: PipelineConfig):
        self.n_visible = len(visible)
        self.theta = np.concatenate([visible.features, infrared.features])
        self.velocity = np.zeros_like(self.theta)
        self.stamp = np.zeros(len(self.theta), np.int64)
        # read-only arrays, shared with the inputs and every set ``sets`` makes
        self._tags = [(es.modality, es.true_identity) for es in (visible, infrared)]
        lr, mu, lam = cfg.learning_rate, cfg.momentum, cfg.weight_decay
        self.learning_rate, self.momentum, self.weight_decay = lr, mu, lam
        self.steps = 0
        self._map = np.array([[1.0 - lr * lam, -lr * mu], [lam, mu]])
        self._powers = np.eye(2)[None]  # _powers[k] = A^k, grown on demand

    def _power(self, lag: np.ndarray) -> np.ndarray:
        have = len(self._powers)
        need = int(np.maximum.reduce(lag)) + 1
        if need > have:
            grown = np.empty((max(need, 2 * have), 2, 2))
            grown[:have] = self._powers
            for k in range(have, len(grown)):
                grown[k] = self._map @ grown[k - 1]
            self._powers = grown
        return self._powers[lag]

    def _check(self, rows: np.ndarray, at: np.ndarray, theta: np.ndarray, after: str) -> None:
        """Raise for the earliest non-finite joint row of ``rows``, whose
        parameters are ``theta``: the lowest step index ``at``, then the
        order of ``rows``."""
        sq_norms = np.add.reduce(theta * theta, axis=1)
        bad = (~np.isfinite(sq_norms)).nonzero()[0]
        if bad.size:
            i = bad[np.argmin(at[bad])]
            key, row = ("v", int(rows[i])) if rows[i] < self.n_visible else ("r", int(rows[i]) - self.n_visible)
            raise TrainingDivergedError(
                f"modality {key!r} row {row} has parameter norm {float(np.sqrt(sq_norms[i]))!r} after {after} "
                f"(learning_rate={self.learning_rate}, weight_decay={self.weight_decay}, momentum={self.momentum})",
                step=int(at[i]),
            )

    def _catch_up(self, rows: np.ndarray, at: np.ndarray) -> None:
        """Bring the joint ``rows`` to their step indices ``at`` and check
        those that moved."""
        lag = at - self.stamp[rows]
        stale = (lag > 0).nonzero()[0]
        if not stale.size:
            return
        rows, at = rows[stale], at[stale]
        a = self._power(lag[stale])[..., None]
        theta, vel = self.theta[rows], self.velocity[rows]
        caught_up = a[:, 0, 0] * theta + a[:, 0, 1] * vel
        self.theta[rows] = caught_up
        self.velocity[rows] = a[:, 1, 0] * theta + a[:, 1, 1] * vel
        self.stamp[rows] = at
        self._check(rows, at, caught_up, "catch-up")

    def features(self, rows: np.ndarray, at: np.ndarray | None = None) -> np.ndarray:
        """Row-normalized parameters of the joint ``rows``, each caught up to
        its step index in ``at`` (default: the current step)."""
        at = np.full(rows.shape, self.steps) if at is None else at
        self._catch_up(rows, at)
        return normalize_rows(self.theta[rows])

    def sets(self) -> tuple[EmbeddingSet, EmbeddingSet]:
        bounds = (0, self.n_visible, len(self.theta))
        out = []
        for first, stop, (modality, truth) in zip(bounds, bounds[1:], self._tags):
            # a modality at a time: the catch-up's temporaries stay the size
            # of one modality's table, which keeps the run's peak memory
            self._catch_up(np.arange(first, stop), np.full(stop - first, self.steps))
            features = normalize_rows(self.theta[first:stop])
            features.setflags(write=False)  # so the set adopts it without a copy
            out.append(EmbeddingSet(features=features, modality=modality, true_identity=truth))
        return out[0], out[1]

    def apply_step(
        self,
        grad_v: np.ndarray,
        grad_r: np.ndarray,
        rows_v: np.ndarray,
        rows_r: np.ndarray,
        at: np.ndarray | None = None,
    ) -> None:
        """One SGD step.  ``grad_v[i]`` is the gradient w.r.t. the normalized
        view of the distinct visible row ``rows_v[i]`` (likewise infrared, by
        row within the infrared set); every other row has zero gradient and
        is caught up when read.

        ``at`` gives each joint row, visible then infrared, the index of the
        step it takes (default: all the current step).  The call then stands
        for those steps, and rows of different steps must be disjoint."""
        # split by modality because the benchmark's step hook reads grad_v and grad_r by position
        rows = np.concatenate([rows_v, self.n_visible + np.asarray(rows_r)])
        at_rows = np.full(rows.shape, self.steps) if at is None else at
        self._catch_up(rows, at_rows)
        theta = self.theta[rows]
        grad = np.concatenate([grad_v, grad_r])
        # np.linalg.norm's and ndarray.sum's arithmetic, without their wrappers
        norms = np.maximum(np.sqrt(np.add.reduce(theta * theta, axis=1, keepdims=True)), 1e-12)
        unit = theta / norms
        # d(theta/|theta|)/dtheta applied to the normalized-view gradient
        g_theta = (grad - np.add.reduce(grad * unit, axis=1, keepdims=True) * unit) / norms
        g_theta = g_theta + self.weight_decay * theta
        velocity = self.momentum * self.velocity[rows] + g_theta
        self.velocity[rows] = velocity
        stepped = theta - self.learning_rate * velocity
        self.theta[rows] = stepped
        self.stamp[rows] = at_rows + 1
        self._check(rows, at_rows, stepped, "a step")
        # a call without ``at`` takes the current step even when it touches no row
        self.steps = max(self.steps + (at is None), 1 + int(np.maximum.reduce(at_rows, initial=-1)))


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
    for label in chosen.tolist():
        members_v, members_r = vis_labels.members(label), inf_labels.members(label)
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

    assignment = None
    labels_v, labels_r = labels_v_raw, labels_r_raw
    if cfg.use_matching:
        cost = multi_memory_cost(
            sub_cluster(visible, labels_v_raw, cfg.n_memories), sub_cluster(infrared, labels_r_raw, cfg.n_memories)
        )
        assignment = solve_assignment(cost)
        labels_v, labels_r = transfer_labels(labels_v_raw, labels_r_raw, assignment)
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
        losses=LossReport(0.0, 0.0, 0.0, 0.0, 0.0, cfg.lambda_intra, cfg.lambda_inter),
        metrics=_metric_report(visible, infrared, labels_v, labels_r),
        shortfall=0,
    )


def batches_per_epoch(cfg: PipelineConfig, n_visible: int, n_infrared: int) -> int:
    batch = cfg.batch_ids * (cfg.per_id_visible + cfg.per_id_infrared)
    return max(1, (n_visible + n_infrared) // batch)


@dataclass
class _Batches:
    """An epoch's PK batches, drawn up front, and what stepping them left.

    ``rows[b]`` holds batch b's joint rows (``concat_sets`` order): its
    ``n_v`` visible samples, then its infrared ones.  Batch b takes step
    ``first + b`` at dependency level ``level[b]``; ``ran[b]`` records that
    it stepped and ``losses[b]`` its five loss terms."""

    rows: np.ndarray
    n_v: int
    level: np.ndarray
    first: int
    terms: tuple[bool, bool]
    ran: np.ndarray
    losses: np.ndarray


def _levels(rows: np.ndarray, n_rows: int) -> np.ndarray:
    """Each batch's dependency level: one past the highest level of any
    earlier batch that shares a joint row with it, 0 when none does.  The
    batches of one level are pairwise row-disjoint."""
    level_of = np.full(n_rows, -1)  # the highest level that drew each row so far
    level = np.empty(len(rows), np.int64)
    for b, batch in enumerate(rows):
        level[b] = np.maximum.reduce(level_of[batch]) + 1
        level_of[batch] = level[b]
    return level


def _level_index(state: EpochState, batches: _Batches, todo: np.ndarray, n_rows: int) -> list[tuple]:
    """The levels of the batches ``todo``, ascending, indexed all at once:
    each level's batches, distinct joint rows (ascending, ``split`` of them
    visible), the row each sample reads, each row's step index, whether no
    sample repeats a row, and the samples' visible, infrared, joint labels."""
    order = todo[np.argsort(batches.level[todo], kind="stable")]
    level, sampled = batches.level[order], batches.rows[order]
    n_v, n_visible = batches.n_v, len(state.visible)
    labels = (state.labels_v.labels[sampled[:, :n_v]], state.labels_r.labels[sampled[:, n_v:] - n_visible],
              state.labels_joint.labels[sampled])
    # one key per (level, joint row): sorted, a level's distinct rows are one
    # run of keys, in the order np.unique gives them for the level alone
    keys, local = np.unique(level[:, None] * n_rows + sampled, return_inverse=True)
    local = local.reshape(sampled.shape)
    at = np.empty(keys.size, np.int64)
    at[local] = batches.first + order[:, None]
    firsts = np.flatnonzero(np.diff(level, prepend=-1)).tolist()
    starts, splits = np.searchsorted(keys, level[firsts] * n_rows + np.array([[0], [n_visible]])).tolist()
    return [
        (order[a:b], keys[s:e] % n_rows, split - s, local[a:b] - s, at[s:e], keys.size == local.size,
         [lab[a:b] for lab in labels])
        for a, b, s, e, split in zip(firsts, [*firsts[1:], order.size], starts, [*starts[1:], keys.size], splits)
    ]


def _step_run(
    trainable: TrainableEmbeddings, state: EpochState, cfg: PipelineConfig, batches: _Batches, level: tuple
) -> None:
    """One SGD step for each of the pairwise row-disjoint batches of
    ``level`` (see ``_level_index``), taken as one stacked step at each
    batch's own step index; their loss terms go to ``batches.losses``.  They
    count as run once the read has passed."""
    now, rows, split, local, at, distinct, (lab_v, lab_r, lab_joint) = level
    n_v, dim = batches.n_v, trainable.theta.shape[1]
    feats = trainable.features(rows, at)[local]
    fv, fr = feats[:, :n_v], feats[:, n_v:]

    # gradients are kept per distinct joint row; each sample's terms are
    # added in the sequential order, nce first
    samples = local.reshape(-1)
    buf = GradientBuffer.zeros(rows.size, dim, distinct)
    l_v, g_v = cluster_nce(fv, lab_v, state.wbank_v, cfg.tau)
    l_r, g_r = cluster_nce(fr, lab_r, state.wbank_r, cfg.tau)
    buf.add_rows(samples, np.concatenate([g_v, g_r], axis=1).reshape(-1, dim))
    l_vr, g_vr = cluster_nce(feats, lab_joint, state.wbank_joint, cfg.tau)
    buf.add_rows(samples, g_vr.reshape(-1, dim))

    do_intra, do_inter = batches.terms
    l_intra = np.zeros(len(now))
    if do_intra:
        li_v, gi_v = intra_alignment(fv, lab_v, state.wbank_v)
        li_r, gi_r = intra_alignment(fr, lab_r, state.wbank_r)
        l_intra = li_v + li_r
        buf.add_rows(samples, cfg.lambda_intra * np.concatenate([gi_v, gi_r], axis=1).reshape(-1, dim))

    l_inter = np.zeros(len(now))
    if do_inter:
        # pk_sample's rows are label-major, so each label's group is a block
        labels_per_batch = n_v // cfg.per_id_visible
        l_inter, vg, ig = inter_loss(
            fv.reshape(len(now), labels_per_batch, cfg.per_id_visible, dim),
            fr.reshape(len(now), labels_per_batch, cfg.per_id_infrared, dim),
            cfg.mmd_sigma,
        )
        g_inter = np.concatenate([vg.reshape(fv.shape), ig.reshape(fr.shape)], axis=1)
        buf.add_rows(samples, cfg.lambda_inter * g_inter.reshape(-1, dim))

    batches.ran[now] = True  # a step that raises has still been taken
    trainable.apply_step(buf.g[:split], buf.g[split:], rows[:split], rows[split:] - trainable.n_visible, at)
    batches.losses[now] = np.array([l_v, l_r, l_vr, l_intra, l_inter]).T


def _run_levels(
    trainable: TrainableEmbeddings, state: EpochState, cfg: PipelineConfig, batches: _Batches, todo: np.ndarray
) -> None:
    """Step the batches ``todo`` (ascending, and closed under sharing a row
    with an earlier batch that has not run) one level at a time.

    A divergence at step s is raised only after every batch below s that
    has not run yet has run: those share no row with any batch already run
    at s or later, so the error raised is the earliest one of the
    sequential order, with the same message."""
    for level in _level_index(state, batches, todo, len(trainable.theta)):
        try:
            _step_run(trainable, state, cfg, batches, level)
        except TrainingDivergedError as err:
            below = np.flatnonzero(~batches.ran[: err.step - batches.first])
            if below.size:
                _run_levels(trainable, state, cfg, batches, below)
            raise


def run_epoch(
    trainable: TrainableEmbeddings,
    cfg: PipelineConfig,
    epoch: int,
    sampler: np.random.Generator,
    train: bool = True,
) -> EpochState:
    """One full epoch; with train=False only the analysis/metrics half runs.

    The epoch's PK batches are drawn first, in order, and each dependency
    level of them is one stacked step (the module docstring says why that
    is exact)."""
    state = _analyze(trainable, cfg, epoch)
    if not train:
        return state

    n_vis, n_inf = len(state.visible), len(state.infrared)
    n_batches = batches_per_epoch(cfg, n_vis, n_inf)
    draws = [pk_sample(state.labels_v, state.labels_r, cfg, sampler) for _ in range(n_batches)]
    vis, inf = np.stack([d[0] for d in draws]), np.stack([d[1] for d in draws])
    rows = np.concatenate([vis, n_vis + inf], axis=1)
    noise = np.argwhere(state.labels_joint.labels[rows] < 0)
    if noise.size:
        # a row labelled in its own modality is labelled in the joint scope,
        # whose ε-neighbourhoods contain the modality ones
        b, i = noise[0]
        side, row = ("visible", vis[b, i]) if i < vis.shape[1] else ("infrared", inf[b, i - vis.shape[1]])
        raise RuntimeError(f"epoch {epoch}, batch {b + 1}: {side} row {row} was drawn but is noise in the joint scope")
    batches = _Batches(
        rows=rows,
        n_v=vis.shape[1],
        level=_levels(rows, n_vis + n_inf),
        first=trainable.steps,
        # the loss schedule: a term before its start epoch (or at weight 0)
        # is not computed, and reports 0
        terms=(
            epoch >= cfg.intra_start_epoch and cfg.lambda_intra > 0,
            epoch >= cfg.inter_start_epoch and cfg.lambda_inter > 0,
        ),
        ran=np.zeros(n_batches, bool),
        losses=np.empty((n_batches, 5)),
    )
    try:
        _run_levels(trainable, state, cfg, batches, np.arange(n_batches))
    except TrainingDivergedError as err:
        raise TrainingDivergedError(f"epoch {epoch}, batch {err.step - batches.first + 1}: {err}", err.step) from None

    # summed in batch order, from +0.0 as a sequential sum starts
    means = np.add.reduce(batches.losses, axis=0, initial=0.0) / n_batches
    losses = LossReport(*means.tolist(), cfg.lambda_intra, cfg.lambda_inter)
    # the same for every batch: the labels are fixed
    return replace(state, losses=losses, shortfall=draws[0][3])


@dataclass(frozen=True)
class TrainingResult:
    """A summary per training epoch in ``history``; one full state, ``final``."""

    config: PipelineConfig
    history: tuple[EpochSummary, ...]
    final: EpochState


def check_inputs(visible: EmbeddingSet, infrared: EmbeddingSet, cfg: PipelineConfig) -> None:
    """Raise ValueError for inputs ``run_training`` cannot take: a config
    that fails ``cfg.validate()``, an embedding set that fails ``validate``,
    a set with a row not tagged with its own modality (swapped inputs), or
    sets of different feature dimensions."""
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
    if infrared.dim != visible.dim:
        raise ValueError(
            f"invalid infrared set: feature dimension {infrared.dim} differs from the visible set's {visible.dim}"
        )


def run_training(
    visible: EmbeddingSet, infrared: EmbeddingSet, cfg: PipelineConfig
) -> TrainingResult:
    """Run cfg.epochs epochs then a final evaluation-only pass.

    epochs=0 degenerates to a pure evaluation of the initial embeddings.
    Invalid inputs raise ValueError before any work (``check_inputs``).
    """
    check_inputs(visible, infrared, cfg)
    trainable = TrainableEmbeddings(visible, infrared, cfg)
    sampler = named_stream(cfg.seed, "sampler")
    history = tuple(
        EpochSummary.of(run_epoch(trainable, cfg, epoch, sampler, train=True)) for epoch in range(1, cfg.epochs + 1)
    )
    final = run_epoch(trainable, cfg, cfg.epochs + 1, sampler, train=False)
    return TrainingResult(config=cfg, history=history, final=final)


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

