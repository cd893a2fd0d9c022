"""Core domain types, validation, and the pipeline configuration.

Everything downstream (clustering, matching, losses, metrics) consumes the
types defined here.  All of them are frozen dataclasses wrapping read-only
numpy arrays: construct once, share freely.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

VISIBLE = "v"
INFRARED = "r"
JOINT = "vr"
MODALITIES = (VISIBLE, INFRARED)
SCOPES = (VISIBLE, INFRARED, JOINT)

NOISE_LABEL = -1
UNIT_NORM_TOL = 1e-9
VARIANCE_FLOOR = 1e-6
# The budget of every blocked float64 pass (the clustering sweep, k-means,
# the matching cost, retrieval), at least one row a block: 2 MiB, below the
# 4 MiB at which numpy asks the kernel for huge pages, so a block's working
# set does not set the peak RSS.
BLOCK_BYTES = 2 << 20


def row_blocks(n: int, row_floats: int) -> list[slice]:
    """Slices covering rows 0..n-1, each as many rows as fit ``BLOCK_BYTES``
    at ``row_floats`` float64 values a row (at least one row)."""
    step = max(1, BLOCK_BYTES // (8 * max(row_floats, 1)))
    return [slice(a, min(a + step, n)) for a in range(0, n, step)]


def non_finite(record) -> list[str]:
    """One message per float field of the dataclass ``record`` that is not
    finite.  NaN fails every comparison, so a ``validate`` starts here."""
    values = ((f.name, getattr(record, f.name)) for f in fields(record))
    return [
        f"{name} must be finite, got {value!r}"
        for name, value in values
        if isinstance(value, float) and not math.isfinite(value)
    ]


def _frozen(values, dtype=None) -> np.ndarray:
    """A read-only array of ``values``.  An ndarray that already has the
    dtype, owns its data and is read-only is adopted without a copy; any
    other input, a caller's writable array included, is copied."""
    owned = isinstance(values, np.ndarray) and values.base is None and not values.flags.writeable
    if owned and (dtype is None or values.dtype == dtype):
        return values
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class EmbeddingSet:
    """Row-unit-norm feature vectors with per-row modality tags.

    ``true_identity`` is evaluation-only metadata: either present for every
    row or ``None`` for the whole set.
    """

    features: np.ndarray
    modality: np.ndarray
    true_identity: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "features", _frozen(self.features, float))
        object.__setattr__(self, "modality", _frozen(self.modality, "U2"))
        if self.true_identity is not None:
            object.__setattr__(self, "true_identity", _frozen(self.true_identity, np.int64))

    def __len__(self) -> int:
        return int(self.features.shape[0])

    @property
    def dim(self) -> int:
        return int(self.features.shape[1])


def validate(embedding_set: EmbeddingSet) -> list[str]:
    """Check every EmbeddingSet invariant; returns one message per violation.

    An empty list means the set is valid.  Reporting, not throwing: callers
    decide whether a violation is fatal.
    """
    out: list[str] = []
    feats = embedding_set.features
    if feats.ndim != 2:
        return [f"features must be a 2-D matrix, got ndim={feats.ndim}"]
    n, d = feats.shape
    if n < 1:
        out.append("feature matrix has no rows (need N >= 1)")
    if d < 2:
        out.append(f"feature dimension {d} is below the minimum of 2")
    if not np.all(np.isfinite(feats)):
        out.append("features contain non-finite entries")
    else:
        norms = np.linalg.norm(feats, axis=1)
        for i in np.flatnonzero(np.abs(norms - 1.0) > UNIT_NORM_TOL):
            out.append(f"row {i}: L2 norm {norms[i]!r} deviates from 1 by more than {UNIT_NORM_TOL}")
    tags = embedding_set.modality
    if tags.shape != (n,):
        out.append(f"modality tags have shape {tags.shape}, expected ({n},)")
    else:
        for i in np.flatnonzero(~np.isin(tags, MODALITIES)):
            out.append(f"row {i}: modality tag {tags[i]!r} is not one of {MODALITIES}")
    ids = embedding_set.true_identity
    if ids is not None:
        if ids.shape != (n,):
            out.append(f"true_identity has shape {ids.shape}, expected ({n},)")
        elif np.any(ids < 0):
            bad = int(np.flatnonzero(ids < 0)[0])
            out.append(f"row {bad}: true_identity {ids[bad]} is negative")
    return out


def normalize_rows(matrix) -> np.ndarray:
    """Scale every row to unit L2 norm, preserving direction.

    Raises ValueError naming the first zero row; zero rows have no direction.
    Idempotent: normalizing an already-normalized matrix is a no-op up to
    floating point roundoff.
    """
    m = np.asarray(matrix, dtype=float)
    norms = np.sqrt(np.add.reduce(m * m, axis=1))  # np.linalg.norm's arithmetic, without its wrapper
    bad = (norms == 0.0).nonzero()[0]
    if bad.size:
        raise ValueError(f"row {int(bad[0])} has zero norm and cannot be normalized")
    return m / norms[:, None]


def concat_sets(visible: EmbeddingSet, infrared: EmbeddingSet) -> EmbeddingSet:
    """Stack two sets, visible rows first. Truth is kept only if both carry it."""
    truth = None
    if visible.true_identity is not None and infrared.true_identity is not None:
        truth = _read_only(np.concatenate([visible.true_identity, infrared.true_identity]))
    return EmbeddingSet(
        features=_read_only(np.vstack([visible.features, infrared.features])),
        modality=_read_only(np.concatenate([visible.modality, infrared.modality])),
        true_identity=truth,
    )


@dataclass(frozen=True)
class PseudoLabeling:
    """Cluster assignment per sample for one scope; -1 marks noise.

    Non-noise labels always form the contiguous, fully occupied range
    0..cluster_count-1.  cluster_count may be 0 when everything is noise.
    Membership is one CSR index built at construction: a stable argsort of
    the labels (noise first) and the offsets of each label's run in it, so
    ``members`` and ``cluster_sizes`` slice instead of scanning all labels.
    """

    scope: str
    labels: np.ndarray
    cluster_count: int
    _order: np.ndarray = field(init=False, repr=False, compare=False)
    _offsets: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.scope not in SCOPES:
            raise ValueError(f"unknown scope {self.scope!r}")
        object.__setattr__(self, "labels", _frozen(self.labels, np.int64))
        lab = self.labels
        if lab.ndim != 1:
            raise ValueError("labels must be 1-D")
        if lab.size and int(lab.min()) < NOISE_LABEL:
            raise ValueError("labels below -1 are not allowed")
        # sizes[0] counts noise, sizes[p + 1] cluster p
        sizes = np.bincount(lab + 1, minlength=self.cluster_count + 1)
        if sizes.size != self.cluster_count + 1 or not np.all(sizes[1:]):
            present = np.unique(lab[lab >= 0])
            raise ValueError(
                f"non-noise labels must occupy 0..{self.cluster_count - 1}, got {present.tolist()}"
            )
        object.__setattr__(self, "_order", _frozen(np.argsort(lab, kind="stable")))
        object.__setattr__(self, "_offsets", _frozen(np.concatenate([[0], np.cumsum(sizes)])))

    def __len__(self) -> int:
        return int(self.labels.shape[0])

    @property
    def noise_mask(self) -> np.ndarray:
        return self.labels == NOISE_LABEL

    def members(self, p: int) -> np.ndarray:
        """Indices of the samples labelled p (p = -1: noise), ascending."""
        if not NOISE_LABEL <= p < self.cluster_count:
            return np.empty(0, np.int64)
        return self._order[self._offsets[p + 1] : self._offsets[p + 2]]

    def cluster_sizes(self) -> np.ndarray:
        return np.diff(self._offsets[1:])


@dataclass(frozen=True)
class MemoryBank:
    """One centroid per cluster: the (optionally confidence-weighted) mean of
    the member features."""

    scope: str
    centroids: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "centroids", _frozen(self.centroids, float))
        object.__setattr__(self, "counts", _frozen(self.counts, np.int64))
        if self.centroids.shape[0] != self.counts.shape[0]:
            raise ValueError("centroids and counts disagree on cluster count")
        if np.any(self.counts < 1):
            raise ValueError("every cluster must have at least one member")

    @property
    def cluster_count(self) -> int:
        return int(self.centroids.shape[0])


@dataclass(frozen=True)
class MultiMemoryBank:
    """Up to n sub-centroids per cluster. occupancy[p, i] == 0 marks an empty
    sub-memory slot (cluster smaller than n, or degenerate duplicates)."""

    scope: str
    memories: np.ndarray
    occupancy: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "memories", _frozen(self.memories, float))
        object.__setattr__(self, "occupancy", _frozen(self.occupancy, np.int64))
        if self.memories.ndim != 3:
            raise ValueError("memories must be a P x n x d tensor")
        if self.occupancy.shape != self.memories.shape[:2]:
            raise ValueError("occupancy shape must match memories[:2]")
        if self.memories.shape[0] and not np.all(self.occupancy.sum(axis=1) >= 1):
            raise ValueError("every cluster needs at least one non-empty sub-memory")

    @property
    def cluster_count(self) -> int:
        return int(self.memories.shape[0])

    @property
    def n_memories(self) -> int:
        return int(self.memories.shape[1])


@dataclass(frozen=True)
class Assignment:
    """Binary cluster correspondence, rows being the side with more clusters.

    Rows are visible clusters and columns infrared ones, unless ``flipped``,
    which swaps the two (the visible side had fewer clusters).  Every column
    is matched exactly once; every row at most once.  Violations raise at
    construction, so any Assignment that exists is feasible.
    """

    q: np.ndarray
    cost: np.ndarray
    total_cost: float
    flipped: bool = False

    def __post_init__(self):
        object.__setattr__(self, "q", _frozen(self.q, np.int8))
        object.__setattr__(self, "cost", _frozen(self.cost, float))
        q = self.q
        if q.shape != self.cost.shape:
            raise ValueError("q and cost must share a shape")
        if not np.isin(q, (0, 1)).all():
            raise ValueError("q must be binary")
        if not np.all(q.sum(axis=0) == 1):
            raise ValueError("every column cluster must be matched exactly once")
        if not np.all(q.sum(axis=1) <= 1):
            raise ValueError("a row cluster may be matched at most once")
        recomputed = float((self.cost * q).sum())
        if abs(recomputed - self.total_cost) > 1e-9:
            raise ValueError(f"total_cost {self.total_cost} != matched-cost sum {recomputed}")

    def pairs(self) -> list[tuple[int, int]]:
        """Matched (row, column) index pairs in row order."""
        rows, cols = np.nonzero(self.q)
        return [(int(r), int(c)) for r, c in zip(rows, cols)]


@dataclass(frozen=True)
class GmmFit:
    """Converged two-component 1-D Gaussian mixture, components sorted by mean."""

    means: np.ndarray
    variances: np.ndarray
    mix: np.ndarray
    log_likelihood: float
    iterations: int

    def __post_init__(self):
        object.__setattr__(self, "means", _frozen(self.means, float))
        object.__setattr__(self, "variances", _frozen(self.variances, float))
        object.__setattr__(self, "mix", _frozen(self.mix, float))
        if self.means.shape != (2,) or self.variances.shape != (2,) or self.mix.shape != (2,):
            raise ValueError("exactly two components expected")
        if not (np.all(self.mix > 0) and np.all(self.mix < 1)):
            raise ValueError("mixture coefficients must lie strictly in (0, 1)")
        if abs(float(self.mix.sum()) - 1.0) > 1e-12:
            raise ValueError("mixture coefficients must sum to 1")
        if np.any(self.variances < VARIANCE_FLOOR * (1 - 1e-9)):
            raise ValueError(f"variances must respect the floor {VARIANCE_FLOOR}")


@dataclass(frozen=True)
class ConfidenceWeights:
    """Per-sample posterior weights in [0, 1]; noise samples carry exactly 0.

    ``gmm`` is None when the loss distribution was degenerate and the uniform
    confidence-1 fallback was applied.
    """

    scope: str
    w: np.ndarray
    gmm: GmmFit | None

    def __post_init__(self):
        object.__setattr__(self, "w", _frozen(self.w, float))
        if np.any(self.w < 0) or np.any(self.w > 1):
            raise ValueError("confidence weights must lie in [0, 1]")


@dataclass(frozen=True)
class PipelineConfig:
    """Every tunable of the training pipeline, with the published defaults.

    The boolean switches at the bottom carve out ablation configurations:
    ``use_matching=False`` keeps each modality's labels as-is (identity
    correspondence) and ``gmm_weighting=False`` forces unit confidence.
    Memories are built once per epoch, at its start.  ``seed`` feeds every
    named random stream of a run.
    """

    tau: float = 0.05
    dbscan_eps: float = 0.6
    dbscan_min_samples: int = 4
    n_memories: int = 4
    lambda_intra: float = 0.5
    lambda_inter: float = 0.05
    mmd_sigma: float | str = "median"
    epochs: int = 80
    intra_start_epoch: int = 1
    inter_start_epoch: int = 15
    batch_ids: int = 8
    per_id_visible: int = 4
    per_id_infrared: int = 4
    learning_rate: float = 0.1
    momentum: float = 0.9
    weight_decay: float = 5e-4
    seed: int = 0
    use_matching: bool = True
    gmm_weighting: bool = True

    def validate(self) -> list[str]:
        out = non_finite(self)
        for name in ("tau", "dbscan_eps", "learning_rate"):
            if getattr(self, name) <= 0:
                out.append(f"{name} must be positive")
        for name in (
            "dbscan_min_samples",
            "n_memories",
            "intra_start_epoch",
            "inter_start_epoch",
            "batch_ids",
            "per_id_visible",
            "per_id_infrared",
        ):
            if getattr(self, name) < 1:
                out.append(f"{name} must be a positive integer")
        if self.epochs < 0:
            out.append("epochs must be non-negative")
        if self.lambda_intra < 0 or self.lambda_inter < 0:
            out.append("loss weights must be non-negative")
        if isinstance(self.mmd_sigma, str):
            if self.mmd_sigma != "median":
                out.append(f"mmd_sigma must be a positive number or 'median', got {self.mmd_sigma!r}")
        elif self.mmd_sigma <= 0:
            out.append("mmd_sigma must be positive")
        if self.momentum < 0 or self.momentum >= 1:
            out.append("momentum must lie in [0, 1)")
        if self.weight_decay < 0:
            out.append("weight_decay must be non-negative")
        return out


CONFIG_FIELDS = tuple(f.name for f in fields(PipelineConfig))
