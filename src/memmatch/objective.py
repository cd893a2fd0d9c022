"""Training losses with analytic gradients w.r.t. the embedding rows.

Cluster memories are constants inside every term: they are rebuilt from the
labelings at the start of each epoch, never backpropagated through.  The
kernel two-sample distance is the biased V-statistic (self-pairs included)
of Gretton et al. (JMLR 2012), taken per pseudo-label over stacked
(L, n, d) blocks: the L labels of one PK batch, n rows each.  Every loss
also takes leading batch axes, so several PK batches run as one call with
the arithmetic of each batch unchanged.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import MemoryBank, NOISE_LABEL

REPORT_TOL = 1e-9
LOSS_CSV_HEADER = "epoch,l_v,l_r,l_vr,l_cmc,l_intra,l_inter,l_sca,l_overall"


@dataclass(frozen=True)
class GradientBuffer:
    """Gradient accumulator for the rows of one batch, one modality.

    Batch-local: row i of ``g`` belongs to the i-th distinct embedding row
    the batch touched (``np.unique(batch_rows, return_inverse=True)`` gives
    the rows and the local index of each sample), so its size is the batch,
    not N.  Rows no term adds to stay exactly zero; duplicate indices
    accumulate.
    """

    g: np.ndarray

    @classmethod
    def zeros(cls, n: int, d: int) -> "GradientBuffer":
        return cls(g=np.zeros((n, d)))

    def add_rows(self, rows: np.ndarray, grad: np.ndarray) -> None:
        np.add.at(self.g, rows, grad)


@dataclass(frozen=True)
class LossReport:
    """All loss terms of one evaluation; composition identities are enforced
    at construction (l_cmc = l_v+l_r+l_vr, l_sca = weighted sum, l_overall =
    l_cmc + l_sca)."""

    l_v: float
    l_r: float
    l_vr: float
    l_cmc: float
    l_intra: float
    l_inter: float
    l_sca: float
    l_overall: float

    def __post_init__(self):
        if abs(self.l_cmc - (self.l_v + self.l_r + self.l_vr)) > REPORT_TOL:
            raise ValueError("l_cmc must equal l_v + l_r + l_vr")
        if abs(self.l_overall - (self.l_cmc + self.l_sca)) > REPORT_TOL:
            raise ValueError("l_overall must equal l_cmc + l_sca")


def compose_report(
    l_v: float,
    l_r: float,
    l_vr: float,
    l_intra: float,
    l_inter: float,
    lambda_intra: float,
    lambda_inter: float,
    epoch: int,
    intra_start_epoch: int,
    inter_start_epoch: int,
) -> LossReport:
    """Combine raw loss terms under the epoch schedule.

    Epochs are 1-based; a term contributes (and is reported) only from its
    start epoch onward, before that it is pinned to 0.
    """
    if epoch < intra_start_epoch:
        l_intra = 0.0
    if epoch < inter_start_epoch:
        l_inter = 0.0
    l_cmc = l_v + l_r + l_vr
    l_sca = lambda_intra * l_intra + lambda_inter * l_inter
    return LossReport(
        l_v=l_v,
        l_r=l_r,
        l_vr=l_vr,
        l_cmc=l_cmc,
        l_intra=l_intra,
        l_inter=l_inter,
        l_sca=l_sca,
        l_overall=l_cmc + l_sca,
    )


def loss_csv_row(epoch: int, report: LossReport) -> str:
    vals = (
        report.l_v,
        report.l_r,
        report.l_vr,
        report.l_cmc,
        report.l_intra,
        report.l_inter,
        report.l_sca,
        report.l_overall,
    )
    return f"{epoch}," + ",".join(repr(float(v)) for v in vals)


def _per_batch(values: np.ndarray):
    """A float for an unbatched call, else the array over the leading axes."""
    return float(values) if values.ndim == 0 else values


def cluster_nce(
    features: np.ndarray, labels: np.ndarray, bank: MemoryBank, tau: float
) -> tuple[float | np.ndarray, np.ndarray]:
    """Softmax contrastive loss of each sample against all cluster memories.

    loss = mean_i -log( exp(<C_{y_i}, f_i>/tau) / sum_p exp(<C_p, f_i>/tau) )
    Gradient flows to the features only:
    dL/df_i = (softmax_i - onehot_{y_i}) @ C / (tau * batch).

    ``features`` is (..., n, d) and ``labels`` (..., n): leading axes stack
    independent batches of n samples, each computed as if alone, and the
    loss comes back per batch (a float when there are none).
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    feats = np.asarray(features, dtype=float)
    labs = np.asarray(labels, dtype=np.int64)
    n = feats.shape[-2]
    if n == 0:
        return _per_batch(np.zeros(feats.shape[:-2])), np.zeros_like(feats)
    if labs.min() < 0 or labs.max() >= bank.cluster_count:
        flat = labs.ravel()
        bad = int(np.flatnonzero((flat < 0) | (flat >= bank.cluster_count))[0])
        raise ValueError(f"batch sample {bad} carries label {flat[bad]} with no memory")
    logits = feats @ bank.centroids.T / tau
    shifted = logits - logits.max(axis=-1, keepdims=True)
    expv = np.exp(shifted)
    denom = expv.sum(axis=-1, keepdims=True)
    logp = shifted - np.log(denom)
    loss = -np.take_along_axis(logp, labs[..., None], axis=-1)[..., 0].mean(axis=-1)
    delta = expv / denom  # the softmax, less the one-hot below
    delta.reshape(-1, bank.cluster_count)[np.arange(labs.size), labs.ravel()] -= 1.0
    grad = delta @ bank.centroids / (tau * n)
    return _per_batch(loss), grad


def intra_alignment(
    features: np.ndarray, labels: np.ndarray, bank: MemoryBank
) -> tuple[float | np.ndarray, np.ndarray]:
    """Sum of squared distances of each sample to its cluster memory.

    Gradient per sample is 2*(f - C_y); rows labeled noise contribute
    nothing.  Leading axes of ``features`` (..., n, d) and ``labels``
    (..., n) stack independent batches, as in ``cluster_nce``.
    """
    feats = np.asarray(features, dtype=float)
    labs = np.asarray(labels, dtype=np.int64)
    keep = labs != NOISE_LABEL
    if not keep.any():
        return _per_batch(np.zeros(feats.shape[:-2])), np.zeros_like(feats)
    residual = feats - bank.centroids[np.where(keep, labs, 0)]
    residual[~keep] = 0.0
    return _per_batch((residual**2).sum(axis=(-2, -1))), 2.0 * residual


def _sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between the rows of a and b, over any
    leading batch axes: (..., n, d) x (..., m, d) -> (..., n, m)."""
    d = (
        (a**2).sum(axis=-1)[..., :, None]
        + (b**2).sum(axis=-1)[..., None, :]
        - 2.0 * (a @ np.swapaxes(b, -1, -2))
    )
    return np.maximum(d, 0.0)


def _kernel(sq: np.ndarray, sigma) -> np.ndarray:
    s = np.asarray(sigma, dtype=float)[..., None, None]
    return np.exp(-sq / (2.0 * s**2))


def _median_pair_dist(sq: np.ndarray) -> np.ndarray:
    # sq: (L, n, n) squared distances within each set, n >= 2; self-pairs excluded
    iu = np.triu_indices(sq.shape[-1], k=1)
    return np.maximum(np.median(np.sqrt(sq[..., iu[0], iu[1]]), axis=-1), 1e-12)


def _mmd2_grad(kxx, kxy, kyy, x, y, sigma):
    # MMD^2 per label and its gradient w.r.t. x, from the three kernel blocks
    n, m = x.shape[-2], y.shape[-2]
    value = kxx.mean(axis=(-2, -1)) + kyy.mean(axis=(-2, -1)) - 2.0 * kxy.mean(axis=(-2, -1))
    # d k(a,b)/da = k(a,b) * (b - a) / sigma^2
    gxx = (kxx @ x - kxx.sum(axis=-1)[..., None] * x) / (n * n)
    gxy = (kxy @ y - kxy.sum(axis=-1)[..., None] * x) / (n * m)
    grad = (2.0 / np.asarray(sigma, dtype=float) ** 2)[..., None, None] * (gxx - gxy)
    return value, grad


def inter_loss(
    xv: np.ndarray, xr: np.ndarray, sigma: float | str
) -> tuple[float | np.ndarray, np.ndarray, np.ndarray]:
    """Cluster-paired distribution alignment across modalities.

    ``xv`` (..., L, n, d) and ``xr`` (..., L, m, d) hold the visible and
    infrared rows of L labels, label-major as ``pk_sample`` draws them:
    ``xv[l]`` and ``xr[l]`` are the two sides of the l-th label.  The loss is
    1/2 * D(visible, sg(infrared)) + 1/2 * D(infrared, sg(visible)) with D
    the MMD^2, averaged over the L labels; the gradients come back shaped
    like the inputs, those of the first term on the visible rows only and
    vice versa.  Further leading axes stack independent batches of L labels,
    each computed as if alone, and the loss comes back per batch (a float
    when there are none).

    sigma is a number or "median" for the per-label median pairwise
    distance of the union of both sides (self-pairs excluded, floored at
    1e-12); the bandwidth is a constant inside the gradient either way.  One
    distance and kernel computation over the union serves the bandwidth and
    both halves.
    """
    p, n = xv.shape[-3], xv.shape[-2]
    union = np.concatenate([xv, xr], axis=-2)
    sq = _sq_dists(union, union)
    s = _median_pair_dist(sq) if isinstance(sigma, str) else float(sigma)
    k = _kernel(sq, s)
    kvv, kvr, krv, krr = k[..., :n, :n], k[..., :n, n:], k[..., n:, :n], k[..., n:, n:]
    val_v, grad_v = _mmd2_grad(kvv, kvr, krr, xv, xr, s)
    val_r, grad_r = _mmd2_grad(krr, krv, kvv, xr, xv, s)
    total = 0.5 * val_v.sum(axis=-1) + 0.5 * val_r.sum(axis=-1)
    return _per_batch(total / p), 0.5 * grad_v / p, 0.5 * grad_r / p
