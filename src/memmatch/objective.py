"""Training losses with analytic gradients w.r.t. the embedding rows.

Cluster memories are constants inside every term: they are rebuilt from the
labelings at the start of each epoch, never backpropagated through.  One
kernel, ``memory_log_prob``, takes each sample's softmax over the memories for
``cluster_nce`` and ``reliability.id_loss`` alike.  The kernel two-sample
distance is the biased V-statistic (self-pairs included) of Gretton et al.
(JMLR 2012), taken per pseudo-label over stacked (L, n, d) blocks: the L
labels of one PK batch, n rows each.  Every loss also takes leading batch
axes, so several PK batches run as one call with the arithmetic of each batch
unchanged.
"""
from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from functools import lru_cache

import numpy as np

from .model import MemoryBank, NOISE_LABEL, _read_only


@dataclass(frozen=True)
class GradientBuffer:
    """Gradient accumulator for the rows one step touches.

    Step-local: row i of ``g`` belongs to the i-th distinct embedding row
    the step touched (``np.unique(batch_rows, return_inverse=True)`` gives
    the rows and the local index of each sample), so its size is the batch,
    not N.  Rows no term adds to stay exactly zero.  Each call adds one
    term: one fancy-index add when the buffer is ``distinct`` (no add names
    a row twice), else ``np.add.at``, which adds repeated rows (a draw with
    replacement) in turn; either way a row's sum is that of adding its
    samples one by one.
    """

    g: np.ndarray
    distinct: bool = False

    @classmethod
    def zeros(cls, n: int, d: int, distinct: bool = False) -> "GradientBuffer":
        return cls(g=np.zeros((n, d)), distinct=distinct)

    def add_rows(self, rows: np.ndarray, grad: np.ndarray) -> None:
        if self.distinct:
            self.g[rows] += grad
        else:
            np.add.at(self.g, rows, grad)


@dataclass(frozen=True)
class LossReport:
    """All loss terms of one evaluation.  The composites are derived at
    construction: l_cmc = l_v + l_r + l_vr, l_sca = lambda_intra l_intra +
    lambda_inter l_inter and l_overall = l_cmc + l_sca.  The epoch schedule
    is the caller's: a term not yet started comes in as 0."""

    l_v: float
    l_r: float
    l_vr: float
    l_cmc: float = field(init=False)
    l_intra: float
    l_inter: float
    l_sca: float = field(init=False)
    l_overall: float = field(init=False)
    lambda_intra: InitVar[float]
    lambda_inter: InitVar[float]

    def __post_init__(self, lambda_intra: float, lambda_inter: float):
        l_cmc = self.l_v + self.l_r + self.l_vr
        l_sca = lambda_intra * self.l_intra + lambda_inter * self.l_inter
        for name, value in (("l_cmc", l_cmc), ("l_sca", l_sca), ("l_overall", l_cmc + l_sca)):
            object.__setattr__(self, name, value)


def _per_batch(values: np.ndarray):
    """A float for an unbatched call, else the array over the leading axes."""
    return float(values) if values.ndim == 0 else values


def memory_log_prob(
    features: np.ndarray, labels: np.ndarray, centroids: np.ndarray, tau: float, softmax: bool = False
) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
    """Log softmax probability (..., n) of each sample's own memory and, with
    ``softmax``, the softmax less each one-hot: -d log p / d logits.  One GEMM
    makes the (..., n, P) logits; all else works on that array in place."""
    # ufunc reductions: the ndarray methods' arithmetic, without their wrappers
    z = features @ centroids.T
    z /= tau
    z -= np.maximum.reduce(z, axis=-1, keepdims=True)
    own = np.arange(labels.size) * centroids.shape[0] + labels.reshape(-1)  # each sample's memory, flat in z
    log_p = z.reshape(-1)[own].reshape(labels.shape)
    np.exp(z, out=z)
    denom = np.add.reduce(z, axis=-1, keepdims=True)
    log_p -= np.log(denom)[..., 0]
    if not softmax:
        return log_p
    z /= denom
    z.reshape(-1)[own] -= 1.0  # a view: the GEMM's output is contiguous
    return log_p, z


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
    centroids, flat = bank.centroids, labs.reshape(-1)
    count = centroids.shape[0]
    if np.minimum.reduce(flat) < 0 or np.maximum.reduce(flat) >= count:
        bad = int(((flat < 0) | (flat >= count)).nonzero()[0][0])
        *batch, sample = np.unravel_index(bad, labs.shape)
        where = f"batch {', '.join(map(str, batch))} sample {sample}" if batch else f"batch sample {sample}"
        raise ValueError(f"{where} carries label {flat[bad]} with no memory")
    log_p, delta = memory_log_prob(feats, labs, centroids, tau, softmax=True)
    return _per_batch(-(np.add.reduce(log_p, axis=-1) / n)), delta @ centroids / (tau * n)


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
    noise = labs == NOISE_LABEL
    if np.logical_and.reduce(noise, axis=None):
        return _per_batch(np.zeros(feats.shape[:-2])), np.zeros_like(feats)
    residual = feats - bank.centroids[labs]
    residual[noise] = 0.0  # a noise row read the last memory
    return _per_batch(np.add.reduce(residual**2, axis=(-2, -1))), 2.0 * residual


def _sq_dists(x: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between the rows of x, over any leading
    batch axes: (..., n, d) -> (..., n, n)."""
    sq_norms = np.add.reduce(x**2, axis=-1)
    d = sq_norms[..., :, None] + sq_norms[..., None, :] - 2.0 * (x @ x.swapaxes(-1, -2))
    return np.maximum(d, 0.0)


def _kernel(sq: np.ndarray, sigma) -> np.ndarray:
    s = np.asarray(sigma, dtype=float)[..., None, None]
    return np.exp(-sq / (2.0 * s**2))


@lru_cache(maxsize=64)
def _pairs(n: int) -> tuple[np.ndarray, ...]:
    """Indices of the pairs i < j of n rows, read-only: every call shares them."""
    return tuple(_read_only(index) for index in np.triu_indices(n, k=1))


def _median_pair_dist(sq: np.ndarray) -> np.ndarray:
    """``np.median`` of the distances over the pairs i < j of each (..., n, n)
    block of squared distances (n >= 2, finite), floored at 1e-12."""
    i, j = _pairs(sq.shape[-1])
    pair_sq = sq[..., i, j]
    lo, hi = (pair_sq.shape[-1] - 1) // 2, pair_sq.shape[-1] // 2  # one middle pair when odd: (s + s) / 2 = s
    pair_sq.partition((lo, hi), axis=-1)
    return np.maximum((np.sqrt(pair_sq[..., lo]) + np.sqrt(pair_sq[..., hi])) / 2, 1e-12)


def _mmd2_grad(kxx, kxy, x, y, scale):
    # the gradient of MMD^2 per label w.r.t. x, from two kernel blocks;
    # scale = 2 / sigma^2.  d k(a,b)/da = k(a,b) * (b - a) / sigma^2
    n, m = x.shape[-2], y.shape[-2]
    gxx = (kxx @ x - np.add.reduce(kxx, axis=-1)[..., None] * x) / (n * n)
    gxy = (kxy @ y - np.add.reduce(kxy, axis=-1)[..., None] * x) / (n * m)
    return scale * (gxx - gxy)


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
    sq = _sq_dists(union)
    s = _median_pair_dist(sq) if isinstance(sigma, str) else float(sigma)
    k = _kernel(sq, s)
    kvv, kvr, krv, krr = k[..., :n, :n], k[..., :n, n:], k[..., n:, :n], k[..., n:, n:]
    # ndarray.mean's sums and divisions; both MMD^2s take the same two within-side means
    mvv, mvr, mrv, mrr = (np.add.reduce(b, axis=(-2, -1)) / (b.shape[-2] * b.shape[-1]) for b in (kvv, kvr, krv, krr))
    val_v, val_r = mvv + mrr - 2.0 * mvr, mvv + mrr - 2.0 * mrv
    scale = (2.0 / np.asarray(s, dtype=float) ** 2)[..., None, None]
    grad_v = _mmd2_grad(kvv, kvr, xv, xr, scale)
    grad_r = _mmd2_grad(krr, krv, xr, xv, scale)
    total = 0.5 * np.add.reduce(val_v, axis=-1) + 0.5 * np.add.reduce(val_r, axis=-1)
    return _per_batch(total / p), 0.5 * grad_v / p, 0.5 * grad_r / p
