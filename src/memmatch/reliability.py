"""Per-sample label confidence from the identification-loss distribution.

Each sample's loss under a softmax classifier over the cluster memories is
fit with a two-component 1-D Gaussian mixture; the posterior of the
smaller-mean component becomes the sample's confidence weight.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (
    VARIANCE_FLOOR,
    ConfidenceWeights,
    EmbeddingSet,
    GmmFit,
    MemoryBank,
    PseudoLabeling,
)
from .objective import memory_log_prob

EM_TOL = 1e-8
EM_MAX_ITER = 500


class DegenerateLossError(RuntimeError):
    """Loss distribution cannot support a 2-component fit; callers should
    fall back to uniform confidence 1."""


@dataclass(frozen=True)
class IdLossVector:
    """Per-sample identification losses (nats); noise samples are flagged
    excluded and carry a zero placeholder value."""

    scope: str
    losses: np.ndarray
    excluded: np.ndarray

    def __post_init__(self):
        losses = np.array(self.losses, dtype=float)
        excluded = np.array(self.excluded, dtype=bool)
        if losses.shape != excluded.shape:
            raise ValueError("losses and excluded mask must align")
        if not np.all(np.isfinite(losses)):
            raise ValueError("losses must be finite")
        losses.setflags(write=False)
        excluded.setflags(write=False)
        object.__setattr__(self, "losses", losses)
        object.__setattr__(self, "excluded", excluded)

    def included_values(self) -> np.ndarray:
        return self.losses[~self.excluded]


def id_loss(
    embedding_set: EmbeddingSet, labels: PseudoLabeling, bank: MemoryBank, tau: float
) -> IdLossVector:
    """-log softmax probability of each sample's own cluster memory.

    Computed by ``objective.memory_log_prob``, the CMC loss's kernel, over
    all rows (noise rows read memory 0, then score 0).  With a single
    cluster the softmax is trivially 1 and every loss is 0.
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    if len(labels) != len(embedding_set):
        raise ValueError(f"labeling has {len(labels)} rows, the embedding set {len(embedding_set)}")
    if bank.cluster_count != labels.cluster_count:
        raise ValueError("bank was not built from this labeling")
    losses = -memory_log_prob(embedding_set.features, np.maximum(labels.labels, 0), bank.centroids, tau)
    losses[labels.noise_mask] = 0.0
    return IdLossVector(scope=labels.scope, losses=losses, excluded=labels.noise_mask)


def _log_normal_pdf(x: np.ndarray, mean: float, var: float) -> np.ndarray:
    return -0.5 * (np.log(2.0 * np.pi * var) + (x - mean) ** 2 / var)


def _component_log_densities(x: np.ndarray, means, variances, mix) -> np.ndarray:
    cols = [np.log(mix[k]) + _log_normal_pdf(x, means[k], variances[k]) for k in range(2)]
    return np.stack(cols, axis=1)


def _em_trace(data: np.ndarray):
    """Run EM to convergence; returns (means, variances, mix, ll_history)."""
    srt = np.sort(data)
    half = srt.shape[0] // 2
    lower, upper = srt[:half], srt[half:]
    means = np.array([lower.mean(), upper.mean()])
    variances = np.maximum(np.array([lower.var(), upper.var()]), VARIANCE_FLOOR)
    mix = np.array([0.5, 0.5])
    history: list[float] = []
    for _ in range(EM_MAX_ITER):
        log_joint = _component_log_densities(data, means, variances, mix)
        row_max = log_joint.max(axis=1, keepdims=True)
        log_norm = row_max[:, 0] + np.log(np.exp(log_joint - row_max).sum(axis=1))
        ll = float(log_norm.sum())
        resp = np.exp(log_joint - log_norm[:, None])
        if history and ll - history[-1] < EM_TOL:
            history.append(ll)
            break
        history.append(ll)
        totals = np.maximum(resp.sum(axis=0), 1e-300)
        mix = totals / data.shape[0]
        means = (resp * data[:, None]).sum(axis=0) / totals
        variances = np.maximum(
            (resp * (data[:, None] - means[None, :]) ** 2).sum(axis=0) / totals,
            VARIANCE_FLOOR,
        )
    return means, variances, mix, np.array(history)


def fit_gmm2(losses: IdLossVector) -> GmmFit:
    """EM fit of a two-component Gaussian mixture to the included losses.

    Initialization splits the sorted data at the median (lower half seeds
    component 0), so the fit is deterministic and takes no seed.  Components
    are sorted by mean after convergence.  Raises DegenerateLossError when
    fewer than two distinct values are available.
    """
    data = losses.included_values()
    if data.shape[0] < 2:
        raise DegenerateLossError("need at least 2 samples to fit; assign uniform confidence 1")
    if np.all(data == data[0]):
        raise DegenerateLossError("all losses identical; assign uniform confidence 1")
    means, variances, mix, history = _em_trace(data)
    order = np.argsort(means, kind="stable")
    return GmmFit(
        means=means[order],
        variances=variances[order],
        mix=mix[order],
        log_likelihood=float(history[-1]),
        iterations=len(history),
    )


def confidence(losses: IdLossVector, fit: GmmFit) -> ConfidenceWeights:
    """Posterior weight of the smaller-mean component per sample.

    Excluded (noise) samples get weight 0: they never enter memories.
    """
    log_joint = _component_log_densities(losses.losses, fit.means, fit.variances, fit.mix)
    row_max = log_joint.max(axis=1, keepdims=True)
    resp = np.exp(log_joint - row_max)
    w = resp[:, 0] / resp.sum(axis=1)
    w = np.clip(w, 0.0, 1.0)
    w[losses.excluded] = 0.0
    return ConfidenceWeights(scope=losses.scope, w=w, gmm=fit)


def uniform_confidence(losses: IdLossVector) -> ConfidenceWeights:
    """Fallback weights when the GMM is disabled or degenerate: 1 for every
    included sample, 0 for noise."""
    w = np.where(losses.excluded, 0.0, 1.0)
    return ConfidenceWeights(scope=losses.scope, w=w, gmm=None)
