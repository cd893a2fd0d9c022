"""Deterministic two-modality synthetic embeddings with known identities.

Identity centers live on the unit sphere with a guaranteed minimum pairwise
separation.  Each identity carries several sub-modes (viewpoint-like
variations); each sample picks a sub-mode at random, adds Gaussian noise and
a fixed per-modality offset (the systematic modality gap), and is then
re-normalized.  A fraction of samples can be replaced by uniform sphere
points to simulate feature-level outliers.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataio import parse_kv_text, record_from_entries
from .model import INFRARED, VISIBLE, EmbeddingSet, non_finite, normalize_rows
from .rng import named_stream

_CENTER_ATTEMPTS = 20000


class SpecError(ValueError):
    """Invalid or unsatisfiable generator specification."""


@dataclass(frozen=True)
class SynthSpec:
    identities: int = 20
    samples_per_identity_per_modality: int = 10
    sub_modes: int = 3
    dim: int = 64
    identity_spread: float = 1.25
    sub_mode_spread: float = 0.45
    noise_sigma: float = 0.06
    modality_offset: float = 0.55
    outlier_fraction: float = 0.05
    seed: int = 7

    def validate(self) -> list[str]:
        out = non_finite(self)
        for name in ("identities", "samples_per_identity_per_modality", "sub_modes", "dim"):
            if getattr(self, name) < 1:
                out.append(f"{name} must be at least 1")
        if self.dim < 2:
            out.append("dim must be at least 2")
        for name in ("identity_spread", "sub_mode_spread", "noise_sigma"):
            if getattr(self, name) <= 0:
                out.append(f"{name} must be positive")
        if self.modality_offset < 0:
            out.append("modality_offset must be non-negative")
        if not 0.0 <= self.outlier_fraction < 1.0:
            out.append("outlier_fraction must lie in [0, 1)")
        return out


def _checked(spec: SynthSpec) -> SynthSpec:
    problems = spec.validate()
    if problems:
        raise SpecError("invalid spec: " + "; ".join(problems))
    return spec


def spec_from_text(text: str) -> SynthSpec:
    return _checked(record_from_entries(SynthSpec(), parse_kv_text(text), "spec"))


def _unit(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def _sample_centers(rng: np.random.Generator, spec: SynthSpec) -> np.ndarray:
    centers = np.zeros((spec.identities, spec.dim))
    for k in range(spec.identities):
        for _ in range(_CENTER_ATTEMPTS):
            cand = _unit(rng, spec.dim)
            if k == 0 or np.linalg.norm(centers[:k] - cand, axis=1).min() >= spec.identity_spread:
                centers[k] = cand
                break
        else:
            raise SpecError(
                f"could not place identity center {k} with pairwise separation "
                f">= {spec.identity_spread} in dimension {spec.dim}"
            )
    return centers


def generate(spec: SynthSpec) -> tuple[EmbeddingSet, EmbeddingSet]:
    """Deterministic (visible, infrared) sets for the given spec."""
    _checked(spec)
    rng = named_stream(spec.seed, "synth")
    centers = _sample_centers(rng, spec)
    sub_centers = np.zeros((spec.identities, spec.sub_modes, spec.dim))
    for k in range(spec.identities):
        for s in range(spec.sub_modes):
            sub_centers[k, s] = centers[k] + spec.sub_mode_spread * _unit(rng, spec.dim)
    offsets = {
        VISIBLE: spec.modality_offset * _unit(rng, spec.dim),
        INFRARED: spec.modality_offset * _unit(rng, spec.dim),
    }
    per = spec.samples_per_identity_per_modality
    sets = {}
    for modality in (VISIBLE, INFRARED):
        rows = np.zeros((spec.identities * per, spec.dim))
        ids = np.zeros(spec.identities * per, dtype=np.int64)
        i = 0
        for k in range(spec.identities):
            modes = rng.integers(0, spec.sub_modes, size=per)
            for s in modes:
                rows[i] = (
                    sub_centers[k, s]
                    + spec.noise_sigma * rng.standard_normal(spec.dim)
                    + offsets[modality]
                )
                ids[i] = k
                i += 1
        n_out = int(round(spec.outlier_fraction * rows.shape[0]))
        if n_out:
            picked = rng.choice(rows.shape[0], size=n_out, replace=False)
            for j in picked:
                rows[j] = _unit(rng, spec.dim)
        sets[modality] = EmbeddingSet(
            features=normalize_rows(rows),
            modality=np.full(rows.shape[0], modality),
            true_identity=ids,
        )
    return sets[VISIBLE], sets[INFRARED]
