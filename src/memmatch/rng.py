"""Named random streams derived from a single seed.

Each consumer pulls its own generator by name, so reordering one consumer's
draws never perturbs another's.  There are two: "sampler" (the PK batches of
training, seeded by PipelineConfig.seed) and "synth" (synthetic data, seeded
by SynthSpec.seed); clustering and k-means draw nothing.
"""
from __future__ import annotations

import hashlib

import numpy as np

_U64 = (1 << 64) - 1


def named_stream(seed: int, name: str) -> np.random.Generator:
    """Deterministic generator for (seed, name); independent across names."""
    key = int.from_bytes(hashlib.sha256(name.encode("utf8")).digest()[:8], "little")
    return np.random.default_rng(np.random.SeedSequence([int(seed) & _U64, key]))
