"""The benchmark's workloads: a synthetic spec and a pipeline config each.

Every workload uses ``SynthSpec(dim=64, identity_spread=1.0)`` and
``dbscan_eps=0.3``; the seed argument feeds both ``SynthSpec.seed`` and
``PipelineConfig.seed`` and nothing else varies with it.  Fields not named
here keep their memmatch defaults.  See README.md for why each exists.
"""
from __future__ import annotations

_COMMON_SPEC = {"dim": 64, "identity_spread": 1.0}
_COMMON_CONFIG = {"dbscan_eps": 0.3}

WORKLOADS = {
    # Few large clusters: the three dense N x N distance matrices dominate
    # time and peak memory; matching and the batch loop stay small.
    "cluster_heavy": {
        "spec": {"identities": 20, "samples_per_identity_per_modality": 80},
        "config": {"epochs": 1},
    },
    # Many small clusters: the P^v x P^r Python loop in multi_memory_cost and
    # the cubic assignment solver dominate.
    "match_heavy": {
        "spec": {"identities": 240, "samples_per_identity_per_modality": 5},
        "config": {"epochs": 1},
    },
    # Small N, many 16-row batches over several epochs with every loss term
    # on: the SGD batch loop, whose every step touches all N rows, dominates.
    "train_heavy": {
        "spec": {"identities": 40, "samples_per_identity_per_modality": 20},
        "config": {
            "epochs": 4,
            "batch_ids": 4,
            "per_id_visible": 2,
            "per_id_infrared": 2,
            "inter_start_epoch": 1,
        },
    },
}


def inputs(name: str, seed: int) -> tuple[dict, dict]:
    """(SynthSpec fields, PipelineConfig fields) of workload ``name``."""
    w = WORKLOADS[name]
    spec = {**_COMMON_SPEC, **w["spec"], "seed": seed}
    config = {**_COMMON_CONFIG, **w["config"], "seed": seed}
    return spec, config


def n_joint(name: str) -> int:
    spec = WORKLOADS[name]["spec"]
    return 2 * spec["identities"] * spec["samples_per_identity_per_modality"]


def passes(name: str) -> int:
    """run_epoch passes per training run: the epochs plus the final eval."""
    return WORKLOADS[name]["config"]["epochs"] + 1
