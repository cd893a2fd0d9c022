"""Same-output gate: ``run_training`` on reduced shapes of the benchmark's
three workload kinds, compared with the committed ``golden_outputs.json``.

Each run is repeated with ``model.BLOCK_BYTES`` at the 2 MiB default, at
64 KiB and at 32 MiB, against the same golden file, so a block rule that
moves a decision fails here.  Discrete outputs (labels of every scope, the
assignment ``q`` and ``flipped``, GMM fallbacks, query counts) must match
exactly.  Floats (metrics, per-epoch losses, the final id-losses and
confidences) must match to a relative tolerance of 1e-12, taken against the
largest magnitude of each array, so a BLAS whose kernels round differently
may move them by ulps but not by more.

Regenerate the file only with a CHANGES.md line naming what moved and why:

    PYTHONPATH=src python tests/test_golden.py
"""
from __future__ import annotations

import json
import pathlib
from dataclasses import astuple

import numpy as np
import pytest

from memmatch import model
from memmatch.model import PipelineConfig
from memmatch.pipeline import run_training
from memmatch.synth import SynthSpec, generate

GOLDEN = pathlib.Path(__file__).with_name("golden_outputs.json")
RTOL = 1e-12
BUDGETS = (2 << 20, 64 << 10, 32 << 20)

_COMMON_SPEC = {"dim": 64, "identity_spread": 1.0, "seed": 5}
_COMMON_CONFIG = {"dbscan_eps": 0.3, "seed": 5}
# the benchmark's workload kinds at about a quarter of their rows
WORKLOADS = {
    "cluster_heavy": ({"identities": 8, "samples_per_identity_per_modality": 40}, {"epochs": 1}),
    "match_heavy": ({"identities": 60, "samples_per_identity_per_modality": 5}, {"epochs": 1}),
    "train_heavy": (
        {"identities": 10, "samples_per_identity_per_modality": 12},
        {"epochs": 3, "batch_ids": 4, "per_id_visible": 2, "per_id_infrared": 2, "inter_start_epoch": 1},
    ),
}


def _metrics(report) -> dict | None:
    if report is None:
        return None
    r = report.retrieval
    return {
        "ari": [report.ari_rgb, report.ari_ir, report.ari_all],
        "rank": [r.rank[k] for k in sorted(r.rank)],
        "map": r.map,
        "queries": [r.valid_queries, r.excluded_queries],
    }


def outputs(name: str) -> dict:
    """The gated outputs of one workload's run, as JSON-ready values."""
    spec, config = WORKLOADS[name]
    visible, infrared = generate(SynthSpec(**_COMMON_SPEC, **spec))
    result = run_training(visible, infrared, PipelineConfig(**_COMMON_CONFIG, **config))
    final = result.final
    epochs = (*result.history, final)
    scopes = {"v": (final.id_v, final.conf_v), "r": (final.id_r, final.conf_r), "vr": (final.id_vr, final.conf_vr)}
    return {
        "labels": {
            scope: getattr(final, f"labels_{scope}").labels.tolist()
            for scope in ("v_raw", "r_raw", "v", "r", "joint")
        },
        "q": np.argwhere(final.assignment.q).tolist(),
        "flipped": final.flipped,
        "gmm_fallback": {scope: conf.gmm is None for scope, (_, conf) in scopes.items()},
        "metrics": [_metrics(e.metrics) for e in epochs],
        "losses": [astuple(e.losses) for e in epochs],
        "id_losses": {scope: ids.losses.tolist() for scope, (ids, _) in scopes.items()},
        "confidences": {scope: conf.w.tolist() for scope, (_, conf) in scopes.items()},
    }


EXACT = ("labels", "q", "flipped", "gmm_fallback")


def _assert_close(actual, expected, where: str) -> None:
    a, e = np.asarray(actual, dtype=float), np.asarray(expected, dtype=float)
    assert a.shape == e.shape, where
    scale = float(np.max(np.abs(e), initial=0.0))
    np.testing.assert_allclose(a, e, rtol=RTOL, atol=RTOL * scale, err_msg=where)


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("budget", BUDGETS, ids=lambda b: f"{b >> 10}KiB")
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_run_matches_golden(name, budget, golden, monkeypatch):
    monkeypatch.setattr(model, "BLOCK_BYTES", budget)
    got, want = outputs(name), golden[name]
    assert got.keys() == want.keys()
    for key in EXACT:
        assert got[key] == want[key], f"{name}: {key}"
    for i, (g, w) in enumerate(zip(got["metrics"], want["metrics"], strict=True)):
        assert g["queries"] == w["queries"], f"{name}: metrics[{i}] queries"
        for field in ("ari", "rank", "map"):
            _assert_close(g[field], w[field], f"{name}: metrics[{i}] {field}")
    _assert_close(got["losses"], want["losses"], f"{name}: losses")
    for key in ("id_losses", "confidences"):
        for scope in want[key]:
            _assert_close(got[key][scope], want[key][scope], f"{name}: {key} {scope}")


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({name: outputs(name) for name in sorted(WORKLOADS)}, separators=(",", ":")) + "\n")
