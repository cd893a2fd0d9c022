"""Tests of the benchmark itself: python3 -m pytest -q perfbench"""
from __future__ import annotations

import json
import re
import sys
import types
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import child  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import OVERHEAD, Timeline, Tracer, covered, percentile, percentile_report, self_times  # noqa: E402

import memmatch.clustering  # noqa: E402
import memmatch.objective  # noqa: E402
import memmatch.pipeline  # noqa: E402
from memmatch.metrics import ari, retrieval_eval  # noqa: E402
from memmatch.model import PipelineConfig  # noqa: E402
from memmatch.synth import SynthSpec, generate  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        self.t += 1.0
        return self.t


def _tiny_inputs():
    spec = SynthSpec(identities=4, samples_per_identity_per_modality=8, sub_modes=2, dim=16, seed=5)
    cfg = PipelineConfig(epochs=2, batch_ids=2, per_id_visible=2, per_id_infrared=2, inter_start_epoch=1, seed=5)
    return generate(spec), cfg


def _summary(result):
    return child.summarize(result)


def _pipeline_attrs():
    names = ("cluster_joint", "build_memory", "sub_cluster", "multi_memory_cost", "solve_assignment",
             "fit_gmm2", "cluster_nce", "inter_loss", "retrieval_eval", "ari_report", "pk_sample", "run_epoch")
    return {n: getattr(memmatch.pipeline, n) for n in names}


def test_wrapper_passes_results_and_exceptions_through():
    ns = types.SimpleNamespace()

    def double(x):
        return 2 * x

    def boom():
        raise KeyError("boom")

    ns.double, ns.boom = double, boom
    seen = []
    tracer = Tracer(clock=FakeClock())
    tracer.wrap(ns, "double", "t.double", lambda c, a, k, r, e: seen.append((a, r, e)))
    tracer.wrap(ns, "boom", "t.boom", lambda c, a, k, r, e: seen.append((a, r, type(e))))
    assert ns.double(21) == 42
    with pytest.raises(KeyError, match="boom"):
        ns.boom()
    assert seen == [((21,), 42, None), ((), None, KeyError)]
    assert [s[0] for s in tracer.spans] == ["t.double", OVERHEAD, "t.boom", OVERHEAD]
    tracer.restore()
    assert ns.double is double and ns.boom is boom


def test_a_hook_that_cannot_read_the_call_marks_its_metrics_broken():
    ns = types.SimpleNamespace(f=lambda x: x + 1)
    tracer = Tracer()
    tracer.wrap(ns, "f", "t.f", lambda c, a, k, r, e: a[0].shape)
    assert ns.f(1) == 2
    assert tracer.broken == {"t.f"}
    tracer.restore()


def test_originals_restored_after_a_traced_run_even_when_it_raises():
    before = _pipeline_attrs()
    methods = (memmatch.pipeline.TrainableEmbeddings.sets, memmatch.pipeline.TrainableEmbeddings.apply_step,
               memmatch.objective.GradientBuffer.add_rows)
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed(layers.install):
            assert memmatch.pipeline.cluster_joint is not memmatch.clustering.cluster_joint
            raise RuntimeError("stop")
    assert _pipeline_attrs() == before
    assert memmatch.pipeline.cluster_joint is memmatch.clustering.cluster_joint
    assert memmatch.clustering.dbscan.__module__ == "memmatch.clustering"
    assert (memmatch.pipeline.TrainableEmbeddings.sets, memmatch.pipeline.TrainableEmbeddings.apply_step,
            memmatch.objective.GradientBuffer.add_rows) == methods


def test_traced_run_matches_untraced_and_reports_every_layer_metric():
    (visible, infrared), cfg = _tiny_inputs()
    plain = memmatch.pipeline.run_training(visible, infrared, cfg)
    tracer = Tracer()
    with tracer.installed(layers.install), tracer.span(layers.ROOT):
        traced = memmatch.pipeline.run_training(visible, infrared, cfg)
    assert checks.differences(_summary(plain), _summary(traced)) == []
    metrics, gaps = layers.derive(tracer)
    assert tracer.missing == set() and tracer.broken == set()
    assert all(value is not None for value, _ in metrics.values())
    assert metrics["pipeline.batches"][0] == len(gaps) + cfg.epochs
    assert metrics["matching.assign_p"][0] >= 1
    assert 0.0 < metrics["pipeline.batch_loop_share"][0] < 1.0


def test_missing_function_reads_null_and_does_not_crash(monkeypatch):
    monkeypatch.delattr(memmatch.clustering, "pairwise_cosine_distance")
    tracer = Tracer()
    with tracer.installed(layers.install), tracer.span(layers.ROOT):
        pass
    assert "clustering.distance" in tracer.missing
    metrics, _ = layers.derive(tracer)
    assert metrics["clustering.distance_s"][0] is None
    assert metrics["clustering.distance_bytes"][0] is None
    assert metrics["clustering.dbscan_s"][0] == 0.0


def test_self_time_of_hand_made_nested_spans():
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["a.inner", 2.0, 3.0, 1],
        ["b", 5.0, 9.0, 0],
        [OVERHEAD, 9.0, 9.5, 0],
    ]
    assert self_times(spans) == [10.0 - 3.0 - 4.0 - 0.5, 2.0, 1.0, 4.0, 0.5]
    tl = Timeline(spans)
    assert tl.net(0.0, 10.0) == 9.5
    assert tl.net(0.0, 9.2) == 9.2  # an overhead span only partly inside is not removed
    assert tl.busy("a") == 3.0
    assert covered([(1.0, 4.0), (2.0, 6.0), (8.0, 12.0)], 0.0, 10.0) == 7.0


def test_busy_counts_recursive_calls_once_and_layers_by_outermost_span():
    spans = [
        ["run", 0.0, 20.0, -1],
        ["x.f", 1.0, 9.0, 0],
        ["x.f", 2.0, 5.0, 1],
        ["x.g", 6.0, 8.0, 1],
        ["x.g", 10.0, 12.0, 0],
        ["y.h", 13.0, 14.0, 0],
    ]
    tl = Timeline(spans)
    assert tl.busy("x.f") == 8.0
    assert tl.layer_busy("x") == 10.0
    assert tl.layer_busy("y") == 1.0


def test_percentiles_report_their_sample_count():
    assert percentile([3.0, 1.0, 2.0], 50) == 2.0
    assert percentile(range(1, 1001), 99) == 990
    report = percentile_report("p.step_ms", [0.001 * k for k in range(1, 201)])
    assert report["p.step_ms_samples"] == (200, "count")
    assert report["p.step_ms_p50"] == (100.0, "ms")
    assert report["p.step_ms_p99"][0] == pytest.approx(198.0)
    assert percentile_report("p.step_ms", [])["p.step_ms_p99"] == (None, "ms")
    with pytest.raises(ValueError):
        percentile([], 50)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_inputs_depend_only_on_the_seed(name):
    spec_a, cfg_a = workloads.inputs(name, 7)
    spec_b, cfg_b = workloads.inputs(name, 7)
    spec_c, cfg_c = workloads.inputs(name, 8)
    assert (spec_a, cfg_a) == (spec_b, cfg_b)
    assert {k: v for k, v in spec_a.items() if spec_c[k] != v} == {"seed": 7}
    assert {k: v for k, v in cfg_a.items() if cfg_c[k] != v} == {"seed": 7}
    assert spec_a["dim"] == 64 and spec_a["identity_spread"] == 1.0 and cfg_a["dbscan_eps"] == 0.3
    small = replace(SynthSpec(**spec_a), identities=3)
    va, ra = generate(small)
    vb, rb = generate(small)
    assert np.array_equal(va.features, vb.features) and np.array_equal(ra.features, rb.features)
    assert PipelineConfig(**cfg_a).validate() == []
    assert workloads.n_joint(name) == 2 * spec_a["identities"] * spec_a["samples_per_identity_per_modality"]


def test_metric_names_are_well_formed_and_match_the_benchmark_file():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert e2e == run.UNITS
    tracer = Tracer()
    with tracer.installed(layers.install), tracer.span(layers.ROOT):
        pass
    emitted, _ = layers.derive(tracer)
    emitted.update(layers.step_percentiles([]))
    emitted["synth.generate_s"] = (None, "s")
    emitted["trace.overhead_frac"] = (None, "ratio")
    assert per_layer == {name: unit for name, (_, unit) in emitted.items()}
    for name in list(e2e) + list(per_layer):
        assert NAME.fullmatch(name) and len(name) <= 64


def test_audit_recomputations_agree_with_memmatch():
    rng = np.random.default_rng(0)
    pred = rng.integers(-1, 5, size=60)
    truth = rng.integers(0, 4, size=60)
    assert checks.pair_counting_ari(pred, truth) == pytest.approx(ari(pred, truth), abs=1e-12)
    (visible, infrared), _ = _tiny_inputs()
    report = retrieval_eval(query=infrared, gallery=visible)
    got = checks.retrieval(infrared.features, infrared.true_identity, visible.features, visible.true_identity)
    assert got == pytest.approx((report.map, report.rank[1]), abs=1e-12)


def test_audit_flags_a_wrong_total_cost_and_differences_name_the_field():
    (visible, infrared), cfg = _tiny_inputs()
    good = _summary(memmatch.pipeline.run_training(visible, infrared, cfg))
    assert checks.audit(good) == []
    bad = dict(good, total_cost=good["total_cost"] + 1.0, map=good["map"] * 0.5)
    problems = checks.audit(bad)
    assert any("total_cost" in p for p in problems) and any(p.startswith("map") for p in problems)
    assert checks.differences(good, bad) == ["total_cost", "map"]
