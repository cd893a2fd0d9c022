"""One training run of one workload, in a process of its own.

    python3 perfbench/child.py WORKLOAD SEED TRACE SPANS_OUT

Generates and validates the workload's inputs SETUP_REPEATS times, runs
``run_training`` once (wrapped by the tracer when TRACE is 1, writing its
spans to SPANS_OUT as JSON lines) and writes one pickled dict to standard
output: timings, peak RSS of this process, the final state the correctness
checks need and, when traced, the per-layer metrics.  A raise inside ``run_training`` is reported
in the dict under ``error``, not as a crash.
"""
from __future__ import annotations

import json
import pickle
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_REPEATS = 3  # set-up is ~30 ms; repeat it so its median is steady


def load_memmatch():
    """Import memmatch from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(SRC))
    import memmatch

    where = Path(memmatch.__file__).resolve().parent
    if where != (SRC / "memmatch").resolve():
        raise SystemExit(f"memmatch was imported from {where}, not from {SRC}")
    return memmatch


def summarize(result) -> dict:
    """The final pass's outputs that two runs of one seed must reproduce."""
    final = result.final
    m = final.metrics
    a = final.assignment
    return {
        "labels_v": final.labels_v.labels,
        "labels_r": final.labels_r.labels,
        "labels_joint": final.labels_joint.labels,
        "assignment_q": None if a is None else a.q,
        "assignment_cost": None if a is None else a.cost,
        "total_cost": None if a is None else a.total_cost,
        "ari": (m.ari_rgb, m.ari_ir, m.ari_all),
        "map": m.retrieval.map,
        "rank1": m.retrieval.rank[1],
        "features_v": final.visible.features,
        "features_r": final.infrared.features,
        "truth_v": final.visible.true_identity,
        "truth_r": final.infrared.true_identity,
    }


def main(argv: list[str]) -> int:
    workload, seed, traced, spans_out = argv[1], int(argv[2]), argv[3] == "1", argv[4]
    out = sys.stdout.buffer
    sys.stdout = sys.stderr  # keep standard output for the pickle alone

    load_memmatch()
    import numpy as np
    from memmatch import model, pipeline, synth

    import layers
    import workloads
    from tracing import Tracer

    spec_fields, config_fields = workloads.inputs(workload, seed)
    rep = {"generate_s": [], "setup_s": [], "numpy": np.__version__}
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        visible, infrared = synth.generate(synth.SynthSpec(**spec_fields))
        t1 = time.perf_counter()
        problems = model.validate(visible) + model.validate(infrared)
        t2 = time.perf_counter()
        if problems:
            raise SystemExit(f"generated inputs are invalid: {problems[:3]}")
        rep["generate_s"].append(t1 - t0)
        rep["setup_s"].append(t2 - t0)
    cfg = model.PipelineConfig(**config_fields)

    tracer = Tracer() if traced else None
    t0 = time.perf_counter()
    try:
        if tracer is None:
            result = pipeline.run_training(visible, infrared, cfg)
        else:
            with tracer.installed(layers.install), tracer.span(layers.ROOT):
                result = pipeline.run_training(visible, infrared, cfg)
    except Exception as err:
        rep["error"] = f"{type(err).__name__}: {err}"
    rep["train_s"] = time.perf_counter() - t0
    rep["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if "error" not in rep:
        rep["summary"] = summarize(result)
        rep["pv"] = result.final.labels_v_raw.cluster_count
        rep["pr"] = result.final.labels_r_raw.cluster_count
    if tracer is not None:
        rep["layers"], rep["gaps"] = layers.derive(tracer)
        rep["missing"] = sorted(tracer.missing | tracer.broken)
        with open(spans_out, "w") as fh:
            for name, start, end, parent in tracer.spans:
                fh.write(json.dumps([name, start, end, parent]) + "\n")
    pickle.dump(rep, out, protocol=pickle.HIGHEST_PROTOCOL)
    out.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
