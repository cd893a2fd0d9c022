"""Benchmark of memmatch training, run from the root of a checkout:

    python3 perfbench/run.py --workload cluster_heavy --seed 1 --seconds 30 --trace 0

Each training run happens in a fresh child process (child.py), one at a
time, with the BLAS thread count fixed to BLAS_THREADS.  ``--trace 0``
repeats untraced runs for ``--seconds`` seconds and reports the end-to-end
metrics as medians over the runs; ``--trace 1`` alternates untraced and
traced runs and reports the per-layer metrics.  Every run of one seed must
reproduce the same final state, and the first one is audited by independent
recomputation (checks.py).  The last line of standard output is one JSON
object; the exit code is 1 when a check fails or no run succeeded.
"""
from __future__ import annotations

import os

BLAS_THREADS = 1
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
# Set before numpy loads, here and (inherited) in every child.
os.environ.update({var: str(BLAS_THREADS) for var in THREAD_VARS})

import argparse
import json
import pickle
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import workloads
from layers import step_percentiles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
MIN_ROUNDS = {0: 3, 1: 2}
DEADLINE_S = 165.0  # the whole command must end within 180 s

QUALITY = ("ari_all", "ari_rgb", "ari_ir", "map", "rank1")
UNITS = {
    "train_s": "s",
    "samples_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    **{name: "ratio" for name in QUALITY},
}


def git_sha() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def run_child(workload: str, seed: int, traced: bool, spans_out: Path, timeout: float) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"), workload, str(seed), str(int(traced)), str(spans_out)]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        return {"error": f"child did not finish within {timeout:.0f} s", "traced": traced}
    if done.returncode != 0:
        return {"error": f"child exited with code {done.returncode}", "traced": traced}
    try:
        rep = pickle.loads(done.stdout)
    except (pickle.UnpicklingError, EOFError) as err:
        return {"error": f"unreadable child output: {err}", "traced": traced}
    rep["traced"] = traced
    return rep


def measure(workload: str, seed: int, seconds: float, trace: int) -> list[dict]:
    """Rounds of one untraced (and, with trace, one traced) run until the
    next round would pass ``seconds``; at least MIN_ROUNDS[trace] rounds."""
    kinds = (False, True) if trace else (False,)
    reps: list[dict] = []
    start = time.monotonic()
    rounds = 0
    while True:
        round_start = time.monotonic()
        for traced in kinds:
            spans_out = OUT / f"spans-{workload}-seed{seed}-run{len(reps)}.jsonl"
            left = DEADLINE_S - (time.monotonic() - start)
            reps.append(run_child(workload, seed, traced, spans_out, left))
        rounds += 1
        now = time.monotonic()
        next_end = now - start + (now - round_start)
        if next_end > DEADLINE_S or (rounds >= MIN_ROUNDS[trace] and next_end > seconds):
            return reps


def end_to_end(workload: str, ok: list[dict]) -> dict:
    train_s = statistics.median(r["train_s"] for r in ok)
    s = ok[0]["summary"]
    values = {
        "train_s": train_s,
        "samples_per_s": workloads.n_joint(workload) * workloads.passes(workload) / train_s,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in ok),
        "setup_s": statistics.median(t for r in ok for t in r["setup_s"]),
        "ari_all": s["ari"][2],
        "ari_rgb": s["ari"][0],
        "ari_ir": s["ari"][1],
        "map": s["map"],
        "rank1": s["rank1"],
    }
    return {name: (value, UNITS[name]) for name, value in values.items()}


def per_layer(reps: list[dict]) -> dict:
    traced = [r for r in reps if r["traced"] and "error" not in r]
    plain = [r for r in reps if not r["traced"] and "error" not in r]
    out = {}
    for name, (_, unit) in traced[0]["layers"].items():
        values = [r["layers"][name][0] for r in traced]
        out[name] = (None if None in values else statistics.median(values), unit)
    out.update(step_percentiles([g for r in traced for g in r["gaps"]]))
    out["synth.generate_s"] = (statistics.median(t for r in traced + plain for t in r["generate_s"]), "s")
    overhead = statistics.median(r["train_s"] for r in traced) / statistics.median(r["train_s"] for r in plain)
    out["trace.overhead_frac"] = (overhead - 1.0, "ratio")
    return out


def verify(reps: list[dict]) -> list[str]:
    ok = [r for r in reps if "error" not in r]
    if not ok:
        return ["no training run succeeded"]
    if len({r["traced"] for r in reps}) == 2 and len({r["traced"] for r in ok}) < 2:
        return ["no traced and untraced pair succeeded"]
    problems = [f"audit: {p}" for p in checks.audit(ok[0]["summary"])]
    for i, r in enumerate(ok[1:], start=1):
        diff = checks.differences(ok[0]["summary"], r["summary"])
        if diff:
            kind = "traced" if r["traced"] else "untraced"
            problems.append(f"{kind} run {i} differs from run 0 in {', '.join(diff)}")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "memmatch" / "__init__.py").is_file():
        print(f"error: no memmatch sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    reps = measure(args.workload, args.seed, args.seconds, args.trace)
    ok = [r for r in reps if "error" not in r]
    problems = verify(reps)
    for r in reps:
        if "error" in r:
            print(f"# failed run: {r['error']}", file=sys.stderr)
    for p in problems:
        print(f"# CHECK FAILED: {p}", file=sys.stderr)

    env = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "git_sha": git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "numpy": ok[0]["numpy"] if ok else None,
        "n_joint": workloads.n_joint(args.workload),
        "pv": ok[0]["pv"] if ok else None,
        "pr": ok[0]["pr"] if ok else None,
        "runs": len(reps),
        "traced_runs": sum(r["traced"] for r in reps),
    }
    metrics: dict = {}
    if not problems:
        metrics = per_layer(reps) if args.trace else end_to_end(args.workload, ok)
    fail_frac = (len(reps) - len(ok)) / len(reps)
    print("# " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    print(f"fail_frac {fail_frac} ratio")

    record = {
        "env": env,
        "problems": problems,
        "fail_frac": fail_frac,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "runs": [
            {k: r.get(k) for k in ("traced", "error", "train_s", "setup_s", "generate_s", "peak_rss_mb")}
            for r in reps
        ],
    }
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n")

    correct = not problems
    line = {
        "correct": correct,
        "attempted": len(reps),
        "failed": len(reps) - len(ok),
        "metrics": record["metrics"],
    }
    print(json.dumps(line))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
