"""Command line entry point: generate / train / eval / ari / sweep.

Exit codes: 0 success, 1 usage error, 2 data or validation error,
3 runtime diagnostic (e.g. clustering collapse).
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, replace
from pathlib import Path

from . import dataio, matching, metrics, objective, pipeline, reliability, synth
from .model import CONFIG_FIELDS, EmbeddingSet, PipelineConfig, validate


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); we map usage to 1
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="memmatch", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write synthetic embedding files from a spec")
    gen.add_argument("--spec", required=True, help="key=value spec file")
    gen.add_argument("--out", required=True, help="output directory")
    gen.set_defaults(func=cmd_generate)

    def add_common(p, with_out=True):
        p.add_argument("--visible", required=True, help="visible embedding file")
        p.add_argument("--infrared", required=True, help="infrared embedding file")
        p.add_argument("--config", default=None, help="key=value config file")
        if with_out:
            p.add_argument("--out", default=None, help="output directory")
        p.add_argument("overrides", nargs="*", metavar="key=value", help="config overrides")

    train = sub.add_parser("train", help="run the training pipeline")
    add_common(train)
    train.set_defaults(func=cmd_train)

    ev = sub.add_parser("eval", help="evaluate embeddings without training")
    add_common(ev)
    ev.set_defaults(func=cmd_eval)

    ar = sub.add_parser("ari", help="report the (RGB, IR, ALL) ARI triple")
    add_common(ar, with_out=False)
    ar.set_defaults(func=cmd_ari)

    sw = sub.add_parser("sweep", help="run one training per value of a config axis")
    add_common(sw)
    sw.add_argument("--axis", required=True, help="config key to vary, or 'ablation'")
    sw.add_argument("--values", default="", help="comma-separated values for the axis")
    sw.set_defaults(func=cmd_sweep)
    return parser


def _parse_overrides(pairs) -> dict[str, str]:
    out = {}
    for pair in pairs:
        if "=" not in pair:
            raise UsageError(f"override {pair!r} is not of the form key=value")
        key, _, value = pair.partition("=")
        out[key.strip()] = value.strip()
    return out


def _resolve_config(args) -> PipelineConfig:
    cfg = PipelineConfig()
    if args.config:
        cfg = dataio.read_config(args.config, cfg)
    return dataio.config_from_entries(_parse_overrides(args.overrides), cfg)


def _load_sets(args) -> tuple[EmbeddingSet, EmbeddingSet]:
    out = []
    for path in (args.visible, args.infrared):
        es = dataio.read_embeddings(path)
        problems = validate(es)
        if problems:
            raise dataio.DataFormatError(f"{path}: " + "; ".join(problems))
        out.append(es)
    return out[0], out[1]


def cmd_generate(args) -> int:
    spec = synth.spec_from_text(Path(args.spec).read_text())
    visible, infrared = synth.generate(spec)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    dataio.write_embeddings(out / "visible.emb", visible)
    dataio.write_embeddings(out / "infrared.emb", infrared)
    (out / "spec.txt").write_text(synth.spec_to_text(spec))
    print(f"wrote {out / 'visible.emb'} ({len(visible)} rows)")
    print(f"wrote {out / 'infrared.emb'} ({len(infrared)} rows)")
    print(f"wrote {out / 'spec.txt'}")
    return 0


def _metrics_csv_rows(result: pipeline.TrainingResult) -> str:
    lines = ["epoch," + metrics.METRIC_CSV_HEADER]
    for state in result.history:
        if state.metrics is not None:
            lines.append(f"{state.epoch}," + state.metrics.csv_row())
    if result.final.metrics is not None:
        lines.append("final," + result.final.metrics.csv_row())
    return "\n".join(lines) + "\n"


def _report_dict(result: pipeline.TrainingResult) -> dict:
    final = result.final.metrics
    report = {
        "config": asdict(result.config),
        "tags": list(result.tags),
        "notes": [n for state in (*result.history, result.final) for n in state.notes],
        "epochs_run": len(result.history),
    }
    if final is not None:
        report["final_metrics"] = {
            "ari_rgb": final.ari_rgb,
            "ari_ir": final.ari_ir,
            "ari_all": final.ari_all,
            "rank": {str(k): v for k, v in final.retrieval.rank.items()},
            "map": final.retrieval.map,
            "excluded_queries": final.retrieval.excluded_queries,
        }
    return report


def _write_training_outputs(result: pipeline.TrainingResult, out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    rows = [objective.LOSS_CSV_HEADER]
    rows += [objective.loss_csv_row(s.epoch, s.losses) for s in result.history]
    (out / "history.csv").write_text("\n".join(rows) + "\n")
    (out / "metrics.csv").write_text(_metrics_csv_rows(result))
    (out / "report.json").write_text(json.dumps(_report_dict(result), indent=2, sort_keys=True) + "\n")
    dataio.write_embeddings(out / "visible_final.emb", result.final.visible)
    dataio.write_embeddings(out / "infrared_final.emb", result.final.infrared)
    if result.final.assignment is not None:
        (out / "assignment.csv").write_text(matching.assignment_to_csv(result.final.assignment))
    for name, id_vec, conf in (
        ("v", result.final.id_v, result.final.conf_v),
        ("r", result.final.id_r, result.final.conf_r),
        ("vr", result.final.id_vr, result.final.conf_vr),
    ):
        (out / f"confidence_{name}.csv").write_text(reliability.confidence_to_csv(id_vec, conf))


def _print_metrics(result: pipeline.TrainingResult) -> None:
    final = result.final.metrics
    if final is None:
        print("no ground-truth identities: metric report skipped")
        return
    print(f"ARI  rgb={final.ari_rgb:.4f} ir={final.ari_ir:.4f} all={final.ari_all:.4f}")
    ranks = " ".join(f"rank{k}={v:.4f}" for k, v in sorted(final.retrieval.rank.items()))
    print(f"CMC  {ranks}")
    print(f"mAP  {final.retrieval.map:.4f} ({final.retrieval.excluded_queries} queries excluded)")


def cmd_train(args) -> int:
    visible, infrared = _load_sets(args)
    cfg = _resolve_config(args)
    result = pipeline.run_training(visible, infrared, cfg)
    if args.out:
        _write_training_outputs(result, Path(args.out))
        print(f"wrote training outputs to {args.out}")
    if result.tags:
        print("configuration tags: " + ", ".join(result.tags))
    _print_metrics(result)
    return 0


def cmd_eval(args) -> int:
    visible, infrared = _load_sets(args)
    if visible.true_identity is None or infrared.true_identity is None:
        raise dataio.DataFormatError("evaluation requires ground-truth identities in both files")
    cfg = replace(_resolve_config(args), epochs=0)
    result = pipeline.run_training(visible, infrared, cfg)
    _print_metrics(result)
    final = result.final.metrics
    csv_text = metrics.METRIC_CSV_HEADER + "\n" + final.csv_row() + "\n"
    print(csv_text, end="")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "eval.csv").write_text(csv_text)
    return 0


def cmd_ari(args) -> int:
    visible, infrared = _load_sets(args)
    if visible.true_identity is None or infrared.true_identity is None:
        raise dataio.DataFormatError("the ARI report requires ground-truth identities in both files")
    cfg = replace(_resolve_config(args), epochs=0)
    result = pipeline.run_training(visible, infrared, cfg)
    m = result.final.metrics
    print("ari_rgb,ari_ir,ari_all")
    print(f"{m.ari_rgb!r},{m.ari_ir!r},{m.ari_all!r}")
    return 0


def cmd_sweep(args) -> int:
    visible, infrared = _load_sets(args)
    base = _resolve_config(args)
    if args.axis == "ablation":
        runs = pipeline.ablation_configs(base)
    else:
        if args.axis not in CONFIG_FIELDS:
            raise UsageError(f"unknown sweep axis {args.axis!r}; valid: ablation, {', '.join(CONFIG_FIELDS)}")
        values = [v for v in args.values.split(",") if v]
        if not values:
            raise UsageError("--values must list at least one value for a config axis")
        runs = [(v, dataio.config_from_entries({args.axis: v}, base)) for v in values]
    header = "name," + metrics.METRIC_CSV_HEADER
    lines = [header]
    print(header)
    failure: Exception | None = None
    for name, cfg in runs:
        try:
            result = pipeline.run_training(visible, infrared, cfg)
        except Exception as exc:  # keep partial results, then surface the error
            failure = exc
            break
        m = result.final.metrics
        row = f"{name}," + (m.csv_row() if m is not None else "," * 7)
        lines.append(row)
        print(row)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "sweep.csv").write_text("\n".join(lines) + "\n")
    if failure is not None:
        raise failure
    return 0


def main(argv=None) -> int:
    try:
        parser = _build_parser()
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except (dataio.DataFormatError, synth.SpecError, ValueError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except (pipeline.ClusteringCollapseError, pipeline.TrainingDivergedError) as exc:
        print(f"runtime diagnostic: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
