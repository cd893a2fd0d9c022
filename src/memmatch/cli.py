"""Command line entry point: generate / train / eval / ari / sweep.

This module writes every run output: ``train --out``'s history.csv,
metrics.csv, report.json (with its configuration tags and notes), final
embeddings, assignment.csv and confidence_*.csv, ``eval``'s eval.csv,
``sweep``'s sweep.csv, and the tables on stdout.  The library modules only
compute and return typed records; the formats read back in (embeddings,
configs, specs) live in ``dataio``.

Exit codes: 0 success, 1 usage error, 2 data or validation error,
3 runtime diagnostic (e.g. clustering collapse).
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, astuple, fields, replace
from pathlib import Path

from . import dataio, pipeline, synth
from .metrics import RANKS
from .model import CONFIG_FIELDS, Assignment, ConfidenceWeights, EmbeddingSet, PipelineConfig
from .objective import LossReport
from .reliability import IdLossVector

LOSS_COLUMNS = tuple(f.name for f in fields(LossReport))
METRIC_COLUMNS = ("ari_rgb", "ari_ir", "ari_all", *(f"rank{k}" for k in RANKS), "map")


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
    return dataio.read_embeddings(args.visible), dataio.read_embeddings(args.infrared)


def cmd_generate(args) -> int:
    spec = synth.spec_from_text(Path(args.spec).read_text())
    visible, infrared = synth.generate(spec)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    dataio.write_embeddings(out / "visible.emb", visible)
    dataio.write_embeddings(out / "infrared.emb", infrared)
    (out / "spec.txt").write_text(dataio.record_to_text(spec))
    print(f"wrote {out / 'visible.emb'} ({len(visible)} rows)")
    print(f"wrote {out / 'infrared.emb'} ({len(infrared)} rows)")
    print(f"wrote {out / 'spec.txt'}")
    return 0


def _floats(values) -> list[str]:
    return [repr(float(v)) for v in values]


def _csv(header, rows) -> str:
    """A header line, then one line per row; each is a sequence of cells."""
    return "".join(",".join(line) + "\n" for line in (header, *rows))


def _metric_cells(m: pipeline.MetricReport | None) -> list[str]:
    """One run's ``METRIC_COLUMNS`` cells, blank without ground truth."""
    if m is None:
        return [""] * len(METRIC_COLUMNS)
    r = m.retrieval
    return _floats((m.ari_rgb, m.ari_ir, m.ari_all, *(r.rank[k] for k in RANKS), r.map))


def _history_csv(history) -> str:
    return _csv(("epoch", *LOSS_COLUMNS), ([str(s.epoch), *_floats(astuple(s.losses))] for s in history))


def _metrics_csv(result: pipeline.TrainingResult) -> str:
    epochs = [(str(s.epoch), s.metrics) for s in result.history] + [("final", result.final.metrics)]
    return _csv(("epoch", *METRIC_COLUMNS), ([e, *_metric_cells(m)] for e, m in epochs if m is not None))


def _assignment_csv(assignment: Assignment) -> str:
    """The matched pairs as visible,infrared, whichever side was solved as rows."""
    rows = []
    for p, pp in assignment.pairs():
        vis, inf = (pp, p) if assignment.flipped else (p, pp)
        rows.append((str(vis), str(inf), repr(float(assignment.cost[p, pp]))))
    return _csv(("visible_cluster", "infrared_cluster", "cost"), rows)


def _confidence_csv(losses: IdLossVector, weights: ConfidenceWeights) -> str:
    """loss,weight of the included (non-noise) samples."""
    keep = ~losses.excluded
    return _csv(("loss", "weight"), zip(_floats(losses.losses[keep]), _floats(weights.w[keep])))


def config_tags(cfg: PipelineConfig) -> tuple[str, ...]:
    tags = []
    if cfg.n_memories == 1:
        tags.append("baseline-matching")
    if not cfg.use_matching and cfg.lambda_intra == 0 and cfg.lambda_inter == 0 and not cfg.gmm_weighting:
        tags.append("cmc-baseline")
    return tuple(tags)


def _notes(s: pipeline.EpochSummary, batch_ids: int) -> list[str]:
    """An epoch's flipped matching, then its PK shortfall, as report lines."""
    notes = []
    if s.flipped:
        notes.append(
            f"epoch {s.epoch}: matching flipped (visible clusters {s.clusters_v_raw} < infrared "
            f"{s.clusters_r_raw}); infrared labels were transferred into the visible space"
        )
    if s.shortfall:
        notes.append(
            f"epoch {s.epoch}: only {batch_ids - s.shortfall} shared labels for batch_ids={batch_ids} "
            f"(shortfall {s.shortfall})"
        )
    return notes


def _report_dict(result: pipeline.TrainingResult) -> dict:
    final = result.final.metrics
    summaries = (*result.history, pipeline.EpochSummary.of(result.final))
    report = {
        "config": asdict(result.config),
        "tags": list(config_tags(result.config)),
        "notes": [n for s in summaries for n in _notes(s, result.config.batch_ids)],
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
    (out / "history.csv").write_text(_history_csv(result.history))
    (out / "metrics.csv").write_text(_metrics_csv(result))
    (out / "report.json").write_text(json.dumps(_report_dict(result), indent=2, sort_keys=True) + "\n")
    dataio.write_embeddings(out / "visible_final.emb", result.final.visible)
    dataio.write_embeddings(out / "infrared_final.emb", result.final.infrared)
    if result.final.assignment is not None:
        (out / "assignment.csv").write_text(_assignment_csv(result.final.assignment))
    for name, id_vec, conf in (
        ("v", result.final.id_v, result.final.conf_v),
        ("r", result.final.id_r, result.final.conf_r),
        ("vr", result.final.id_vr, result.final.conf_vr),
    ):
        (out / f"confidence_{name}.csv").write_text(_confidence_csv(id_vec, conf))


def _print_metrics(result: pipeline.TrainingResult) -> None:
    final = result.final.metrics
    if final is None:
        print("no ground-truth identities: metric report skipped")
        return
    print(f"ARI  rgb={final.ari_rgb:.4f} ir={final.ari_ir:.4f} all={final.ari_all:.4f}")
    ranks = " ".join(f"rank{k}={v:.4f}" for k, v in sorted(final.retrieval.rank.items()))
    print(f"CMC  {ranks}")
    print(f"mAP  {final.retrieval.map:.4f} ({final.retrieval.excluded_queries} queries excluded)")


def _out_dir(args, visible: EmbeddingSet, infrared: EmbeddingSet, cfg: PipelineConfig) -> Path | None:
    """Check the inputs, then make ``--out``: a run rejected for its inputs
    leaves no directory behind, and a bad ``--out`` fails before any run."""
    pipeline.check_inputs(visible, infrared, cfg)
    if not args.out:
        return None
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_train(args) -> int:
    visible, infrared = _load_sets(args)
    cfg = _resolve_config(args)
    out = _out_dir(args, visible, infrared, cfg)
    result = pipeline.run_training(visible, infrared, cfg)
    if out:
        _write_training_outputs(result, out)
        print(f"wrote training outputs to {args.out}")
    tags = config_tags(cfg)
    if tags:
        print("configuration tags: " + ", ".join(tags))
    _print_metrics(result)
    return 0


def cmd_eval(args) -> int:
    visible, infrared = _load_sets(args)
    if visible.true_identity is None or infrared.true_identity is None:
        raise dataio.DataFormatError("evaluation requires ground-truth identities in both files")
    cfg = replace(_resolve_config(args), epochs=0)
    out = _out_dir(args, visible, infrared, cfg)
    result = pipeline.run_training(visible, infrared, cfg)
    _print_metrics(result)
    csv_text = _csv(METRIC_COLUMNS, [_metric_cells(result.final.metrics)])
    print(csv_text, end="")
    if out:
        (out / "eval.csv").write_text(csv_text)
    return 0


def cmd_ari(args) -> int:
    visible, infrared = _load_sets(args)
    if visible.true_identity is None or infrared.true_identity is None:
        raise dataio.DataFormatError("the ARI report requires ground-truth identities in both files")
    cfg = replace(_resolve_config(args), epochs=0)
    result = pipeline.run_training(visible, infrared, cfg)
    print(_csv(METRIC_COLUMNS[:3], [_metric_cells(result.final.metrics)[:3]]), end="")
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
    out = _out_dir(args, visible, infrared, base)
    header = ("name", *METRIC_COLUMNS)
    print(",".join(header))
    rows = []
    failure: Exception | None = None
    for name, cfg in runs:
        try:
            result = pipeline.run_training(visible, infrared, cfg)
        except Exception as exc:  # keep partial results, then surface the error
            failure = exc
            break
        rows.append((name, *_metric_cells(result.final.metrics)))
        print(",".join(rows[-1]))
    if out:
        (out / "sweep.csv").write_text(_csv(header, rows))
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
    except (OSError, ValueError) as exc:  # DataFormatError and SpecError are ValueErrors
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except (pipeline.ClusteringCollapseError, pipeline.TrainingDivergedError) as exc:
        print(f"runtime diagnostic: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
