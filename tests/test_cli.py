import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import memmatch
from memmatch import cli, pipeline
from memmatch.cli import main
from memmatch.dataio import write_embeddings
from memmatch.matching import solve_assignment
from memmatch.metrics import RetrievalReport
from memmatch.model import EmbeddingSet
from memmatch.objective import compose_report
from memmatch.reliability import IdLossVector, confidence, fit_gmm2
from memmatch.synth import SynthSpec, spec_to_text

FAST_CFG = [
    "epochs=2",
    "batch_ids=4",
    "inter_start_epoch=1",
    "seed=3",
]


def small_spec_text(**overrides):
    base = dict(
        identities=4,
        samples_per_identity_per_modality=8,
        sub_modes=2,
        dim=12,
        identity_spread=1.2,
        sub_mode_spread=0.25,
        noise_sigma=0.04,
        modality_offset=0.2,
        outlier_fraction=0.0,
        seed=9,
    )
    base.update(overrides)
    return spec_to_text(SynthSpec(**base))


@pytest.fixture()
def data_dir(tmp_path):
    spec = tmp_path / "spec.txt"
    spec.write_text(small_spec_text())
    out = tmp_path / "data"
    assert main(["generate", "--spec", str(spec), "--out", str(out)]) == 0
    return out


def test_generate_writes_files(data_dir):
    assert (data_dir / "visible.emb").exists()
    assert (data_dir / "infrared.emb").exists()
    assert (data_dir / "spec.txt").exists()


def test_generate_deterministic_bytes(tmp_path, data_dir):
    spec = tmp_path / "spec2.txt"
    spec.write_text(small_spec_text())
    out2 = tmp_path / "data2"
    assert main(["generate", "--spec", str(spec), "--out", str(out2)]) == 0
    assert (data_dir / "visible.emb").read_bytes() == (out2 / "visible.emb").read_bytes()
    assert (data_dir / "infrared.emb").read_bytes() == (out2 / "infrared.emb").read_bytes()


def test_generate_invalid_spec_exit_2(tmp_path, capsys):
    spec = tmp_path / "spec.txt"
    spec.write_text(small_spec_text(outlier_fraction=1.5))
    code = main(["generate", "--spec", str(spec), "--out", str(tmp_path / "x")])
    assert code == 2
    assert "outlier_fraction" in capsys.readouterr().err


def test_usage_error_exit_1(capsys):
    assert main(["trainn"]) == 1
    assert main([]) == 1


def train_args(data_dir, out, extra=()):
    return [
        "train",
        "--visible", str(data_dir / "visible.emb"),
        "--infrared", str(data_dir / "infrared.emb"),
        "--out", str(out),
        *FAST_CFG,
        *extra,
    ]


def test_train_outputs(data_dir, tmp_path, capsys):
    out = tmp_path / "run"
    assert main(train_args(data_dir, out)) == 0
    history = (out / "history.csv").read_text().strip().split("\n")
    assert history[0] == "epoch,l_v,l_r,l_vr,l_cmc,l_intra,l_inter,l_sca,l_overall"
    assert len(history) == 3  # header + 2 epochs
    assert history[1].startswith("1,")
    metrics = (out / "metrics.csv").read_text().strip().split("\n")
    assert metrics[0] == "epoch,ari_rgb,ari_ir,ari_all,rank1,rank5,rank10,rank20,map"
    assert metrics[-1].startswith("final,")
    assert (out / "report.json").exists()
    assert (out / "visible_final.emb").exists()
    assert (out / "assignment.csv").exists()
    assert (out / "confidence_v.csv").read_text().startswith("loss,weight")


TRAIN_OUTPUTS = [
    "assignment.csv", "confidence_r.csv", "confidence_v.csv", "confidence_vr.csv", "history.csv",
    "infrared_final.emb", "metrics.csv", "report.json", "visible_final.emb",
]


def test_train_rerun_byte_identical(data_dir, tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(train_args(data_dir, out1)) == 0
    assert main(train_args(data_dir, out2)) == 0
    assert sorted(p.name for p in out1.iterdir()) == TRAIN_OUTPUTS
    for name in TRAIN_OUTPUTS:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_train_single_memory_tagged(data_dir, tmp_path, capsys):
    out = tmp_path / "run"
    assert main(train_args(data_dir, out, ["n_memories=1"])) == 0
    captured = capsys.readouterr().out
    assert "baseline-matching" in captured
    report = (out / "report.json").read_text()
    assert "baseline-matching" in report


def test_train_overrides_echoed_in_report(data_dir, tmp_path):
    out = tmp_path / "run"
    assert main(train_args(data_dir, out, ["lambda_intra=0.5", "lambda_inter=0.05"])) == 0
    report = (out / "report.json").read_text()
    assert '"lambda_intra": 0.5' in report
    assert '"lambda_inter": 0.05' in report


def test_train_unknown_override_exit_2(data_dir, tmp_path, capsys):
    assert main(train_args(data_dir, tmp_path / "x", ["bogus=1"])) == 2
    err = capsys.readouterr().err
    assert "bogus" in err and "dbscan_eps" in err


def test_train_non_finite_override_exit_2(data_dir, tmp_path, capsys):
    assert main(train_args(data_dir, tmp_path / "x", ["dbscan_eps=nan"])) == 2
    err = capsys.readouterr().err
    assert "dbscan_eps must be finite" in err
    assert not (tmp_path / "x").exists()


def test_train_diverged_exit_3(tmp_path, capsys):
    spec = tmp_path / "spec.txt"
    spec.write_text(spec_to_text(SynthSpec(identities=5, samples_per_identity_per_modality=8, dim=16, seed=21)))
    data = tmp_path / "data"
    assert main(["generate", "--spec", str(spec), "--out", str(data)]) == 0
    args = [
        "train",
        "--visible", str(data / "visible.emb"),
        "--infrared", str(data / "infrared.emb"),
        "epochs=2", "dbscan_eps=0.3", "learning_rate=1e150", "weight_decay=0.5",
    ]
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(args) == 3
    err = capsys.readouterr().err
    assert re.search(r"runtime diagnostic: epoch [12], batch \d+: modality '[vr]' row \d+", err)
    assert "zero clusters" not in err


def test_eval_consumes_train_output(data_dir, tmp_path, capsys):
    out = tmp_path / "run"
    assert main(train_args(data_dir, out)) == 0
    capsys.readouterr()
    code = main([
        "eval",
        "--visible", str(out / "visible_final.emb"),
        "--infrared", str(out / "infrared_final.emb"),
    ])
    assert code == 0
    captured = capsys.readouterr().out
    assert "ari_rgb,ari_ir,ari_all,rank1,rank5,rank10,rank20,map" in captured


def test_ari_on_perfect_data(tmp_path, capsys):
    spec = tmp_path / "spec.txt"
    spec.write_text(
        small_spec_text(sub_modes=1, modality_offset=0.0, noise_sigma=1e-6, sub_mode_spread=1e-6)
    )
    data = tmp_path / "data"
    assert main(["generate", "--spec", str(spec), "--out", str(data)]) == 0
    capsys.readouterr()
    code = main([
        "ari",
        "--visible", str(data / "visible.emb"),
        "--infrared", str(data / "infrared.emb"),
        "seed=1",
    ])
    assert code == 0
    out = capsys.readouterr().out.strip().split("\n")
    assert out[0] == "ari_rgb,ari_ir,ari_all"
    assert out[1] == "1.0,1.0,1.0"


def test_eval_requires_truth(tmp_path, capsys):
    path = tmp_path / "no_truth.emb"
    path.write_text("d=2\nv,-1,1.0,0.0\nv,-1,0.0,1.0\n")
    code = main(["eval", "--visible", str(path), "--infrared", str(path)])
    assert code == 2
    assert "ground-truth" in capsys.readouterr().err


def test_sweep_axis_table(data_dir, tmp_path, capsys):
    out = tmp_path / "sweep"
    code = main([
        "sweep",
        "--visible", str(data_dir / "visible.emb"),
        "--infrared", str(data_dir / "infrared.emb"),
        "--axis", "n_memories",
        "--values", "1,2",
        "--out", str(out),
        *FAST_CFG,
        "epochs=1",
    ])
    assert code == 0
    lines = (out / "sweep.csv").read_text().strip().split("\n")
    assert lines[0] == "name,ari_rgb,ari_ir,ari_all,rank1,rank5,rank10,rank20,map"
    assert len(lines) == 3
    assert lines[1].startswith("1,")


def test_sweep_ablation_lattice(data_dir, tmp_path):
    out = tmp_path / "sweep"
    code = main([
        "sweep",
        "--visible", str(data_dir / "visible.emb"),
        "--infrared", str(data_dir / "infrared.emb"),
        "--axis", "ablation",
        "--out", str(out),
        *FAST_CFG,
        "epochs=1",
    ])
    assert code == 0
    lines = (out / "sweep.csv").read_text().strip().split("\n")
    assert [l.split(",")[0] for l in lines[1:]] == [
        "baseline", "+mmlm", "+mmlm+intra", "+mmlm+inter", "full",
    ]
    assert all(cell for l in lines[1:] for cell in l.split(",")[1:])  # every row has metrics


def test_sweep_invalid_value_rejected_before_runs(data_dir, tmp_path, capsys):
    out = tmp_path / "sweep"
    code = main([
        "sweep",
        "--visible", str(data_dir / "visible.emb"),
        "--infrared", str(data_dir / "infrared.emb"),
        "--axis", "n_memories",
        "--values", "2,0",
        "--out", str(out),
        *FAST_CFG,
        "epochs=1",
    ])
    assert code == 2
    captured = capsys.readouterr()
    assert "n_memories" in captured.err
    assert captured.out == "" and not out.exists()


def test_sweep_unknown_axis_exit_1(data_dir, capsys):
    code = main([
        "sweep",
        "--visible", str(data_dir / "visible.emb"),
        "--infrared", str(data_dir / "infrared.emb"),
        "--axis", "nope",
        "--values", "1",
    ])
    assert code == 1
    assert "axis" in capsys.readouterr().err


def test_train_swapped_modalities_exit_2(data_dir, tmp_path, capsys):
    args = [
        "train",
        "--visible", str(data_dir / "infrared.emb"),
        "--infrared", str(data_dir / "visible.emb"),
        "--out", str(tmp_path / "x"),
        *FAST_CFG,
    ]
    assert main(args) == 2
    assert "visible set: row 0 has modality tag 'r'" in capsys.readouterr().err


def test_train_mismatched_feature_dimensions_exit_2(data_dir, tmp_path, capsys):
    spec = tmp_path / "spec13.txt"
    spec.write_text(small_spec_text(dim=13))
    assert main(["generate", "--spec", str(spec), "--out", str(tmp_path / "data13")]) == 0
    args = [
        "train",
        "--visible", str(data_dir / "visible.emb"),
        "--infrared", str(tmp_path / "data13" / "infrared.emb"),
        "--out", str(tmp_path / "x"),
        *FAST_CFG,
    ]
    assert main(args) == 2
    assert "infrared set: feature dimension 13 differs from the visible set's 12" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "eval", "sweep"])
@pytest.mark.parametrize("fault", ["swapped", "dimensions"])
def test_rejected_inputs_leave_no_out_dir(data_dir, tmp_path, capsys, command, fault):
    visible, infrared = data_dir / "visible.emb", data_dir / "infrared.emb"
    if fault == "swapped":
        visible, infrared = infrared, visible
        message = "visible set: row 0 has modality tag 'r'"
    else:
        spec = tmp_path / "spec13.txt"
        spec.write_text(small_spec_text(dim=13))
        assert main(["generate", "--spec", str(spec), "--out", str(tmp_path / "data13")]) == 0
        infrared = tmp_path / "data13" / "infrared.emb"
        message = "infrared set: feature dimension 13 differs from the visible set's 12"
    capsys.readouterr()
    out = tmp_path / "x"
    extra = ["--axis", "n_memories", "--values", "1"] if command == "sweep" else []
    args = [command, "--visible", str(visible), "--infrared", str(infrared), "--out", str(out), *extra, *FAST_CFG]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert message in captured.err and captured.out == ""
    assert not out.exists()


def test_train_bad_dimension_header_exit_2(data_dir, tmp_path, capsys):
    bad = tmp_path / "bad.emb"
    bad.write_text("d=-1\nv\n")
    args = ["train", "--visible", str(bad), "--infrared", str(data_dir / "infrared.emb"), *FAST_CFG]
    assert main(args) == 2
    assert "dimension header 'd=-1' must be at least 1" in capsys.readouterr().err


def test_missing_file_exit_2(capsys):
    code = main(["eval", "--visible", "/does/not/exist", "--infrared", "/nor/this"])
    assert code == 2


def test_directory_as_input_exit_2(data_dir, tmp_path, capsys):
    args = ["train", "--visible", str(data_dir), "--infrared", str(data_dir / "infrared.emb"), *FAST_CFG]
    assert main(args) == 2
    assert capsys.readouterr().err.startswith("data error: ")


@pytest.mark.parametrize(
    "command, extra",
    [("train", []), ("eval", []), ("sweep", ["--axis", "n_memories", "--values", "1"])],
)
def test_out_is_a_file_exit_2_before_any_run(data_dir, tmp_path, capsys, monkeypatch, command, extra):
    def no_run(*args, **kwargs):
        pytest.fail("a run started before the output directory was made")

    monkeypatch.setattr(pipeline, "run_training", no_run)
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")
    args = [
        command,
        "--visible", str(data_dir / "visible.emb"),
        "--infrared", str(data_dir / "infrared.emb"),
        "--out", str(taken),
        *extra,
        *FAST_CFG,
    ]
    assert main(args) == 2
    assert capsys.readouterr().err.startswith("data error: ")
    assert taken.read_text() == "not a directory\n"


def test_import_loads_no_scipy():
    # the library and its CLI stay numpy-only: scipy is a test oracle, and
    # importing scipy.optimize alone adds about 50 MB of peak RSS
    src = str(Path(memmatch.__file__).resolve().parents[1])
    code = "import sys, memmatch, memmatch.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_history_csv_row_format():
    report = compose_report(0.5, 0.25, 0.25, 0.0, 0.0, 0.5, 0.05)
    summary = pipeline.EpochSummary(epoch=3, losses=report, metrics=None, notes=())
    lines = cli._history_csv([summary]).split("\n")
    assert lines[0] == "epoch,l_v,l_r,l_vr,l_cmc,l_intra,l_inter,l_sca,l_overall"
    assert lines[1].startswith("3,0.5,0.25,0.25,1.0,")
    assert lines[1:] == ["3,0.5,0.25,0.25,1.0,0.0,0.0,0.0,1.0", ""]


def test_metric_csv_row():
    report = RetrievalReport(rank={1: 0.5, 5: 0.75, 10: 1.0, 20: 1.0}, map=0.8,
                             valid_queries=4, excluded_queries=0)
    m = pipeline.MetricReport(ari_rgb=1.0, ari_ir=0.5, ari_all=0.25, retrieval=report)
    lines = cli._csv(cli.METRIC_COLUMNS, [cli._metric_cells(m), cli._metric_cells(None)]).split("\n")
    assert lines == ["ari_rgb,ari_ir,ari_all,rank1,rank5,rank10,rank20,map", "1.0,0.5,0.25,0.5,0.75,1.0,1.0,0.8",
                     ",,,,,,,", ""]


def test_assignment_csv_shape():
    a = solve_assignment(np.array([[0.0, 5.0], [5.0, 0.0], [7.0, 7.0]]))
    lines = cli._assignment_csv(a).strip().split("\n")
    assert lines[0] == "visible_cluster,infrared_cluster,cost"
    assert lines[1] == "0,0,0.0"
    assert len(lines) == 3


def test_assignment_csv_visible_first_when_flipped(tmp_path):
    # one visible cluster at 90-94 degrees, infrared clusters at 0-4 and
    # 90-94: matching solves infrared as rows, and infrared cluster 1 pairs
    # with visible cluster 0
    def circle_file(name, angles, modality, ids):
        ang = np.deg2rad(np.asarray(angles, float))
        es = EmbeddingSet(features=np.stack([np.cos(ang), np.sin(ang)], axis=1),
                          modality=np.full(len(angles), modality), true_identity=np.asarray(ids))
        write_embeddings(tmp_path / name, es)
        return str(tmp_path / name)

    out = tmp_path / "run"
    args = [
        "train",
        "--visible", circle_file("v.emb", [90, 91, 92, 93, 94], "v", [1] * 5),
        "--infrared", circle_file("r.emb", [0, 1, 2, 3, 4, 90, 91, 92, 93, 94], "r", [0] * 5 + [1] * 5),
        "--out", str(out),
        "epochs=1", "dbscan_eps=0.1", "dbscan_min_samples=3", "batch_ids=2",
        "per_id_visible=2", "per_id_infrared=2", "n_memories=2", "seed=0",
    ]
    assert main(args) == 0
    assert "matching flipped" in (out / "report.json").read_text()
    lines = (out / "assignment.csv").read_text().strip().split("\n")
    assert lines[0] == "visible_cluster,infrared_cluster,cost"
    assert [line.split(",")[:2] for line in lines[1:]] == [["0", "1"]]


def test_confidence_csv_export():
    data = IdLossVector(scope="v", losses=np.array([0.25, 0.75]), excluded=np.zeros(2, bool))
    fit = fit_gmm2(IdLossVector(scope="v", losses=np.array([0.1] * 5 + [2.0] * 5), excluded=np.zeros(10, bool)))
    lines = cli._confidence_csv(data, confidence(data, fit)).strip().split("\n")
    assert lines[0] == "loss,weight"
    assert len(lines) == 3
    assert lines[1].startswith("0.25,")
    noisy = IdLossVector(scope="v", losses=np.array([0.25, 0.0, 0.75]), excluded=np.array([False, True, False]))
    assert cli._confidence_csv(noisy, confidence(noisy, fit)) == cli._confidence_csv(data, confidence(data, fit))
