import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import memmatch
from memmatch.cli import main
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


def test_train_rerun_byte_identical(data_dir, tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(train_args(data_dir, out1)) == 0
    assert main(train_args(data_dir, out2)) == 0
    for name in ("history.csv", "metrics.csv", "report.json", "visible_final.emb"):
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


def test_train_bad_dimension_header_exit_2(data_dir, tmp_path, capsys):
    bad = tmp_path / "bad.emb"
    bad.write_text("d=-1\nv\n")
    args = ["train", "--visible", str(bad), "--infrared", str(data_dir / "infrared.emb"), *FAST_CFG]
    assert main(args) == 2
    assert "dimension header 'd=-1' must be at least 1" in capsys.readouterr().err


def test_missing_file_exit_2(capsys):
    code = main(["eval", "--visible", "/does/not/exist", "--infrared", "/nor/this"])
    assert code == 2


def test_import_loads_no_scipy():
    # the library and its CLI stay numpy-only: scipy is a test oracle, and
    # importing scipy.optimize alone adds about 50 MB of peak RSS
    src = str(Path(memmatch.__file__).resolve().parents[1])
    code = "import sys, memmatch, memmatch.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
