import contextlib
import io
import shutil
import struct
import sys
import tempfile
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from segrefine import gradcheck, layers, trainer
from segrefine import tensor as T
from segrefine.cli import main
from segrefine.config import ModelConfig, RunConfig, TrainConfig, _field_map
from segrefine.datagen import load_pgm, read_manifest, save_pgm
from segrefine.model import SegModel, load_checkpoint, save_checkpoint
from segrefine.tensor import save_tensor_file

TINY_NET = [
    "channels=4,8,8,8",
    "decoder_channels=8",
    "embed_dim=4",
    "ffn_expansion=2",
    "crop=64",
    "batch=2",
    "iters=2",
    "eval_interval=2",
    "eval_count=4",
]


# one channel per stage keeps the checkpoint to a few KB: the truncation test
# runs the CLI once per prefix length of it
MINI_NET = ModelConfig(channels=(1, 1, 1, 1), decoder_channels=1, num_classes=2,
                       context_head="ppm", ffn_expansion=1, ppm_bins=(1,), embed_dim=1)


def write_config(tmp_path, lines, name="run.cfg"):
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def make_dataset(tmp_path, name="data", count=4, classes=3):
    out = tmp_path / name
    assert main(["gen", "--out", str(out), "--count", str(count), "--classes", str(classes)]) == 0
    return str(out)


class TestGen:
    def test_writes_dataset_and_manifest(self, tmp_path):
        data = make_dataset(tmp_path, count=3, classes=4)
        manifest = read_manifest(data)
        assert manifest["count"] == 3
        assert manifest["num_classes"] == 4
        assert load_pgm(f"{data}/labels/0002.pgm").shape == (64, 64)

    def test_size_flag_controls_dimensions(self, tmp_path):
        out = tmp_path / "d"
        assert main(["gen", "--out", str(out), "--count", "1", "--size", "32x48"]) == 0
        assert load_pgm(out / "labels" / "0000.pgm").shape == (32, 48)

    @pytest.mark.parametrize("source, shape", [
        ("config", (32, 48)), ("flag", (48, 32)), ("neither", (64, 64)),
    ])
    def test_size_from_config_flag_or_default(self, tmp_path, source, shape):
        out = tmp_path / "d"
        argv = ["gen", "--out", str(out), "--count", "1"]
        if source == "config":
            argv += ["--config", write_config(tmp_path, ["size=32x48"])]
        elif source == "flag":
            argv += ["--size", "48x32"]
        assert main(argv) == 0
        assert load_pgm(out / "labels" / "0000.pgm").shape == shape
        assert f"size={shape[0]},{shape[1]}" in (out / "run.txt").read_text()

    @pytest.mark.parametrize("classes, code", [(1, 2), (2, 0), (255, 0), (256, 2), (300, 2)])
    def test_class_count_bounds(self, tmp_path, capsys, classes, code):
        argv = ["gen", "--out", str(tmp_path / "d"), "--count", "1", "--size", "32x32",
                "--classes", str(classes)]
        assert main(argv) == code
        if code:
            assert "config error" in capsys.readouterr().err
        else:
            assert read_manifest(tmp_path / "d")["num_classes"] == classes

    @pytest.mark.parametrize("count", [-3, 0])
    def test_count_below_one_is_usage_error(self, tmp_path, capsys, count):
        out = tmp_path / "d"
        assert main(["gen", "--out", str(out), "--count", str(count)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and f"count must be at least 1, got {count}" in err
        assert not (out / "manifest.txt").exists()

    def test_seed_flag_gives_identical_datasets(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["gen", "--out", str(out), "--count", "2", "--seed", "9"]) == 0
        assert (a / "images" / "0001.frmt").read_bytes() == (b / "images" / "0001.frmt").read_bytes()


class TestTrainEval:
    def test_train_writes_checkpoint_metrics_and_summary(self, tmp_path, capsys):
        data = make_dataset(tmp_path)
        cfg = write_config(tmp_path, TINY_NET)
        out = tmp_path / "run"
        assert main(["train", "--config", cfg, "--data", data, "--out", str(out)]) == 0
        assert (out / "checkpoint.srcp").exists()
        header = load_checkpoint(out / "checkpoint.srcp")[1]
        assert header["iteration"] == "2"
        assert header["num_classes"] == "3"  # adopted from the dataset
        lines = (out / "metrics.csv").read_text().splitlines()
        assert lines[0] == "iteration,lr,loss,ce,cl,val_miou,anchors,ce_empty,cl_empty"
        assert len(lines) >= 2
        assert "final_iteration=2" in (out / "summary.txt").read_text()

    def test_resume_continues_iteration_count(self, tmp_path):
        data = make_dataset(tmp_path)
        out = tmp_path / "run"
        assert main(["train", "--config", write_config(tmp_path, TINY_NET),
                     "--data", data, "--out", str(out)]) == 0
        longer = write_config(tmp_path, TINY_NET + ["iters=4"], name="resume.cfg")
        out2 = tmp_path / "resumed"
        assert main(["train", "--config", longer, "--data", data, "--out", str(out2),
                     "--checkpoint", str(out / "checkpoint.srcp")]) == 0
        assert load_checkpoint(out2 / "checkpoint.srcp")[1]["iteration"] == "4"
        assert "final_iteration=4" in (out2 / "summary.txt").read_text()

    def test_non_finite_loss_stops_training(self, tmp_path, capsys, monkeypatch):
        hybrid_loss, reports = trainer.hybrid_loss, []

        def nan_at_step_3(*args, **kwargs):
            total, report = hybrid_loss(*args, **kwargs)
            reports.append(report)
            if len(reports) == 3:
                nan = float("nan")
                total, report = total * nan, replace(report, total=nan, ce_term=nan)
            return total, report

        monkeypatch.setattr(trainer, "hybrid_loss", nan_at_step_3)
        data = make_dataset(tmp_path)
        out = tmp_path / "run"
        assert main(["train", "--config", write_config(tmp_path, TINY_NET + ["iters=6"]),
                     "--data", data, "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert "iteration 3" in err and "ce nan" in err and f"cl {reports[2].cl_term}" in err
        assert len(reports) == 3 and not (out / "checkpoint.srcp").exists()
        rows = [line.split(",") for line in (out / "metrics.csv").read_text().splitlines()[1:]]
        # the interval to step 2, then the partial one that step 3 ended
        assert [row[0] for row in rows] == ["2", "3"] and rows[1][2] == "nan"

    def test_alternate_context_head(self, tmp_path):
        data = make_dataset(tmp_path)
        # ppm bins must not exceed the deepest stage extent (crop/32 = 2)
        cfg = write_config(tmp_path, TINY_NET + ["ppm_bins=1,2"])
        out = tmp_path / "run"
        assert main(["train", "--config", cfg, "--data", data, "--out", str(out),
                     "--context-head", "ppm"]) == 0
        assert load_checkpoint(out / "checkpoint.srcp")[1]["context_head"] == "ppm"

    def test_eval_reports_per_class_and_mean(self, tmp_path, capsys):
        data = make_dataset(tmp_path)
        out = tmp_path / "run"
        assert main(["train", "--config", write_config(tmp_path, TINY_NET),
                     "--data", data, "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(out / "checkpoint.srcp"),
                     "--data", data, "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "class 0:" in text and "mIoU" in text
        eval_txt = (out / "eval.txt").read_text()
        assert eval_txt.startswith("miou=")

    def test_eval_is_deterministic(self, tmp_path, capsys):
        data = make_dataset(tmp_path)
        out = tmp_path / "run"
        main(["train", "--config", write_config(tmp_path, TINY_NET),
              "--data", data, "--out", str(out)])
        runs = []
        for name in ("e1", "e2"):
            capsys.readouterr()
            assert main(["eval", "--checkpoint", str(out / "checkpoint.srcp"),
                         "--data", data, "--out", str(tmp_path / name)]) == 0
            runs.append((tmp_path / name / "eval.txt").read_text())
        assert runs[0] == runs[1]


def _scaled_output(fn):
    return lambda *args: fn(*args) * 1.001


def _scaled_backward(fn):
    """A fault in the backward that the kernel `fn` returns with its output."""
    def broken(*args):
        out, backward = fn(*args)
        return out, lambda grad: backward(grad * 1.001)

    return broken


def _scaled_no_grad(fn):
    """A fault in the outputs of the kernel `fn` in calls that record no graph."""
    def broken(*args):
        out, backward = fn(*args)
        return out * (1.0 if T._GRAD_ENABLED else 1.001), backward

    return broken


def _scaled_winograd(fused, banded=False):
    """A fault in no-grad Winograd convs with (or without) a ReLU epilogue, run by
    `ConvBnRelu.bands` from a row source (or by `_winograd` from an array): a recorded
    Winograd conv's forward also runs `_winograd_conv`, with a graph recorded."""
    def fault(fn):
        def broken(source, sink, shape, weight, dtype, epilogue, tiles=None):
            by_bands = sys._getframe(1).f_code.co_name == "bands"
            hit = not T._GRAD_ENABLED and epilogue.relu == fused and by_bands == banded

            def scaled(y, i, r):
                sink(y * 1.001, i, r)

            return fn(source, scaled if hit else sink, shape, weight, dtype, epilogue, tiles)

        return broken

    return fault


def _scaled_columns(recorded, fused, rows=False):
    """A fault in im2col convs that record a graph (or not), with (or without) a ReLU
    epilogue, run by their own forward (`_im2col`), or (`rows`) as a row source by
    `Conv2d.rows`."""
    def fault(fn):
        def broken(*args):
            epilogue = args[8]
            by_rows = sys._getframe(1).f_code.co_name == "rows"
            hit = T._GRAD_ENABLED == recorded and epilogue.relu == fused and by_rows == rows
            columns = fn(*args)

            def scaled(dst, i, lo, hi):
                cols = columns(dst, i, lo, hi)
                dst *= 1.001
                return cols

            return scaled if hit else columns

        return broken

    return fault


def _scaled_bn_relu(fn):
    """A fault in the batch norm + ReLU op of a training `ConvBnRelu`."""
    def broken(bn, x, relu=False):
        out = fn(bn, x, relu)
        if relu:
            out.data *= 1.001
        return out

    return broken


# a small fault in the path of each oracle line: (line label, the `layers`
# function it breaks, the wrapper that breaks it)
PATH_FAULTS = [
    ("winograd conv", "_winograd_conv", _scaled_winograd(False)),
    ("winograd conv + bn relu epilogue", "_winograd_conv", _scaled_winograd(True)),
    ("1x1 conv", "_pointwise", _scaled_no_grad),
    ("recorded 1x1 conv gradients", "_pointwise", _scaled_backward),
    ("depthwise conv", "_depthwise", _scaled_no_grad),
    ("recorded depthwise conv gradients", "_depthwise", _scaled_backward),
    ("im2col conv", "_conv_columns", _scaled_columns(False, False)),
    ("im2col conv + bn relu epilogue", "_conv_columns", _scaled_columns(False, True)),
    ("recorded conv gradients", "_conv_columns", _scaled_columns(True, False)),
    ("recorded winograd conv gradients", "_winograd", _scaled_backward),
    ("recorded conv + bn relu", "_batch_norm", _scaled_bn_relu),
    ("winograd conv + bn relu epilogue, row source", "_winograd_conv",
     _scaled_winograd(True, True)),
    ("banded resampling", "resample", _scaled_output),
    ("im2col and depthwise conv + bn relu epilogue, chained row source", "_conv_columns",
     _scaled_columns(False, True, rows=True)),
]
# the training ConvBnRelu line runs recorded im2col and Winograd convs, so their faults
# fail it too
ALSO_FAILS = dict.fromkeys(["recorded conv gradients", "recorded winograd conv gradients"],
                           "recorded conv + bn relu")


class TestChecksAndBench:
    def test_gradcheck_passes_and_reports_components(self, capsys, tmp_path):
        assert main(["gradcheck", "--seed", "0", "--out", str(tmp_path / "gc")]) == 0
        text = capsys.readouterr().out
        assert "matmul" in text and "full_model" in text

    def test_gradcheck_detects_injected_fault(self, capsys, tmp_path, monkeypatch):
        # the strided conv3x3 component takes its input gradient through _scatter_taps
        monkeypatch.setattr(layers, "_scatter_taps", _scaled_output(layers._scatter_taps))
        assert main(["gradcheck", "--seed", "0", "--out", str(tmp_path / "gc")]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert any(line.startswith("conv3x3 ") and line.endswith("FAIL") for line in lines)

    def test_oracle_agrees(self, capsys, tmp_path):
        assert main(["oracle", "--out", str(tmp_path / "o")]) == 0
        out = capsys.readouterr().out
        assert "max deviation" in out
        assert "max deviation of recorded conv gradients vs direct reference" in out
        assert "max deviation of recorded winograd conv gradients vs direct reference" in out
        assert "max deviation of banded resampling vs dense product" in out

    @pytest.mark.parametrize("label, name, fault", PATH_FAULTS,
                             ids=[label.replace(" ", "-") for label, _, _ in PATH_FAULTS])
    def test_oracle_catches_a_broken_path(self, capsys, tmp_path, monkeypatch, label, name,
                                          fault):
        monkeypatch.setattr(layers, name, fault(getattr(layers, name)))
        assert main(["oracle", "--out", str(tmp_path / "o")]) == 1
        lines = {}
        for line in capsys.readouterr().out.splitlines()[1:]:
            lines[line.removeprefix("max deviation of ").split(" vs ")[0]] = line
        labels = [row.label for row in gradcheck.ORACLE_ROWS]
        labels.insert(gradcheck.ROWS_BEFORE_RESAMPLING, "banded resampling")
        assert list(lines) == labels
        failing = {label, ALSO_FAILS.get(label)}
        for row_label, line in lines.items():  # the fault fails the rows that run its path only
            assert line.endswith("FAIL" if row_label in failing else "ok"), line

    def test_bench_shares_backbone_and_decoder_across_heads(self, tmp_path, capsys):
        out = tmp_path / "bench"
        # size must keep the deepest stage at least as large as the biggest
        # ppm bin (6), so the stride-32 stage needs 192x192 input or more
        cfg = write_config(tmp_path, ["channels=4,8,8,8", "decoder_channels=8", "embed_dim=4"])
        assert main(["bench", "--config", cfg, "--out", str(out), "--size", "192x192"]) == 0
        per_head = {}
        for name in ("frm", "ppm", "dappm"):
            rows = {}
            for line in (out / f"costs_{name}.csv").read_text().splitlines()[1:]:
                path, params, flops = line.split(",")
                rows[path] = (int(params), int(flops))
            per_head[name] = rows
        for path in per_head["frm"]:
            if path.startswith(("backbone.", "decoder.")):
                assert per_head["ppm"][path] == per_head["frm"][path]
                assert per_head["dappm"][path] == per_head["frm"][path]
        assert "context_head.attention.pairwise" in per_head["frm"]
        assert "context_head.attention.pairwise" not in per_head["ppm"]


    def test_bench_costs_match_golden_csvs(self, tmp_path, capsys):
        # the analytic per-module costs of the bench config above, committed
        # so that a change to the layers or the profiler cannot move them
        out = tmp_path / "bench"
        cfg = write_config(tmp_path, ["channels=4,8,8,8", "decoder_channels=8", "embed_dim=4"])
        assert main(["bench", "--config", cfg, "--out", str(out), "--size", "192x192"]) == 0
        for name in ("frm", "ppm", "dappm"):
            golden = Path(__file__).parent / "golden" / f"costs_{name}.csv"
            assert (out / f"costs_{name}.csv").read_bytes() == golden.read_bytes(), name


class TestProvenanceAndErrors:
    def test_run_txt_records_resolved_settings(self, tmp_path):
        out = tmp_path / "o"
        assert main(["oracle", "--out", str(out), "--seed", "123"]) == 0
        text = (out / "run.txt").read_text()
        assert "seed=123" in text
        assert "context_head=frm" in text
        assert "lam=1.0" in text

    def test_flags_override_config_file(self, tmp_path):
        cfg = write_config(tmp_path, ["seed=5", "context_head=ppm"])
        out = tmp_path / "o"
        assert main(["oracle", "--config", cfg, "--out", str(out), "--seed", "6"]) == 0
        text = (out / "run.txt").read_text()
        assert "seed=6" in text
        assert "context_head=ppm" in text

    def test_missing_dataset_is_usage_error(self, tmp_path):
        code = main(["train", "--data", str(tmp_path / "nope"), "--out", str(tmp_path / "r")])
        assert code == 2

    def test_unknown_config_key_is_usage_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, ["no_such_setting=1"])
        assert main(["oracle", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [("iters", "1x"), ("lambda", "abc"), ("size", "12x")])
    def test_garbled_config_value_is_usage_error(self, tmp_path, capsys, key, value):
        cfg = write_config(tmp_path, [f"{key}={value}"])
        assert main(["oracle", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and key in err and repr(value) in err

    def test_non_utf8_config_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"seed=1\n\xff\xfe=3\n")
        assert main(["gradcheck", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "UTF-8" in err

    @pytest.mark.parametrize("command, size", [
        ("gen", "12x"), ("gen", "64"), ("gen", "0x64"), ("bench", "64"), ("bench", "40x40"),
    ])
    def test_bad_size_flag_is_usage_error(self, tmp_path, capsys, command, size):
        assert main([command, "--size", size, "--out", str(tmp_path / "o")]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["batch", "eval_interval", "eval_count", "iters", "lr0",
                                     "scale_min"])
    def test_non_positive_train_setting_is_usage_error(self, tmp_path, capsys, key):
        data = make_dataset(tmp_path, count=1)
        cfg = write_config(tmp_path, TINY_NET + [f"{key}=0"])
        assert main(["train", "--config", cfg, "--data", data, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and f"{key} must be positive, got 0" in err

    @pytest.mark.parametrize("setting, message", [
        ("iters=-2", "iters must be positive, got -2"),
        ("lr0=-1", "lr0 must be positive, got -1.0"),
        ("lr0=nan", "lr0 must be positive, got nan"),
        ("scale_min=-1", "scale_min must be positive, got -1.0"),
        ("scale_min=3", "scale_min 3.0 exceeds scale_max 2.0"),
        # these ended in a traceback, trained silently or stopped on a non-finite loss
        ("seed=-1", "seed must be >= 0, got -1"),
        ("scale_max=inf", "scale_max must be positive, got inf"),
        ("scale_max=nan", "scale_max must be positive, got nan"),
        ("momentum=-3", "momentum must be >= 0, got -3.0"),
        ("poly_power=nan", "poly_power must be >= 0, got nan"),
        ("poly_power=-2", "poly_power must be >= 0, got -2.0"),
        ("weight_decay=-1", "weight_decay must be >= 0, got -1.0"),
        ("tau=inf", "tau must be positive, got inf"),
        ("dappm_scales=-2", "dappm_scales must be >= 0, got -2"),
        ("tau=nan", "tau must be positive, got nan"),
        ("lambda=nan", "lam must be >= 0, got nan"),
        ("lr0=inf", "lr0 must be positive, got inf"),
        # an OverflowError traceback in augment, and a resize that asks for gigabytes
        ("scale_max=1e308", "scale_max must be <= 4.0, got 1e+308"),
        ("scale_max=1e4", "scale_max must be <= 4.0, got 10000.0"),
    ], ids=["negative-iters", "negative-lr0", "nan-lr0", "negative-scale_min",
            "scale_min-above-scale_max", "seed=-1", "scale_max=inf", "scale_max=nan",
            "momentum=-3", "poly_power=nan", "poly_power=-2", "weight_decay=-1", "tau=inf",
            "dappm_scales=-2", "tau=nan", "lambda=nan", "lr0=inf", "scale_max=1e308",
            "scale_max=1e4"])
    def test_out_of_range_train_setting_is_usage_error(self, tmp_path, capsys, monkeypatch,
                                                       setting, message):
        data = make_dataset(tmp_path, count=1)
        runs = []
        monkeypatch.setattr(trainer, "train", lambda *args, **kwargs: runs.append(args))
        cfg = write_config(tmp_path, TINY_NET + [setting])
        assert main(["train", "--config", cfg, "--data", data, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and message in err
        assert not runs  # refused before any step

    @pytest.mark.parametrize("settings, all_ignored, ce_empty, cl_empty", [
        (["anchors_per_class=0"], False, 0, 2),
        (["max_positives=0"], False, 0, 2),
        # a 64-pixel side scaled by 0.01 rounds to 1 pixel, padded with the ignore label
        (["scale_min=0.01", "scale_max=0.01"], False, 0, 2),
        ([], True, 2, 2),
    ], ids=["anchors_per_class=0", "max_positives=0", "scale-0.01", "all-labels-ignored"])
    def test_empty_loss_terms_train(self, tmp_path, settings, all_ignored, ce_empty, cl_empty):
        # a parameter no gradient reaches is not updated: these once raised in the SGD step
        data = make_dataset(tmp_path)
        if all_ignored:
            for label in Path(data, "labels").iterdir():
                save_pgm(label, np.full_like(load_pgm(label), 255))
        out = tmp_path / "o"
        assert main(["train", "--config", write_config(tmp_path, TINY_NET + settings),
                     "--data", data, "--out", str(out)]) == 0
        header, row = [line.split(",") for line in (out / "metrics.csv").read_text().splitlines()]
        assert row[header.index("ce_empty")] == str(ce_empty)
        assert row[header.index("cl_empty")] == str(cl_empty)
        assert (out / "checkpoint.srcp").exists()

    def test_resume_on_other_classes_is_usage_error(self, tmp_path, capsys, monkeypatch):
        ckpt = tmp_path / "model.srcp"
        save_checkpoint(ckpt, SegModel(ModelConfig(channels=(4, 8, 8, 8), decoder_channels=8,
                                                   num_classes=3, embed_dim=4)))
        data = make_dataset(tmp_path, count=1, classes=5)
        runs = []
        monkeypatch.setattr(trainer, "train", lambda *args, **kwargs: runs.append(args))
        assert main(["train", "--config", write_config(tmp_path, TINY_NET), "--data", data,
                     "--out", str(tmp_path / "o"), "--checkpoint", str(ckpt)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "dataset has 5 classes, model 3" in err
        assert not runs  # refused before any step

    def test_val_of_other_classes_is_usage_error(self, tmp_path, capsys, monkeypatch):
        data = make_dataset(tmp_path, count=1, classes=3)
        val = make_dataset(tmp_path, name="val", count=1, classes=5)
        runs = []
        monkeypatch.setattr(trainer, "train", lambda *args, **kwargs: runs.append(args))
        assert main(["train", "--config", write_config(tmp_path, TINY_NET), "--data", data,
                     "--val", val, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "dataset has 5 classes, model 3" in err
        assert not runs  # refused before any step

    def test_empty_dataset_is_usage_error(self, tmp_path, capsys, monkeypatch):
        data = make_dataset(tmp_path, count=1)
        manifest = Path(data) / "manifest.txt"
        manifest.write_text(manifest.read_text().replace("count=1\n", "count=0\n", 1))
        runs = []
        monkeypatch.setattr(trainer, "train", lambda *args, **kwargs: runs.append(args))
        assert main(["train", "--config", write_config(tmp_path, TINY_NET), "--data", data,
                     "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "no samples" in err
        assert not runs

    @pytest.mark.parametrize("command", ["eval", "train --val"])
    def test_empty_held_out_set_is_usage_error(self, tmp_path, capsys, monkeypatch, command):
        data = make_dataset(tmp_path, count=1)
        empty = make_dataset(tmp_path, name="empty", count=1)
        manifest = Path(empty) / "manifest.txt"
        manifest.write_text(manifest.read_text().replace("count=1\n", "count=0\n", 1))
        runs = []
        monkeypatch.setattr(trainer, "train", lambda *args, **kwargs: runs.append(args))
        monkeypatch.setattr(trainer, "evaluate", lambda *args, **kwargs: runs.append(args))
        if command == "eval":
            ckpt = tmp_path / "model.srcp"
            save_checkpoint(ckpt, SegModel(ModelConfig(channels=(4, 8, 8, 8), decoder_channels=8,
                                                       num_classes=3, embed_dim=4)))
            argv = ["eval", "--checkpoint", str(ckpt), "--data", empty]
        else:
            argv = ["train", "--config", write_config(tmp_path, TINY_NET), "--data", data,
                    "--val", empty]
        assert main(argv + ["--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and f"{empty}: dataset has no samples" in err
        assert not runs  # refused before any step or score

    def test_bad_checkpoint_is_format_error(self, tmp_path, capsys):
        bogus = tmp_path / "bad.srcp"
        bogus.write_bytes(b"not a checkpoint")
        data = make_dataset(tmp_path)
        code = main(["eval", "--checkpoint", str(bogus), "--data", data,
                     "--out", str(tmp_path / "o")])
        assert code == 3
        assert "format error" in capsys.readouterr().err

    def test_truncated_inputs_are_format_errors(self, tmp_path, capsys):
        ckpt = tmp_path / "model.srcp"
        save_checkpoint(ckpt, SegModel(MINI_NET))
        image = tmp_path / "image.frmt"
        save_tensor_file(image, np.zeros((3, 2, 2), dtype=np.float32))
        for target in (ckpt, image):
            raw = target.read_bytes()
            cut = tmp_path / ("cut" + target.suffix)
            ckpt_arg, image_arg = (cut, image) if target is ckpt else (ckpt, cut)
            for n in range(len(raw)):
                cut.write_bytes(raw[:n])
                code = main(["infer", "--checkpoint", str(ckpt_arg), "--out",
                             str(tmp_path / "o"), str(image_arg), str(tmp_path / "m.pgm")])
                assert code == 3, f"{target.name} cut to {n} of {len(raw)} bytes"
        assert "truncated" in capsys.readouterr().err

    @pytest.mark.parametrize("header", [b"P5\n", b"P5\n64 64"])
    def test_truncated_label_header_is_format_error(self, tmp_path, capsys, header):
        data = make_dataset(tmp_path, count=1)
        (Path(data) / "labels" / "0000.pgm").write_bytes(header)
        code = main(["train", "--data", data, "--out", str(tmp_path / "o")])
        assert code == 3
        assert "0000.pgm" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["eval", "train"])
    def test_label_outside_the_classes_is_format_error(self, tmp_path, capsys, command):
        data = make_dataset(tmp_path, count=1, classes=3)  # every run reads sample 0
        out = tmp_path / "o"
        argv = ["--data", data, "--out", str(out)]
        if command == "eval":
            ckpt = tmp_path / "model.srcp"
            save_checkpoint(ckpt, SegModel(ModelConfig(channels=(4, 8, 8, 8), decoder_channels=8,
                                                       num_classes=3, embed_dim=4)))
            argv += ["--checkpoint", str(ckpt)]
        else:
            argv += ["--config", write_config(tmp_path, TINY_NET)]
        path = Path(data) / "labels" / "0000.pgm"
        labels = load_pgm(path)
        labels[10, 20] = 7
        save_pgm(path, labels)
        assert main([command] + argv) == 3
        err = capsys.readouterr().err
        assert "0000.pgm" in err and "label 7" in err

    @pytest.mark.parametrize("extents", [(2**31, 2**31), (2**31, 2**31, 4)],
                             ids=["rank2-overflow", "rank3-wraps-to-zero"])
    def test_garbled_frmt_extents_are_format_errors(self, tmp_path, capsys, extents):
        ckpt = tmp_path / "model.srcp"
        save_checkpoint(ckpt, SegModel(MINI_NET))
        image = tmp_path / "image.frmt"
        header = struct.pack(f"<4sII{len(extents)}I", b"FRMT", 1, len(extents), *extents)
        image.write_bytes(header + bytes(3 * 32 * 32 * 4))
        code = main(["infer", "--checkpoint", str(ckpt), "--out", str(tmp_path / "o"),
                     str(image), str(tmp_path / "m.pgm")])
        assert code == 3
        assert "format error" in capsys.readouterr().err

    def test_garbled_checkpoint_header_is_format_error(self, tmp_path, capsys):
        ckpt = tmp_path / "model.srcp"
        save_checkpoint(ckpt, SegModel(MINI_NET))
        ckpt.write_bytes(ckpt.read_bytes().replace(b"embed_dim=", b"embed_dum=", 1))
        image = tmp_path / "image.frmt"
        save_tensor_file(image, np.zeros((3, 32, 32), dtype=np.float32))
        code = main(["infer", "--checkpoint", str(ckpt), "--out", str(tmp_path / "o"),
                     str(image), str(tmp_path / "m.pgm")])
        assert code == 3
        assert "embed_dim" in capsys.readouterr().err

    def test_garbled_checkpoint_iteration_is_format_error(self, tmp_path, capsys):
        ckpt = tmp_path / "model.srcp"
        save_checkpoint(ckpt, SegModel(MINI_NET), extra={"iteration": "1x"})
        code = main(["train", "--checkpoint", str(ckpt), "--data", make_dataset(tmp_path),
                     "--out", str(tmp_path / "o")])
        assert code == 3
        assert "iteration='1x'" in capsys.readouterr().err

    def test_negative_checkpoint_iteration_is_format_error(self, tmp_path, capsys, monkeypatch):
        ckpt = tmp_path / "model.srcp"
        save_checkpoint(ckpt, SegModel(MINI_NET), extra={"iteration": "-3"})
        runs = []
        monkeypatch.setattr(trainer, "train", lambda *args, **kwargs: runs.append(args))
        code = main(["train", "--config", write_config(tmp_path, TINY_NET),
                     "--checkpoint", str(ckpt), "--data", make_dataset(tmp_path, classes=2),
                     "--out", str(tmp_path / "o")])
        assert code == 3
        assert "iteration='-3'" in capsys.readouterr().err
        assert not runs  # a negative start would run past `iters` steps from above `lr0`

    @pytest.mark.parametrize("iteration", ["2", "5"])
    def test_resume_at_or_past_iters_is_usage_error(self, tmp_path, capsys, iteration):
        # it once ran no step, wrote an empty summary and a checkpoint whose
        # iteration went back to `iters`
        ckpt = tmp_path / "model.srcp"
        save_checkpoint(ckpt, SegModel(MINI_NET), extra={"iteration": iteration})
        out = tmp_path / "o"
        code = main(["train", "--config", write_config(tmp_path, TINY_NET),
                     "--checkpoint", str(ckpt), "--data", make_dataset(tmp_path, classes=2),
                     "--out", str(out)])
        assert code == 2
        assert f"checkpoint iteration {iteration} leaves no step below iters=2" in (
            capsys.readouterr().err)
        assert [path.name for path in out.iterdir()] == ["run.txt"]

    @pytest.mark.parametrize("key, value", [
        ("dappm_scales", "2,-2"), ("ppm_bins", "1,0"), ("num_classes", "-1"), ("embed_dim", "0"),
    ])
    def test_checkpoint_header_outside_its_domain_is_format_error(self, tmp_path, capsys,
                                                                   key, value):
        ckpt = tmp_path / "model.srcp"
        save_checkpoint(ckpt, SegModel(MINI_NET), extra={key: value})  # replaces the key's line
        image = tmp_path / "image.frmt"
        save_tensor_file(image, np.zeros((3, 32, 32), dtype=np.float32))
        code = main(["infer", "--checkpoint", str(ckpt), "--out", str(tmp_path / "o"),
                     str(image), str(tmp_path / "m.pgm")])
        assert code == 3
        err = capsys.readouterr().err
        assert "format error" in err and key in err

    @pytest.mark.parametrize("old, new", [(b"count=4\n", b""), (b"count=4", b"count=1x")],
                             ids=["missing-key", "garbled-integer"])
    def test_garbled_manifest_is_format_error(self, tmp_path, capsys, old, new):
        ckpt = tmp_path / "model.srcp"
        save_checkpoint(ckpt, SegModel(MINI_NET))
        data = make_dataset(tmp_path)
        manifest = Path(data) / "manifest.txt"
        manifest.write_bytes(manifest.read_bytes().replace(old, new, 1))
        code = main(["eval", "--checkpoint", str(ckpt), "--data", data,
                     "--out", str(tmp_path / "o")])
        assert code == 3
        assert "manifest.txt" in capsys.readouterr().err

    def test_eval_rejects_a_sample_of_another_size(self, tmp_path, capsys):
        ckpt = tmp_path / "model.srcp"
        save_checkpoint(ckpt, SegModel(MINI_NET))
        data = Path(make_dataset(tmp_path, classes=2))  # 64x64 samples
        other = tmp_path / "other"
        assert main(["gen", "--out", str(other), "--count", "1", "--classes", "2",
                     "--size", "48x48"]) == 0
        for part in ("images/0000.frmt", "labels/0000.pgm"):
            (data / part).write_bytes((other / part).read_bytes())
        code = main(["eval", "--checkpoint", str(ckpt), "--data", str(data),
                     "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 3 and "Traceback" not in err
        assert "sample 0" in err and "48x48" in err and "64x64" in err

    @pytest.mark.parametrize("extents", [(40, 72), (16, 16)], ids=["not-halving", "undersized"])
    def test_infer_rejects_extents_the_backbone_cannot_take(self, tmp_path, capsys, extents):
        ckpt = tmp_path / "model.srcp"
        save_checkpoint(ckpt, SegModel(MINI_NET))
        image = tmp_path / "image.frmt"
        save_tensor_file(image, np.zeros((3, *extents), dtype=np.float32))
        code = main(["infer", "--checkpoint", str(ckpt), "--out", str(tmp_path / "o"),
                     str(image), str(tmp_path / "m.pgm")])
        assert code == 3
        assert f"{extents[0]}x{extents[1]}" in capsys.readouterr().err

    # (command, its exit code, what the message names): each asks for an image
    # size the model cannot take, and is refused before any model work
    @pytest.mark.parametrize("command, code, rule", [
        ("bench", 2, "ppm bin 3 exceeds input extent 2x2"),
        ("train", 2, "ppm bin 3 exceeds input extent 2x2"),
        ("train --val", 3, "backbone stage extents of a 48x48 image"),
        ("eval", 3, "backbone stage extents of a 48x48 image"),
        ("infer", 3, "ppm bin 2 exceeds input extent 1x1"),
    ])
    def test_size_the_model_cannot_take_is_refused(self, tmp_path, capsys, command, code, rule):
        out = tmp_path / "o"
        ckpt = tmp_path / "model.srcp"
        small = tmp_path / "d48"
        if command in ("train --val", "eval"):  # the classes of the train set, or of MINI_NET
            classes = "3" if command == "train --val" else "2"
            assert main(["gen", "--out", str(small), "--count", "1", "--classes", classes,
                         "--size", "48x48"]) == 0
        if command == "bench":
            argv = ["--size", "64x64"]  # default ppm bins, whose 3 and 6 exceed the 2x2 stage
        elif command == "train":  # default bins at the default 64-pixel crop
            argv = ["--context-head", "ppm", "--data", make_dataset(tmp_path)]
        elif command == "train --val":
            argv = ["--config", write_config(tmp_path, TINY_NET), "--val", str(small),
                    "--data", make_dataset(tmp_path)]
        elif command == "eval":
            save_checkpoint(ckpt, SegModel(MINI_NET))
            argv = ["--checkpoint", str(ckpt), "--data", str(small)]
        else:
            save_checkpoint(ckpt, SegModel(replace(MINI_NET, ppm_bins=(1, 2))))
            image = tmp_path / "image.frmt"
            save_tensor_file(image, np.zeros((3, 32, 32), dtype=np.float32))
            argv = ["--checkpoint", str(ckpt), str(image), str(tmp_path / "m.pgm")]
        capsys.readouterr()
        assert main([command.split()[0], *argv, "--out", str(out)]) == code
        err = capsys.readouterr().err
        assert rule in err and "Traceback" not in err
        assert not (out / "metrics.csv").exists() and not (tmp_path / "m.pgm").exists()

    def test_infer_rejects_non_image_tensor(self, tmp_path):
        data = make_dataset(tmp_path)
        out = tmp_path / "run"
        assert main(["train", "--config", write_config(tmp_path, TINY_NET),
                     "--data", data, "--out", str(out)]) == 0
        bad = tmp_path / "bad.frmt"
        save_tensor_file(bad, np.zeros((2, 8, 8), dtype=np.float32))
        code = main(["infer", "--checkpoint", str(out / "checkpoint.srcp"),
                     "--out", str(tmp_path / "i"), str(bad), str(tmp_path / "mask.pgm")])
        assert code == 3

    def test_infer_writes_argmax_mask(self, tmp_path):
        data = make_dataset(tmp_path)
        out = tmp_path / "run"
        assert main(["train", "--config", write_config(tmp_path, TINY_NET),
                     "--data", data, "--out", str(out)]) == 0
        mask_path = tmp_path / "mask.pgm"
        code = main(["infer", "--checkpoint", str(out / "checkpoint.srcp"),
                     "--out", str(tmp_path / "i"), f"{data}/images/0000.frmt", str(mask_path)])
        assert code == 0
        mask = load_pgm(mask_path)
        assert mask.shape == (64, 64)
        assert mask.max() < 3


# a small frm net for the corruption fuzz, so that each CLI run over it is short
FUZZ_NET = ModelConfig(channels=(4, 4, 4, 4), decoder_channels=8, num_classes=3,
                       ffn_expansion=1, embed_dim=4)
FUZZ_TRAIN = ["channels=4,4,4,4", "decoder_channels=8", "embed_dim=4", "ffn_expansion=1",
              "crop=32", "batch=1", "iters=1", "eval_interval=1", "eval_count=1"]
# checkpoint header lines of an frm model that no tensor depends on (`eval` and
# `infer` never read the iteration): a flip there may leave a file that loads
SHAPELESS_KEYS = ("iteration", "ppm_bins", "dappm_scales")
# (command, the file whose header a flip corrupts)
FUZZ_TARGETS = [
    ("eval", "model.srcp"), ("eval", "data/images/0000.frmt"), ("eval", "data/labels/0000.pgm"),
    ("infer", "model.srcp"), ("infer", "data/images/0000.frmt"),
    ("train", "val/images/0000.frmt"), ("train", "val/labels/0000.pgm"),
]


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    """A one-sample 32x32 dataset, a held-out copy, an frm checkpoint and a train config."""
    root = tmp_path_factory.mktemp("fuzz")
    with contextlib.redirect_stdout(io.StringIO()):
        for name in ("data", "val"):
            assert main(["gen", "--out", str(root / name), "--count", "1", "--classes", "3",
                         "--size", "32x32"]) == 0
    save_checkpoint(root / "model.srcp", SegModel(FUZZ_NET), extra={"iteration": "2"})
    (root / "train.cfg").write_text("\n".join(FUZZ_TRAIN) + "\n")
    return root


def _header_span(raw, suffix):
    """Bytes of a file's header: FRMT magic, version, rank and extents; the PGM
    fields and the whitespace after them; the checkpoint magic, length and text."""
    if suffix == ".frmt":
        return 12 + 4 * struct.unpack_from("<I", raw, 8)[0]
    if suffix == ".pgm":
        return raw.index(b"\n255\n") + 5
    return 8 + struct.unpack_from("<I", raw, 4)[0]


def _shapeless(raw, pos):
    """Whether byte `pos` of a checkpoint lies on a `SHAPELESS_KEYS` header line."""
    start = 8
    for line in raw[8 : _header_span(raw, ".srcp")].split(b"\n"):
        if start <= pos <= start + len(line):  # the line and its newline
            return line.split(b"=")[0].decode() in SHAPELESS_KEYS
        start += len(line) + 1
    return False


def _run_flipped(fuzz_inputs, command, name, pos, new):
    """Exit code and stderr of `command` with byte `pos` of file `name` set to `new`."""
    raw = (fuzz_inputs / name).read_bytes()
    with tempfile.TemporaryDirectory() as d:
        root = Path(d)
        shutil.copytree(fuzz_inputs, root, dirs_exist_ok=True)
        (root / name).write_bytes(raw[:pos] + bytes([new]) + raw[pos + 1 :])
        argv = {
            "eval": ["eval", "--checkpoint", str(root / "model.srcp"),
                     "--data", str(root / "data")],
            "infer": ["infer", "--checkpoint", str(root / "model.srcp"),
                      str(root / "data/images/0000.frmt"), str(root / "mask.pgm")],
            "train": ["train", "--config", str(root / "train.cfg"),
                      "--data", str(root / "data"), "--val", str(root / "val")],
        }[command] + ["--out", str(root / "out")]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            return main(argv), err.getvalue()


class TestCorruptHeaders:
    """A byte flipped in the header of any input file is a format error (exit 3),
    never a traceback, on every CLI path that reads the file."""

    @settings(deadline=None, max_examples=60)
    @given(st.sampled_from(FUZZ_TARGETS), st.data())
    def test_flipped_header_byte_exits_3(self, fuzz_inputs, target, data):
        command, name = target
        raw = (fuzz_inputs / name).read_bytes()
        suffix = Path(name).suffix
        pos = data.draw(st.integers(0, _header_span(raw, suffix) - 1), label="byte")
        new = raw[pos] ^ data.draw(st.integers(1, 255), label="xor mask")
        if suffix == ".pgm":  # PGM fields may be separated by any whitespace
            assume(not (bytes([raw[pos]]).isspace() and bytes([new]).isspace()))
        code, err = _run_flipped(fuzz_inputs, command, name, pos, new)
        allowed = {0, 3} if suffix == ".srcp" and _shapeless(raw, pos) else {3}
        assert code in allowed, f"byte {pos} {raw[pos]:#04x} -> {new:#04x}: exit {code}"
        assert code == 0 or "format error" in err

    # flips the sweep above found, or is unlikely to draw: (command, file,
    # the bytes around the flip, offset of the flip in them, the new byte)
    @pytest.mark.parametrize("command, name, around, offset, new", [
        # rank 3 -> 2051: the extents read from the payload multiply to an
        # element count too long to print
        ("infer", "data/images/0000.frmt", b"FRMT\x01\x00\x00\x00\x03\x00", 9, 0x08),
        # extents 3x32x32 -> 2x32x32: the short read left a 2-channel image
        # whose rows match the labels, and the backbone rejected it
        ("eval", "data/images/0000.frmt", b"FRMT\x01\x00\x00\x00\x03\x00\x00\x00\x03", 12, 0x02),
        # a line break that `str.splitlines` also splits on
        ("eval", "model.srcp", b"channels=4,4,4,4\n", 16, ord("\r")),
        ("infer", "model.srcp", b"channels=4,4,4,4\n", 16, 0x1C),
        # a zero extent, whose conv init divided by zero
        ("infer", "model.srcp", b"channels=4,4,4,4\n", 9, ord("0")),
        ("eval", "model.srcp", b"ffn_expansion=1\n", 14, ord("0")),
    ], ids=["frmt-rank", "frmt-channels", "srcp-carriage-return", "srcp-file-separator", "srcp-zero-channels",
            "srcp-zero-expansion"])
    def test_found_flips_exit_3(self, fuzz_inputs, command, name, around, offset, new):
        raw = (fuzz_inputs / name).read_bytes()
        code, err = _run_flipped(fuzz_inputs, command, name, raw.index(around) + offset, new)
        assert code == 3 and "format error" in err


# every setting in the sweep gets these values and the two at its domain's edge
SWEEP_VALUES = ("0", "-1", "nan", "inf", "-inf", "abc")
SWEPT_FLAGS = ("--seed", "--size", "--context-head")
# the head whose model reads a setting, and a bin plan that fits its 1x1 deepest stage
SWEPT_HEADS = {"ppm_bins": ["context_head=ppm", "ppm_bins=1"],
               "dappm_scales": ["context_head=dappm"]}
# upper edges, which rules across fields hold rather than field metadata
UPPER_EDGES = {"scale_max": (str(TrainConfig.SCALE_CAP), str(TrainConfig.SCALE_CAP + 1e-6))}


def _domain_edge(obj, name):
    """The first admitted and the last refused value of a field's domain, in the
    file spelling, or None for a path. Extents stay small: the sweep holds no huge
    extent, which nothing caps."""
    f = next(f for f in fields(obj) if f.name == name)
    if "choices" in f.metadata:
        return f.metadata["choices"][-1], f.metadata["choices"][-1].upper()
    if "low" not in f.metadata:
        return None
    low, above, default = f.metadata["low"], f.metadata["above"], getattr(obj, name)
    step = 1 if isinstance(default, (int, tuple)) else 1e-6
    edge = (low + step, low) if above else (low, low - step)
    if isinstance(default, tuple):
        return tuple(",".join([str(v)] * len(default)) for v in edge)
    return tuple(str(v) for v in edge)


def _exit_code(argv):
    """`main(argv)`'s exit code, argparse's refusals included; any other exception escapes.
    A tiny `tau` overflows the loss, which the non-finite stop (exit 4) reports."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()), \
            np.errstate(all="ignore"):
        try:
            return main(argv)
        except SystemExit as exc:
            return exc.code


@pytest.fixture(scope="module")
def sweep_data(tmp_path_factory):
    out = tmp_path_factory.mktemp("sweep") / "data"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["gen", "--out", str(out), "--count", "4", "--classes", "3"]) == 0
    return out


class TestSettingsSweep:
    """Every setting, in the config file and in each flag that sets it, either
    trains or is refused: exit 0, 2, 3 or 4 and never a traceback. The value
    just outside a domain is always a usage error (exit 2)."""

    @pytest.mark.parametrize("key", sorted(_field_map(RunConfig())) + list(SWEPT_FLAGS))
    def test_every_value_trains_or_is_refused(self, sweep_data, tmp_path, monkeypatch, key):
        monkeypatch.chdir(tmp_path)  # `out` and the swept paths are relative
        obj, name = _field_map(RunConfig())[key.lstrip("-").replace("-", "_")]
        base = FUZZ_TRAIN + [f"data={sweep_data}"] + SWEPT_HEADS.get(name, [])
        edges = [e for e in (_domain_edge(obj, name), UPPER_EDGES.get(name)) if e]
        refused = {edge[1] for edge in edges}
        for value in dict.fromkeys(SWEEP_VALUES + sum(edges, ())):
            if key in SWEPT_FLAGS:
                lines, flags = base, [f"{key}={value}"]
            else:
                lines, flags = base + [f"{key}={value}"], []
            (tmp_path / "sweep.cfg").write_text("\n".join(lines) + "\n")
            code = _exit_code(["train", "--config", "sweep.cfg", *flags])
            assert code in (0, 2, 3, 4), f"{key}={value}: exit {code}"
            assert code == 2 or value not in refused, f"{key}={value}: exit {code}"
