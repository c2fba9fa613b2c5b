"""Command-line entry point: gen, train, eval, gradcheck, oracle, bench, infer.

Exit codes: 0 success, 1 check failure, 2 usage/config error, 3 I/O or
format error, 4 training stopped on a non-finite loss.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from dataclasses import replace

import numpy as np

from . import datagen, gradcheck, profiler, trainer
from .config import (CONTEXT_HEADS, ConfigError, RunConfig, apply_settings, dump_settings,
                     parse_config_file)
from .model import SegModel, load_checkpoint
from .refine import DisentangledAttention, attention_reference
from .tensor import ContractError, FormatError, Tensor, load_tensor_file, no_grad


@functools.cache  # one parser per process: building it costs more than most refused runs
def _build_parser():
    parser = argparse.ArgumentParser(prog="segrefine")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", default=None, help="key=value config file")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--data", default=None)
        p.add_argument("--out", default=None)
        p.add_argument("--context-head", choices=CONTEXT_HEADS, default=None)
        p.add_argument("--size", default=None, help="HxW input size")
        p.add_argument("--checkpoint", default=None)
        return p

    gen = common(sub.add_parser("gen", help="generate a synthetic dataset"))
    gen.add_argument("--count", type=int, default=256)
    gen.add_argument("--classes", type=int, default=5)

    train = common(sub.add_parser("train", help="train a model"))
    train.add_argument("--val", default=None, help="held-out dataset directory")

    ev = common(sub.add_parser("eval", help="evaluate a checkpoint"))

    common(sub.add_parser("gradcheck", help="finite-difference gradient suite"))

    common(sub.add_parser("oracle", help="literal attention oracle comparison"))
    common(sub.add_parser("bench", help="cost comparison of the context heads"))

    infer = common(sub.add_parser("infer", help="segment one FRMT image to a PGM mask"))
    infer.add_argument("input", help="input image (.frmt)")
    infer.add_argument("output", help="output mask (.pgm)")
    return parser


def _resolve(args) -> RunConfig:
    cfg = RunConfig()
    if args.command == "gen":
        cfg.size = (64, 64)  # the image size `gen` writes unless a file or flag sets one
    if args.config:
        apply_settings(cfg, parse_config_file(args.config))
    overrides = {}
    for name in ("seed", "data", "out", "context_head", "size", "checkpoint"):
        value = getattr(args, name)
        if value is not None:
            overrides[name] = str(value)
    apply_settings(cfg, overrides)
    cfg.validate()
    return cfg


def _write_provenance(cfg: RunConfig):
    os.makedirs(cfg.out, exist_ok=True)
    with open(os.path.join(cfg.out, "run.txt"), "w", encoding="utf-8") as f:
        f.write(dump_settings(cfg))


def _check_extents(model, size, error, source):
    """Raise `error` naming `source` unless `model` can take a `size` (h, w) image."""
    try:
        model.check_extents(*size)
    except ContractError as exc:
        raise error(f"{source}: {exc}") from exc


def _check_samples(dataset, path, use):
    """Raise a config error if `dataset` (read from `path`) has no samples to `use`."""
    if not len(dataset):
        raise ConfigError(f"{path}: dataset has no samples to {use}")


def _check_classes(model, dataset):
    """Raise a config error unless `dataset` has `model`'s class count."""
    if dataset.num_classes != model.cfg.num_classes:
        raise ConfigError(
            f"dataset has {dataset.num_classes} classes, model {model.cfg.num_classes}")


def cmd_gen(cfg: RunConfig, args):
    h, w = cfg.size
    spec = datagen.SceneSpec(height=h, width=w, num_classes=args.classes, seed=cfg.train.seed)
    datagen.generate(spec, args.count, cfg.out)
    print(f"wrote {args.count} samples to {cfg.out}")
    return 0


def cmd_train(cfg: RunConfig, args):
    if not os.path.isdir(cfg.data):
        print(f"dataset not found: {cfg.data}", file=sys.stderr)
        return 2
    dataset = datagen.Dataset(cfg.data)
    _check_samples(dataset, cfg.data, "train on")
    if dataset.num_classes != cfg.model.num_classes:
        cfg.model = replace(cfg.model, num_classes=dataset.num_classes)
    start_iter = 0
    if cfg.checkpoint:
        model, header = load_checkpoint(cfg.checkpoint)
        iteration = header.get("iteration", "0")
        if not (iteration.isascii() and iteration.isdigit()):
            raise FormatError(f"{cfg.checkpoint}: checkpoint header iteration={iteration!r} "
                              "is not a non-negative integer")
        start_iter = int(iteration)
        if start_iter >= cfg.train.iters:
            raise ConfigError(f"{cfg.checkpoint}: checkpoint iteration {start_iter} leaves no "
                              f"step below iters={cfg.train.iters}")
        _check_classes(model, dataset)
    else:
        model = SegModel(cfg.model, rng=np.random.default_rng(cfg.train.seed))
    _check_extents(model, (cfg.train.crop, cfg.train.crop), ConfigError, "train crop")
    val = datagen.Dataset(args.val) if args.val else None
    if args.val:
        _check_samples(val, args.val, "hold out")
        _check_classes(model, val)
        _check_extents(model, val.size, FormatError, args.val)
    history = trainer.train(
        model, dataset, cfg.train, cfg.loss,
        out_dir=cfg.out, val_dataset=val, start_iter=start_iter,
    )
    final = history[-1] if history else None
    with open(os.path.join(cfg.out, "summary.txt"), "w", encoding="utf-8") as f:
        if final:
            f.write(f"final_iteration={final.iteration}\nfinal_loss={final.loss}\n")
            if final.val_miou != "":
                f.write(f"final_val_miou={final.val_miou}\n")
    print(f"checkpoint written to {os.path.join(cfg.out, 'checkpoint.srcp')}")
    return 0


def cmd_eval(cfg: RunConfig, args):
    model, _ = load_checkpoint(cfg.checkpoint)
    dataset = datagen.Dataset(cfg.data)
    _check_samples(dataset, cfg.data, "evaluate")
    _check_classes(model, dataset)
    _check_extents(model, dataset.size, FormatError, cfg.data)
    miou, per_class = trainer.evaluate(model, dataset)
    for c, iou in enumerate(per_class):
        print(f"class {c}: IoU {iou:.4f}")
    print(f"mIoU {miou:.4f}")
    with open(os.path.join(cfg.out, "eval.txt"), "w", encoding="utf-8") as f:
        f.write(f"miou={miou}\n")
        for c, iou in enumerate(per_class):
            f.write(f"iou_{c}={iou}\n")
    return 0


def cmd_gradcheck(cfg: RunConfig, args):
    ok = gradcheck.run_suite(seed=cfg.train.seed)
    return 0 if ok else 1


def cmd_oracle(cfg: RunConfig, args):
    """Vectorized attention vs the literal per-pair evaluation, then one line per
    row of `gradcheck.ORACLE_ROWS`: each convolution fast path vs a direct
    reference, in each dtype the row bounds; and banded resampling vs the
    dense product, after the first `gradcheck.ROWS_BEFORE_RESAMPLING` rows."""
    rng = np.random.default_rng(cfg.train.seed)
    worst = 0.0
    for channels in (4, 8):
        for h in range(1, 5):
            for w in range(1, 5):
                block = DisentangledAttention(channels, rng=rng)
                x = Tensor(rng.standard_normal((2, channels, h, w)).astype(np.float32))
                with no_grad():
                    got = block.attend(
                        x, block.query(x), block.key(x), block.unary(x), block.value(x)
                    ).data
                want = attention_reference(x.data, block)
                worst = max(worst, float(np.abs(got - want).max()))
    print(f"max deviation vs literal oracle: {worst:.3e}")
    ok = worst < 1e-5
    rows, before = gradcheck.ORACLE_ROWS, gradcheck.ROWS_BEFORE_RESAMPLING
    for row in rows[:before]:
        ok = _row_line(row, rng) and ok
    bounds = gradcheck.RESAMPLE_BOUNDS
    deviations = {dtype: gradcheck.resample_deviation(dtype, rng) for dtype in bounds}
    ok = _report_deviations("banded resampling", "dense product, forward and backward",
                            deviations, bounds) and ok
    for row in rows[before:]:
        ok = _row_line(row, rng) and ok
    return 0 if ok else 1


def _row_line(row, rng):
    deviations = {dtype: gradcheck.oracle_deviation(row, dtype, rng) for dtype in row.bounds}
    return _report_deviations(row.label, "direct reference", deviations, row.bounds)


def _report_deviations(label, reference, deviations, bounds):
    """Print one oracle line; True iff every dtype is within its bound."""
    ok = all(deviations[dtype] <= bound for dtype, bound in bounds.items())
    print(f"max deviation of {label} vs {reference}: "
          + ", ".join(f"{dev:.3e} {dtype.__name__}" for dtype, dev in deviations.items())
          + f" (of max |reference|)  {'ok' if ok else 'FAIL'}")
    return ok


def cmd_bench(cfg: RunConfig, args):
    try:
        reports = profiler.bench_heads(cfg.model, cfg.size, seed=cfg.train.seed)
    except ContractError as exc:
        raise ConfigError(f"bench size: {exc}") from exc
    print(profiler.bench_table(reports, cfg.size))
    for name, report in reports.items():
        print()
        print(report.to_text())
        with open(os.path.join(cfg.out, f"costs_{name}.csv"), "w", encoding="utf-8") as f:
            f.write(report.to_csv() + "\n")
    return 0


def cmd_infer(cfg: RunConfig, args):
    model, _ = load_checkpoint(cfg.checkpoint)
    image = load_tensor_file(args.input)
    if image.ndim != 3 or image.shape[0] != 3:
        raise FormatError(f"{args.input}: expected a 3xHxW image tensor")
    _check_extents(model, image.shape[1:], FormatError, args.input)
    model.eval()
    with no_grad():
        logits = model(Tensor(image[None]), train_mode=False)["logits"]
    mask = np.argmax(logits.data[0], axis=0)
    datagen.save_pgm(args.output, mask)
    print(f"wrote mask to {args.output}")
    return 0


_COMMANDS = {
    "gen": cmd_gen,
    "train": cmd_train,
    "eval": cmd_eval,
    "gradcheck": cmd_gradcheck,
    "oracle": cmd_oracle,
    "bench": cmd_bench,
    "infer": cmd_infer,
}


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        cfg = _resolve(args)
        _write_provenance(cfg)
        return _COMMANDS[args.command](cfg, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except FormatError as exc:
        print(f"format error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except trainer.NonFiniteLoss as exc:
        print(f"non-finite loss: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
