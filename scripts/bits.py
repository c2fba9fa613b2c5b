#!/usr/bin/env python3
"""One sha256 per line of the numbers a numerically neutral change must keep, so two trees
compare with one `diff`:

  forward <head> <shape>   the no-grad logits of the seeded default model in eval mode
  predict <head> <shape>   `SegModel.predict`'s class mask of the same image
  train <head> <crop>      every parameter and buffer after 4 train-64-shaped steps (batch 8
                           of 64x64 crops, or of the smallest square crop the head takes, 192
                           for the 6-bin pools of ppm and dappm; `hybrid_loss`; `trainer.SGD`
                           with the default `TrainConfig`), from seeded images and labels
  cli <command>            the stdout of `segrefine oracle --seed 0` and `--seed 123`,
                           `gradcheck` and `bench`

for each context head (frm, ppm, dappm) and input shape (1x3x512x1024 and 8x3x256x256), with
5 classes. BLAS runs on one thread, as in perfbench. Usage, from the repository root:

  PYTHONPATH=src python3 scripts/bits.py > bits.txt
"""

import os

os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import tempfile  # noqa: E402

import numpy as np  # noqa: E402

from segrefine import cli  # noqa: E402
from segrefine.config import LossConfig, ModelConfig, TrainConfig  # noqa: E402
from segrefine.losses import hybrid_loss  # noqa: E402
from segrefine.model import SegModel  # noqa: E402
from segrefine.tensor import ContractError, Tensor, no_grad  # noqa: E402
from segrefine.trainer import SGD  # noqa: E402

HEADS = ("frm", "ppm", "dappm")
SHAPES = ((1, 3, 512, 1024), (8, 3, 256, 256))
CLASSES = 5
CLI_RUNS = (("oracle", "--seed", "0"), ("oracle", "--seed", "123"), ("gradcheck",), ("bench",))


def _sha(*arrays):
    digest = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        digest.update(f"{a.dtype.str}{a.shape}".encode())
        digest.update(a.tobytes())
    return digest.hexdigest()


def _model(head):
    return SegModel(ModelConfig(num_classes=CLASSES, context_head=head),
                    rng=np.random.default_rng(0))


def inference_lines(head):
    model = _model(head).eval()
    for shape in SHAPES:
        image = np.random.default_rng(1).standard_normal(shape).astype(np.float32)
        name = "x".join(map(str, shape))
        with no_grad():
            logits = model(Tensor(image), train_mode=False)["logits"].data
        yield f"forward {head} {name} {_sha(logits)}"
        del logits
        yield f"predict {head} {name} {_sha(model.predict(image))}"


def train_line(head, steps=4):
    model = _model(head).train()
    crop = next(s for s in range(64, 1024, 32) if _takes(model, s))
    cfg = TrainConfig()
    opt = SGD(model.parameters(), cfg.momentum, cfg.weight_decay)
    draws, loss_rng = np.random.default_rng(2), np.random.default_rng(3)
    for _ in range(steps):
        image = draws.standard_normal((8, 3, crop, crop)).astype(np.float32)
        labels = draws.integers(0, CLASSES, size=(8, crop, crop))
        opt.zero_grad()
        out = model(Tensor(image), train_mode=True)
        hybrid_loss(out["logits"], out["embeddings"], labels, LossConfig(), loss_rng)[0].backward()
        opt.step(cfg.lr0)
    state = [getattr(owner, attr) for owner, attr in model.named_state().values()]
    return f"train {head} {crop} {_sha(*state)}"


def _takes(model, size):
    try:
        model.check_extents(size, size)
    except ContractError:
        return False
    return True


def cli_line(args):
    with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()) as text:
        code = cli.main([*args, "--out", out])
    return f"cli {' '.join(args)} exit {code} {hashlib.sha256(text.getvalue().encode()).hexdigest()}"


def main():
    for head in HEADS:
        for line in inference_lines(head):
            print(line, flush=True)
    for head in HEADS:
        print(train_line(head), flush=True)
    for args in CLI_RUNS:
        print(cli_line(args), flush=True)


if __name__ == "__main__":
    main()
