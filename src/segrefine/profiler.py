"""Analytic parameter and FLOP accounting per named submodule.

Counting rules: conv/matmul cost multiply-accumulates x 2; batch norm,
activations, pooling, and interpolation cost one op per output element.

`count_costs` runs one batch-1 no-grad forward at the requested size and
records what ran. For that forward only, it wraps the `forward` (and, on a
context head, the `context`) of every submodule instance, which records each
call's output shape, and `layers._resample_op`, which records each resample's
output elements; a `finally` takes the wrappers off. A module with a `compose`
method (the FPN decoder, whose no-grad forward runs banded kernels instead of
its submodules) is recorded through that plain composition of its submodules,
which computes the same output, so each submodule's calls are seen. A layer's
row is its `flops(out_shape)` summed over its recorded calls; a module that
never ran (the embedding head at inference) has no row. Each resample is
charged to the innermost recorded call around it (see `_RESAMPLE_ROW`). A
`ConvBnRelu` runs its batch norm and ReLU as its conv's epilogue in this
forward, so their rows are charged at the conv's recorded output shapes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import layers
from .config import CONTEXT_HEADS
from .model import SegModel
from .tensor import Tensor, no_grad

# Row suffix of a resample, after the path of the innermost recorded call
# around it: a head's `context` resamples its pooled branches, a head's
# forward pools the stages it aggregates, and the decoder's forward upsamples.
_RESAMPLE_ROW = {"context": "resample", "pool": "aggregate.pool", "bilinear": "upsample"}


@dataclass
class CostRow:
    path: str
    params: int
    flops: int


@dataclass
class CostReport:
    rows: list
    input_size: tuple
    mode: str

    @property
    def total_params(self):
        return sum(r.params for r in self.rows)

    @property
    def total_flops(self):
        return sum(r.flops for r in self.rows)

    def row(self, path):
        for r in self.rows:
            if r.path == path:
                return r
        raise KeyError(path)

    def subtotal(self, prefix):
        params = sum(r.params for r in self.rows if r.path.startswith(prefix))
        flops = sum(r.flops for r in self.rows if r.path.startswith(prefix))
        return params, flops

    def to_text(self):
        width = max([len(r.path) for r in self.rows] + [len("TOTAL")]) + 2
        h, w = self.input_size
        lines = [f"# cost report at {h}x{w}, mode={self.mode}"]
        lines.append(f"{'module':<{width}}{'params':>12}{'flops':>16}")
        for r in self.rows:
            lines.append(f"{r.path:<{width}}{r.params:>12}{r.flops:>16}")
        lines.append(f"{'TOTAL':<{width}}{self.total_params:>12}{self.total_flops:>16}")
        return "\n".join(lines)

    def to_csv(self):
        lines = ["module,params,flops"]
        for r in self.rows:
            lines.append(f"{r.path},{r.params},{r.flops}")
        lines.append(f"TOTAL,{self.total_params},{self.total_flops}")
        return "\n".join(lines)


def count_costs(model: SegModel, input_size, mode="inference"):
    """Cost report for a batch-1 forward at input_size (h, w)."""
    h, w = input_size
    frames = []  # (path, method) of the recorded calls now running, innermost last
    shapes = {}  # (path, method) -> output shapes of its recorded calls
    resampled = {}  # row path -> output elements of the resamples charged to it

    def recording(path, method, call):
        def recorded(*args, **kwargs):
            frames.append((path, method))
            try:
                out = call(*args, **kwargs)
            finally:
                frames.pop()
            shapes.setdefault((path, method), []).append(getattr(out, "shape", None))
            return out

        return recorded

    resample_op = layers._resample_op

    def recorded_resample(x, out_h, out_w, kind):
        out = resample_op(x, out_h, out_w, kind)
        path, method = frames[-1]
        row = f"{path}.{_RESAMPLE_ROW[kind if method == 'forward' else method]}"
        resampled[row] = resampled.get(row, 0) + out.size
        return out

    wrapped = []
    was_training = model.training
    try:
        for path, child in model.named_children():
            for method in ("forward", "context"):
                if hasattr(child, method):
                    composed = method == "forward" and hasattr(child, "compose")
                    call = getattr(child, "compose" if composed else method)
                    setattr(child, method, recording(path, method, call))
                    wrapped.append((child, method))
        layers._resample_op = recorded_resample
        model.eval()
        with no_grad():
            model(Tensor(np.zeros((1, 3, h, w), dtype=np.float32)), train_mode=(mode == "training"))
    finally:
        layers._resample_op = resample_op
        for child, method in wrapped:
            delattr(child, method)
        model.train(was_training)

    # a ConvBnRelu that records no graph runs its batch norm and ReLU as its
    # conv's epilogue: charge both at the conv's output shapes
    for path, child in model.named_children():
        ran = shapes.get((f"{path}.conv", "forward"))
        if isinstance(child, layers.ConvBnRelu) and ran:
            for part in ("bn", "act"):
                shapes.setdefault((f"{path}.{part}", "forward"), ran)
    rows = []
    for path, child in model.named_children():
        ran = shapes.get((path, "forward"))
        if ran is None:
            continue
        if hasattr(child, "flops"):
            rows.append(CostRow(path, child.param_count(), sum(child.flops(s) for s in ran)))
        if hasattr(child, "attention_flops"):  # attention's output has its input's shape
            rows.append(CostRow(path + ".pairwise", 0, sum(child.attention_flops(s) for s in ran)))
    rows += [CostRow(path, 0, n) for path, n in resampled.items()]
    return CostReport(rows=rows, input_size=(h, w), mode=mode)


def bench_heads(base_cfg, input_size, seed=0):
    """Inference CostReport per context head (`config.CONTEXT_HEADS`), each model
    seeded alike so the backbone and decoder are identical across heads.
    Raises ContractError before counting any costs unless every head's model
    can take `input_size`."""
    models = {head: SegModel(replace(base_cfg, context_head=head), rng=np.random.default_rng(seed))
              for head in CONTEXT_HEADS}
    for model in models.values():
        model.check_extents(*input_size)
    return {head: count_costs(model, input_size) for head, model in models.items()}


def bench_table(reports, input_size):
    h, w = input_size
    lines = [f"# context-head comparison at {h}x{w} (identical concatenated multi-stage input)"]
    lines.append(f"{'head':<8}{'head params':>14}{'head flops':>16}{'total params':>14}{'total flops':>16}")
    for name, rep in reports.items():
        hp, hf = rep.subtotal("context_head")
        lines.append(f"{name:<8}{hp:>14}{hf:>16}{rep.total_params:>14}{rep.total_flops:>16}")
    return "\n".join(lines)
