"""Outside-in tracer for the benchmark's traced run.

The tracer never edits segrefine's source. It wraps public call sites from
the outside: `Module.__call__`, `Tensor.backward` and a few methods at class
level, and free functions at every segrefine module that imports them. Each
wrapped call records a span; spans are kept in memory, reduced to per-layer
metrics at the end and written out as CSV.

Backward time is attributed to the layer that created each backward closure:
after a wrapped call returns, the tracer walks the graph nodes the call
created (from its outputs down to its inputs) and wraps each unclaimed
closure with a timer that carries the creating layer's category.

FLOPs come from each call's own input and output shapes and the conv weight
shape. No layer side state (`last_out_shape`, `last_attn_shape`) and no
profiler state is read. A wrap target whose public name has gone missing
drops the metrics that need it, with a warning.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter

FWD, BWD = "fwd", "bwd"

# (owner class or None for module functions, attribute name, span category)
TARGETS = (
    ("Module", "__call__", None),
    ("Tensor", "backward", "tensor.backward"),
    ("SGD", "step", "trainer.sgd_step"),
    ("Dataset", "__getitem__", "datagen.load_sample"),
    ("ConfusionMatrix", "update", "trainer.confusion_update"),
    (None, "bilinear_upsample", "layers.bilinear_upsample"),
    (None, "adaptive_avg_pool", "layers.adaptive_avg_pool"),
    (None, "hybrid_loss", "losses.hybrid"),
    (None, "cross_entropy", "losses.cross_entropy"),
    (None, "contrastive_loss", "losses.contrastive"),
    (None, "sample_anchors", "losses.contrastive"),
    (None, "augment", "trainer.augment"),
    (None, "load_checkpoint", "model.load_checkpoint"),
    (None, "save_checkpoint", "model.save_checkpoint"),
)

_MODULE_CATEGORIES = {
    "BatchNorm2d": "layers.batchnorm",
    "ReLU": "layers.relu",
    "DisentangledAttention": "refine.attention",
}

REGIONS = ("backbone", "context_head", "decoder", "embedding_head")


def _target_key(owner, name):
    return f"{owner}.{name}" if owner else name


class Span:
    __slots__ = ("cat", "kind", "region", "op", "t0", "t1", "child", "flops", "root", "top")

    def __init__(self, cat, kind, region, op, flops, root):
        self.cat, self.kind, self.region, self.op = cat, kind, region, op
        self.flops, self.root = flops, root
        self.top = None  # set on the span of a model's top-level child
        self.t0 = perf_counter()
        self.t1 = self.t0
        self.child = 0.0

    @property
    def dur(self):
        return self.t1 - self.t0

    @property
    def self_time(self):
        return self.t1 - self.t0 - self.child


class _TimedBackward:
    """Stands in for a graph node's backward closure and times each call."""

    __slots__ = ("fn", "tracer", "cat", "region", "flops")

    def __init__(self, fn, tracer, cat, region, flops):
        self.fn, self.tracer, self.cat, self.region, self.flops = fn, tracer, cat, region, flops

    def __call__(self, grad):
        span = self.tracer.begin(self.cat, BWD, self.region, self.flops)
        try:
            return self.fn(grad)
        finally:
            self.tracer.end(span)


def _tensors_in(obj, out, depth=0):
    """Collect the Tensor-like objects (anything with `_parents`) reachable
    from call arguments: tensors, sequences, dicts and dataclass fields."""
    if hasattr(obj, "_parents"):
        out.append(obj)
    elif depth < 3:
        if isinstance(obj, (list, tuple)):
            for item in obj:
                _tensors_in(item, out, depth + 1)
        elif isinstance(obj, dict):
            for item in obj.values():
                _tensors_in(item, out, depth + 1)
        elif hasattr(obj, "__dataclass_fields__"):
            for name in obj.__dataclass_fields__:
                _tensors_in(getattr(obj, name, None), out, depth + 1)
    return out


class Tracer:
    def __init__(self, segrefine_modules, module_paths):
        """`segrefine_modules`: the imported segrefine submodules to patch;
        `module_paths`: id(module object) -> dotted path inside its model
        ("" for the model itself)."""
        self.modules = list(segrefine_modules)
        self.paths = module_paths
        self.spans = []
        self.stack = []
        self.op = -1
        self.op_starts = []
        self.region = None
        self.counts = defaultdict(float)
        self.missing = set()
        self._patches = []
        self._claims = True

    # -- spans -------------------------------------------------------------
    def begin(self, cat, kind, region=None, flops=0.0):
        span = Span(cat, kind, region, self.op, flops, not self.stack)
        self.stack.append(span)
        return span

    def end(self, span):
        span.t1 = perf_counter()
        self.stack.pop()
        if self.stack:
            self.stack[-1].child += span.t1 - span.t0
        self.spans.append(span)

    def next_op(self, t):
        """Spans begun from now on belong to a new op that started at `t`."""
        self.op = len(self.op_starts)
        self.op_starts.append(t)

    def count(self, key, value=1.0):
        if self.op >= 0:
            self.counts[key] += value

    # -- backward attribution ----------------------------------------------
    def claim(self, outputs, inputs, cat, region, flops_by_id=None):
        """Wrap the backward closures of graph nodes created by one call."""
        if not self._claims:
            return
        stop = {id(t) for t in _tensors_in(inputs, [])}
        todo = _tensors_in(outputs, [])
        seen = set()
        while todo:
            node = todo.pop()
            key = id(node)
            if key in seen or key in stop:
                continue
            seen.add(key)
            fn = getattr(node, "_backward", None)
            if fn is None:
                continue
            if not isinstance(fn, _TimedBackward):
                flops = flops_by_id.get(key, 0.0) if flops_by_id else 0.0
                node._backward = _TimedBackward(fn, self, cat, region, flops)
            todo.extend(getattr(node, "_parents", ()))

    # -- wrappers ------------------------------------------------------------
    def _conv(self, module, x, out):
        """(category, forward FLOPs) of one Conv2d call from its shapes."""
        weight = getattr(module, "weight", None)
        if weight is None:
            return "layers.conv_other", 0.0
        w_shape = weight.shape  # out_c, in_c / groups, kh, kw
        n, in_c = x.shape[0], x.shape[1]
        _, out_c, oh, ow = out.shape
        kh, kw = w_shape[2], w_shape[3]
        groups = in_c // w_shape[1]
        if in_c == 3:
            cat = "layers.conv_stem"
        elif groups > 1:
            cat = "layers.conv_dw"
        elif (kh, kw) == (1, 1):
            cat = "layers.conv1x1"
        elif (kh, kw) == (3, 3):
            cat = "layers.conv3x3"
        else:
            cat = "layers.conv_other"
        flops = 2.0 * n * oh * ow * out_c * w_shape[1] * kh * kw
        if getattr(module, "bias", None) is not None:
            flops += n * oh * ow * out_c
        return cat, flops

    def _module_call(self, original):
        tracer = self

        def traced_call(module, *args, **kwargs):
            kind_name = type(module).__name__
            path = tracer.paths.get(id(module))
            prev_region = tracer.region
            if path:
                tracer.region = path.split(".", 1)[0]
            region = tracer.region
            if path == "":
                cat = "model"
            else:
                cat = _MODULE_CATEGORIES.get(kind_name, "module." + kind_name)
            span = tracer.begin(cat, FWD, region)
            if path in REGIONS:
                span.top = path
            try:
                out = original(module, *args, **kwargs)
            finally:
                tracer.end(span)
                tracer.region = prev_region
            flops_by_id = None
            if kind_name == "Conv2d" and args:
                x = args[0]
                span.cat, span.flops = tracer._conv(module, x, out)
                bwd_flops = span.flops * (1 + bool(getattr(x, "requires_grad", False)))
                flops_by_id = {id(out): bwd_flops}
                tracer.count("conv.calls")
            elif kind_name == "DisentangledAttention" and args:
                tracer.count("attention.calls")
                tracer.count("attention.positions", args[0].shape[2] * args[0].shape[3])
            tracer.claim(out, (args, kwargs), span.cat, region, flops_by_id)
            return out

        return traced_call

    def _function(self, original, cat, key, after=None):
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = tracer.begin(cat, FWD, tracer.region)
            try:
                out = original(*args, **kwargs)
            finally:
                tracer.end(span)
            tracer.claim(out, (args, kwargs), cat, tracer.region)
            if after is not None and key not in tracer.missing:
                try:
                    after(tracer, out)
                except (AttributeError, IndexError, TypeError, ValueError):
                    print(f"perfbench: warning: unexpected result from {key}; dropping the "
                          "metrics that count it", file=sys.stderr)
                    tracer.missing.add(key)
            return out

        return traced

    # -- install / uninstall -------------------------------------------------
    def _find_class(self, name):
        for mod in self.modules:
            cls = vars(mod).get(name)
            if isinstance(cls, type) and cls.__module__ == mod.__name__:
                return cls
        return None

    def install(self):
        for owner, name, cat in TARGETS:
            key = _target_key(owner, name)
            after = _AFTER.get(name)
            if owner is None:
                sites = [m for m in self.modules if callable(vars(m).get(name))]
                for mod in sites:
                    self._patch(mod, name, self._function(getattr(mod, name), cat, key, after))
                ok = bool(sites)
            else:
                cls = self._find_class(owner)
                ok = cls is not None and name in vars(cls)
                if ok:
                    original = vars(cls)[name]
                    wrapper = (self._module_call(original) if owner == "Module"
                               else self._function(original, cat, key, after))
                    self._patch(cls, name, wrapper)
            if not ok:
                self.missing.add(key)
        tensor_cls = self._find_class("Tensor")
        slots = getattr(tensor_cls, "__slots__", ()) if tensor_cls else ()
        if not {"_backward", "_parents"} <= set(slots):
            self._claims = False
            self.missing.add("Tensor._backward")
        for key in sorted(self.missing):
            print(f"perfbench: warning: segrefine has no {key}; dropping the metrics that need it",
                  file=sys.stderr)

    def _patch(self, obj, name, value):
        self._patches.append((obj, name, vars(obj)[name]))
        setattr(obj, name, value)

    def uninstall(self):
        while self._patches:
            obj, name, original = self._patches.pop()
            setattr(obj, name, original)

    # -- output ----------------------------------------------------------------
    def write_csv(self, path):
        with open(path, "w", encoding="utf-8") as f:
            f.write("op,category,kind,region,start_s,end_s,self_s,flops\n")
            base = self.op_starts[0] if self.op_starts else 0.0
            for s in self.spans:
                f.write(f"{s.op},{s.cat},{s.kind},{s.region or ''},{s.t0 - base:.7f},"
                        f"{s.t1 - base:.7f},{s.self_time:.7f},{s.flops:.0f}\n")


def _after_sample_anchors(tracer, out):
    tracer.count("anchors.sampled", len(out[3]))


def _after_contrastive(tracer, out):
    tracer.count("anchors.useful", out[1])


def _after_hybrid(tracer, out):
    tracer.count("loss.calls")
    tracer.count("loss.cl_empty", bool(out[1].cl_empty))


def _after_load_sample(tracer, out):
    image, labels = out
    tracer.count("datagen.bytes", image.size * 4 + labels.size)  # FRMT f32 + PGM u8 payloads


_AFTER = {
    "sample_anchors": _after_sample_anchors,
    "contrastive_loss": _after_contrastive,
    "hybrid_loss": _after_hybrid,
    "__getitem__": _after_load_sample,
}


# ---------------------------------------------------------------------------
# Reduction of the spans to the per-layer metrics.


class Totals:
    """Per-op sums over the traced ops."""

    def __init__(self, tracer, op_latencies):
        self.n_ops = max(len(op_latencies), 1)
        self.op_time = sum(op_latencies)
        self.self_t = defaultdict(float)
        self.calls = defaultdict(int)
        self.flops = defaultdict(float)
        self.region = defaultdict(float)
        self.setup_ms = defaultdict(list)
        self.root_time = 0.0
        first_model = {}
        n_traced = len(op_latencies)
        for s in tracer.spans:
            if s.op < 0 or s.op >= n_traced:
                if s.cat in ("model.load_checkpoint", "model.save_checkpoint"):
                    self.setup_ms[s.cat].append(s.dur * 1e3)
                continue
            key = (s.cat, s.kind)
            self.self_t[key] += s.self_time
            self.calls[key] += 1
            self.flops[s.cat] += s.flops
            if s.top:
                self.region[(s.top, FWD)] += s.dur
            if s.kind == BWD and s.region in REGIONS:
                self.region[(s.region, BWD)] += s.dur
            if s.root:
                self.root_time += s.dur
            if s.cat == "model" and s.op not in first_model:
                first_model[s.op] = s.t0 - tracer.op_starts[s.op]
        self.data_wait = sum(first_model.values())
        self.counts = tracer.counts

    def ms(self, cat, kind):
        return self.self_t[(cat, kind)] * 1e3 / self.n_ops

    def per_op(self, key):
        return self.counts[key] / self.n_ops

    def calls_per_op(self, cat):
        return self.calls[(cat, FWD)] / self.n_ops

    def gflops(self, cat):
        t = self.self_t[(cat, FWD)] + self.self_t[(cat, BWD)]
        return self.flops[cat] / t / 1e9 if t > 0 else 0.0

    def ratio(self, num, den):
        return self.counts[num] / self.counts[den] if self.counts[den] else 0.0

    def setup_mean(self, cat):
        values = self.setup_ms[cat]
        return sum(values) / len(values) if values else 0.0


def per_layer_specs():
    """[(name, unit, better, wrap targets needed, fn(Totals) -> value)]."""
    mod, bwd = ("Module.__call__",), ("Module.__call__", "Tensor.backward", "Tensor._backward")
    specs = []

    def add(name, unit, better, needs, fn):
        specs.append((name, unit, better, needs, fn))

    def fwd_bwd(prefix, cat, needs_fwd=mod, needs_bwd=bwd):
        add(f"{prefix}.fwd_ms", "ms", "lower", needs_fwd, lambda t, c=cat: t.ms(c, FWD))
        add(f"{prefix}.bwd_ms", "ms", "lower", needs_fwd + needs_bwd, lambda t, c=cat: t.ms(c, BWD))

    for short in ("conv3x3", "conv1x1"):
        fwd_bwd(f"layers.{short}", f"layers.{short}")
        add(f"layers.{short}.gflops_per_s", "GFLOP/s", "higher", bwd,
            lambda t, c=f"layers.{short}": t.gflops(c))
    fwd_bwd("layers.conv_dw", "layers.conv_dw")
    fwd_bwd("layers.conv_stem", "layers.conv_stem")
    add("layers.conv.calls", "count", "lower", mod, lambda t: t.per_op("conv.calls"))
    for fn in ("bilinear_upsample", "adaptive_avg_pool"):
        fwd_bwd(f"layers.{fn}", f"layers.{fn}", (fn,))
        add(f"layers.{fn}.calls", "count", "lower", (fn,),
            lambda t, c=f"layers.{fn}": t.calls_per_op(c))
    fwd_bwd("layers.batchnorm", "layers.batchnorm")
    fwd_bwd("layers.relu", "layers.relu")
    fwd_bwd("refine.attention", "refine.attention")
    add("refine.attention.positions", "count", "lower", mod,
        lambda t: t.ratio("attention.positions", "attention.calls"))
    for region in REGIONS:
        add(f"model.{region}.fwd_ms", "ms", "lower", mod,
            lambda t, r=region: t.region[(r, FWD)] * 1e3 / t.n_ops)
        add(f"model.{region}.bwd_ms", "ms", "lower", bwd,
            lambda t, r=region: t.region[(r, BWD)] * 1e3 / t.n_ops)
    add("model.load_checkpoint_ms", "ms", "lower", ("load_checkpoint",),
        lambda t: t.setup_mean("model.load_checkpoint"))
    add("model.save_checkpoint_ms", "ms", "lower", ("save_checkpoint",),
        lambda t: t.setup_mean("model.save_checkpoint"))
    add("tensor.backward.self_ms", "ms", "lower", ("Tensor.backward",),
        lambda t: t.ms("tensor.backward", FWD))
    fwd_bwd("losses.cross_entropy", "losses.cross_entropy", ("cross_entropy",))
    fwd_bwd("losses.contrastive", "losses.contrastive", ("contrastive_loss", "sample_anchors"))
    add("losses.anchors_per_step", "count", "higher", ("sample_anchors", "hybrid_loss"),
        lambda t: t.ratio("anchors.sampled", "loss.calls"))
    add("losses.anchor_useful_ratio", "ratio", "higher", ("sample_anchors", "contrastive_loss"),
        lambda t: t.ratio("anchors.useful", "anchors.sampled"))
    add("losses.cl_empty_ratio", "ratio", "lower", ("hybrid_loss",),
        lambda t: t.ratio("loss.cl_empty", "loss.calls"))
    add("trainer.data_wait_ms", "ms", "lower", mod, lambda t: t.data_wait * 1e3 / t.n_ops)
    add("trainer.augment_ms", "ms", "lower", ("augment",), lambda t: t.ms("trainer.augment", FWD))
    add("trainer.sgd_step_ms", "ms", "lower", ("SGD.step",),
        lambda t: t.ms("trainer.sgd_step", FWD))
    add("trainer.confusion_update_ms", "ms", "lower", ("ConfusionMatrix.update",),
        lambda t: t.ms("trainer.confusion_update", FWD))
    add("datagen.load_sample_ms", "ms", "lower", ("Dataset.__getitem__",),
        lambda t: t.ms("datagen.load_sample", FWD))
    add("datagen.bytes_read", "B", "lower", ("Dataset.__getitem__",),
        lambda t: t.per_op("datagen.bytes"))
    add("trace.coverage_ratio", "ratio", "higher", (),
        lambda t: t.root_time / t.op_time if t.op_time else 0.0)
    return specs


def per_layer_metrics(tracer, traced_latencies, overhead_ratio):
    """{name: {"value", "unit"}} for every metric whose wrap targets exist."""
    totals = Totals(tracer, traced_latencies)
    out = {}
    for name, unit, _, needs, fn in per_layer_specs():
        if any(n in tracer.missing for n in needs):
            print(f"perfbench: warning: dropping {name}", file=sys.stderr)
            continue
        out[name] = {"value": float(fn(totals)), "unit": unit}
    out["trace.overhead_ratio"] = {"value": float(overhead_ratio), "unit": "ratio"}
    return out


def per_layer_names():
    """(name, unit, better) of every per-layer metric, in report order."""
    return [s[:3] for s in per_layer_specs()] + [("trace.overhead_ratio", "ratio", "lower")]
