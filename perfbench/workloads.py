"""The benchmark's three workloads: set-up, a closed loop of timed ops from one
client in this process, and the per-op output checks.

segrefine is a black box here: the workloads call its public functions and
see only the inputs `prepare.py` generated from the seed.
"""

from __future__ import annotations

import csv
import gc
import importlib
import math
import os
import statistics
import sys
import traceback
from time import perf_counter

import numpy as np

import prepare
from tracer import Tracer, per_layer_metrics

AGREEMENT = 0.999  # an infer/eval op must match the float64 reference on this share of pixels
SETUP_REPEATS = 9


def fresh_import():
    """Import segrefine from scratch (the import is part of set-up time)."""
    for name in [n for n in sys.modules if n == "segrefine" or n.startswith("segrefine.")]:
        del sys.modules[name]
    sr = importlib.import_module("segrefine")
    for sub in prepare.SUBMODULES:
        importlib.import_module("segrefine." + sub)
    return sr


def segrefine_modules():
    return [m for n, m in sorted(sys.modules.items()) if n.startswith("segrefine.")]


def model_paths(models):
    """id(module) -> dotted path inside its model ("" for the model itself)."""
    paths = {}
    for model in models:
        paths[id(model)] = ""
        for path, child in model.named_children():
            paths[id(child)] = path
    return paths


class Stop(Exception):
    """Raised from inside the training loop when the run's time is up."""


class Session:
    """Records the ops of one run.

    The first `warmup` ops are not counted. Then ops are timed untraced for
    `seconds`; with tracing, the untraced window is the first half and the
    tracer is installed for the second half.
    """

    def __init__(self, sr, models, seconds, trace, warmup):
        self.sr, self.models = sr, models
        self.seconds, self.trace, self.warmup = seconds, trace, warmup
        self.plain, self.traced = [], []  # (latency_s, ok, images)
        self.tracer = None
        self.n_warm = 0
        self.window = None  # (start, end) of the untraced window
        self.switch_at = None
        self.stop_at = None
        self.running = True

    def next_op(self, t):
        if self.tracer is not None:
            self.tracer.next_op(t)

    def begin(self):
        t = perf_counter()
        self.next_op(t)
        return t

    def end(self, t0, t1, ok, images):
        """Record one op; returns False when the run's time is up."""
        if self.switch_at is None:
            self.n_warm += 1
            if self.n_warm >= self.warmup:
                self.switch_at = t1 + (self.seconds / 2 if self.trace else self.seconds)
                self.window = (t1, t1)
            return True
        ops = self.plain if self.tracer is None else self.traced
        ops.append((t1 - t0, ok, images))
        if self.tracer is None:
            self.window = (self.window[0], t1)
            if t1 >= self.switch_at:
                if self.trace:
                    self.tracer = Tracer(segrefine_modules(), model_paths(self.models))
                    self.tracer.install()
                    self.stop_at = t1 + self.seconds / 2
                else:
                    self.running = False
        elif t1 >= self.stop_at:
            self.running = False
        return self.running

    def after_ops(self):
        """Spans from now on belong to no op (traced set-up calls)."""
        if self.tracer is not None:
            self.tracer.op = -1

    def close(self):
        if self.tracer is not None:
            self.tracer.uninstall()


def _agreement(mask, ref):
    return float(np.mean(mask == ref)) if mask.shape == ref.shape else 0.0


def _failed():
    traceback.print_exc(file=sys.stderr)
    return False


# ---------------------------------------------------------------------------
# train-64


class Train64:
    name = "train-64"
    images_per_op = 8
    warmup = 3
    log_interval = 10

    def setup(self, art):
        sr = fresh_import()
        dataset = sr.datagen.Dataset(art.train_dir)
        model = sr.model.SegModel(sr.config.ModelConfig(num_classes=prepare.NUM_CLASSES),
                                  rng=np.random.default_rng(art.seed))
        return sr, {"dataset": dataset, "model": model}

    def models(self, state):
        return [state["model"]]

    def run(self, sr, state, art, session):
        trainer = sr.trainer
        model = state["model"]
        out_dir = os.path.join(art.run_dir, "train-64")
        cfg = sr.config.TrainConfig(iters=10**9, batch=8, crop=64, seed=art.seed,
                                    eval_interval=self.log_interval)
        step_orig, loss_orig = trainer.SGD.step, trainer.hybrid_loss
        pending = {"ok": True}
        boundary = [0.0]

        def checked_loss(*args, **kwargs):
            total, report = loss_orig(*args, **kwargs)
            pending["ok"] = math.isfinite(report.total)
            return total, report

        def step(opt, lr):
            step_orig(opt, lr)
            t = perf_counter()
            ok, pending["ok"] = pending["ok"], True
            if not session.end(boundary[0], t, ok, self.images_per_op):
                raise Stop
            boundary[0] = t
            session.next_op(t)

        trainer.SGD.step, trainer.hybrid_loss = step, checked_loss
        run_checks = []
        try:
            while session.running:
                boundary[0] = session.begin()
                try:
                    trainer.train(model, state["dataset"], cfg, sr.config.LossConfig(),
                                  out_dir=out_dir, log=lambda line: None)
                    run_checks.append("training ended before the run's time was up")
                    break
                except Stop:
                    break
                except Exception:
                    traceback.print_exc(file=sys.stderr)
                    session.end(boundary[0], perf_counter(), False, self.images_per_op)
            # the end of training: write the checkpoint through the trainer's import
            session.after_ops()
            trainer.save_checkpoint(os.path.join(out_dir, "checkpoint.srcp"), model,
                                    extra={"seed": art.seed})
        finally:
            session.close()
            trainer.SGD.step, trainer.hybrid_loss = step_orig, loss_orig
        return run_checks + self.loss_check(os.path.join(out_dir, "metrics.csv"))

    @staticmethod
    def loss_check(path):
        """The mean loss must fall from the first to the last logged interval."""
        with open(path, newline="", encoding="utf-8") as f:
            losses = [float(row["loss"]) for row in csv.DictReader(f)]
        if len(losses) < 2:
            return [f"only {len(losses)} logged loss interval(s); need two"]
        if not all(math.isfinite(v) for v in losses) or not losses[-1] < losses[0]:
            return [f"mean loss did not fall: first {losses[0]:.4f}, last {losses[-1]:.4f}"]
        return []


# ---------------------------------------------------------------------------
# infer-512x1024


class Infer512:
    name = "infer-512x1024"
    images_per_op = 1
    warmup = 1

    def setup(self, art):
        sr = fresh_import()
        model, _ = sr.model.load_checkpoint(art.checkpoint("frm"))
        return sr, {"model": model.eval()}

    def models(self, state):
        return [state["model"]]

    def run(self, sr, state, art, session):
        model = state["model"]
        scenes = [sr.tensor.load_tensor_file(art.infer_input(i)) for i in range(prepare.INFER_POOL)]
        refs = [np.load(art.infer_ref(i)) for i in range(prepare.INFER_POOL)]
        i = 0
        while session.running:
            t0 = session.begin()
            try:
                with sr.tensor.no_grad():
                    logits = model(sr.tensor.Tensor(scenes[i][None]), train_mode=False)["logits"]
                mask = np.argmax(logits.data, axis=1)[0]
                ok = True
            except Exception:
                ok = _failed()
            t1 = perf_counter()
            ok = ok and _agreement(mask, refs[i]) >= AGREEMENT
            session.end(t0, t1, ok, self.images_per_op)
            i = (i + 1) % prepare.INFER_POOL
        session.after_ops()
        if session.tracer is not None:
            sr.model.load_checkpoint(art.checkpoint("frm"))  # traced, outside any op
        session.close()
        return []


# ---------------------------------------------------------------------------
# eval-256-heads


class Eval256:
    name = "eval-256-heads"
    images_per_op = prepare.EVAL_BATCH
    warmup = len(prepare.HEADS)

    def setup(self, art):
        sr = fresh_import()
        dataset = sr.datagen.Dataset(art.eval_dir)
        models = {h: sr.model.load_checkpoint(art.checkpoint(h))[0] for h in prepare.HEADS}
        return sr, {"dataset": dataset, "models": models}

    def models(self, state):
        return list(state["models"].values())

    def run(self, sr, state, art, session):
        cm_cls = sr.trainer.ConfusionMatrix
        update_orig = cm_cls.update
        preds = []

        def update(cm, pred, *args, **kwargs):
            preds.append(pred)
            return update_orig(cm, pred, *args, **kwargs)

        refs = {(h, b): np.load(art.eval_ref(h, b))
                for h in prepare.HEADS for b in range(prepare.EVAL_BATCHES)}
        cm_cls.update = update
        k = 0
        try:
            while session.running:
                head = prepare.HEADS[k % len(prepare.HEADS)]
                b = (k // len(prepare.HEADS)) % prepare.EVAL_BATCHES
                preds.clear()
                t0 = session.begin()
                try:
                    sr.trainer.evaluate(state["models"][head], state["dataset"],
                                        indices=art.eval_indices(b), batch=prepare.EVAL_BATCH)
                    ok = len(preds) == 1
                except Exception:
                    ok = _failed()
                t1 = perf_counter()
                ok = ok and _agreement(np.asarray(preds[0]), refs[(head, b)]) >= AGREEMENT
                session.end(t0, t1, ok, self.images_per_op)
                k += 1
            session.after_ops()
            if session.tracer is not None:
                for head in prepare.HEADS:  # traced, outside any op
                    sr.model.load_checkpoint(art.checkpoint(head))
        finally:
            session.close()
            cm_cls.update = update_orig
        return []


WORKLOADS = {w.name: w for w in (Train64(), Infer512(), Eval256())}


# ---------------------------------------------------------------------------


def _percentile(values, q):
    return float(np.percentile(np.asarray(values), q))


def run_workload(name, seed, seconds, trace, work, patch=None, setup_repeats=SETUP_REPEATS):
    """Run one workload in this process and return its result dict.

    `patch(sr)`, if given, is applied to the freshly imported segrefine
    package before any op runs (fault injection in tests).
    """
    workload = WORKLOADS[name]
    art = prepare.Artifacts(work, seed)
    os.makedirs(art.run_dir, exist_ok=True)
    setup_times = []

    def timed_setup():
        gc.collect()
        t0 = perf_counter()
        out = workload.setup(art)
        setup_times.append(perf_counter() - t0)
        return out

    # set-ups before and after the timed ops, so that the median spans the run
    for _ in range(setup_repeats - setup_repeats // 2):
        sr, state = timed_setup()
    if patch is not None:
        patch(sr)
    session = Session(sr, workload.models(state), seconds, trace, workload.warmup)
    run_checks = []
    try:
        run_checks = workload.run(sr, state, art, session)
    finally:
        session.close()
    peak_rss_mb = _peak_rss_mb()
    sr = state = session.models = None  # free the timed model before the last set-ups
    for _ in range(setup_repeats // 2):
        timed_setup()

    ops = session.plain
    latencies_ms = [lat * 1e3 for lat, _, _ in ops]
    failed = sum(1 for _, ok, _ in ops if not ok)
    attempted = len(ops)
    result = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "attempted": attempted,
        "failed": failed,
        "run_checks": run_checks,
        "correct": attempted > 0 and failed == 0 and not run_checks,
        "setup_s_samples": setup_times,
        "latency_ms_samples": latencies_ms,
    }
    if attempted == 0:
        return result
    window_s = session.window[1] - session.window[0]
    end_to_end = {
        "setup_s": (statistics.median(setup_times), "s"),
        "latency_ms_p50": (_percentile(latencies_ms, 50), "ms"),
        "latency_ms_p90": (_percentile(latencies_ms, 90), "ms"),
        "images_per_s": (sum(n for _, _, n in ops) / window_s, "img/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "failed_ops_ratio": (failed / attempted, "ratio"),
    }
    result["end_to_end"] = {k: {"value": v, "unit": u} for k, (v, u) in end_to_end.items()}
    if session.tracer is not None:
        traced = [lat for lat, _, _ in session.traced]
        overhead = statistics.median(traced) * 1e3 / end_to_end["latency_ms_p50"][0] if traced else 0.0
        result["traced_ops"] = len(traced)
        result["per_layer"] = per_layer_metrics(session.tracer, traced, overhead)
        spans_path = os.path.join(art.run_dir, f"spans-{name}.csv")
        session.tracer.write_csv(spans_path)
        result["spans_csv"] = spans_path
    return result


def _peak_rss_mb():
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
