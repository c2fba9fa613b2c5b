#!/usr/bin/env python3
"""Memory and latency of one no-grad forward, measured in-process.

For each context head (frm, ppm, dappm) and input shape (1x3x512x1024 and
8x3x256x256 by default), a fresh Python process builds the seeded default model
(5 classes) in eval mode, runs one warm-up forward, then times `--repeats`
forwards and prints, per forward:

  p50_ms      median wall time (perf_counter)
  maxrss_mb   ru_maxrss of the process after the timed forwards
  traced_mb   tracemalloc peak of one more forward, above what was live before it
  minflt      median minor page faults (ru_minflt)

Each case runs in its own process, so ru_maxrss is that case's alone. BLAS runs on
one thread, as in perfbench.

With --modules, each case instead runs one warm-up forward and then one traced
forward, and prints a line per call of each child of the backbone, the context
head and the decoder, then one per top-level module, as it returns:

  current_mb  tracemalloc current after the call, above what was live before the forward
  peak_mb     tracemalloc peak during the call, on the same scale
  minflt      minor page faults during the call (ru_minflt)

so the forward's peak is the largest peak_mb, in the module it names. A
`ConvBnRelu` that runs banded (`ConvBnRelu.bands`, the decoder's smoothing blocks
with no graph) is listed under its path with " (bands)". Usage:

  PYTHONPATH=src python3 scripts/infer_memory.py [--repeats N] [--heads frm ...]
      [--shapes 1x3x512x1024 ...] [--modules]
"""

import argparse
import os
import statistics
import subprocess
import sys

BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
HEADS = ("frm", "ppm", "dappm")
SHAPES = ("1x3x512x1024", "8x3x256x256")


def _case(head, shape):
    """The seeded default model in eval mode and its no-grad forward on a seeded image."""
    import numpy as np

    from segrefine.config import ModelConfig
    from segrefine.model import SegModel
    from segrefine.tensor import Tensor, no_grad

    model = SegModel(ModelConfig(num_classes=5, context_head=head),
                     rng=np.random.default_rng(0)).eval()
    image = Tensor(np.random.default_rng(1).standard_normal(shape).astype(np.float32))

    def forward():
        with no_grad():
            return model(image, train_mode=False)["logits"]

    forward()  # builds the cached resample plans and transforms
    return model, forward


def measure(head, shape, repeats):
    """(p50 ms, ru_maxrss MB, tracemalloc peak MB, median minor faults) per forward."""
    import resource
    import time
    import tracemalloc

    _, forward = _case(head, shape)
    times, faults = [], []
    for _ in range(repeats):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        start = time.perf_counter()
        forward()
        times.append(time.perf_counter() - start)
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    tracemalloc.start()
    try:
        live = tracemalloc.get_traced_memory()[0]
        forward()
        peak = tracemalloc.get_traced_memory()[1] - live
    finally:
        tracemalloc.stop()
    return (statistics.median(times) * 1e3, maxrss, peak / 2**20, statistics.median(faults))


def trace_modules(head, shape):
    """(path, current MB, peak MB, minor faults) per module call of one traced forward."""
    import resource
    import tracemalloc

    from segrefine.layers import ConvBnRelu

    model, forward = _case(head, shape)
    rows, start = [], [0]
    peaks = []  # the highest traced peak so far of each call now running, innermost last

    def fold():
        """Fold the traced peak since the last reset into every running call's, then reset."""
        peak = tracemalloc.get_traced_memory()[1]
        peaks[:] = [max(p, peak) for p in peaks]
        tracemalloc.reset_peak()

    def traced(path, call):
        def run(*args, **kwargs):
            fold()
            peaks.append(0)
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            try:
                out = call(*args, **kwargs)
            finally:
                faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
                fold()
                peak = peaks.pop()
            current = tracemalloc.get_traced_memory()[0]
            rows.append((path, (current - start[0]) / 2**20, (peak - start[0]) / 2**20, faults))
            return out

        return run

    wrapped = []
    for name, top in model._children.items():
        for child_name, child in top._children.items():
            path = f"{name}.{child_name}"
            wrapped.append((child, "forward", traced(path, child.forward)))
            if isinstance(child, ConvBnRelu):
                wrapped.append((child, "bands", traced(path + " (bands)", child.bands)))
        wrapped.append((top, "forward", traced(name, top.forward)))
    for module, method, call in wrapped:
        setattr(module, method, call)
    tracemalloc.start()
    try:
        start[0] = tracemalloc.get_traced_memory()[0]
        forward()
    finally:
        tracemalloc.stop()
        for module, method, _ in wrapped:
            delattr(module, method)
    return rows


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--repeats", type=int, default=5, help="timed forwards per case")
    parser.add_argument("--heads", nargs="+", default=HEADS, choices=HEADS)
    parser.add_argument("--shapes", nargs="+", default=SHAPES, help="NxCxHxW input shapes")
    parser.add_argument("--modules", action="store_true",
                        help="trace one forward module by module instead of timing")
    parser.add_argument("--one", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    if args.one:  # a child: one case, its lines of numbers
        shape = tuple(int(v) for v in args.shapes[0].split("x"))
        if args.modules:
            for path, current, peak, faults in trace_modules(args.heads[0], shape):
                print(f"{path:<32}{current:>12.1f}{peak:>9.1f}{faults:>8}")
        else:
            print(" ".join(f"{v:.1f}" for v in measure(args.heads[0], shape, args.repeats)))
        return
    env = {**os.environ, **BLAS_ENV}
    if args.modules:
        for shape in args.shapes:
            for head in args.heads:
                done = subprocess.run([sys.executable, __file__, "--one", "--modules",
                                       "--heads", head, "--shapes", shape],
                                      env=env, capture_output=True, text=True, check=True)
                print(f"# {head} {shape}")
                print(f"{'module':<32}{'current_mb':>12}{'peak_mb':>9}{'minflt':>8}")
                print(done.stdout, end="")
        return
    print(f"{'head':<6}{'shape':>14}{'p50_ms':>10}{'maxrss_mb':>11}{'traced_mb':>11}{'minflt':>8}")
    for shape in args.shapes:
        for head in args.heads:
            done = subprocess.run([sys.executable, __file__, "--one", "--repeats", str(args.repeats),
                                   "--heads", head, "--shapes", shape],
                                  env=env, capture_output=True, text=True, check=True)
            p50, rss, traced, faults = done.stdout.split()
            print(f"{head:<6}{shape:>14}{p50:>10}{rss:>11}{traced:>11}{faults:>8}")


if __name__ == "__main__":
    main()
