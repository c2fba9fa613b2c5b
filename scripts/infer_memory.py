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
one thread, as in perfbench. Usage:

  PYTHONPATH=src python3 scripts/infer_memory.py [--repeats N] [--heads frm ...]
      [--shapes 1x3x512x1024 ...]
"""

import argparse
import os
import statistics
import subprocess
import sys

BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
HEADS = ("frm", "ppm", "dappm")
SHAPES = ("1x3x512x1024", "8x3x256x256")


def measure(head, shape, repeats):
    """(p50 ms, ru_maxrss MB, tracemalloc peak MB, median minor faults) per forward."""
    import resource
    import time
    import tracemalloc

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


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--repeats", type=int, default=5, help="timed forwards per case")
    parser.add_argument("--heads", nargs="+", default=HEADS, choices=HEADS)
    parser.add_argument("--shapes", nargs="+", default=SHAPES, help="NxCxHxW input shapes")
    parser.add_argument("--one", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    if args.one:  # a child: one case, one line of numbers
        shape = tuple(int(v) for v in args.shapes[0].split("x"))
        print(" ".join(f"{v:.1f}" for v in measure(args.heads[0], shape, args.repeats)))
        return
    env = {**os.environ, **BLAS_ENV}
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
