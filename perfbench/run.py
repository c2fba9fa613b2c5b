"""segrefine benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Runs from the root of a checkout that holds `src/segrefine`. It first builds
the seed's inputs in a separate process (`prepare.py`, cached per seed under
`.perfbench_work/`), then times the workload in this process. It prints one
line per metric with its unit, writes the full result (with machine and run
facts) to `.perfbench_work/results/`, and ends with one JSON line:
end-to-end metrics with `--trace 0`, per-layer metrics with `--trace 1`.
`--workload all` runs every workload in its own process and prints a table.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
WORKLOAD_NAMES = ("train-64", "infer-512x1024", "eval-256-heads")
# reported with --trace 0; failed_ops_ratio goes out as "attempted"/"failed"
END_TO_END = ("setup_s", "latency_ms_p50", "latency_ms_p90", "images_per_s", "peak_rss_mb")
PREPARE_TIMEOUT_S = 840
WORKLOAD_TIMEOUT_S = 900
# One BLAS thread, so that a timed op depends on the state of one vCPU of a
# shared machine, not two. Set before numpy is imported here or in a child.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _blas_facts():
    import ctypes
    import glob

    import numpy as np

    facts = {"blas": "unknown", "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "default")}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        facts["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        pass
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                facts["blas_threads"] = fn()
                return facts
    return facts


def _git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=30, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def machine_facts():
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        **_blas_facts(),
        "git_commit": _git_commit(),
    }


def _fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _prepare(workload, seed, work):
    cmd = [sys.executable, os.path.join(HERE, "prepare.py"), "--workload", workload,
           "--seed", str(seed), "--work", work, "--src", SRC]
    try:
        done = subprocess.run(cmd, timeout=PREPARE_TIMEOUT_S, stdout=sys.stderr)
    except subprocess.TimeoutExpired:
        return False
    return done.returncode == 0


def run_one(args):
    if not _prepare(args.workload, args.seed, args.work):
        return _fail(f"building the inputs of {args.workload} for seed {args.seed} failed")
    sys.path.insert(0, SRC)
    import workloads

    result = workloads.run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                                    args.work)
    result["facts"] = machine_facts()
    result["ops_per_run"] = result["attempted"]
    if "end_to_end" not in result:
        return _fail(f"{args.workload}: no op completed; checks: {result['run_checks']}")
    for check in result["run_checks"]:
        print(f"check failed: {check}")
    print(f"workload {args.workload} seed {args.seed} ops {result['attempted']} "
          f"failed {result['failed']} correct {result['correct']}")
    for name, m in result["end_to_end"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}" + (
            f" (n={result['attempted']})" if name.startswith("latency") else ""))
    if args.trace:
        metrics = result.get("per_layer", {})
        print(f"traced ops {result['traced_ops']}; spans in {result['spans_csv']}")
        for name, m in metrics.items():
            print(f"{name} {m['value']:.6g} {m['unit']}")
    else:
        metrics = {k: result["end_to_end"][k] for k in END_TO_END}
    print("facts " + json.dumps(result["facts"], sort_keys=True))
    out_dir = os.path.join(args.work, "results")
    os.makedirs(out_dir, exist_ok=True)
    out_path = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out_path, "w", encoding="utf-8") as f:
        json.dump(result, f, indent=1, sort_keys=True)
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


def run_all(args):
    """Each workload in its own process; prints the six end-to-end metrics of each."""
    rows = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", "0", "--work", args.work]
        try:
            done = subprocess.run(cmd, timeout=WORKLOAD_TIMEOUT_S, capture_output=True, text=True)
        except subprocess.TimeoutExpired:
            return _fail(f"{name} timed out")
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            return _fail(f"{name} exited with {done.returncode}")
        out_path = os.path.join(args.work, "results", f"{name}-seed{args.seed}-trace0.json")
        with open(out_path, encoding="utf-8") as f:
            rows[name] = json.load(f)
    metrics = list(rows[WORKLOAD_NAMES[0]]["end_to_end"])
    print(f"{'metric':<18}{'unit':<8}" + "".join(f"{n:>18}" for n in WORKLOAD_NAMES))
    for metric in metrics:
        unit = rows[WORKLOAD_NAMES[0]]["end_to_end"][metric]["unit"]
        print(f"{metric:<18}{unit:<8}" + "".join(
            f"{rows[n]['end_to_end'][metric]['value']:>18.6g}" for n in WORKLOAD_NAMES))
    print(f"{'ops':<26}" + "".join(f"{rows[n]['attempted']:>18}" for n in WORKLOAD_NAMES))
    print(f"{'correct':<26}" + "".join(f"{str(rows[n]['correct']):>18}" for n in WORKLOAD_NAMES))
    out_path = os.path.join(args.work, "results", f"all-seed{args.seed}.json")
    with open(out_path, "w", encoding="utf-8") as f:
        json.dump(rows, f, indent=1, sort_keys=True)
    print(f"results in {out_path}")
    return 0 if all(r["correct"] for r in rows.values()) else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description="segrefine benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", default=WORK, help="cache and results directory")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "segrefine", "__init__.py")):
        return _fail(f"no segrefine package under {SRC}; run from a full checkout")
    if args.seconds <= 0:
        return _fail("--seconds must be positive")
    if args.seed < 0:
        return _fail("--seed must be >= 0 (numpy seed sequences take no negative seeds)")
    args.work = os.path.abspath(args.work)
    os.environ.update(BLAS_ENV)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
