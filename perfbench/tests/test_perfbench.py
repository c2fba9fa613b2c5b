"""Tests of the benchmark itself (not of segrefine).

    python3 -m pytest -q perfbench/tests

They build one seed's inputs (about half a minute), then run every workload
for a second or so.
"""

import filecmp
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import prepare  # noqa: E402
import workloads  # noqa: E402

SEED = 3
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _f:
    SPEC = json.load(_f)


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    """One seed's inputs for every workload, built once for the module."""
    path = str(tmp_path_factory.mktemp("work"))
    for name in workloads.WORKLOADS:
        subprocess.run([sys.executable, os.path.join(BENCH, "prepare.py"), "--workload", name,
                        "--seed", str(SEED), "--work", path, "--src", os.path.join(ROOT, "src")],
                       check=True, timeout=600)
    return path


@pytest.fixture
def isolated_segrefine():
    """The workloads re-import segrefine; put this process's modules back after."""
    saved = {k: v for k, v in sys.modules.items() if k.split(".")[0] == "segrefine"}
    yield
    for k in [k for k in sys.modules if k.split(".")[0] == "segrefine"]:
        del sys.modules[k]
    sys.modules.update(saved)


def _run(work, name, trace, seconds=1):
    done = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", name, "--seed", str(SEED),
         "--seconds", str(seconds), "--trace", str(trace), "--work", work],
        capture_output=True, text=True, timeout=600, cwd=ROOT)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_prints_every_metric_with_its_unit(work, name, trace):
    # train-64's loss check needs two logged 10-step intervals
    lines = _run(work, name, trace, seconds=4 if name == "train-64" else 1)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected}
    for m in SPEC["end_to_end"]:
        assert any(line.startswith(f"{m['name']} ") and line.split()[2] == m["unit"]
                   for line in lines), m["name"]
    assert any(line.startswith("failed_ops_ratio 0 ratio") for line in lines)
    if trace:
        assert result["metrics"]["trace.coverage_ratio"]["value"] >= 0.9
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_injected_wrong_kernel_fails_ops(work, isolated_segrefine):
    """A decoder upsample that mirrors its output must fail the mask check."""

    def mirrored_upsample(sr):
        original = sr.model.bilinear_upsample

        def wrong(x, out_h, out_w):
            out = original(x, out_h, out_w)
            out.data = out.data[..., ::-1].copy()  # mirrored: a wrong kernel
            return out

        sr.model.bilinear_upsample = wrong

    result = workloads.run_workload("infer-512x1024", SEED, 1.0, False, work,
                                    patch=mirrored_upsample, setup_repeats=1)
    assert result["attempted"] >= 1
    assert result["end_to_end"]["failed_ops_ratio"]["value"] > 0
    assert result["correct"] is False


def test_generated_inputs_are_byte_identical_per_seed(tmp_path, isolated_segrefine):
    sr = prepare.import_segrefine(os.path.join(ROOT, "src"))
    dirs = []
    for copy in ("a", "b"):
        art = prepare.Artifacts(str(tmp_path / copy), SEED)
        os.makedirs(art.root)
        prepare.build_train_set(sr, art)
        dirs.append(art.train_dir)
    cmp = filecmp.dircmp(*dirs)
    assert not cmp.left_only and not cmp.right_only
    for sub in ("images", "labels"):
        names = sorted(os.listdir(os.path.join(dirs[0], sub)))
        assert len(names) == prepare.TRAIN_IMAGES
        _, mismatch, errors = filecmp.cmpfiles(*(os.path.join(d, sub) for d in dirs), names,
                                               shallow=False)
        assert not mismatch and not errors
    assert filecmp.cmp(*(os.path.join(d, "manifest.txt") for d in dirs), shallow=False)
    scene = prepare.infer_scene(sr, SEED, 0)
    assert scene.tobytes() == prepare.infer_scene(sr, SEED, 0).tobytes()
    assert scene.tobytes() != prepare.infer_scene(sr, SEED + 1, 0).tobytes()


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "train-64",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, timeout=180, cwd=tmp_path)
    assert done.returncode != 0
    assert "{" not in done.stdout
