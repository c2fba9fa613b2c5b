"""Builds one seed's benchmark inputs, in a process of its own.

Everything here is derived from the seed and cached per seed under the work
directory, so it is built once per seed and before any timed run:

- the 256-image 64x64 training set (`datagen.generate`);
- a short-trained checkpoint per context head (`trainer.train`), so the
  reference masks are not trivial;
- the 512x1024 inference scenes (`datagen.render_scene`);
- the 256x256 evaluation set;
- reference masks from a float64 replay (`Module.cast(np.float64)`) of the
  same checkpoints on the same inputs.

Running it apart from the timed process keeps the replay out of the timed
process's peak RSS. Usage:

    python3 perfbench/prepare.py --workload NAME --seed N --work DIR
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys

SUBMODULES = ("config", "datagen", "layers", "losses", "model", "tensor", "trainer")
NUM_CLASSES = 5
HEADS = ("frm", "ppm", "dappm")
TRAIN_IMAGES = 256
INFER_SHAPE = (512, 1024)
INFER_POOL = 4
EVAL_SIZE = 256
EVAL_BATCH = 8
EVAL_BATCHES = 2
CKPT_ITERS = 15
# ppm's largest bin (6) needs a stride-32 map of at least 6x6, so its short
# training run takes 192x192 crops from 3-4x upscaled training images.
CKPT_TRAIN = {
    "frm": dict(batch=8, crop=64),
    "dappm": dict(batch=8, crop=64),
    "ppm": dict(batch=2, crop=192, scale_min=3.0, scale_max=4.0),
}
NEEDS = {
    "train-64": ("train",),
    "infer-512x1024": ("train", "ckpt-frm", "infer"),
    "eval-256-heads": ("train", "ckpt-frm", "ckpt-ppm", "ckpt-dappm", "eval"),
}


class Artifacts:
    """Paths of one seed's inputs under the work directory."""

    def __init__(self, work, seed):
        self.seed = seed
        self.root = os.path.join(work, f"seed-{seed}")
        self.train_dir = os.path.join(self.root, "train64")
        self.eval_dir = os.path.join(self.root, "eval256")
        self.infer_dir = os.path.join(self.root, "infer512x1024")
        self.run_dir = os.path.join(self.root, "runs")

    def checkpoint(self, head):
        return os.path.join(self.root, f"ckpt-{head}.srcp")

    def infer_input(self, i):
        return os.path.join(self.infer_dir, f"scene-{i}.frmt")

    def infer_ref(self, i):
        return os.path.join(self.infer_dir, f"ref-{i}.npy")

    def eval_ref(self, head, b):
        return os.path.join(self.eval_dir, f"ref-{head}-{b}.npy")

    def eval_indices(self, b):
        return list(range(b * EVAL_BATCH, (b + 1) * EVAL_BATCH))


def _fresh(path):
    """An empty temporary sibling of `path`, renamed over it when complete."""
    tmp = path + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    return tmp


def build_train_set(sr, art):
    tmp = _fresh(art.train_dir)
    sr.datagen.generate(sr.datagen.SceneSpec(64, 64, NUM_CLASSES, seed=art.seed), TRAIN_IMAGES, tmp)
    os.replace(tmp, art.train_dir)


def build_checkpoint(sr, art, head):
    import numpy as np

    model = sr.model.SegModel(
        sr.config.ModelConfig(num_classes=NUM_CLASSES, context_head=head),
        rng=np.random.default_rng(art.seed),
    )
    cfg = sr.config.TrainConfig(iters=CKPT_ITERS, eval_interval=CKPT_ITERS, seed=art.seed,
                                **CKPT_TRAIN[head])
    tmp = _fresh(art.checkpoint(head) + ".d")
    sr.trainer.train(model, sr.datagen.Dataset(art.train_dir), cfg, sr.config.LossConfig(),
                     out_dir=tmp, log=lambda line: None)
    os.replace(os.path.join(tmp, "checkpoint.srcp"), art.checkpoint(head))
    shutil.rmtree(tmp)


def reference_masks(sr, checkpoint, images):
    """Argmax masks of a float64 replay of `checkpoint` on an N,3,H,W batch."""
    import numpy as np

    model, _ = sr.model.load_checkpoint(checkpoint)
    model.cast(np.float64).eval()
    with sr.tensor.no_grad():
        logits = model(sr.tensor.Tensor(images.astype(np.float64)), train_mode=False)["logits"]
    return np.argmax(logits.data, axis=1).astype(np.uint8)


def infer_scene(sr, seed, i):
    import numpy as np

    h, w = INFER_SHAPE
    rng = np.random.default_rng([seed, h, w, i])
    image, _ = sr.datagen.render_scene(sr.datagen.SceneSpec(h, w, NUM_CLASSES), rng)
    return image


def build_infer(sr, art):
    import numpy as np

    tmp = _fresh(art.infer_dir)
    for i in range(INFER_POOL):
        image = infer_scene(sr, art.seed, i)
        sr.tensor.save_tensor_file(os.path.join(tmp, os.path.basename(art.infer_input(i))), image)
        mask = reference_masks(sr, art.checkpoint("frm"), image[None])[0]
        np.save(os.path.join(tmp, os.path.basename(art.infer_ref(i))), mask)
    os.replace(tmp, art.infer_dir)


def build_eval(sr, art):
    import numpy as np

    tmp = _fresh(art.eval_dir)
    spec = sr.datagen.SceneSpec(EVAL_SIZE, EVAL_SIZE, NUM_CLASSES, seed=art.seed + 1_000_003)
    sr.datagen.generate(spec, EVAL_BATCH * EVAL_BATCHES, tmp)
    dataset = sr.datagen.Dataset(tmp)
    for b in range(EVAL_BATCHES):
        images = np.stack([dataset[i][0] for i in art.eval_indices(b)])
        for head in HEADS:
            mask = reference_masks(sr, art.checkpoint(head), images)
            np.save(os.path.join(tmp, os.path.basename(art.eval_ref(head, b))), mask)
    os.replace(tmp, art.eval_dir)


def import_segrefine(src):
    sys.path.insert(0, src)
    import importlib

    sr = importlib.import_module("segrefine")
    for sub in SUBMODULES:
        importlib.import_module("segrefine." + sub)
    return sr


def prepare(sr, workload, art):
    """Build whatever of `workload`'s inputs is not cached yet."""
    os.makedirs(art.root, exist_ok=True)
    for part in NEEDS[workload]:
        if part == "train" and not os.path.isdir(art.train_dir):
            build_train_set(sr, art)
        elif part.startswith("ckpt-") and not os.path.isfile(art.checkpoint(part[5:])):
            build_checkpoint(sr, art, part[5:])
        elif part == "infer" and not os.path.isdir(art.infer_dir):
            build_infer(sr, art)
        elif part == "eval" and not os.path.isdir(art.eval_dir):
            build_eval(sr, art)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(NEEDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--src", required=True, help="directory holding the segrefine package")
    args = parser.parse_args(argv)
    sr = import_segrefine(args.src)
    prepare(sr, args.workload, Artifacts(args.work, args.seed))
    return 0


if __name__ == "__main__":
    sys.exit(main())
