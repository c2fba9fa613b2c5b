"""Training loop: SGD with momentum, poly learning-rate schedule,
augmentation (flip / scale / crop), and confusion-matrix mIoU evaluation.
"""

from __future__ import annotations

import csv
import math
import os
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .config import LossConfig, TrainConfig
from .datagen import IGNORE_INDEX
from .layers import _SCRATCH, resample_matrix
from .losses import hybrid_loss
from .model import SegModel, save_checkpoint
from .tensor import ContractError, Tensor


class NonFiniteLoss(RuntimeError):
    """A training step's loss was NaN or infinite."""


# one `metrics.csv` row, whose fields are the file's header: the means over an
# interval of the losses and of the contrastive anchor count, and the number of
# its steps whose cross-entropy and contrastive terms were empty; `val_miou` is
# "" when no held-out set was evaluated
IntervalRow = namedtuple("IntervalRow", "iteration lr loss ce cl val_miou anchors ce_empty cl_empty")


class SGD:
    """v <- mu*v + g + wd*p ; p <- p - lr*v  (decay folded into the velocity).

    Weight decay applies only to parameters with more than one axis, which in
    this model are exactly the conv weights; batch-norm scale/shift and biases
    are 1-D and exempt. A parameter with no gradient is skipped, decay and
    velocity alike, as `torch.optim.SGD` does.
    """

    def __init__(self, params, momentum, weight_decay):
        self.params = list(params)
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.velocity = [np.zeros_like(p.data) for p in self.params]

    def step(self, lr):
        for p, v in zip(self.params, self.velocity):
            if p.grad is None:
                continue
            g = p.grad
            if self.weight_decay and p.data.ndim > 1:
                g = g + self.weight_decay * p.data
            v *= self.momentum
            v += g
            p.data -= lr * v

    def zero_grad(self):
        for p in self.params:
            p.zero_grad()


@dataclass
class TrainSchedule:
    lr0: float
    total_iters: int
    power: float
    iteration: int = 0

    def lr(self):
        if self.iteration > self.total_iters:
            raise ContractError("schedule exhausted")
        frac = 1.0 - self.iteration / self.total_iters
        return self.lr0 * frac**self.power


def _resize_labels(labels, out_h, out_w):
    # Pixel-centre nearest rule. losses.downsample_labels picks window centres
    # instead. The two agree when in % out == 0 and otherwise round apart
    # (30 -> 8 maps output row 1 to row 5 here, to row 4 there). Merging them
    # would change the labels, and so the training runs, of one of the two.
    h, w = labels.shape
    rows = np.minimum(((np.arange(out_h) + 0.5) * h / out_h).astype(np.intp), h - 1)
    cols = np.minimum(((np.arange(out_w) + 0.5) * w / out_w).astype(np.intp), w - 1)
    return labels[rows[:, None], cols[None, :]]


def augment(image, labels, rng, crop, scale_range):
    """Random horizontal flip, random resize, random crop (padded with IGNORE_INDEX)."""
    if rng.random() < 0.5:
        image = image[:, :, ::-1]
        labels = labels[:, ::-1]
    scale = rng.uniform(*scale_range)
    h, w = labels.shape
    nh, nw = max(int(round(h * scale)), 1), max(int(round(w * scale)), 1)
    if (nh, nw) != (h, w):
        # the dense products: a crop's 3 channels are too few for banded resampling
        dt = image.dtype
        rh, rw = resample_matrix(h, nh, "bilinear", dt), resample_matrix(w, nw, "bilinear", dt)
        image = rh @ image @ rw.T
        labels = _resize_labels(labels, nh, nw)
    if nh < crop or nw < crop:
        pad_h, pad_w = max(crop - nh, 0), max(crop - nw, 0)
        image = np.pad(image, ((0, 0), (0, pad_h), (0, pad_w)))
        labels = np.pad(labels, ((0, pad_h), (0, pad_w)), constant_values=IGNORE_INDEX)
        nh, nw = labels.shape
    top = rng.integers(0, nh - crop + 1)
    left = rng.integers(0, nw - crop + 1)
    return (
        np.ascontiguousarray(image[:, top : top + crop, left : left + crop], dtype=np.float32),
        np.ascontiguousarray(labels[top : top + crop, left : left + crop]),
    )


class ConfusionMatrix:
    def __init__(self, num_classes):
        self.num_classes = num_classes
        self.counts = np.zeros((num_classes, num_classes), dtype=np.int64)

    def update(self, pred, target):
        """Count (target, pred) pairs of two integer arrays of one shape, skipping pixels
        labelled IGNORE_INDEX.

        One `bincount` of `target * num_classes + pred` over every pixel, whose bins of
        target IGNORE_INDEX are dropped, so no mask of valid pixels or compacted copy is
        built: the one temporary is that intp index array. A pred outside 0..num_classes-1,
        or a target that is neither such a class nor IGNORE_INDEX, is a ContractError that
        names the value."""
        nc = self.num_classes
        pred, target = np.asarray(pred), np.asarray(target)
        if pred.shape != target.shape:
            raise ContractError(f"pred shape {pred.shape} is not target shape {target.shape}")
        if not pred.size:
            return
        for value in (pred.min(), pred.max()):
            if not 0 <= value < nc:
                raise ContractError(f"pred {value} is not a class (0..{nc - 1})")
        if target.min() < 0:
            raise ContractError(f"target {target.min()} is neither a class (0..{nc - 1}) "
                                f"nor {IGNORE_INDEX}")
        idx = np.multiply(target, nc, dtype=np.intp)
        idx += pred
        bins = np.bincount(idx.ravel(), minlength=nc * nc)
        bins = np.pad(bins, (0, -len(bins) % nc)).reshape(-1, nc)  # one row per target value
        for value in np.flatnonzero(bins[nc:].any(axis=1)) + nc:
            if value != IGNORE_INDEX:
                raise ContractError(f"target {value} is neither a class (0..{nc - 1}) "
                                    f"nor {IGNORE_INDEX}")
        self.counts += bins[:nc]

    def miou(self):
        """(mean IoU, per-class IoU list with nan for absent classes)."""
        if self.counts.sum() == 0:
            return float("nan"), [float("nan")] * self.num_classes
        tp = np.diag(self.counts).astype(np.float64)
        fp = self.counts.sum(axis=0) - tp
        fn = self.counts.sum(axis=1) - tp
        denom = tp + fp + fn
        with np.errstate(invalid="ignore"):
            iou = np.where(denom > 0, tp / np.maximum(denom, 1), np.nan)
        present = denom > 0
        mean = float(iou[present].mean()) if present.any() else float("nan")
        return mean, iou.tolist()


def evaluate(model: SegModel, dataset, indices=None, batch=8):
    """mIoU of the model over a dataset. Each batch's class mask comes from `SegModel.predict`
    (eval mode, no graph, no embedding head, no full-size logits) and goes to one
    `ConfusionMatrix.update` with the batch's labels; the model's mode is kept."""
    cm = ConfusionMatrix(model.cfg.num_classes)
    if indices is None:
        indices = range(len(dataset))
    indices = list(indices)
    for lo in range(0, len(indices), batch):
        chunk = indices[lo : lo + batch]
        labels = []
        for j, i in enumerate(chunk):  # one read per index; `Dataset` holds each to its size
            image, label = dataset[i]
            if j == 0:
                images = np.empty((len(chunk), *image.shape), image.dtype)
            images[j] = image
            labels.append(label)
        del image, label
        labels = np.stack(labels)
        cm.update(model.predict(images), labels)
    return cm.miou()


def train(model: SegModel, dataset, train_cfg: TrainConfig, loss_cfg: LossConfig,
          out_dir=None, val_dataset=None, start_iter=0, log=print):
    """Run the optimization loop; returns the `IntervalRow`s it wrote to `metrics.csv`."""
    rng = np.random.default_rng(train_cfg.seed)
    opt = SGD(model.parameters(), train_cfg.momentum, train_cfg.weight_decay)
    sched = TrainSchedule(train_cfg.lr0, train_cfg.iters, train_cfg.poly_power, start_iter)
    model.train()
    history = []
    running = []
    writer = None
    csv_file = None
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        csv_file = open(os.path.join(out_dir, "metrics.csv"), "w", newline="")
        writer = csv.writer(csv_file)
        writer.writerow(IntervalRow._fields)
    try:
        for it in range(start_iter, train_cfg.iters):
            sched.iteration = it
            lr = sched.lr()
            picks = rng.integers(0, len(dataset), size=train_cfg.batch)
            images, labels = [], []
            for idx in picks:
                img, lab = dataset[int(idx)]
                img, lab = augment(
                    img, lab, rng, train_cfg.crop, (train_cfg.scale_min, train_cfg.scale_max)
                )
                images.append(img)
                labels.append(lab)
            batch_images = Tensor(np.stack(images))
            batch_labels = np.stack(labels)
            out = model(batch_images, train_mode=True)
            total, report = hybrid_loss(
                out["logits"], out["embeddings"], batch_labels, loss_cfg, rng
            )
            finite = math.isfinite(report.total)
            if finite:
                opt.zero_grad()
                total.backward()
                opt.step(lr)
            # drop this step's graph (activations and saved columns) before
            # the next batch is built, so two graphs are never alive at once
            del out, total
            running.append(report)
            if not finite or (it + 1) % train_cfg.eval_interval == 0 or it + 1 == train_cfg.iters:
                interval, running = running, []
                mean_loss = float(np.mean([r.total for r in interval]))
                mean_ce = float(np.mean([r.ce_term for r in interval]))
                mean_cl = float(np.mean([r.cl_term for r in interval]))
                val_miou = ""
                if finite and val_dataset is not None:
                    n_val = min(train_cfg.eval_count, len(val_dataset))
                    val_miou, _ = evaluate(model, val_dataset, range(n_val))
                row = IntervalRow(it + 1, lr, mean_loss, mean_ce, mean_cl, val_miou,
                                  float(np.mean([r.anchor_count for r in interval])),
                                  sum(r.ce_empty for r in interval),
                                  sum(r.cl_empty for r in interval))
                history.append(row)
                if writer:
                    writer.writerow(row)
                    csv_file.flush()
                if not finite:
                    raise NonFiniteLoss(f"iteration {it + 1}: loss {report.total} (ce "
                                        f"{report.ce_term}, cl {report.cl_term}) is not finite")
                log(
                    f"iter {it + 1}/{train_cfg.iters} lr {lr:.5f} "
                    f"loss {mean_loss:.4f} (ce {mean_ce:.4f} cl {mean_cl:.4f})"
                    + (f" val mIoU {val_miou:.4f}" if val_miou != "" else "")
                )
        if out_dir:
            save_checkpoint(
                os.path.join(out_dir, "checkpoint.srcp"), model,
                extra={"iteration": train_cfg.iters, "seed": train_cfg.seed},
            )
    finally:
        if csv_file:
            csv_file.close()
        _SCRATCH.clear()  # the recorded convs' scratch is needed only while training runs
    return history
