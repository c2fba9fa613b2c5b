"""Hybrid training objective: cross-entropy plus a weighted pixel
contrastive term over sampled anchor embeddings.

total = ce + lam * contrastive, computed on one arithmetic path so the
report's identity holds exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .config import LossConfig
from .datagen import IGNORE_INDEX
from .tensor import Tensor, _make


@dataclass
class LossReport:
    total: float
    ce_term: float
    cl_term: float
    anchor_count: int
    ce_empty: bool = False
    cl_empty: bool = False


def cross_entropy(logits: Tensor, labels):
    """Mean of -log softmax(logits)[label] over pixels not labelled IGNORE_INDEX.

    Returns (scalar loss, valid pixel count); count 0 flags an empty loss.
    Computed in log-sum-exp form as a single primitive op.
    """
    labels = np.asarray(labels)
    n, k, h, w = logits.shape
    if labels.shape != (n, h, w):
        raise T.ShapeError(f"labels {labels.shape} do not match logits {logits.shape}")
    valid = labels != IGNORE_INDEX
    count = int(valid.sum())
    if count == 0:
        return Tensor(np.zeros((), dtype=logits.dtype)), 0
    safe_labels = np.where(valid, labels, 0)
    if safe_labels.min() < 0 or safe_labels.max() >= k:
        raise T.ContractError("labels out of range")
    # a C-ordered copy: the class axis of channels-last logits is too short
    # for the reductions and gathers below to run along it
    x = np.ascontiguousarray(logits.data)
    xmax = x.max(axis=1, keepdims=True)
    lse = np.log(np.exp(x - xmax).sum(axis=1, keepdims=True)) + xmax  # n,1,h,w
    ni, hi, wi = np.nonzero(valid)
    picked = x[ni, safe_labels[ni, hi, wi], hi, wi]
    loss = (lse[ni, 0, hi, wi] - picked).sum() / count

    def backward(g):
        if logits.requires_grad:
            softmax = np.exp(x - lse)
            grad = softmax * valid[:, None].astype(x.dtype)
            grad[ni, safe_labels[ni, hi, wi], hi, wi] -= 1.0  # the indices are unique
            logits._accumulate(grad * (g / count), owned=True)

    return _make(np.asarray(loss, dtype=x.dtype), (logits,), backward), count


def downsample_labels(labels, out_h, out_w):
    """Nearest-neighbor label downsampling (keeps hard class identities)."""
    labels = np.asarray(labels)
    h, w = labels.shape[-2:]
    rows = np.minimum((np.arange(out_h) * h) // out_h + (h // out_h) // 2, h - 1)
    cols = np.minimum((np.arange(out_w) * w) // out_w + (w // out_w) // 2, w - 1)
    return labels[..., rows[:, None], cols[None, :]]


def sample_anchors(labels, cfg: LossConfig, rng):
    """Pick up to anchors_per_class pixels per present class but IGNORE_INDEX
    (uniform, seeded).

    Returns (batch_idx, row_idx, col_idx, class_ids) for the sampled pixels.
    """
    labels = np.asarray(labels)
    classes = np.unique(labels)
    classes = classes[classes != IGNORE_INDEX]
    picked = [np.empty((0, labels.ndim), np.intp)]
    for c in classes:
        locs = np.argwhere(labels == c)
        if len(locs) > cfg.anchors_per_class:
            locs = locs[rng.choice(len(locs), cfg.anchors_per_class, replace=False)]
        picked.append(locs)
    bi, ri, ci = np.ascontiguousarray(np.concatenate(picked).T)
    return bi, ri, ci, np.repeat(classes, [len(locs) for locs in picked[1:]])


def _cap_rows(mask, order, cap):
    """Keep, in place, the first `cap` set entries of each row of `mask`, visited in `order`."""
    ranked = np.take_along_axis(mask, order, axis=1)
    np.put_along_axis(mask, order, ranked & (np.cumsum(ranked, axis=1) <= cap), axis=1)


def contrastive_from_embeddings(emb_matrix: Tensor, class_ids, cfg: LossConfig, rng):
    """Supervised contrastive loss over already-gathered embedding vectors.

    emb_matrix: M x D tensor. For each anchor, positives are other sampled
    pixels of its class (capped), negatives are sampled pixels of other
    classes (capped); the per-anchor sum is normalized by its positive count
    and the result averaged over anchors with at least one positive.
    """
    cfg.validate()
    class_ids = np.asarray(class_ids)
    m = len(class_ids)
    dt = emb_matrix.dtype
    same = class_ids[:, None] == class_ids[None, :]
    pos_mask = same & ~np.eye(m, dtype=bool)
    neg_mask = ~same
    # apply sampling caps with a seeded shuffle per anchor
    order = np.argsort(rng.random((m, m)), axis=1)
    _cap_rows(pos_mask, order, cfg.max_positives)
    _cap_rows(neg_mask, order, cfg.max_negatives)
    anchor_ok = pos_mask.any(axis=1)
    n_anchors = int(anchor_ok.sum())
    if n_anchors == 0:
        return Tensor(np.zeros((), dtype=dt)), 0

    norm = T.powi(T.tsum(emb_matrix * emb_matrix, axis=1, keepdims=True) + 1e-12, -0.5)
    e = emb_matrix * norm
    sims = T.mul(T.matmul(e, e.transpose(1, 0)), 1.0 / cfg.tau)
    row_max = sims.data.max(axis=1, keepdims=True)  # constant shift for stability
    shifted = sims - Tensor(row_max)
    exp_neg = T.exp(shifted) * Tensor(neg_mask.astype(dt))
    z_neg = T.tsum(exp_neg, axis=1, keepdims=True)
    # per (anchor, positive) pair: log(exp(s_ap) + sum_n exp(s_an)) - s_ap
    pair_term = T.log(T.exp(shifted) + z_neg) - shifted
    pos_counts = pos_mask.sum(axis=1)
    weights = pos_mask.astype(dt) / np.maximum(pos_counts, 1)[:, None] / n_anchors
    loss = T.tsum(pair_term * Tensor(weights))
    return loss, n_anchors


def contrastive_loss(embeddings: Tensor, labels, cfg: LossConfig, rng):
    """Eq-style pixel contrastive loss on N,D,h,w embeddings.

    Labels are nearest-downsampled to the embedding resolution; embeddings
    are L2-normalized before the temperature-scaled dot products.
    Returns (scalar loss, anchor count).
    """
    cfg.validate()
    n, d, h, w = embeddings.shape
    small = downsample_labels(labels, h, w)
    bi, ri, ci, cls = sample_anchors(small, cfg, rng)
    if len(cls) < 2:
        return Tensor(np.zeros((), dtype=embeddings.dtype)), 0
    gathered = T.gather_pixels(embeddings, bi, ri, ci)
    return contrastive_from_embeddings(gathered, cls, cfg, rng)


def hybrid_loss(logits: Tensor, embeddings: Tensor, labels, cfg: LossConfig, rng):
    """total = ce + lam * contrastive; returns (total tensor, LossReport)."""
    cfg.validate()
    ce, n_pix = cross_entropy(logits, labels)
    cl, n_anchor = contrastive_loss(embeddings, labels, cfg, rng)
    total = ce + T.mul(cl, cfg.lam)
    report = LossReport(
        total=total.item(),
        ce_term=ce.item(),
        cl_term=cl.item(),
        anchor_count=n_anchor,
        ce_empty=n_pix == 0,
        cl_empty=n_anchor == 0,
    )
    return total, report
