import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segrefine.config import ConfigError, LossConfig
from segrefine import losses
from segrefine.datagen import IGNORE_INDEX
from segrefine.losses import (
    contrastive_from_embeddings,
    contrastive_loss,
    cross_entropy,
    downsample_labels,
    hybrid_loss,
)
from segrefine.tensor import Tensor


class TestCrossEntropy:
    def test_uniform_logits_give_log_k(self):
        logits = Tensor(np.zeros((1, 19, 4, 4), dtype=np.float32), requires_grad=True)
        labels = np.random.default_rng(0).integers(0, 19, (1, 4, 4))
        loss, count = cross_entropy(logits, labels)
        assert count == 16
        assert abs(loss.item() - math.log(19)) < 1e-6

    def test_saturated_logits_give_zero(self):
        labels = np.zeros((1, 1, 1), dtype=np.int64)
        logits = np.zeros((1, 3, 1, 1), dtype=np.float32)
        logits[0, 0] = 1000.0
        loss, _ = cross_entropy(Tensor(logits), labels)
        assert loss.item() < 1e-6

    def test_against_per_pixel_oracle(self, rng):
        logits = rng.standard_normal((1, 4, 3, 3)).astype(np.float32)
        labels = rng.integers(0, 4, (1, 3, 3))
        labels[0, 1, 1] = 255
        loss, count = cross_entropy(Tensor(logits), labels)
        total = 0.0
        for i in range(3):
            for j in range(3):
                if labels[0, i, j] == 255:
                    continue
                p = np.exp(logits[0, :, i, j].astype(np.float64))
                p /= p.sum()
                total += -math.log(p[labels[0, i, j]])
        assert count == 8
        assert abs(loss.item() - total / 8) < 1e-6

    def test_all_ignored_flags_empty(self):
        logits = Tensor(np.zeros((1, 3, 2, 2), dtype=np.float32))
        loss, count = cross_entropy(logits, np.full((1, 2, 2), 255))
        assert loss.item() == 0.0
        assert count == 0

    def test_gradient_closed_form(self, rng):
        logits = Tensor(rng.standard_normal((2, 5, 4, 3)), requires_grad=True)
        labels = rng.integers(0, 5, (2, 4, 3))
        labels[0, 1] = 255
        labels[1, :, 2] = 255
        loss, count = cross_entropy(logits, labels)
        loss.backward()
        valid = labels != 255
        softmax = np.exp(logits.data) / np.exp(logits.data).sum(axis=1, keepdims=True)
        onehot = np.moveaxis(np.eye(5)[np.where(valid, labels, 0)], -1, 1)
        want = (softmax - onehot) * valid[:, None] / count
        assert count == valid.sum()
        np.testing.assert_allclose(logits.grad, want, rtol=0, atol=1e-12)

    @settings(deadline=None, max_examples=30)
    @given(st.integers(0, 10**6))
    def test_nonnegative(self, seed):
        r = np.random.default_rng(seed)
        logits = Tensor(r.standard_normal((1, 5, 3, 3)).astype(np.float32) * 5)
        labels = r.integers(0, 5, (1, 3, 3))
        loss, _ = cross_entropy(logits, labels)
        assert loss.item() >= 0


def _cap_loop(mask, order, cap):
    """The per-anchor loop the vectorized cap replaced: the reference."""
    for a in range(mask.shape[0]):
        cols = [j for j in order[a] if mask[a, j]]
        for j in cols[cap:]:
            mask[a, j] = False


def _anchors_loop(labels, cap, rng):
    """sample_anchors' reference: one append per sampled pixel, class by class."""
    bi, ri, ci, cls = [], [], [], []
    for c in np.unique(labels):
        if c == IGNORE_INDEX:
            continue
        locs = np.argwhere(labels == c)
        if len(locs) > cap:
            locs = locs[rng.choice(len(locs), cap, replace=False)]
        for b, r, col in locs:
            bi.append(b)
            ri.append(r)
            ci.append(col)
            cls.append(c)
    return bi, ri, ci, cls


class TestContrastive:
    @pytest.mark.parametrize("dtype", [np.int64, np.uint8])
    def test_anchors_match_the_per_pixel_loop(self, dtype):
        rng = np.random.default_rng(5)
        for _ in range(150):
            shape = tuple(int(e) for e in rng.integers(1, 12, 3))
            labels = rng.integers(0, int(rng.integers(1, 8)), shape)
            labels[rng.random(shape) < rng.random()] = IGNORE_INDEX
            labels = labels.astype(dtype)
            cap, seed = int(rng.integers(0, 20)), int(rng.integers(2**31))
            got = losses.sample_anchors(labels, LossConfig(anchors_per_class=cap),
                                        np.random.default_rng(seed))
            want = _anchors_loop(labels, cap, np.random.default_rng(seed))
            for g, w in zip(got, want):
                np.testing.assert_array_equal(g, w)
            assert [g.dtype for g in got] == [np.intp] * 3 + [dtype]

    @pytest.mark.parametrize("cap", [0, 1, 3, 40], ids=["zero", "one", "below", "above"])
    def test_caps_match_the_per_anchor_loop(self, cap):
        rng = np.random.default_rng(cap)
        for _ in range(75):
            m = int(rng.integers(1, 30))
            mask = rng.random((m, m)) < rng.random()
            order = np.argsort(rng.random((m, m)), axis=1)
            want = mask.copy()
            _cap_loop(want, order, cap)
            losses._cap_rows(mask, order, cap)
            np.testing.assert_array_equal(mask, want)
            assert (mask.sum(axis=1) <= cap).all()

    def test_negative_caps_rejected(self):
        for name in ("anchors_per_class", "max_positives", "max_negatives"):
            with pytest.raises(ConfigError, match=name):
                LossConfig(**{name: -1}).validate()

    def test_symmetric_case_is_log_two(self):
        emb = Tensor(np.eye(3, dtype=np.float32), requires_grad=True)
        cfg = LossConfig(tau=1.0)
        loss, anchors = contrastive_from_embeddings(emb, [0, 0, 1], cfg, np.random.default_rng(0))
        assert anchors == 2
        assert abs(loss.item() - math.log(2)) < 1e-6

    def test_separated_pair_at_low_temperature(self):
        # float64: ln(1 + e^-20) ~ 2.06e-9 underflows against 1 in float32
        emb = Tensor(np.array([[1, 0], [1, 0], [-1, 0]], dtype=np.float64))
        cfg = LossConfig(tau=0.1)
        loss, _ = contrastive_from_embeddings(emb, [0, 0, 1], cfg, np.random.default_rng(0))
        want = math.log(1 + math.exp((-1 - 1) / 0.1))  # ln(1 + e^-20)
        assert abs(loss.item() - want) < 1e-12

    def test_no_negatives_gives_zero(self):
        emb = Tensor(np.array([[1, 0], [0, 1], [1, 1]], dtype=np.float32))
        cfg = LossConfig(tau=0.5)
        loss, anchors = contrastive_from_embeddings(emb, [0, 0, 0], cfg, np.random.default_rng(0))
        assert anchors == 3
        assert abs(loss.item()) < 1e-6

    def test_single_class_map_flags_empty(self, rng):
        emb = Tensor(rng.standard_normal((1, 4, 4, 4)).astype(np.float32))
        labels = np.zeros((1, 8, 8), dtype=np.int64)
        labels[0, :, :4] = 255
        cfg = LossConfig(anchors_per_class=1)
        loss, anchors = contrastive_loss(emb, labels, cfg, rng)
        assert anchors == 0
        assert loss.item() == 0.0

    def test_rotation_invariance(self, rng):
        emb = rng.standard_normal((6, 4)).astype(np.float32)
        classes = [0, 0, 1, 1, 2, 2]
        cfg = LossConfig(tau=0.3)
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        base, _ = contrastive_from_embeddings(Tensor(emb), classes, cfg, np.random.default_rng(1))
        rotated, _ = contrastive_from_embeddings(
            Tensor(emb @ q.astype(np.float32)), classes, cfg, np.random.default_rng(1)
        )
        assert abs(base.item() - rotated.item()) < 1e-5

    def test_monotone_in_positive_similarity(self):
        cfg = LossConfig(tau=0.5)
        losses = []
        for positive in ([0.0, 1.0], [0.5, 0.5], [0.9, 0.1]):
            emb = np.array([[1.0, 0.0], positive, [-1.0, 0.2]], dtype=np.float32)
            loss, _ = contrastive_from_embeddings(
                Tensor(emb), [0, 0, 1], cfg, np.random.default_rng(2)
            )
            losses.append(loss.item())
        assert losses[0] > losses[1] > losses[2]

    def test_bad_temperature_rejected(self):
        with pytest.raises(ConfigError):
            contrastive_loss(
                Tensor(np.zeros((1, 2, 2, 2), dtype=np.float32)),
                np.zeros((1, 4, 4), dtype=np.int64),
                LossConfig(tau=0.0),
                np.random.default_rng(0),
            )

    def test_label_downsampling_is_nearest(self):
        labels = np.arange(16).reshape(1, 4, 4)
        small = downsample_labels(labels, 2, 2)
        assert small.shape == (1, 2, 2)
        assert set(small.ravel()) <= set(labels.ravel())


class TestHybrid:
    def test_lambda_zero_collapses_to_ce(self, rng):
        logits = Tensor(rng.standard_normal((1, 3, 8, 8)).astype(np.float32))
        emb = Tensor(rng.standard_normal((1, 4, 2, 2)).astype(np.float32))
        labels = rng.integers(0, 3, (1, 8, 8))
        cfg = LossConfig(lam=0.0, tau=0.1)
        total, report = hybrid_loss(logits, emb, labels, cfg, rng)
        ce, _ = cross_entropy(logits, labels)
        assert total.item() == ce.item()
        assert report.total == report.ce_term

    def test_default_configuration_runs(self, rng):
        logits = Tensor(rng.standard_normal((2, 5, 16, 16)).astype(np.float32), requires_grad=True)
        emb = Tensor(rng.standard_normal((2, 8, 4, 4)).astype(np.float32), requires_grad=True)
        labels = rng.integers(0, 5, (2, 16, 16))
        cfg = LossConfig(lam=1.0, tau=0.1)
        total, report = hybrid_loss(logits, emb, labels, cfg, rng)
        assert report.total == pytest.approx(report.ce_term + 1.0 * report.cl_term, abs=1e-6)
        total.backward()
        assert logits.grad is not None and np.abs(logits.grad).sum() > 0
        assert emb.grad is not None and np.abs(emb.grad).sum() > 0

    def test_weighted_arithmetic(self, rng):
        # lam=2 with ce and cl measured from the report: total = ce + 2*cl
        logits = Tensor(rng.standard_normal((1, 3, 8, 8)).astype(np.float32))
        emb = Tensor(rng.standard_normal((1, 4, 2, 2)).astype(np.float32))
        labels = rng.integers(0, 3, (1, 8, 8))
        cfg = LossConfig(lam=2.0, tau=0.5)
        total, report = hybrid_loss(logits, emb, labels, cfg, np.random.default_rng(3))
        assert report.total == pytest.approx(report.ce_term + 2.0 * report.cl_term, rel=1e-6)
        known = 1.0 + 2.0 * 0.25
        assert known == 1.5  # hand arithmetic for the report identity
