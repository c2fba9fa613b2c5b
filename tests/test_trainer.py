from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segrefine import layers
from segrefine.layers import Parameter
from segrefine.losses import hybrid_loss
from segrefine.tensor import ContractError, FormatError, Tensor
from segrefine.config import LossConfig, ModelConfig
from segrefine.datagen import IGNORE_INDEX, Dataset, SceneSpec, generate
from segrefine.model import SegModel
from segrefine.trainer import SGD, ConfusionMatrix, TrainSchedule, augment, evaluate

TINY = ModelConfig(channels=(4, 4, 4, 4), decoder_channels=4, num_classes=3, ffn_expansion=1,
                   embed_dim=2)


class TestSgd:
    def test_zero_grads_leave_params_unchanged(self):
        p = Parameter(np.array([1.0, 2.0], dtype=np.float32))
        p.grad = np.zeros(2, dtype=np.float32)
        opt = SGD([p], momentum=0.9, weight_decay=0.0)
        opt.step(lr=0.1)
        np.testing.assert_allclose(p.data, [1.0, 2.0])

    def test_plain_scalar_step(self):
        p = Parameter(np.array([1.0], dtype=np.float32))
        p.grad = np.array([1.0], dtype=np.float32)
        SGD([p], momentum=0.0, weight_decay=0.0).step(lr=0.1)
        np.testing.assert_allclose(p.data, [0.9])

    def test_two_momentum_steps(self):
        # v1=1, p1=-0.1; v2=0.9+1=1.9, p2=-0.1-0.19=-0.29
        p = Parameter(np.array([0.0], dtype=np.float32))
        opt = SGD([p], momentum=0.9, weight_decay=0.0)
        for _ in range(2):
            p.grad = np.array([1.0], dtype=np.float32)
            opt.step(lr=0.1)
        np.testing.assert_allclose(p.data, [-0.29], atol=1e-7)

    def test_weight_decay_only_on_tagged_params(self):
        # decay follows the shape: a 4-D conv weight decays, a 1-D bias does not
        decayed = Parameter(np.ones((1, 1, 1, 1), dtype=np.float32))
        plain = Parameter(np.array([1.0], dtype=np.float32))
        for p in (decayed, plain):
            p.grad = np.zeros_like(p.data)
        SGD([decayed, plain], momentum=0.0, weight_decay=0.5).step(lr=0.1)
        np.testing.assert_allclose(decayed.data, [[[[0.95]]]])
        np.testing.assert_allclose(plain.data, [1.0])

    def test_missing_grad_skips_the_parameter(self):
        # no decay and no velocity change for `skipped`, as in torch.optim.SGD
        skipped = Parameter(np.ones((1, 1, 1, 1), dtype=np.float32))
        stepped = Parameter(np.ones((1, 1, 1, 1), dtype=np.float32))
        opt = SGD([skipped, stepped], momentum=0.9, weight_decay=0.5)
        opt.velocity[0][...] = 2.0
        stepped.grad = np.ones_like(stepped.data)
        opt.step(lr=0.1)
        assert skipped.data.item() == 1.0 and opt.velocity[0].item() == 2.0
        np.testing.assert_allclose(stepped.data, [[[[0.85]]]])

    @staticmethod
    def _loss_step(model, opt, labels, loss_cfg, rng):
        """One training step on random images; returns the LossReport."""
        images = Tensor(rng.random((len(labels), 3, 32, 32), dtype=np.float32))
        out = model(images, train_mode=True)
        total, report = hybrid_loss(out["logits"], out["embeddings"], labels, loss_cfg, rng)
        opt.zero_grad()
        total.backward()
        opt.step(lr=0.1)
        return report

    def test_all_ignore_step_changes_no_parameter(self, rng):
        model = SegModel(TINY, rng=rng)
        opt = SGD(model.parameters(), momentum=0.9, weight_decay=1e-4)
        labels = rng.integers(0, 3, size=(2, 32, 32))
        self._loss_step(model, opt, labels, LossConfig(), rng)  # a non-zero velocity
        params = [p.data.copy() for p in opt.params]
        velocity = [v.copy() for v in opt.velocity]
        report = self._loss_step(model, opt, np.full_like(labels, IGNORE_INDEX), LossConfig(), rng)
        assert report.ce_empty and report.cl_empty
        for p, before in zip(opt.params, params):
            np.testing.assert_array_equal(p.data, before)
        for v, before in zip(opt.velocity, velocity):
            np.testing.assert_array_equal(v, before)

    def test_empty_contrastive_step_skips_only_the_embedding_head(self, rng):
        model = SegModel(TINY, rng=rng)
        named = dict(model.named_parameters())
        before = {name: p.data.copy() for name, p in named.items()}
        opt = SGD(named.values(), momentum=0.9, weight_decay=0.0)
        labels = rng.integers(0, 3, size=(2, 32, 32))
        report = self._loss_step(model, opt, labels, LossConfig(anchors_per_class=0), rng)
        assert report.cl_empty and not report.ce_empty
        head = {name for name in named if name.startswith("embedding_head.")}
        assert head and {name for name, p in named.items() if p.grad is None} == head
        for (name, p), v in zip(named.items(), opt.velocity):
            if name in head:
                np.testing.assert_array_equal(p.data, before[name])
                assert not v.any()
            else:  # the first step from zero velocity, without decay
                np.testing.assert_array_equal(v, p.grad)
                np.testing.assert_array_equal(p.data, before[name] - 0.1 * v)


class TestPolySchedule:
    def test_initial_rate(self):
        sched = TrainSchedule(lr0=0.01, total_iters=1000, power=0.9, iteration=0)
        assert sched.lr() == pytest.approx(0.01)

    def test_final_rate_is_zero(self):
        sched = TrainSchedule(lr0=0.01, total_iters=1000, power=0.9, iteration=1000)
        assert sched.lr() == 0.0

    def test_halfway_value(self):
        sched = TrainSchedule(lr0=0.01, total_iters=1000, power=0.9, iteration=500)
        assert sched.lr() == pytest.approx(0.01 * 0.5**0.9, abs=1e-6)

    def test_non_increasing(self):
        sched = TrainSchedule(lr0=0.01, total_iters=100, power=0.9)
        rates = []
        for it in range(101):
            sched.iteration = it
            rates.append(sched.lr())
        assert all(a >= b for a, b in zip(rates, rates[1:]))


class TestAugment:
    def _sample(self, rng):
        image = rng.random((3, 32, 32)).astype(np.float32)
        labels = rng.integers(0, 4, (32, 32))
        return image, labels

    def test_double_flip_restores_input(self, rng):
        image, labels = self._sample(rng)
        flipped_img = image[:, :, ::-1]
        flipped_lab = labels[:, ::-1]
        np.testing.assert_array_equal(flipped_img[:, :, ::-1], image)
        np.testing.assert_array_equal(flipped_lab[:, ::-1], labels)
        # a drawn flip reverses image and label columns identically
        for seed in range(20):
            r = np.random.default_rng(seed)
            if r.random() < 0.5:  # same draw augment makes
                img2, lab2 = augment(image, labels, np.random.default_rng(seed), 32, (1.0, 1.0))
                np.testing.assert_allclose(img2, flipped_img, atol=1e-6)
                np.testing.assert_array_equal(lab2, flipped_lab)
                return
        pytest.fail("no flip drawn in 20 seeds")

    def test_identity_when_scale_one_and_full_crop(self, rng):
        image, labels = self._sample(rng)
        for seed in range(20):
            r = np.random.default_rng(seed)
            if r.random() >= 0.5:  # no flip drawn
                img2, lab2 = augment(image, labels, np.random.default_rng(seed), 32, (1.0, 1.0))
                np.testing.assert_allclose(img2, image, atol=1e-6)
                np.testing.assert_array_equal(lab2, labels)
                return
        pytest.fail("no non-flip seed found")

    @settings(deadline=None, max_examples=30)
    @given(st.integers(0, 10**6))
    def test_labels_stay_in_original_set_plus_ignore(self, seed):
        rng = np.random.default_rng(seed)
        image = rng.random((3, 32, 32)).astype(np.float32)
        labels = rng.integers(0, 4, (32, 32))
        _, out = augment(image, labels, rng, 32, (0.5, 2.0))
        assert out.shape == (32, 32)
        assert set(np.unique(out)) <= set(np.unique(labels)) | {255}


class TestMiou:
    def test_perfect_prediction(self):
        cm = ConfusionMatrix(3)
        labels = np.random.default_rng(0).integers(0, 3, (4, 4))
        cm.update(labels, labels)
        miou, _ = cm.miou()
        assert miou == pytest.approx(1.0)

    def test_hand_counted_case(self):
        # pred all class 0; gt half 0 half 1 on a 4x4 grid
        cm = ConfusionMatrix(2)
        gt = np.zeros((4, 4), dtype=np.int64)
        gt[2:] = 1
        cm.update(np.zeros((4, 4), dtype=np.int64), gt)
        miou, per_class = cm.miou()
        assert per_class[0] == pytest.approx(0.5)
        assert per_class[1] == pytest.approx(0.0)
        assert miou == pytest.approx(0.25)

    def test_disjoint_classes_give_zero(self):
        cm = ConfusionMatrix(4)
        gt = np.array([[0, 0], [1, 1]])
        cm.update(gt + 2, gt)
        miou, _ = cm.miou()
        assert miou == pytest.approx(0.0)

    def test_count_invariant_excludes_ignored(self):
        cm = ConfusionMatrix(2)
        gt = np.array([0, 1, 255, 1])
        cm.update(np.array([0, 0, 1, 1]), gt)
        assert cm.counts.sum() == 3

    @settings(deadline=None, max_examples=30)
    @given(st.integers(0, 10**6), st.integers(2, 5))
    def test_matches_set_intersection_oracle(self, seed, k):
        rng = np.random.default_rng(seed)
        gt = rng.integers(0, k, (6, 6))
        pred = rng.integers(0, k, (6, 6))
        cm = ConfusionMatrix(k)
        cm.update(pred, gt)
        miou, per_class = cm.miou()
        ious = []
        for c in range(k):
            inter = ((pred == c) & (gt == c)).sum()
            union = ((pred == c) | (gt == c)).sum()
            if union == 0:
                assert np.isnan(per_class[c])
                continue
            assert per_class[c] == pytest.approx(inter / union)
            ious.append(inter / union)
        assert miou == pytest.approx(float(np.mean(ious)))

    def test_empty_matrix_is_undefined(self):
        miou, _ = ConfusionMatrix(3).miou()
        assert np.isnan(miou)

    @pytest.mark.parametrize("pred, target, message", [
        (3, 0, "pred 3 is not a class"),
        (-1, 1, "pred -1 is not a class"),
        (0, 7, "target 7 is neither a class"),
        (0, -2, "target -2 is neither a class"),
    ])
    def test_out_of_range_values_are_contract_errors(self, pred, target, message):
        cm = ConfusionMatrix(3)
        gt = np.array([[0, 1], [IGNORE_INDEX, target]])
        with pytest.raises(ContractError, match=message):
            cm.update(np.array([[0, 1], [2, pred]]), gt)
        assert cm.counts.sum() == 0

    def test_shapes_that_would_broadcast_are_contract_errors(self):
        cm = ConfusionMatrix(3)
        with pytest.raises(ContractError, match="shape"):
            cm.update(np.zeros((4, 4), np.int64), np.zeros((2, 4, 4), np.int64))

    @pytest.mark.parametrize("k", [1, 3, 19])
    @pytest.mark.parametrize("pred_dtype", [np.intp, np.uint8, np.int32])
    def test_matches_the_compaction_formula(self, rng, k, pred_dtype):
        for shape in [(8, 16, 16), (37,), (3, 5, 7)]:
            gt = rng.integers(0, k, shape)
            gt[rng.random(shape) < 0.2] = IGNORE_INDEX
            pred = rng.integers(0, k, shape).astype(pred_dtype)
            cm = ConfusionMatrix(k)
            cm.update(pred, gt.astype(np.uint8))
            cm.update(pred, gt)
            valid = gt != IGNORE_INDEX
            want = np.bincount(gt[valid] * k + pred[valid], minlength=k * k).reshape(k, k)
            np.testing.assert_array_equal(cm.counts, 2 * want)


class TestEvaluate:
    def test_reads_each_sample_once(self, tmp_path, monkeypatch):
        generate(SceneSpec(height=32, width=32, num_classes=3, seed=2), 5, tmp_path)
        reads = []
        getitem = Dataset.__getitem__

        def spy(self, i):
            reads.append(i)
            return getitem(self, i)

        monkeypatch.setattr(Dataset, "__getitem__", spy)
        model = SegModel(TINY)
        miou, per_class = evaluate(model, Dataset(tmp_path), batch=2)
        assert sorted(reads) == [0, 1, 2, 3, 4]
        assert len(per_class) == 3

    def test_updates_once_per_batch_with_the_predicted_mask(self, tmp_path, monkeypatch):
        generate(SceneSpec(height=32, width=32, num_classes=3, seed=2), 5, tmp_path)
        dataset = Dataset(tmp_path)
        model = SegModel(TINY)
        calls = []
        update = ConfusionMatrix.update

        def spy(cm, pred, target):
            calls.append((pred, target))
            return update(cm, pred, target)

        monkeypatch.setattr(ConfusionMatrix, "update", spy)
        evaluate(model, dataset, batch=2)
        assert [pred.shape for pred, _ in calls] == [(2, 32, 32), (2, 32, 32), (1, 32, 32)]
        assert model.training  # kept
        for lo, (pred, target) in zip(range(0, 5, 2), calls):
            samples = [dataset[i] for i in range(lo, lo + len(pred))]
            np.testing.assert_array_equal(pred, model.predict(np.stack([s[0] for s in samples])))
            np.testing.assert_array_equal(target, [s[1] for s in samples])

    def test_samples_of_another_size_are_a_format_error(self, tmp_path):
        generate(SceneSpec(height=32, width=32, num_classes=3, seed=2), 2, tmp_path / "a")
        generate(SceneSpec(height=64, width=32, num_classes=3, seed=2), 1, tmp_path / "b")
        for part in ("images/0000.frmt", "labels/0000.pgm"):
            (tmp_path / "a" / part).write_bytes((tmp_path / "b" / part).read_bytes())
        model = SegModel(TINY)
        with pytest.raises(FormatError, match="sample 0"):
            evaluate(model, Dataset(tmp_path / "a"), indices=[0, 1])


class TestTelemetry:
    def test_interval_columns_follow_the_loss_reports(self, tmp_path, monkeypatch):
        from segrefine import trainer
        from segrefine.config import LossConfig, TrainConfig

        generate(SceneSpec(height=32, width=32, num_classes=3, seed=2), 4, tmp_path / "data")
        reports = []
        hybrid_loss = trainer.hybrid_loss

        def spy(*args, **kwargs):
            total, report = hybrid_loss(*args, **kwargs)
            reports.append(report)
            return total, report

        monkeypatch.setattr(trainer, "hybrid_loss", spy)
        model = SegModel(TINY)
        cfg = TrainConfig(iters=6, batch=2, crop=32, eval_interval=4)
        rows = trainer.train(model, Dataset(tmp_path / "data"), cfg, LossConfig(),
                             out_dir=tmp_path / "run", log=lambda *args: None)
        assert [row.iteration for row in rows] == [4, 6] and len(reports) == 6
        for row, interval in zip(rows, (reports[:4], reports[4:])):
            assert row.anchors == np.mean([r.anchor_count for r in interval]) > 0
            assert row.ce_empty == sum(r.ce_empty for r in interval)
            assert row.cl_empty == sum(r.cl_empty for r in interval)
        lines = (tmp_path / "run" / "metrics.csv").read_text().splitlines()
        assert lines[0] == "iteration,lr,loss,ce,cl,val_miou,anchors,ce_empty,cl_empty"
        assert [line.split(",")[6:] for line in lines[1:]] == [
            [str(row.anchors), str(row.ce_empty), str(row.cl_empty)] for row in rows]


class TestTrainReleasesScratch:
    """`train` empties the recorded Winograd convs' scratch when it returns or raises."""

    # a 32-channel decoder: its stride-4 smoothing conv on 32x32 crops runs recorded Winograd
    WINOGRAD_NET = replace(TINY, decoder_channels=layers._WINOGRAD_MIN_CHANNELS)

    def _train(self, tmp_path, monkeypatch, nan_at=None):
        """Train a seeded model two steps, recording the scratch sizes the steps asked for; a
        step `nan_at` reports a NaN loss. Returns the model and those sizes."""
        from segrefine import trainer
        from segrefine.config import TrainConfig

        data = tmp_path / "data"
        if not data.exists():
            generate(SceneSpec(height=32, width=32, num_classes=3, seed=2), 4, data)
        sizes, calls = [], []
        scratch, loss = layers._scratch, trainer.hybrid_loss

        def spy_scratch(role, size, dtype):
            sizes.append(size)
            return scratch(role, size, dtype)

        def spy_loss(*args, **kwargs):
            total, report = loss(*args, **kwargs)
            calls.append(report)
            if len(calls) == nan_at:
                report.total = float("nan")
            return total, report

        monkeypatch.setattr(layers, "_scratch", spy_scratch)
        monkeypatch.setattr(trainer, "hybrid_loss", spy_loss)
        model = SegModel(self.WINOGRAD_NET, rng=np.random.default_rng(4))
        cfg = TrainConfig(iters=2, batch=2, crop=32, eval_interval=2)
        trainer.train(model, Dataset(data), cfg, LossConfig(), log=lambda *args: None)
        return model, sizes

    def test_empty_after_train_returns(self, tmp_path, monkeypatch):
        _, sizes = self._train(tmp_path, monkeypatch)
        assert sizes and not layers._SCRATCH

    def test_empty_after_train_raises(self, tmp_path, monkeypatch):
        from segrefine.trainer import NonFiniteLoss

        with pytest.raises(NonFiniteLoss):
            self._train(tmp_path, monkeypatch, nan_at=2)
        assert not layers._SCRATCH

    def test_second_train_gives_the_same_parameters(self, tmp_path, monkeypatch):
        first, _ = self._train(tmp_path, monkeypatch)
        second, sizes = self._train(tmp_path, monkeypatch)
        assert sizes
        for a, b in zip(first.parameters(), second.parameters()):
            np.testing.assert_array_equal(a.data, b.data)
