"""End-to-end acceptance checks, one printed pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they
complete; the training-based checks take a few minutes.
"""

import math
import time

import numpy as np
import pytest

from segrefine.config import LossConfig, ModelConfig, TrainConfig
from segrefine.datagen import SceneSpec, Dataset, generate
from segrefine.gradcheck import TOLERANCE, component_checks
from segrefine.losses import contrastive_from_embeddings, cross_entropy, hybrid_loss
from segrefine.model import SegModel
from segrefine.profiler import bench_heads, count_costs
from segrefine.refine import DisentangledAttention, attention_reference
from segrefine.tensor import Tensor, no_grad
from segrefine import trainer


def report(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


class TestAttentionCriteria:
    def test_vectorized_attention_matches_literal_oracle(self):
        start = time.perf_counter()
        rng = np.random.default_rng(0)
        worst = 0.0
        for channels in (4, 8):
            for h in range(1, 5):
                for w in range(1, 5):
                    block = DisentangledAttention(channels, rng=rng)
                    x = Tensor(rng.standard_normal((2, channels, h, w)).astype(np.float32))
                    with no_grad():
                        got = block.attend(
                            x, block.query(x), block.key(x), block.unary(x), block.value(x)
                        ).data
                    want = attention_reference(x.data, block)
                    worst = max(worst, float(np.abs(got - want).max()))
        elapsed = time.perf_counter() - start
        report(
            "attention oracle equivalence",
            worst < 1e-5 and elapsed < 10.0,
            f"max deviation {worst:.3e} (< 1e-5), elapsed {elapsed:.1f}s (< 10s)",
        )

    def test_attention_rows_sum_to_two(self):
        rng = np.random.default_rng(1)
        worst = 0.0
        for _ in range(50):
            block = DisentangledAttention(8, rng=rng)
            x = Tensor(rng.standard_normal((1, 8, 4, 4)).astype(np.float32))
            with no_grad():
                w = block.attention_weights(block.query(x), block.key(x), block.unary(x)).data
            worst = max(worst, float(np.abs(w.sum(axis=2) - 2.0).max()))
        report(
            "attention weight normalization",
            worst < 1e-5,
            f"worst |row sum - 2| over 50 inputs: {worst:.3e} (< 1e-5)",
        )

    def test_shift_invariances(self):
        rng = np.random.default_rng(2)
        block = DisentangledAttention(8, rng=rng)
        x = Tensor(rng.standard_normal((1, 8, 3, 3)).astype(np.float32))
        with no_grad():
            q, k, m, v = block.query(x), block.key(x), block.unary(x), block.value(x)
            base = block.attend(x, q, k, m, v).data
            shifts = {
                "query": block.attend(x, q + Tensor(np.full(q.shape, 0.7, np.float32)), k, m, v),
                "key": block.attend(x, q, k + Tensor(np.full(k.shape, -1.3, np.float32)), m, v),
                "unary": block.attend(x, q, k, m + Tensor(np.full(m.shape, 2.5, np.float32)), v),
            }
        worst = max(float(np.abs(t.data - base).max()) for t in shifts.values())
        report(
            "query/key/unary shift invariance",
            worst < 1e-6,
            f"worst per-element change under constant shifts: {worst:.3e} (< 1e-6)",
        )


class TestGradientCriterion:
    def test_finite_difference_suite(self):
        start = time.perf_counter()
        results = component_checks(seed=0)
        elapsed = time.perf_counter() - start
        worst_name, worst = max(results, key=lambda kv: kv[1])
        report(
            "gradient checks (all layers + full model)",
            worst < TOLERANCE and elapsed < 120.0,
            f"{len(results)} components, worst {worst_name} rel err {worst:.3e} "
            f"(< 1e-5), elapsed {elapsed:.1f}s (< 120s)",
        )


class TestLossCriterion:
    def test_loss_closed_forms(self):
        rng = np.random.default_rng(3)
        logits = Tensor(np.zeros((1, 19, 4, 4), dtype=np.float32))
        labels = rng.integers(0, 19, (1, 4, 4))
        ce, _ = cross_entropy(logits, labels)
        ce_dev = abs(ce.item() - math.log(19))

        emb = Tensor(np.eye(3, dtype=np.float32))
        cl, _ = contrastive_from_embeddings(emb, [0, 0, 1], LossConfig(tau=1.0), rng)
        cl_dev = abs(cl.item() - math.log(2))

        rlogits = Tensor(rng.standard_normal((1, 3, 8, 8)).astype(np.float32))
        remb = Tensor(rng.standard_normal((1, 4, 2, 2)).astype(np.float32))
        rlabels = rng.integers(0, 3, (1, 8, 8))
        total, _ = hybrid_loss(rlogits, remb, rlabels, LossConfig(lam=0.0), rng)
        plain, _ = cross_entropy(rlogits, rlabels)
        collapse_exact = total.item() == plain.item()

        report(
            "loss closed forms",
            ce_dev < 1e-6 and cl_dev < 1e-6 and collapse_exact,
            f"|uniform CE - ln 19| = {ce_dev:.2e}, |symmetric contrastive - ln 2| = "
            f"{cl_dev:.2e} (both < 1e-6), zero-weight collapse exact: {collapse_exact}",
        )


@pytest.fixture(scope="module")
def toy_run(tmp_path_factory):
    """Default-config training on the synthetic dataset; shared by the
    quantitative criteria below."""
    root = tmp_path_factory.mktemp("toyrun")
    generate(SceneSpec(num_classes=5, seed=100), 256, root / "train")
    generate(SceneSpec(num_classes=5, seed=200), 64, root / "val")
    model = SegModel(ModelConfig(num_classes=5), rng=np.random.default_rng(0))
    cfg = TrainConfig(seed=0)
    start = time.perf_counter()
    trainer.train(
        model, Dataset(root / "train"), cfg, LossConfig(lam=1.0, tau=0.1),
        out_dir=root / "out", log=lambda *_: None,
    )
    elapsed = time.perf_counter() - start
    miou, _ = trainer.evaluate(model, Dataset(root / "val"))
    return miou, elapsed


class TestTrainingCriterion:
    def test_toy_training_reaches_target_accuracy(self, toy_run):
        miou, elapsed = toy_run
        report(
            "toy training accuracy",
            miou >= 0.85 and elapsed < 900.0,
            f"held-out mIoU {miou:.4f} (>= 0.85) after 1000 iterations in "
            f"{elapsed / 60:.1f} min (< 15 min)",
        )


class TestBenchCriterion:
    def test_three_heads_and_free_inference_embeddings(self):
        cfg = ModelConfig(num_classes=5)
        reports = bench_heads(cfg, (192, 192))
        heads_ok = set(reports) == {"frm", "ppm", "dappm"} and all(
            r.subtotal("context_head")[1] > 0 for r in reports.values()
        )
        model = SegModel(cfg, rng=np.random.default_rng(0))
        infer = count_costs(model, (192, 192), mode="inference")
        train_rep = count_costs(model, (192, 192), mode="training")
        zero_infer = infer.subtotal("embedding_head") == (0, 0)
        costly_train = train_rep.subtotal("embedding_head")[1] > 0
        report(
            "context-head cost comparison",
            heads_ok and zero_infer and costly_train,
            f"rows for {sorted(reports)}; embedding head inference FLOPs "
            f"{infer.subtotal('embedding_head')[1]} (training "
            f"{train_rep.subtotal('embedding_head')[1]})",
        )


class TestDeterminismCriterion:
    def test_identical_seeds_give_bit_identical_losses(self, tmp_path):
        generate(SceneSpec(num_classes=3, seed=7), 8, tmp_path / "data")
        model_cfg = ModelConfig(
            channels=(4, 8, 8, 8), decoder_channels=8, num_classes=3,
            embed_dim=4, ffn_expansion=2,
        )
        train_cfg = TrainConfig(iters=10, batch=2, eval_interval=10, seed=5)
        outcomes = []
        for run in range(2):
            model = SegModel(model_cfg, rng=np.random.default_rng(train_cfg.seed))
            history = trainer.train(
                model, Dataset(tmp_path / "data"), train_cfg, LossConfig(),
                out_dir=tmp_path / f"run{run}", log=lambda *_: None,
            )
            final_loss = history[-1].loss
            state = b"".join(p.data.tobytes() for p in model.parameters())
            outcomes.append((final_loss, state))
        identical = outcomes[0] == outcomes[1]
        report(
            "seeded training determinism",
            identical,
            f"two runs, final loss {outcomes[0][0]:.6f} vs {outcomes[1][0]:.6f}, "
            f"parameters bit-identical: {outcomes[0][1] == outcomes[1][1]}",
        )
