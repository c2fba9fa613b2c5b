import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segrefine import tensor as T
from segrefine.refine import (
    DisentangledAttention,
    FeaturePyramid,
    FeatureRefineHead,
    FeedForwardBlock,
    aggregate_stages,
    attention_reference,
)
from segrefine.tensor import ContractError, ShapeError, Tensor

from conftest import set_identity_1x1, zero_params


def make_pyramid(rng, plan=(8, 16, 32, 64), base=32, batch=1):
    tensors = []
    size = base
    for c in plan:
        tensors.append(Tensor(rng.standard_normal((batch, c, size, size)).astype(np.float32)))
        size //= 2
    return FeaturePyramid(*tensors)


def attend_raw(block, x):
    """Pre-projection, pre-residual attention output."""
    return block.attend(x, block.query(x), block.key(x), block.unary(x), block.value(x))


class TestAggregateStages:
    def test_output_shape(self, rng):
        out = aggregate_stages(make_pyramid(rng))
        assert out.shape == (1, 120, 4, 4)

    def test_constant_stages_concat_order(self):
        size, tensors = 32, []
        for k, c in enumerate((8, 16, 32, 64), start=1):
            tensors.append(Tensor(np.full((1, c, size, size), float(k), dtype=np.float32)))
            size //= 2
        out = aggregate_stages(FeaturePyramid(*tensors)).data
        np.testing.assert_allclose(out[0, 0:8], 1.0, atol=1e-6)
        np.testing.assert_allclose(out[0, 8:24], 2.0, atol=1e-6)
        np.testing.assert_allclose(out[0, 24:56], 3.0, atol=1e-6)
        np.testing.assert_allclose(out[0, 56:120], 4.0, atol=1e-6)

    def test_pooled_cell_is_window_mean(self, rng):
        p = make_pyramid(rng)
        out = aggregate_stages(p).data
        want = p.f1.data[0, :, 0:8, 0:8].mean(axis=(1, 2))
        np.testing.assert_allclose(out[0, 0:8, 0, 0], want, atol=1e-6)

    def test_batch_mismatch_rejected(self, rng):
        p = make_pyramid(rng)
        p.f2 = Tensor(np.zeros((2,) + p.f2.shape[1:], dtype=np.float32))
        with pytest.raises(ShapeError):
            aggregate_stages(p)


class TestDisentangledAttention:
    def test_zero_transforms_give_double_mean_field(self, rng):
        block = DisentangledAttention(8, rng=rng)
        zero_params(block)
        set_identity_1x1(block.value)
        set_identity_1x1(block.proj)
        x = Tensor(rng.standard_normal((2, 8, 3, 4)).astype(np.float32))
        out = block.proj(attend_raw(block, x)).data
        want = 2 * x.data.mean(axis=(2, 3), keepdims=True)
        np.testing.assert_allclose(out, np.broadcast_to(want, out.shape), atol=1e-5)

    def test_singleton_position_doubles_value(self, rng):
        block = DisentangledAttention(8, rng=rng)
        set_identity_1x1(block.proj)
        x = Tensor(rng.standard_normal((1, 8, 1, 1)).astype(np.float32))
        want = 2 * block.value(x).data
        np.testing.assert_allclose(block.proj(attend_raw(block, x)).data, want, atol=1e-5)

    def test_matches_literal_pairwise_oracle(self, rng):
        block = DisentangledAttention(8, rng=rng)
        x = Tensor(rng.standard_normal((1, 8, 3, 3)).astype(np.float32))
        got = attend_raw(block, x).data
        np.testing.assert_allclose(got, attention_reference(x.data, block), atol=1e-5)

    @settings(deadline=None, max_examples=20)
    @given(st.integers(1, 4), st.integers(1, 4), st.sampled_from([4, 8]), st.integers(0, 10**6))
    def test_oracle_equivalence_all_small_sizes(self, h, w, channels, seed):
        rng = np.random.default_rng(seed)
        block = DisentangledAttention(channels, rng=rng)
        x = Tensor(rng.standard_normal((2, channels, h, w)).astype(np.float32))
        got = attend_raw(block, x).data
        assert np.abs(got - attention_reference(x.data, block)).max() < 1e-5

    def test_weight_rows_sum_to_two(self, rng):
        block = DisentangledAttention(8, rng=rng)
        x = Tensor(rng.standard_normal((2, 8, 4, 4)).astype(np.float32))
        w = block.attention_weights(block.query(x), block.key(x), block.unary(x)).data
        np.testing.assert_allclose(w.sum(axis=2), 2.0, atol=1e-5)

    def test_whitening_invariance_of_query_and_key(self, rng):
        block = DisentangledAttention(8, rng=rng)
        x = Tensor(rng.standard_normal((1, 8, 3, 3)).astype(np.float32))
        q, k, m, v = block.query(x), block.key(x), block.unary(x), block.value(x)
        base = block.attend(x, q, k, m, v).data
        shift_q = Tensor(np.full(q.shape, 0.7, dtype=np.float32))
        shift_k = Tensor(np.full(k.shape, -1.3, dtype=np.float32))
        assert np.abs(block.attend(x, q + shift_q, k, m, v).data - base).max() < 1e-6
        assert np.abs(block.attend(x, q, k + shift_k, m, v).data - base).max() < 1e-6

    def test_unary_shift_invariance(self, rng):
        block = DisentangledAttention(8, rng=rng)
        x = Tensor(rng.standard_normal((1, 8, 3, 3)).astype(np.float32))
        q, k, m, v = block.query(x), block.key(x), block.unary(x), block.value(x)
        base = block.attend(x, q, k, m, v).data
        shifted = block.attend(x, q, k, m + Tensor(np.full(m.shape, 2.5, dtype=np.float32)), v).data
        assert np.abs(shifted - base).max() < 1e-6

    def test_permutation_equivariance(self, rng):
        block = DisentangledAttention(8, rng=rng)
        x = rng.standard_normal((1, 8, 2, 3)).astype(np.float32)
        perm = np.random.default_rng(7).permutation(6)
        x_perm = x.reshape(1, 8, 6)[:, :, perm].reshape(1, 8, 2, 3)
        out = block(Tensor(x)).data.reshape(1, 8, 6)
        out_perm = block(Tensor(x_perm)).data.reshape(1, 8, 6)
        np.testing.assert_allclose(out_perm, out[:, :, perm], atol=1e-5)

    def test_too_few_channels_rejected(self):
        with pytest.raises(ContractError):
            DisentangledAttention(3)


class TestFeedForwardBlock:
    def test_zero_weights_are_identity(self, rng):
        block = FeedForwardBlock(6, expansion=2, rng=rng)
        zero_params(block)
        x = Tensor(rng.standard_normal((1, 6, 4, 4)).astype(np.float32))
        np.testing.assert_allclose(block(x).data, x.data)

    @pytest.mark.parametrize("expansion", [1, 2, 4])
    def test_shape_preserved(self, rng, expansion):
        block = FeedForwardBlock(5, expansion=expansion, rng=rng)
        x = Tensor(rng.standard_normal((2, 5, 3, 3)).astype(np.float32))
        assert block(x).shape == x.shape

    def test_matches_composed_layer_oracle(self, rng):
        block = FeedForwardBlock(12, expansion=4, rng=rng)
        x = Tensor(rng.standard_normal((1, 12, 4, 4)).astype(np.float32))
        got = block(x).data
        step = block.expand(x)
        step = block.depthwise(step)
        step = T.relu(step)
        step = block.reduce(step)
        np.testing.assert_allclose(got, x.data + step.data, atol=1e-6)


@pytest.mark.parametrize("make", [lambda rng: DisentangledAttention(8, rng=rng),
                                  lambda rng: FeedForwardBlock(8, expansion=2, rng=rng)],
                         ids=["attention", "ffn"])
def test_no_grad_residual_leaves_its_input(rng, make):
    block = make(rng)
    # channels-last, as the head's aggregated pyramid is
    x = Tensor(rng.standard_normal((2, 3, 4, 8)).astype(np.float32).transpose(0, 3, 1, 2))
    x0 = x.data.copy()
    with T.no_grad():
        out = block(x)
    np.testing.assert_array_equal(x.data, x0)
    assert not np.shares_memory(out.data, x.data)
    assert out.data.transpose(0, 2, 3, 1).flags.c_contiguous


class TestFeatureRefineHead:
    def test_output_shape(self, rng):
        from segrefine.model import Backbone

        backbone = Backbone((8, 16, 32, 64), rng=rng)
        head = FeatureRefineHead((8, 16, 32, 64), 64, ffn_expansion=4, rng=rng)
        p = backbone(Tensor(rng.random((1, 3, 64, 64)).astype(np.float32)))
        assert head(p).shape == (1, 64, 2, 2)

    def test_zeroed_blocks_reduce_to_closed_form(self, rng):
        plan = (2, 2, 2, 2)
        head = FeatureRefineHead(plan, 4, ffn_expansion=4, rng=rng)
        zero_params(head.attention)
        set_identity_1x1(head.attention.value)
        set_identity_1x1(head.attention.proj)
        zero_params(head.ffn)
        p = make_pyramid(rng, plan=plan, base=8)
        got = head(p).data
        agg = aggregate_stages(p).data
        refined = agg + 2 * agg.mean(axis=(2, 3), keepdims=True)
        w = head.cut.weight.data[:, :, 0, 0]
        want = np.einsum("oc,nchw->nohw", w, refined) + head.cut.bias.data[None, :, None, None]
        np.testing.assert_allclose(got, want, atol=1e-5)
