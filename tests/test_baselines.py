import numpy as np
import pytest

from segrefine.baselines import DappmHead, PpmHead
from segrefine.layers import adaptive_avg_pool
from segrefine.refine import FeatureRefineHead
from segrefine.tensor import ContractError, Tensor

from conftest import set_identity_1x1, zero_params

PLAN = (8, 16, 32, 64)  # concatenates to 120 channels


def make_input(rng, size=8, channels=120):
    return Tensor(rng.standard_normal((1, channels, size, size)).astype(np.float32))


class TestPpmHead:
    def test_constant_preserved(self, rng):
        head = PpmHead(PLAN, 16, bins=(1, 2, 3, 6), rng=rng)
        x = Tensor(np.full((1, 120, 8, 8), 0.75, dtype=np.float32))
        out = head.context(x).data
        # 1x1 convs keep a spatially constant input spatially constant
        np.testing.assert_allclose(out, np.broadcast_to(out[:, :, :1, :1], out.shape), atol=1e-5)

    def test_output_shape(self, rng):
        head = PpmHead(PLAN, 32, bins=(1, 2, 3, 6), rng=rng)
        assert head.context(make_input(rng)).shape == (1, 32, 8, 8)

    def test_bin1_branch_is_global_mean(self, rng):
        head = PpmHead(PLAN, 16, bins=(1,), rng=rng)
        x = make_input(rng)
        pooled = head.branch0(adaptive_avg_pool(x, 1, 1)).data
        np.testing.assert_allclose(
            pooled[:, :, 0, 0],
            np.einsum("oc,nc->no", head.branch0.weight.data[:, :, 0, 0], x.data.mean(axis=(2, 3)))
            + head.branch0.bias.data[None],
            atol=1e-5,
        )

    def test_bin_larger_than_input_rejected(self, rng):
        head = PpmHead(PLAN, 16, bins=(1, 2, 3, 6), rng=rng)
        with pytest.raises(ContractError, match="bin"):
            head.context(make_input(rng, size=4))


class TestDappmHead:
    def test_constant_preserved_with_zeroed_fusion(self, rng):
        head = DappmHead(PLAN, 16, scales=(2, 4, 8, 0), rng=rng)
        for i in range(1, len(head.scales) + 1):
            zero_params(getattr(head, f"fuse{i}"))
        x = Tensor(np.full((1, 120, 8, 8), -0.5, dtype=np.float32))
        out = head.context(x).data
        np.testing.assert_allclose(out, np.broadcast_to(out[:, :, :1, :1], out.shape), atol=1e-5)

    def test_output_shape(self, rng):
        head = DappmHead(PLAN, 24, scales=(2, 4, 8, 0), rng=rng)
        assert head.context(make_input(rng)).shape == (1, 24, 8, 8)

    def test_single_branch_reduces_to_1x1_conv(self, rng):
        head = DappmHead(PLAN, 30, scales=(), rng=rng)
        set_identity_1x1(head.compress)
        x = make_input(rng)
        np.testing.assert_allclose(head.context(x).data, head.branch0(x).data, atol=1e-6)

    def test_hierarchical_fusion_consumes_previous_branch(self, rng):
        head = DappmHead(PLAN, 16, scales=(2,), rng=rng)
        x = make_input(rng)
        y0 = head.branch0(x)
        from segrefine.layers import bilinear_upsample

        pooled = head.pool_conv1(adaptive_avg_pool(x, 4, 4))
        want = head.fuse1(bilinear_upsample(pooled, 8, 8) + y0)
        got = head.context(x)
        from segrefine import tensor as T

        np.testing.assert_allclose(
            got.data, head.compress(T.concat([y0, want], axis=1)).data, atol=1e-6
        )


class TestInterchangeability:
    @pytest.mark.parametrize("cls", [FeatureRefineHead, PpmHead, DappmHead])
    def test_same_contract(self, rng, cls):
        from test_refine import make_pyramid

        kwargs = {FeatureRefineHead: {"ffn_expansion": 4}, PpmHead: {"bins": (1, 2)},
                  DappmHead: {"scales": (2, 4, 8, 0)}}[cls]
        head = cls(PLAN, 48, rng=rng, **kwargs)
        out = head(make_pyramid(rng, plan=PLAN, base=32))
        assert out.shape == (1, 48, 4, 4)
