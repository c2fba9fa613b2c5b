import io
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from segrefine import tensor as T
from segrefine.tensor import ContractError, FormatError, ShapeError, Tensor


class TestMatmul:
    def test_identity(self, rng):
        m = Tensor(rng.standard_normal((2, 2)).astype(np.float32))
        out = T.matmul(Tensor(np.eye(2, dtype=np.float32)), m)
        np.testing.assert_allclose(out.data, m.data)

    def test_hand_arithmetic(self):
        out = T.matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[5.0], [6.0]]))
        np.testing.assert_allclose(out.data, [[17.0], [39.0]])

    def test_against_triple_loop_oracle(self, rng):
        a = rng.standard_normal((5, 7)).astype(np.float32)
        b = rng.standard_normal((7, 3)).astype(np.float32)
        want = np.zeros((5, 3), dtype=np.float64)
        for i in range(5):
            for j in range(3):
                for k in range(7):
                    want[i, j] += float(a[i, k]) * float(b[k, j])
        got = T.matmul(Tensor(a), Tensor(b)).data
        np.testing.assert_allclose(got, want, atol=1e-6)

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(4, 2\)"):
            T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))

    def test_gradients(self, rng):
        a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        b = Tensor(rng.standard_normal((4, 2)), requires_grad=True)
        T.tsum(T.matmul(a, b)).backward()
        np.testing.assert_allclose(a.grad, np.ones((3, 2)) @ b.data.T, atol=1e-6)
        np.testing.assert_allclose(b.grad, a.data.T @ np.ones((3, 2)), atol=1e-6)


class TestSoftmax:
    def test_constant_slice_is_uniform(self):
        out = T.softmax(Tensor(np.full((3, 5), 2.0)), axis=1)
        np.testing.assert_allclose(out.data, 1 / 5, atol=1e-7)

    def test_closed_form(self):
        out = T.softmax(Tensor([0.0, math.log(3.0)]), axis=0)
        np.testing.assert_allclose(out.data, [0.25, 0.75], atol=1e-6)

    def test_against_direct_oracle(self, rng):
        x = rng.standard_normal(9).astype(np.float32)
        want = np.exp(x.astype(np.float64))
        want /= want.sum()
        np.testing.assert_allclose(T.softmax(Tensor(x), axis=0).data, want, atol=1e-7)

    @settings(deadline=None, max_examples=50)
    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=12),
           st.floats(-100, 100))
    # float32 rounding of these shifted logits alone moved the softmax by 1.28e-6
    @example(values=[28.0, 28.611913925392443], shift=100.0)
    def test_sums_to_one_and_shift_invariant(self, values, shift):
        x = np.array(values, dtype=np.float64)
        out = T.softmax(Tensor(x), axis=0).data
        assert abs(out.sum() - 1.0) < 1e-6
        assert (out >= 0).all()
        shifted = T.softmax(Tensor(x + shift), axis=0).data
        np.testing.assert_allclose(out, shifted, atol=1e-6)


class TestBackward:
    def test_sum_gives_ones(self, rng):
        x = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
        T.tsum(x).backward()
        np.testing.assert_allclose(x.grad, 1.0)

    def test_square_gives_two_x(self, rng):
        x = Tensor(rng.standard_normal((4,)), requires_grad=True)
        T.tsum(x * x).backward()
        np.testing.assert_allclose(x.grad, 2 * x.data, atol=1e-6)

    def test_repeated_calls_accumulate(self, rng):
        x = Tensor(rng.standard_normal((3,)), requires_grad=True)
        T.tsum(x).backward()
        T.tsum(x).backward()
        np.testing.assert_allclose(x.grad, 2.0)

    def test_intermediate_gradients_are_dropped(self, rng):
        x = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
        y = x * x
        loss = T.tsum(y)
        loss.backward()
        assert y.grad is None and loss.grad is None
        np.testing.assert_allclose(x.grad, 2 * x.data, rtol=0, atol=1e-15)

    def test_non_scalar_loss_rejected(self):
        with pytest.raises(ContractError):
            Tensor(np.zeros(3), requires_grad=True).backward()

    def test_forward_determinism(self, rng):
        x = rng.standard_normal((2, 8, 4, 4)).astype(np.float32)

        def run():
            t = Tensor(x)
            return T.tsum(T.softmax(T.matmul(t.reshape(2, 8, 16), t.reshape(2, 16, 8)), axis=2)).data

        assert run().tobytes() == run().tobytes()


class TestAccumulate:
    def test_tensor_consumed_twice(self, rng):
        x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        T.tsum(x * x).backward()
        np.testing.assert_allclose(x.grad, 2 * x.data, rtol=0, atol=1e-15)
        y = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        T.tsum(T.add(y, y) * Tensor(x.data)).backward()
        np.testing.assert_allclose(y.grad, 2 * x.data, rtol=0, atol=1e-15)

    def test_first_gradient_owns_c_ordered_memory(self, rng):
        x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        upstream = rng.standard_normal((4, 3))
        T.tsum(x.transpose(1, 0) * Tensor(upstream)).backward()
        assert x.grad.flags.c_contiguous and x.grad.flags.owndata
        np.testing.assert_array_equal(x.grad, upstream.T)
        g = rng.standard_normal((4, 3)).T
        z = Tensor(np.zeros((3, 4)), requires_grad=True)
        z._accumulate(g)
        g[0, 0] = 7.0  # the caller's array stays the caller's
        assert z.grad.flags.c_contiguous and z.grad[0, 0] != 7.0

    def test_owned_first_gradient_is_kept_without_a_copy(self, rng):
        x = Tensor(np.zeros((3, 4)), requires_grad=True)
        g = rng.standard_normal((3, 4))
        x._accumulate(g, owned=True)
        assert x.grad is g
        x._accumulate(np.ones((3, 4)), owned=True)  # later ones add in place
        assert x.grad is g
        # a first gradient that does not fit is still copied
        for unfit in (rng.standard_normal((4, 3)).T, np.float32(2.0) * np.ones((3, 4), np.float32),
                      np.ones(4)):
            y = Tensor(np.zeros((3, 4)), requires_grad=True)
            y._accumulate(unfit, owned=True)
            assert not np.shares_memory(y.grad, unfit)
            assert y.grad.flags.c_contiguous and y.grad.dtype == np.float64

    def test_add_copies_the_gradient_it_hands_to_both_parents(self, rng):
        a = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
        b = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
        out = T.add(a, b)
        g = rng.standard_normal((2, 3))
        out._backward(g)
        assert not np.shares_memory(a.grad, g) and not np.shares_memory(b.grad, g)
        assert not np.shares_memory(a.grad, b.grad)
        a.grad += 1.0  # one parent's gradient moving leaves the other's alone
        np.testing.assert_array_equal(b.grad, g)

    @pytest.mark.parametrize("op", ["conv3x3", "batchnorm", "batchnorm-eval", "relu",
                                    "bilinear", "cross_entropy"])
    def test_fresh_gradients_are_kept_without_a_copy(self, rng, handed_gradients, op):
        from segrefine.layers import BatchNorm2d, Conv2d, bilinear_upsample
        from segrefine.losses import cross_entropy

        x = Tensor(rng.standard_normal((2, 4, 6, 5)).astype(np.float32), requires_grad=True)
        if op == "cross_entropy":
            loss, _ = cross_entropy(x, rng.integers(0, 4, (2, 6, 5)))
        else:
            build = {
                "conv3x3": lambda: Conv2d(4, 3, 3, pad=1, rng=rng),  # streamed input gradient
                "batchnorm": lambda: BatchNorm2d(4),
                "batchnorm-eval": lambda: BatchNorm2d(4).eval(),
                "relu": lambda: T.relu,
                "bilinear": lambda: lambda t: bilinear_upsample(t, 9, 7),
            }[op]()
            out = build(x)
            loss = T.tsum(out * Tensor(rng.standard_normal(out.shape).astype(np.float32)))
        loss.backward()
        assert np.shares_memory(x.grad, handed_gradients[id(x)])

    def test_first_gradient_takes_the_tensor_dtype(self):
        x = Tensor(np.zeros((2, 3), dtype=np.float32), requires_grad=True)
        x._accumulate(np.full((2, 3), 0.1))  # float64
        assert x.grad.dtype == np.float32
        np.testing.assert_array_equal(x.grad, np.float32(0.1))
        y = Tensor(np.zeros((2, 3), dtype=np.float32), requires_grad=True)
        y._accumulate(np.float64(2.5))  # a broadcast scalar
        assert y.grad.dtype == np.float32 and y.grad.shape == (2, 3)
        np.testing.assert_array_equal(y.grad, 2.5)
        y._accumulate(np.ones((2, 3)))
        np.testing.assert_array_equal(y.grad, 3.5)


class TestElementwiseOps:
    def test_broadcast_subtract_means(self, rng):
        x = Tensor(rng.standard_normal((2, 4, 6)), requires_grad=True)
        centered = x - T.tmean(x, axis=2, keepdims=True)
        np.testing.assert_allclose(centered.data.mean(axis=2), 0.0, atol=1e-6)
        T.tsum(centered * centered).backward()
        assert x.grad.shape == x.shape

    def test_relu(self):
        out = T.relu(Tensor([-1.0, 0.0, 2.0]))
        np.testing.assert_allclose(out.data, [0.0, 0.0, 2.0])

    def test_no_grad_relu_peaks_at_its_output_size(self, rng):
        x = Tensor(rng.standard_normal((1, 16, 128, 128)).astype(np.float32))
        with T.no_grad():
            tracemalloc.start()
            try:
                out = T.relu(x)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        # a boolean mask would add a quarter of the float32 output
        assert peak < 1.05 * out.data.nbytes
        np.testing.assert_array_equal(out.data, np.where(x.data > 0, x.data, 0))

    def test_concat_and_split_gradient(self, rng):
        a = Tensor(rng.standard_normal((1, 2, 3, 3)), requires_grad=True)
        b = Tensor(rng.standard_normal((1, 5, 3, 3)), requires_grad=True)
        out = T.concat([a, b], axis=1)
        assert out.shape == (1, 7, 3, 3)
        T.tsum(out * T.mul(out, 1.0)).backward()
        np.testing.assert_allclose(a.grad, 2 * a.data, atol=1e-6)
        np.testing.assert_allclose(b.grad, 2 * b.data, atol=1e-6)

    def test_transpose_reshape_roundtrip(self, rng):
        x = Tensor(rng.standard_normal((2, 3, 4)))
        back = x.transpose(2, 0, 1).transpose(1, 2, 0)
        np.testing.assert_array_equal(back.data, x.data)


class TestFrmtFormat:
    def test_roundtrip(self, rng):
        arr = rng.standard_normal((2, 3, 4, 5)).astype(np.float32)
        buf = io.BytesIO()
        T.save_array(buf, arr)
        buf.seek(0)
        np.testing.assert_array_equal(T.load_array(buf), arr)

    def test_header_layout(self):
        buf = io.BytesIO()
        T.save_array(buf, np.zeros((2, 3), dtype=np.float32))
        raw = buf.getvalue()
        assert raw[:4] == b"FRMT"
        assert raw[4:8] == (1).to_bytes(4, "little")  # version
        assert raw[8:12] == (2).to_bytes(4, "little")  # rank
        assert len(raw) == 12 + 8 + 4 * 6

    def test_bad_magic_rejected(self):
        with pytest.raises(FormatError, match="magic"):
            T.load_array(io.BytesIO(b"NOPE" + b"\x00" * 32))

    @settings(deadline=None, max_examples=25)
    @given(st.lists(st.integers(1, 4), min_size=1, max_size=4), st.integers(0, 2**31))
    def test_roundtrip_any_rank(self, shape, seed):
        arr = np.random.default_rng(seed).standard_normal(shape).astype(np.float32)
        buf = io.BytesIO()
        T.save_array(buf, arr)
        buf.seek(0)
        np.testing.assert_array_equal(T.load_array(buf), arr)
