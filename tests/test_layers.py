import math
import tracemalloc
import weakref

import numpy as np
import pytest

from segrefine import gradcheck
from segrefine import tensor as T
from segrefine.gradcheck import TOLERANCE, finite_difference
from segrefine import layers
from segrefine.layers import (
    BatchNorm2d,
    Conv2d,
    ConvBnRelu,
    adaptive_avg_pool,
    band_plan,
    bilinear_upsample,
    resample_matrix,
)
from segrefine.tensor import ContractError, ShapeError, Tensor, no_grad

from conftest import record_calls, set_identity_1x1


def _weighted_sum_fd(op, x, out_h, out_w, rng):
    """Worst finite-difference error of `op` under a fixed random weighting."""
    weights = Tensor(rng.standard_normal((*x.shape[:2], out_h, out_w)))
    return finite_difference(lambda: T.tsum(op(x, out_h, out_w) * weights), [x])


class TestConv:
    def test_identity_1x1(self, rng):
        conv = Conv2d(3, 3, 1, rng=rng)
        set_identity_1x1(conv)
        x = Tensor(rng.standard_normal((2, 3, 5, 5)).astype(np.float32))
        np.testing.assert_allclose(conv(x).data, x.data, atol=1e-7)

    def test_hand_arithmetic_1x1(self, rng):
        conv = Conv2d(2, 2, 1, rng=rng)
        conv.weight.data = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=np.float32).reshape(2, 2, 1, 1)
        conv.bias.data[:] = 0
        x = Tensor(np.array([3.0, 4.0], dtype=np.float32).reshape(1, 2, 1, 1))
        np.testing.assert_allclose(conv(x).data.ravel(), [7.0, -1.0])

    def test_depthwise_matches_sliding_window_oracle(self, rng):
        conv = Conv2d(4, 4, 3, pad=1, groups=4, rng=rng)
        x = rng.standard_normal((1, 4, 6, 6)).astype(np.float32)
        got = conv(Tensor(x)).data
        padded = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1))).astype(np.float64)
        want = np.zeros_like(got, dtype=np.float64)
        for c in range(4):
            for i in range(6):
                for j in range(6):
                    window = padded[0, c, i : i + 3, j : j + 3]
                    want[0, c, i, j] = (window * conv.weight.data[c, 0].astype(np.float64)).sum()
        want += conv.bias.data[None, :, None, None]
        np.testing.assert_allclose(got, want, atol=1e-6)

    def test_strided_output_size(self, rng):
        conv = Conv2d(2, 3, 3, stride=2, pad=1, rng=rng)
        out = conv(Tensor(rng.standard_normal((1, 2, 7, 9)).astype(np.float32)))
        assert out.shape == (1, 3, 4, 5)  # floor((in + 2p - k)/s) + 1

    def test_1x1_equals_per_pixel_matmul(self, rng):
        conv = Conv2d(5, 3, 1, bias=False, rng=rng)
        x = rng.standard_normal((2, 5, 4, 4)).astype(np.float32)
        got = conv(Tensor(x)).data
        w = conv.weight.data.reshape(3, 5)
        want = np.einsum("oc,nchw->nohw", w, x)
        np.testing.assert_allclose(got, want, atol=1e-6)

    def test_channel_mismatch_rejected(self, rng):
        conv = Conv2d(3, 4, 1, rng=rng)
        with pytest.raises(ShapeError, match="channels"):
            conv(Tensor(np.zeros((1, 2, 4, 4), dtype=np.float32)))

    def test_bad_groups_rejected(self):
        with pytest.raises(ContractError):
            Conv2d(4, 6, 3, groups=4)


# column budget of the streamed-conv sweep, in elements: a few hundred bytes
SWEEP_BUDGET = 80


def _multi_image(n, oh, images, rows):
    return images > 1 and n % images and rows == oh


def _row_bands(n, oh, images, rows):
    return images == 1 and 1 < rows < oh and oh % rows


def _one_row(n, oh, images, rows):
    return rows == 1


class TestStreamedConv:
    """No-grad convolutions stream their columns; recorded ones build them whole. A
    depthwise conv keeps no columns, so it streams when recorded too."""

    @pytest.mark.parametrize("kwargs, shape, plan", [
        (dict(in_c=1, out_c=3, kernel=3), (7, 1, 4, 4), _multi_image),
        (dict(in_c=1, out_c=3, kernel=3, pad=1), (2, 1, 7, 4), _row_bands),
        (dict(in_c=3, out_c=4, kernel=3, stride=2, pad=1), (2, 3, 9, 7), _one_row),
        (dict(in_c=1, out_c=4, kernel=3, stride=2), (9, 1, 5, 5), _multi_image),
        (dict(in_c=4, out_c=4, kernel=3, pad=1, groups=4), (3, 4, 5, 6), _one_row),
        (dict(in_c=4, out_c=6, kernel=3, pad=1, groups=2), (1, 4, 9, 1), _row_bands),
        (dict(in_c=2, out_c=3, kernel=3), (4, 2, 3, 6), _one_row),  # 1-row outputs
        (dict(in_c=2, out_c=3, kernel=3), (3, 2, 3, 9), _one_row),
    ], ids=["multi-image", "row-bands", "stride2", "stride2-multi-image", "depthwise",
            "groups2-row-bands", "one-row-image", "one-row-band"])
    @pytest.mark.parametrize("dtype, rtol", [(np.float32, 1e-6), (np.float64, 1e-12)],
                             ids=["float32", "float64"])
    def test_matches_recorded_path(self, rng, monkeypatch, kwargs, shape, plan, dtype, rtol):
        budget = SWEEP_BUDGET * np.dtype(dtype).itemsize
        monkeypatch.setattr(layers, "_COL_BUDGET", budget)
        plans = []
        chunk_shape = layers._chunk_shape

        def spy(windows_shape, itemsize, limit):
            plans.append((limit, chunk_shape(windows_shape, itemsize, limit)))
            return plans[-1][1]

        monkeypatch.setattr(layers, "_chunk_shape", spy)
        conv = Conv2d(rng=rng, **kwargs).cast(dtype)
        conv.bias.data = rng.standard_normal(conv.out_c).astype(dtype)
        x = Tensor(rng.standard_normal(shape).astype(dtype))
        with no_grad():
            streamed = conv(x)
        recorded = conv(x)
        assert recorded.requires_grad and not streamed.requires_grad
        assert streamed.dtype == recorded.dtype == dtype
        (limit, (images, rows)), (whole, _) = plans
        assert limit == budget and whole == (budget if conv.groups == conv.in_c > 1 else None)
        assert plan(shape[0], streamed.shape[2], images, rows)
        np.testing.assert_allclose(streamed.data, recorded.data, rtol=rtol, atol=0)

    def test_1x1_reads_a_channels_last_input_in_place(self, rng, monkeypatch):
        read = []
        nhwc = layers._nhwc
        monkeypatch.setattr(layers, "_nhwc", lambda a: read.append(nhwc(a)) or read[-1])
        x = rng.standard_normal((2, 4, 3, 5)).astype(np.float32)  # n, h, w, c
        conv = Conv2d(5, 6, 1, bias=False, rng=rng)
        with no_grad():
            out = conv(Tensor(x.transpose(0, 3, 1, 2)))
        assert len(read) == 1 and np.shares_memory(read[0], x)
        want = np.einsum("oc,nhwc->nohw", conv.weight.data[:, :, 0, 0], x)
        np.testing.assert_allclose(out.data, want, rtol=1e-5, atol=1e-6)

    def test_1x1_input_gradient_closed_form(self, rng):
        conv = Conv2d(5, 3, 1, bias=False, rng=rng).cast(np.float64)
        x = Tensor(rng.standard_normal((2, 5, 4, 3)), requires_grad=True)
        g = rng.standard_normal((2, 3, 4, 3))
        T.tsum(conv(x) * Tensor(g)).backward()
        want = np.einsum("oc,nohw->nchw", conv.weight.data[:, :, 0, 0], g)
        np.testing.assert_allclose(x.grad, want, rtol=0, atol=1e-12)

    def test_streamed_forward_peaks_below_column_matrix(self, rng):
        conv = Conv2d(64, 64, 3, pad=1, rng=rng)
        x = Tensor(rng.standard_normal((1, 64, 64, 128)).astype(np.float32))
        columns_bytes = 64 * 9 * 64 * 128 * 4  # the 18.9 MB im2col matrix
        tracemalloc.start()
        try:
            with no_grad():
                conv(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < columns_bytes


# the oracle row of each Conv2d path, told apart by the function that computes
# its forward, by whether the forward records a graph and by whether it runs a
# batch norm + ReLU epilogue
_PATH_ROWS = {
    ("_winograd", False, False): "winograd conv",
    ("_winograd", False, True): "winograd conv + bn relu epilogue",
    ("_pointwise", False, False): "1x1 conv",
    ("_pointwise", True, False): "recorded 1x1 conv gradients",
    ("_depthwise", False, False): "depthwise conv",
    ("_depthwise", True, False): "recorded depthwise conv gradients",
    ("_conv_columns", False, False): "im2col conv",
    ("_conv_columns", False, True): "im2col conv + bn relu epilogue",
    ("_conv_columns", True, False): "recorded conv gradients",
    ("_winograd", True, False): "recorded winograd conv gradients",
}
ORACLE_ROWS = {row.label: row for row in gradcheck.ORACLE_ROWS}
# the oracle row of a training ConvBnRelu: a recorded conv, then its batch norm and ReLU
# as one recorded op
BLOCK_ROW = "recorded conv + bn relu"
# the oracle row of an eval ConvBnRelu run by `ConvBnRelu.bands`, as the decoder's levels run
BANDED_ROW = "winograd conv + bn relu epilogue, row source"
# the oracle row of a conv run as a row source by `Conv2d.rows`, as the backbone's stem
# blocks run chained (`ConvBnRelu.rows`)
CHAINED_ROW = "im2col and depthwise conv + bn relu epilogue, chained row source"
# the recorded rows that share the 4-channel sweep of kernels, strides, pads and groups
RECORDED_SWEEP_ROWS = ("recorded 1x1 conv gradients", "recorded depthwise conv gradients",
                       "recorded conv gradients")


def _spy_conv_paths(monkeypatch):
    """The oracle row label of every `Conv2d.forward` call, None where none maps,
    `BLOCK_ROW` for every batch norm + ReLU op of a training `ConvBnRelu`,
    `BANDED_ROW` for every `ConvBnRelu.bands` call and `CHAINED_ROW` for every
    `Conv2d.rows` call.

    Spies on `records_graph` and on the functions that compute a forward, and
    counts only their outermost calls made inside `Conv2d.forward`. No backward
    runs any of them (see `test_one_scatter_takes_every_input_gradient`).
    The epilogue a `ConvBnRelu` passes goes through to the forward.
    """
    rows, inside, depth = [], [], [0]
    forward = Conv2d.forward

    def spy_forward(self, x, *args, **kwargs):
        inside.append([])
        try:
            return forward(self, x, *args, **kwargs)
        finally:
            calls = inside.pop()
            recorded = [value for name, value in calls if name == "records_graph"]
            paths = [name for name, _ in calls if name != "records_graph"]
            epilogue = kwargs.get("_epilogue", args[0] if args else None)
            fused = epilogue is not None and epilogue.relu
            one = len(recorded) == len(paths) == 1
            key = (paths[0], recorded[0], fused) if one else None
            rows.append(_PATH_ROWS.get(key))

    def spy(name, fn):
        def wrapper(*args, **kwargs):
            depth[0] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                depth[0] -= 1
            if inside and (name == "records_graph" or not depth[0]):
                inside[-1].append((name, result))
            return result

        monkeypatch.setattr(layers, name, wrapper)

    batch_norm = layers._batch_norm

    def spy_batch_norm(bn, x, relu=False):
        if relu and bn.training:
            rows.append(BLOCK_ROW)
        return batch_norm(bn, x, relu)

    bands, conv_rows = ConvBnRelu.bands, Conv2d.rows

    def spy_bands(self, *args):
        rows.append(BANDED_ROW)
        return bands(self, *args)

    def spy_rows(self, *args, **kwargs):
        rows.append(CHAINED_ROW)
        return conv_rows(self, *args, **kwargs)

    for name in {"records_graph"} | {key[0] for key in _PATH_ROWS}:
        spy(name, getattr(layers, name))
    monkeypatch.setattr(Conv2d, "forward", spy_forward)
    monkeypatch.setattr(layers, "_batch_norm", spy_batch_norm)
    monkeypatch.setattr(ConvBnRelu, "bands", spy_bands)
    monkeypatch.setattr(Conv2d, "rows", spy_rows)
    return rows


def _check_oracle_row(row, dtype, rng, monkeypatch):
    """`row` is within its bound in `dtype`, and every case of it took its path: for
    `BLOCK_ROW`, a recorded Winograd or im2col conv and then the batch norm + ReLU op; for
    `CHAINED_ROW`, the conv's rows alone, then chained into the stride-2 block's."""
    paths = _spy_conv_paths(monkeypatch)
    assert gradcheck.oracle_deviation(row, dtype, rng) <= row.bounds[dtype]
    cases = len(row.cases())
    if row.label == BLOCK_ROW:
        assert len(paths) == 2 * cases and paths[1::2] == [BLOCK_ROW] * cases
        assert set(paths[::2]) == {"recorded winograd conv gradients", "recorded conv gradients"}
    elif row.label == CHAINED_ROW:
        assert paths == [CHAINED_ROW] * 3 * cases
    else:
        assert paths == [row.label] * cases


class TestRecordedConv:
    """Recorded convolutions against a direct float64 reference, tap by tap."""

    # the recorded im2col, 1x1 and depthwise rows of the oracle table, one
    # conv at a time, so a failure names its (kernel, stride, pad, groups)
    @pytest.mark.parametrize("label, conv", [
        pytest.param(label, conv, id="-".join(map(str, conv[2:])))
        for label in RECORDED_SWEEP_ROWS for conv in ORACLE_ROWS[label].convs])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
    def test_matches_direct_reference(self, rng, monkeypatch, label, conv, dtype):
        row = ORACLE_ROWS[label]._replace(convs=(conv,))
        _check_oracle_row(row, dtype, rng, monkeypatch)

    def test_reference_matches_sliding_window_loop(self, rng):
        x = rng.standard_normal((2, 4, 5, 7))
        w = rng.standard_normal((6, 2, 3, 3))
        b = rng.standard_normal(6)
        g = rng.standard_normal((2, 6, 3, 4))
        out, gx, gw, gb = gradcheck.conv_reference(x, w, b, g, 2, 1, 2)
        xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
        want, want_gxp, want_gw = np.zeros_like(out), np.zeros_like(xp), np.zeros_like(w)
        for o in range(6):
            cs = slice(2 * (o // 3), 2 * (o // 3) + 2)
            for i in range(3):
                for j in range(4):
                    window = xp[:, cs, 2 * i : 2 * i + 3, 2 * j : 2 * j + 3]
                    want[:, o, i, j] = (window * w[o]).sum(axis=(1, 2, 3)) + b[o]
                    want_gxp[:, cs, 2 * i : 2 * i + 3, 2 * j : 2 * j + 3] += (
                        g[:, o, i, j, None, None, None] * w[o])
                    want_gw[o] += np.einsum("n,nckl->ckl", g[:, o, i, j], window)
        np.testing.assert_allclose(out, want, rtol=0, atol=1e-12)
        np.testing.assert_allclose(gx, want_gxp[:, :, 1:-1, 1:-1], rtol=0, atol=1e-12)
        np.testing.assert_allclose(gw, want_gw, rtol=0, atol=1e-12)
        np.testing.assert_allclose(gb, g.sum(axis=(0, 2, 3)), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("kernel, stride, pad, groups", [
        (3, 1, 1, 1), (3, 1, 0, 1), (1, 1, 1, 1), (1, 1, 0, 1), (3, 2, 1, 1), (1, 2, 0, 1),
        (3, 1, 1, 2), (3, 1, 1, 4), (3, 2, 1, 4),
    ])
    def test_one_scatter_takes_every_input_gradient(self, rng, monkeypatch, kernel, stride, pad,
                                                    groups):
        calls = []
        scatter_taps, conv_columns = layers._scatter_taps, layers._conv_columns
        monkeypatch.setattr(layers, "_scatter_taps",
                            lambda *a: calls.append(("scatter", a[1:5])) or scatter_taps(*a))
        monkeypatch.setattr(layers, "_conv_columns",
                            lambda *a: calls.append(("columns",)) or conv_columns(*a))
        conv = Conv2d(4, 4 if groups == 4 else 6, kernel, stride=stride, pad=pad, groups=groups,
                      rng=rng)
        x = Tensor(rng.standard_normal((2, 4, 6, 5)).astype(np.float32), requires_grad=True)
        pointwise = (kernel, stride, pad, groups) == (1, 1, 0, 1)
        loss = T.tsum(conv(x))
        # im2col runs its columns in the forward alone; 1x1 and depthwise convs run none
        assert calls == ([] if pointwise or groups == 4 else [("columns",)])
        calls.clear()
        loss.backward()
        # at every stride, the one scatter takes the taps' gradients; a 1x1 conv is a GEMM
        assert calls == ([] if pointwise else [("scatter", ((2, 4, 6, 5), kernel, stride, pad))])

    def test_folded_columns_hold_the_whole_batch(self, rng):
        x = layers._nhwc(rng.standard_normal((3, 4, 5, 6)).astype(np.float32))
        w_mat = rng.standard_normal((2, 3, 18)).astype(np.float32)
        epilogue = layers._Epilogue(None, None, False)

        def columns():
            return layers._conv_columns(layers._array_source(x), (3, 5, 6), 4, w_mat, 3, 1, 1,
                                        np.float32, epilogue, False)

        out = np.empty((3, 5, 6, 6), np.float32)
        cols = layers._fill(columns(), out, 3, 4, 4, whole=True)
        assert cols.shape == (2, 3 * 5 * 6, 18) and cols.flags.c_contiguous
        want = np.empty_like(out)  # asked for one output row at a time
        for i, _, r, _ in layers._chunks(3, 5, 1, 1):
            columns()(want[i : i + 1, r : r + 1], i, r, r + 1)
        np.testing.assert_allclose(out, want, rtol=1e-6, atol=1e-6)


# fewest input channels of a Winograd convolution
WINO_C = layers._WINOGRAD_MIN_CHANNELS


def _three_tile_rows(in_c, out_c, w, itemsize):
    """A budget that holds three rows of 4x4 Winograd tiles."""
    return 3 * 36 * max(in_c, out_c) * -(-w // 4) * itemsize


class TestWinogradConv:
    """No-grad 3x3 stride-1 convolutions with enough channels, on maps of more than
    one tile, run Winograd F(4x4, 3x3), as recorded ones do."""

    @pytest.mark.parametrize("n, in_c, out_c, hw, winograd", [
        (2, WINO_C, WINO_C, (1, 1), False),  # one tile of mostly padding
        (1, WINO_C, WINO_C + 8, (2, 33), False),
        (3, WINO_C + 1, 16, (5, 7), True),
        (2, WINO_C, WINO_C, (13, 17), True),
        (1, WINO_C, WINO_C, (16, 16), True),
        (2, WINO_C - 1, WINO_C, (13, 17), False),
    ], ids=["1x1", "2x33-wider", "5x7-narrower", "13x17", "16x16", "below-threshold"])
    @pytest.mark.parametrize("bands", ["one-band", "three-tile-rows"])
    @pytest.mark.parametrize("dtype, bound", [(np.float32, 1e-4), (np.float64, 1e-12)],
                             ids=["float32", "float64"])
    def test_matches_recorded_path(self, rng, monkeypatch, n, in_c, out_c, hw, winograd,
                                   bands, dtype, bound):
        if bands == "three-tile-rows":
            budget = _three_tile_rows(in_c, out_c, hw[1], np.dtype(dtype).itemsize)
            monkeypatch.setattr(layers, "_COL_BUDGET", budget)
            monkeypatch.setattr(layers, "_WINOGRAD_BUDGET", budget)
        plans = []
        chunk_shape = layers._chunk_shape

        def spy(*args):
            plans.append(args)
            return chunk_shape(*args)

        monkeypatch.setattr(layers, "_chunk_shape", spy)
        conv = Conv2d(in_c, out_c, 3, pad=1, rng=rng).cast(dtype)
        conv.bias.data = rng.standard_normal(out_c).astype(dtype)
        x = Tensor(rng.standard_normal((n, in_c, *hw)).astype(dtype))
        with no_grad():
            fast = conv(x)
        # im2col plans its chunks of 3x3 windows, Winograd its chunks of 6x6 tiles
        assert [args[0][3:5] for args in plans] == [(6, 6) if winograd else (3, 3)]
        recorded = conv(x)
        assert recorded.requires_grad and not fast.requires_grad
        assert fast.dtype == recorded.dtype == dtype
        assert fast.shape == recorded.shape and fast.data.transpose(0, 2, 3, 1).flags.c_contiguous
        ref = recorded.data
        assert np.abs(fast.data - ref).max() <= bound * np.abs(ref).max()
        # the recorded conv takes the same kernel, so also compare with the
        # direct float64 reference
        direct = gradcheck.conv_reference(x.data, conv.weight.data, conv.bias.data,
                                          np.zeros(ref.shape), 1, 1, 1)[0]
        assert np.abs(fast.data - direct).max() <= bound * np.abs(direct).max()

    def test_follows_in_place_weight_updates(self, rng):
        conv = Conv2d(WINO_C, WINO_C, 3, pad=1, rng=rng).cast(np.float64)
        x = Tensor(rng.standard_normal((1, WINO_C, 8, 8)))
        with no_grad():
            before = conv(x).data
            conv.weight.data *= -0.5  # in place, as an SGD step; the bias is zero
            after = conv(x).data
        ref = conv(x).data
        np.testing.assert_allclose(after, -0.5 * before, rtol=0, atol=1e-12 * np.abs(ref).max())
        assert np.abs(after - ref).max() <= 1e-12 * np.abs(ref).max()


def _eval_block(in_c, out_c, dtype, rng):
    """An eval `ConvBnRelu` with drawn batch norm parameters and running statistics."""
    block = ConvBnRelu(in_c, out_c, rng=rng).cast(dtype).eval()
    bn = block.bn
    bn.scale.data, bn.shift.data, bn.running_mean = (
        rng.standard_normal(out_c).astype(dtype) for _ in range(3))
    bn.running_var = rng.uniform(0.2, 3.0, out_c).astype(dtype)
    return block


def _channels_last(rng, shape, dtype, requires_grad=False):
    """A drawn (n, c, h, w) tensor laid out (n, h, w, c), as every activation in the model."""
    n, c, h, w = shape
    data = rng.standard_normal((n, h, w, c)).astype(dtype).transpose(0, 3, 1, 2)
    return Tensor(data, requires_grad=requires_grad)


class TestBandedConvBnRelu:
    """`ConvBnRelu.bands` runs an eval block with no graph on the Winograd kernel from a row
    source into a band sink, with the bits of `forward`."""

    @pytest.mark.parametrize("n, hw", [(3, (16, 16)), (2, (13, 17)), (1, (13, 1024))],
                             ids=["whole-tiles", "ragged", "13x1024"])
    @pytest.mark.parametrize("chunks", ["whole-images", "two-images", "one-tile-row",
                                        "three-tile-rows"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
    def test_asks_for_each_row_once_and_matches_forward(self, rng, monkeypatch, n, hw, chunks,
                                                        dtype):
        tile_row = _three_tile_rows(WINO_C, WINO_C, hw[1], np.dtype(dtype).itemsize) // 3
        budget = {"whole-images": 1 << 30, "two-images": 2 * tile_row * 4,
                  "one-tile-row": tile_row, "three-tile-rows": 3 * tile_row}[chunks]
        monkeypatch.setattr(layers, "_WINOGRAD_BUDGET", budget)  # 16x16 and 13x17 are 4 tile rows
        block = _eval_block(WINO_C, WINO_C, dtype, rng)
        x = _channels_last(rng, (n, WINO_C, *hw), dtype)
        xd, asked = x.data.transpose(0, 2, 3, 1), np.zeros((n, hw[0]), int)
        bands = []  # (first image, first output row) of each band the sink receives

        def source(dst, i, lo, hi):
            asked[i : i + len(dst), lo:hi] += 1
            np.copyto(dst, xd[i : i + len(dst), lo:hi])

        out = np.empty((n, *hw, WINO_C), dtype)
        sink = layers._array_sink(out)

        def spy_sink(y, i, r):
            bands.append((i, r))
            sink(y, i, r)

        with no_grad():
            want = block(x).data
            block.bands(source, spy_sink, (n, *hw), dtype)
        np.testing.assert_array_equal(asked, 1)  # the two rows bands share are carried
        assert bands == sorted(set(bands))
        np.testing.assert_array_equal(out.transpose(0, 3, 1, 2), want)  # bit for bit
        # `forward` runs the same kernel, so also compare with the direct float64 reference
        direct = gradcheck.bn_relu_reference(gradcheck.conv_reference(
            x.data, block.conv.weight.data, np.zeros(WINO_C), np.zeros(want.shape), 1, 1, 1)[0],
            block.bn)
        bound = 1e-4 if dtype == np.float32 else 1e-12
        assert np.abs(want - direct).max() <= bound * np.abs(direct).max()

    def test_folded_weights_die_once_transformed(self, rng, monkeypatch):
        block = _eval_block(WINO_C, WINO_C, np.float32, rng)
        x = _channels_last(rng, (1, WINO_C, 8, 8), np.float32)
        alive = []
        filter_transform = layers._filter_transform

        def spy(weight, kg):
            alive.append(weakref.ref(weight))
            return filter_transform(weight, kg)

        def source(dst, i, lo, hi):
            assert alive[0]() is None
            np.copyto(dst, x.data.transpose(0, 2, 3, 1)[i : i + len(dst), lo:hi])

        monkeypatch.setattr(layers, "_filter_transform", spy)
        out = np.empty((1, 8, 8, WINO_C), np.float32)
        with no_grad():
            block.bands(source, layers._array_sink(out), (1, 8, 8), np.float32)
        assert len(alive) == 1


def _growing_bands(oh):
    """(r, nb) of bands of 1, 2, 4, ... output rows: each band outgrows the buffer before it."""
    r, nb = 0, 1
    while r < oh:
        yield r, min(nb, oh - r)
        r, nb = r + nb, 2 * nb


class TestRowSources:
    """`Conv2d.rows` runs an im2col or depthwise conv with no graph as a row source: asked band
    after band, it asks its source for each input row its windows read, and for no row twice,
    and its rows match `forward`'s."""

    @pytest.mark.parametrize("kwargs", [
        dict(in_c=3, out_c=5, kernel=3, stride=2, pad=1),
        dict(in_c=4, out_c=6, kernel=3, pad=1, groups=2),
        dict(in_c=4, out_c=5, kernel=3),
        dict(in_c=4, out_c=5, kernel=1, stride=2),  # bands share no rows; odd rows go unread
        dict(in_c=4, out_c=4, kernel=3, stride=2, pad=1, groups=4),
    ], ids=["stride2", "grouped", "pad0", "1x1-stride2", "depthwise"])
    @pytest.mark.parametrize("bands", ["whole-images", "one-row", "three-rows", "growing"])
    @pytest.mark.parametrize("nchw", [True, False], ids=["nchw", "channels-last"])
    def test_asks_for_each_row_once_and_matches_forward(self, rng, kwargs, bands, nchw):
        conv = Conv2d(rng=rng, **kwargs).cast(np.float64)
        conv.bias.data = rng.standard_normal(conv.out_c)
        n, h, w, c = 2, 11, 9, conv.in_c
        x = rng.standard_normal((n, c, h, w) if nchw else (n, h, w, c))
        x = x if nchw else x.transpose(0, 3, 1, 2)
        xd, asked = x.transpose(0, 2, 3, 1), np.zeros((n, h), int)

        def source(dst, i, lo, hi):
            asked[i : i + len(dst), lo:hi] += 1
            np.copyto(dst, xd[i : i + len(dst), lo:hi])

        with no_grad():
            want = conv(Tensor(x)).data.transpose(0, 2, 3, 1)
            rows = conv.rows(source, (n, h, w), np.float64, nchw)
        got, oh = np.full_like(want, np.nan), want.shape[1]
        if bands == "whole-images":
            chunks = [(0, n, 0, oh)]
        elif bands == "growing":
            chunks = [(i, 1, r, nb) for i in range(n) for r, nb in _growing_bands(oh)]
        else:
            chunks = layers._chunks(n, oh, 1, {"one-row": 1, "three-rows": 3}[bands])
        for i, m, r, nb in chunks:
            rows(got[i : i + m, r : r + nb], i, r, r + nb)
        k, s, p = conv.kernel, conv.stride, conv.pad
        read = np.zeros(h, int)  # 1 where some window reads the input row
        for r in range(oh):
            read[max(r * s - p, 0) : r * s - p + k] = 1
        assert (asked <= 1).all() and (asked >= read).all()
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_writes_through_a_buffer_into_a_strided_band(self, rng):
        conv = Conv2d(4, 6, 3, stride=2, pad=1, rng=rng)
        x = rng.standard_normal((1, 9, 9, 4)).astype(np.float32)
        with no_grad():
            want = conv(Tensor(x.transpose(0, 3, 1, 2))).data.transpose(0, 2, 3, 1)
            rows = conv.rows(layers._array_source(x), (1, 9, 9), np.float32, False)
        band = np.zeros((1, 5, 7, 6), np.float32)  # a zero-bordered band of the next conv
        rows(band[:, :, 1:6], 0, 0, 5)
        np.testing.assert_allclose(band[:, :, 1:6], want, rtol=1e-6, atol=1e-6)
        assert not band[:, :, [0, 6]].any()


class TestInPlaceConvBnRelu:
    """A banded c -> c block can write its output over its input: each band's rows are read
    before its sink writes, and the two rows consecutive bands share are carried in the
    buffer, so an array source and an array sink on one map never read a written row."""

    @pytest.mark.parametrize("n, hw", [(3, (16, 16)), (2, (13, 17))], ids=["whole-tiles", "ragged"])
    @pytest.mark.parametrize("chunks", ["whole-images", "two-images", "one-tile-row",
                                        "three-tile-rows"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
    def test_matches_fresh_output(self, rng, monkeypatch, n, hw, chunks, dtype):
        tile_row = _three_tile_rows(WINO_C, WINO_C, hw[1], np.dtype(dtype).itemsize) // 3
        budget = {"whole-images": layers._WINOGRAD_BUDGET, "two-images": 2 * tile_row * 4,
                  "one-tile-row": tile_row, "three-tile-rows": 3 * tile_row}[chunks]
        monkeypatch.setattr(layers, "_WINOGRAD_BUDGET", budget)  # both maps are 4 tile rows
        block = _eval_block(WINO_C, WINO_C, dtype, rng)
        x = _channels_last(rng, (n, WINO_C, *hw), dtype)
        xd = x.data.transpose(0, 2, 3, 1)
        with no_grad():
            want = block(x).data
            block.bands(layers._array_source(xd), layers._array_sink(xd), (n, *hw), dtype)
        np.testing.assert_array_equal(x.data, want)  # bit for bit


def test_fresh_sums_runs_the_decoders_composition(rng, fresh_sums, monkeypatch):
    from segrefine.model import FpnDecoder
    from segrefine.refine import FeaturePyramid

    decoder = FpnDecoder((8, 16, 32, 64), WINO_C, 5, rng=rng).eval()
    stages = [_channels_last(rng, (1, c, 16 >> i, 32 >> i), np.float32)
              for i, c in enumerate((8, 16, 32, 64))]
    context = _channels_last(rng, (1, WINO_C, 2, 4), np.float32)
    calls = record_calls(monkeypatch, (decoder.smooth3, decoder.smooth2, decoder.smooth1),
                         ("forward", "bands"))
    with no_grad():
        decoder(FeaturePyramid(*stages), context, 64, 128, False)
        assert [method for method, _ in calls] == ["bands"] * 3
        calls.clear()
        fresh_sums(lambda: decoder(FeaturePyramid(*stages), context, 64, 128, False))
    assert [method for method, _ in calls] == ["forward"] * 3


def _spy_winograd(monkeypatch):
    """Record the input shape and `recorded` flag of every Winograd convolution."""
    calls = []
    winograd = layers._winograd

    def spy(x, w, dtype, epilogue, recorded):
        calls.append((x.shape, recorded))
        return winograd(x, w, dtype, epilogue, recorded)

    monkeypatch.setattr(layers, "_winograd", spy)
    return calls


class TestRecordedWinograd:
    """Recorded 3x3 stride-1 convolutions with enough channels, on a map at least
    4x4 and larger than one tile, run Winograd F(4x4, 3x3) in the forward and in
    both gradients."""

    def test_finite_difference(self, rng, monkeypatch):
        calls = _spy_winograd(monkeypatch)
        conv = Conv2d(WINO_C, WINO_C, 3, pad=1, rng=rng).cast(np.float64)
        conv.bias.data = rng.standard_normal(WINO_C)
        x = Tensor(rng.standard_normal((2, WINO_C, 5, 6)), requires_grad=True)
        weights = Tensor(rng.standard_normal((2, WINO_C, 5, 6)))
        err = finite_difference(lambda: T.tsum(conv(x) * weights),
                                [x, conv.weight, conv.bias], max_elements=150,
                                rng=np.random.default_rng(1))
        assert calls and err < TOLERANCE

    @pytest.mark.parametrize("in_c, kwargs, hw, takes", [
        (WINO_C, dict(pad=1), (4, 4), False),  # one whole tile takes im2col
        (WINO_C, dict(pad=1), (4, 8), True),
        (WINO_C, dict(pad=1), (5, 9), True),
        (WINO_C, dict(pad=1, bias=False), (16, 16), True),
        (WINO_C - 1, dict(pad=1), (8, 8), False),  # narrow
        (WINO_C, dict(pad=1), (3, 8), False),  # a map below 4x4 is mostly padding
        (WINO_C, dict(pad=1), (8, 2), False),
        (WINO_C, dict(pad=1, stride=2), (8, 8), False),
        (WINO_C, dict(pad=1, groups=2), (8, 8), False),
        (WINO_C, dict(pad=0), (8, 8), False),
    ], ids=["4x4", "two-tiles", "ragged", "no-bias", "narrow", "3-rows", "2-columns", "stride2",
            "grouped", "pad0"])
    def test_which_convs_take_the_path(self, rng, monkeypatch, in_c, kwargs, hw, takes):
        calls = _spy_winograd(monkeypatch)
        conv = Conv2d(in_c, WINO_C, 3, rng=rng, **kwargs)
        x = Tensor(rng.standard_normal((2, in_c, *hw)).astype(np.float32), requires_grad=True)
        T.tsum(conv(x)).backward()
        recorded = list(calls)
        calls.clear()
        with no_grad():
            conv(x)  # the no-grad call takes Winograd exactly when the recorded one does
        assert len(recorded) == takes and all(flag for _, flag in recorded)
        assert len(calls) == takes and not any(flag for _, flag in calls)

    def test_which_model_convs_take_the_path(self, rng, monkeypatch):
        from segrefine.config import ModelConfig
        from segrefine.model import SegModel

        calls = _spy_winograd(monkeypatch)
        model = SegModel(ModelConfig(num_classes=5), rng=rng)
        model(Tensor(rng.standard_normal((2, 3, 64, 64)).astype(np.float32)), train_mode=True)
        # stage2, then the decoder's smooth2 and smooth1; the stem and the
        # downsampling convs are strided, stage3's and smooth3's 4x4 maps are
        # one tile and stage4's map is 2x2
        assert calls == [(shape, True) for shape in ((2, 32, 8, 8), (2, 128, 8, 8),
                                                     (2, 128, 16, 16))]

    @pytest.mark.parametrize("chunks", ["one-tile-row", "two-images"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
    def test_chunked_tiles_match_direct_reference(self, rng, monkeypatch, chunks, dtype):
        """The forward writes the kept tiles chunk by chunk: bands of one tile row
        of one image, or groups of two images with a ragged last one (batch 3)."""
        row = ORACLE_ROWS["recorded winograd conv gradients"]
        itemsize = np.dtype(dtype).itemsize
        if chunks == "one-tile-row":
            budget = 1  # below one tile row, a chunk is one tile row
        else:
            h, w = 13, 17
            row = row._replace(extents=((h, w),), batches=(3,), convs=row.convs[2:])
            (in_c, out_c, *_), = row.convs
            budget = 2 * 36 * max(in_c, out_c) * -(-h // 4) * -(-w // 4) * itemsize
        monkeypatch.setattr(layers, "_WINOGRAD_BUDGET", budget)
        gathered = []  # (images, tile rows) of each chunk's 6x6 windows
        windows = layers._windows

        def spy(x, k, stride):
            view = windows(x, k, stride)
            if k == 6:
                gathered.append(view.shape[:2])
            return view

        monkeypatch.setattr(layers, "_windows", spy)
        _check_oracle_row(row, dtype, rng, monkeypatch)
        cases = row.cases()
        if chunks == "one-tile-row":
            assert set(gathered) == {(1, 1)}
            assert len(gathered) == sum(n * -(-h // 4) for _, n, h, _, _ in cases) > len(cases)
        else:
            assert gathered == [(2, 4), (1, 4)] * len(cases)

    def test_keeps_a_quarter_of_the_columns(self, rng):
        n, c, h, w = 2, WINO_C, 16, 16
        conv = Conv2d(c, c, 3, pad=1, bias=False, rng=rng)
        x = Tensor(rng.standard_normal((n, c, h, w)).astype(np.float32), requires_grad=True)
        conv(x)  # sizes the process's scratch buffers, which no graph keeps
        tracemalloc.start()
        try:
            out = conv(x)
            kept, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        columns = 9 * c * n * h * w * 4  # what im2col would keep, float32
        # V holds 36 values per 4x4 output tile and channel: a quarter of that
        assert kept - out.data.nbytes < 1.1 * columns / 4

    def test_gradients_are_kept_without_a_copy(self, rng, handed_gradients):
        conv = Conv2d(WINO_C, WINO_C, 3, pad=1, rng=rng)
        x = Tensor(rng.standard_normal((1, WINO_C, 8, 8)).astype(np.float32), requires_grad=True)
        T.tsum(conv(x)).backward()
        assert np.shares_memory(x.grad, handed_gradients[id(x)])
        assert np.shares_memory(conv.weight.grad, handed_gradients[id(conv.weight)])


# recorded Winograd convs in the order they run, (in_c, out_c, input shape) each; "forwards
# first" runs every forward before the backwards, else each conv runs forward and backward
# before the next one starts
SCRATCH_RUNS = {
    "two-of-one-shape": ([(WINO_C, WINO_C, (2, WINO_C, 8, 8))] * 2, True),
    "ragged-after-unragged": ([(WINO_C, WINO_C, (2, WINO_C, 16, 32)),
                               (WINO_C, WINO_C, (2, WINO_C, 13, 17))], False),
    "narrower-after-wider": ([(WINO_C, WINO_C, (1, WINO_C, 8, 24)),
                              (WINO_C, WINO_C, (1, WINO_C, 8, 8))], False),
    "small-then-growing": ([(WINO_C, WINO_C, (1, WINO_C, 8, 8)),
                            (WINO_C, 48, (2, WINO_C, 16, 16))], True),
}


def _seeded_winograd(in_c, out_c, shape, dtype, seed):
    """A recorded Winograd conv with a bias, its input and a weighting of its output."""
    draws = np.random.default_rng(seed)
    conv = Conv2d(in_c, out_c, 3, pad=1, rng=draws).cast(dtype)
    conv.bias.data = draws.standard_normal(out_c).astype(dtype)
    x = Tensor(draws.standard_normal(shape).astype(dtype), requires_grad=True)
    weights = Tensor(draws.standard_normal((shape[0], out_c, *shape[2:])).astype(dtype))
    return conv, x, weights


def _results(conv, x, out):
    return out.data, x.grad, conv.weight.grad, conv.bias.grad


class TestWinogradScratch:
    """Recorded Winograd convs carve their temporaries from `layers._scratch`: no call sees
    another's values, and nothing that outlives a call lives in a scratch buffer."""

    @pytest.mark.parametrize("run", SCRATCH_RUNS)
    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
    def test_matches_fresh_buffers(self, monkeypatch, run, dtype):
        specs, forwards_first = SCRATCH_RUNS[run]
        monkeypatch.setattr(layers, "_SCRATCH", {})
        cases = [_seeded_winograd(*spec, dtype, seed) for seed, spec in enumerate(specs)]
        calls = _spy_winograd(monkeypatch)
        outs, grown = [], []

        def forward(conv, x):
            if run == "narrower-after-wider" and outs:  # stale values in the border columns
                _, _, h, w = x.shape
                c, rows, cols = x.shape[1], 4 * -(-h // 4) + 2, 4 * -(-w // 4) + 2
                padded = layers._SCRATCH["padded", np.dtype(dtype)][: rows * cols * c]
                assert padded.reshape(rows, cols, c)[:, [0, w + 1]].any()
            outs.append(conv(x))
            grown.append(len(layers._SCRATCH["ping", np.dtype(dtype)]))

        def backward(i):
            T.tsum(outs[i] * cases[i][2]).backward()
            if run == "ragged-after-unragged" and i == 0:  # the buffers hold non-zero values
                assert all(buf.any() for buf in layers._SCRATCH.values())
            scratch = list(layers._SCRATCH.values())
            kept = [a for out in outs for a in _graph_arrays(out)]
            kept += [t.grad for conv, x, _ in cases[: i + 1] for t in (x, conv.weight, conv.bias)]
            assert not any(np.shares_memory(a, buf) for a in kept for buf in scratch)

        for i, (conv, x, _) in enumerate(cases):
            forward(conv, x)
            if not forwards_first:
                backward(i)
        if forwards_first:
            for i in range(len(cases)):
                backward(i)
        assert [flag for _, flag in calls] == [True] * len(cases)
        if run == "small-then-growing":
            assert grown[1] > grown[0]

        # each conv alone, on buffers that serve one call only and start as NaN, so that
        # a value read before the call writes it shows
        with monkeypatch.context() as fresh:
            fresh.setattr(layers, "_scratch",
                          lambda role, size, dtype: np.full(size, np.nan, dtype))
            for seed, (spec, (conv, x, _), out) in enumerate(zip(specs, cases, outs)):
                ref_conv, ref_x, weights = _seeded_winograd(*spec, dtype, seed)
                ref_out = ref_conv(ref_x)
                T.tsum(ref_out * weights).backward()
                for got, want in zip(_results(conv, x, out), _results(ref_conv, ref_x, ref_out)):
                    assert np.isfinite(want).all()
                    np.testing.assert_array_equal(got, want)


class TestOracleTable:
    """Every path `Conv2d.forward` can take has a row of `gradcheck.ORACLE_ROWS`."""

    # TestRecordedConv checks the recorded sweep rows case by case
    @pytest.mark.parametrize("row", [row for row in gradcheck.ORACLE_ROWS
                                     if row.label not in RECORDED_SWEEP_ROWS],
                             ids=lambda row: row.label.replace(" ", "-"))
    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
    def test_row_matches_direct_reference(self, rng, monkeypatch, row, dtype):
        _check_oracle_row(row, dtype, rng, monkeypatch)

    def test_every_model_conv_maps_to_one_row(self, rng, monkeypatch):
        from segrefine.config import LossConfig, ModelConfig
        from segrefine.losses import hybrid_loss
        from segrefine.model import SegModel

        paths = _spy_conv_paths(monkeypatch)
        model = SegModel(ModelConfig(num_classes=5), rng=rng)
        # a train-64 step: batch 8 of 64x64 crops, forward and backward
        out = model(Tensor(rng.standard_normal((8, 3, 64, 64)).astype(np.float32)),
                    train_mode=True)
        labels = rng.integers(0, 5, size=(8, 64, 64))
        hybrid_loss(out["logits"], out["embeddings"], labels, LossConfig(), rng)[0].backward()
        trained = list(paths)
        paths.clear()
        model.eval()
        with no_grad():
            model(Tensor(rng.standard_normal((1, 3, 512, 1024)).astype(np.float32)),
                  train_mode=False)
        assert None not in trained and None not in paths
        assert set(trained) == {"recorded conv gradients", "recorded winograd conv gradients",
                                "recorded 1x1 conv gradients", "recorded depthwise conv gradients",
                                BLOCK_ROW}
        # every ConvBnRelu runs its batch norm and ReLU as its conv's epilogue, the stem's
        # two blocks run chained as row sources and the decoder's smoothing blocks run
        # banded from the merge's rows
        assert set(paths) == {"winograd conv + bn relu epilogue", "1x1 conv", "depthwise conv",
                              "im2col conv + bn relu epilogue", BANDED_ROW, CHAINED_ROW}
        assert paths.count(CHAINED_ROW) == 2
        assert set(_PATH_ROWS.values()) | {BLOCK_ROW, BANDED_ROW, CHAINED_ROW} == set(ORACLE_ROWS)


class TestChannelsLast:
    """Every activation inside the model is laid out (n, h, w, c) behind its (n, c, h, w) shape."""

    def test_model_outputs_and_input_gradients_stay_channels_last(self, rng, monkeypatch):
        from segrefine.config import LossConfig, ModelConfig
        from segrefine.losses import hybrid_loss
        from segrefine.model import SegModel

        outputs, input_grads, inside = [], [], []
        conv_forward, bn_op, resample_op = Conv2d.forward, layers._batch_norm, layers._resample_op
        accumulate = Tensor._accumulate

        def conv_spy(self, x, *args, **kwargs):
            out = conv_forward(self, x, *args, **kwargs)
            outputs.append(("conv", out.data))
            if out._backward is not None:
                def backward(grad, backward=out._backward):
                    inside.append(x)
                    try:
                        backward(grad)
                    finally:
                        inside.pop()

                out._backward = backward
            return out

        def accumulate_spy(self, g, owned=False):
            if inside and self is inside[-1]:  # a conv handing its input's gradient
                input_grads.append(g)
            accumulate(self, g, owned)

        def bn_spy(bn, x, relu=False):  # a training ConvBnRelu's batch norm + ReLU op
            out = bn_op(bn, x, relu)
            outputs.append(("batch norm", out.data))
            return out

        def resample_spy(*args):
            out = resample_op(*args)
            outputs.append(("resample", out.data))
            return out

        monkeypatch.setattr(Conv2d, "forward", conv_spy)
        monkeypatch.setattr(layers, "_batch_norm", bn_spy)
        monkeypatch.setattr(layers, "_resample_op", resample_spy)
        monkeypatch.setattr(Tensor, "_accumulate", accumulate_spy)
        model = SegModel(ModelConfig(num_classes=5), rng=rng)
        # a train-64 step: batch 8 of 64x64 crops, forward and backward
        out = model(Tensor(rng.standard_normal((8, 3, 64, 64)).astype(np.float32)),
                    train_mode=True)
        labels = rng.integers(0, 5, size=(8, 64, 64))
        hybrid_loss(out["logits"], out["embeddings"], labels, LossConfig(), rng)[0].backward()
        model.eval()
        with no_grad():
            model(Tensor(rng.standard_normal((1, 3, 128, 256)).astype(np.float32)),
                  train_mode=False)
        kinds = {kind for kind, _ in outputs}
        assert kinds == {"conv", "batch norm", "resample"} and input_grads
        for kind, a in outputs:
            assert a.transpose(0, 2, 3, 1).flags.c_contiguous, (kind, a.shape, a.strides)
        for g in input_grads:
            assert g.transpose(0, 2, 3, 1).flags.c_contiguous, (g.shape, g.strides)


class TestAdaptiveAvgPool:
    def test_constant_input(self, rng):
        x = Tensor(np.full((1, 2, 7, 5), 3.25, dtype=np.float32))
        np.testing.assert_allclose(adaptive_avg_pool(x, 3, 2).data, 3.25, atol=1e-7)

    def test_hand_arithmetic(self):
        x = Tensor(np.arange(1, 17, dtype=np.float32).reshape(1, 1, 4, 4))
        out = adaptive_avg_pool(x, 2, 2)
        np.testing.assert_allclose(out.data[0, 0], [[3.5, 5.5], [11.5, 13.5]])

    @pytest.mark.parametrize("size, out", [
        ((24, 24), (3, 3)),  # integer ratio
        ((7, 7), (3, 3)),
        ((5, 7), (2, 3)),
        ((10, 7), (7, 5)),
        ((1, 5), (1, 2)),  # 1-pixel extent
        ((6, 1), (4, 1)),
        ((9, 10), (1, 1)),
        ((4, 6), (4, 6)),  # identity
        ((200, 260), (70, 80)),  # several band blocks per axis
    ], ids=lambda extents: "x".join(map(str, extents)))
    def test_against_brute_force_windows(self, rng, size, out):
        (h, w), (oh, ow) = size, out
        x = rng.standard_normal((2, 3, h, w))
        got = adaptive_avg_pool(Tensor(x), oh, ow).data
        want = np.zeros((2, 3, oh, ow))
        for i in range(oh):
            for j in range(ow):
                rows = slice(math.floor(i * h / oh), math.ceil((i + 1) * h / oh))
                cols = slice(math.floor(j * w / ow), math.ceil((j + 1) * w / ow))
                want[:, :, i, j] = x[:, :, rows, cols].mean(axis=(2, 3))
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_non_integer_ratio_gradient(self, rng):
        x = Tensor(rng.standard_normal((1, 2, 7, 5)), requires_grad=True)
        assert _weighted_sum_fd(adaptive_avg_pool, x, 3, 2, rng) < TOLERANCE

    def test_pool_to_1x1_is_global_mean(self, rng):
        x = rng.standard_normal((2, 4, 5, 7)).astype(np.float32)
        got = adaptive_avg_pool(Tensor(x), 1, 1).data
        np.testing.assert_allclose(got[:, :, 0, 0], x.mean(axis=(2, 3)), atol=1e-6)

    def test_zero_extent_rejected(self):
        with pytest.raises(ContractError):
            adaptive_avg_pool(Tensor(np.zeros((1, 1, 4, 4), dtype=np.float32)), 0, 2)

    def test_uneven_windows_tile_input(self):
        # 5 -> 2: windows [0,3) and [2,5) by floor/ceil mapping cover everything
        x = Tensor(np.arange(5, dtype=np.float32).reshape(1, 1, 1, 5))
        out = adaptive_avg_pool(x, 1, 2)
        np.testing.assert_allclose(out.data.ravel(), [1.0, 3.0])


class TestBilinearUpsample:
    def test_constant_input(self):
        x = Tensor(np.full((1, 2, 3, 3), 1.5, dtype=np.float32))
        np.testing.assert_allclose(bilinear_upsample(x, 7, 9).data, 1.5, atol=1e-6)

    def test_single_pixel(self):
        x = Tensor(np.array([[[[2.5]]]], dtype=np.float32))
        np.testing.assert_allclose(bilinear_upsample(x, 4, 4).data, 2.5)

    @pytest.mark.parametrize("size, out", [
        ((2, 2), (4, 4)),
        ((3, 5), (7, 8)),  # non-integer ratio
        ((7, 9), (3, 4)),  # downsampling
        ((6, 4), (4, 7)),
        ((1, 1), (3, 2)),  # 1-pixel extent
        ((4, 1), (6, 1)),
        ((1, 5), (1, 2)),
        ((5, 6), (5, 6)),  # identity
        # several band blocks per axis (see `BANDED_CASES`)
        ((16, 24), (64, 96)),
        ((32, 16), (128, 64)),  # 4x up
        ((300, 250), (130, 110)),  # non-integer down
    ], ids=lambda extents: "x".join(map(str, extents)))
    def test_2x2_to_4x4_closed_form(self, rng, size, out):
        (h, w), (oh, ow) = size, out
        x = rng.standard_normal((1, 2, h, w))
        got = bilinear_upsample(Tensor(x), oh, ow).data

        def taps(o, n_in, n_out):
            # align_corners=False: source coordinate (o + 0.5) * in/out - 0.5, clamped
            src = min(max((o + 0.5) * n_in / n_out - 0.5, 0.0), n_in - 1.0)
            i0 = math.floor(src)
            return i0, min(i0 + 1, n_in - 1), src - i0

        want = np.zeros((1, 2, oh, ow))
        for r in range(oh):
            r0, r1, fr = taps(r, h, oh)
            for c in range(ow):
                c0, c1, fc = taps(c, w, ow)
                top = x[0, :, r0, c0] * (1 - fc) + x[0, :, r0, c1] * fc
                bot = x[0, :, r1, c0] * (1 - fc) + x[0, :, r1, c1] * fc
                want[0, :, r, c] = top * (1 - fr) + bot * fr
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        if size == out:
            np.testing.assert_array_equal(got, x)

    def test_downsampling_gradient(self, rng):
        x = Tensor(rng.standard_normal((1, 2, 7, 6)), requires_grad=True)
        assert _weighted_sum_fd(bilinear_upsample, x, 3, 4, rng) < TOLERANCE

    def test_resample_matrices_are_cached_read_only(self):
        m = resample_matrix(5, 3, "bilinear", np.dtype(np.float32))
        assert m is resample_matrix(5, 3, "bilinear", np.dtype(np.float32))
        assert m.dtype == np.float32 and not m.flags.writeable
        np.testing.assert_allclose(m.sum(axis=1), 1.0, atol=1e-6)

    def test_banded_gradient(self, rng):
        # 40 -> 120 rows is banded in the forward, 100 -> 30 columns in the backward
        assert len(band_plan(40, 120, "bilinear", np.dtype(np.float64)).blocks) > 1
        assert len(band_plan(100, 30, "bilinear", np.dtype(np.float64), True).blocks) > 1
        x = Tensor(rng.standard_normal((1, 2, 40, 100)), requires_grad=True)
        weights = Tensor(rng.standard_normal((1, 2, 120, 30)))
        err = finite_difference(lambda: T.tsum(bilinear_upsample(x, 120, 30) * weights), [x],
                                max_elements=300, rng=np.random.default_rng(1))
        assert err < TOLERANCE


class TestUpsampleInto:
    """The decoder's merge source (`_merge_source`) adds `bilinear_upsample(top, h, w)` into
    the rows of its lateral's output, block by block; with an identity lateral, the rows it
    writes are `add(lat, bilinear_upsample(top, h, w))`'s, whichever rows it is asked for."""

    # the merge source resamples height first, as `resample` does from this many channels
    @pytest.mark.parametrize("c", [layers._RESAMPLE_FEW_CHANNELS], ids=["height-first"])
    @pytest.mark.parametrize("size, out", [((8, 16), (16, 32)), ((13, 9), (40, 29)),
                                           ((16, 24), (64, 96)), ((3, 3), (6, 6))],
                             ids=lambda extents: "x".join(map(str, extents)))
    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
    def test_matches_add_of_upsample(self, rng, c, size, out, dtype):
        top = _channels_last(rng, (2, c, *size), dtype)
        lat = _channels_last(rng, (2, c, *out), dtype)
        want = T.add(lat, bilinear_upsample(top, *out)).data.transpose(0, 2, 3, 1)
        lateral = Conv2d(c, c, 1).cast(dtype)
        set_identity_1x1(lateral)
        # whole images at once, then one image at a time in bands of three rows
        for images, rows in [(2, out[0]), (1, 3)]:
            source, got = layers._merge_source(lateral, lat, top), np.empty_like(want)
            for i in range(0, 2, images):
                for lo in range(0, out[0], rows):
                    hi = min(lo + rows, out[0])
                    source(got[i : i + images, lo:hi], i, lo, hi)
            np.testing.assert_array_equal(got, want)  # bit for bit


class TestBilinearArgmax:
    """`bilinear_argmax` is the class mask of `bilinear_upsample`'s output, built one height
    block of one image at a time through the block primitive `resample` runs."""

    # 5 classes resample width first, 19 height first (`_RESAMPLE_FEW_CHANNELS`)
    @pytest.mark.parametrize("c", [5, 19], ids=["width-first", "height-first"])
    @pytest.mark.parametrize("size, out", [((32, 32), (126, 128)), ((16, 24), (64, 96)),
                                           ((8, 8), (32, 32)), ((13, 9), (40, 29)),
                                           ((24, 20), (12, 10))],
                             ids=lambda extents: "x".join(map(str, extents)))
    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
    def test_matches_argmax_of_upsample_with_ties_and_nans(self, rng, c, size, out, dtype):
        for data in (_channels_last(rng, (3, c, *size), dtype).data,
                     rng.standard_normal((1, c, *size)).astype(dtype)):  # channels-last, NCHW
            data = np.round(data)  # small integers: many ties after the upsample too
            data[:, :, 0, 0] = np.nan  # NaN wins wherever its taps reach
            want = np.argmax(bilinear_upsample(Tensor(data), *out).data, axis=1)
            got = layers.bilinear_argmax(data, *out)
            assert got.dtype == want.dtype == np.intp
            np.testing.assert_array_equal(got, want)  # bit for bit

    @pytest.mark.parametrize("c, bound", [(5, 0.4), (19, 0.12)],
                             ids=["width-first", "height-first"])
    def test_holds_no_upsampled_map(self, rng, c, bound):
        data = _channels_last(rng, (1, c, 64, 128), np.float32).data
        layers.bilinear_argmax(data, 256, 512)  # builds the cached plans
        tracemalloc.start()
        try:
            mask = layers.bilinear_argmax(data, 256, 512)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        logits = c * 256 * 512 * 4
        # width first holds one image's width pass, a quarter of the map, and a 16-row band;
        # height first one band and its height product
        assert peak - mask.nbytes < bound * logits


# (in, out, kind) of resampling axes that the closed-form and brute-force
# tests above run in several band blocks
BANDED_CASES = [(24, 96, "bilinear"), (32, 128, "bilinear"), (300, 130, "bilinear"),
                (250, 110, "bilinear"), (200, 70, "pool"), (260, 80, "pool")]


class TestBandPlan:
    """Resampling runs one GEMM per block of output rows, over the input rows it touches."""

    @pytest.mark.parametrize("in_size, out_size, kind", BANDED_CASES,
                             ids=lambda v: str(v))
    @pytest.mark.parametrize("transposed", [False, True], ids=["forward", "backward"])
    def test_blocks_hold_the_whole_matrix(self, in_size, out_size, kind, transposed):
        dt = np.dtype(np.float64)
        m = resample_matrix(in_size, out_size, kind, dt)
        m = m.T if transposed else m
        plan = band_plan(in_size, out_size, kind, dt, transposed)
        assert plan.size == m.shape[0]
        covered = np.zeros(m.shape[0], int)
        rebuilt = np.zeros_like(m)
        for rows, cols, block in plan.blocks:
            covered[rows] += 1
            rebuilt[rows, cols] = block
        assert (covered == 1).all()  # the blocks tile the output rows once
        np.testing.assert_array_equal(rebuilt, m)  # and hold every nonzero
        if not transposed:
            assert len(plan.blocks) > 1

    @pytest.mark.parametrize("in_size, out_size", [
        (16, 32),  # a train-64 decoder upsample
        (8, 32),  # a 4x upsample of an 8-wide map
        (5, 3),
    ])
    def test_mostly_dense_matrices_run_one_block(self, in_size, out_size):
        plan = band_plan(in_size, out_size, "bilinear", np.dtype(np.float32))
        ((rows, cols, block),) = plan.blocks
        assert (rows, cols) == (slice(0, out_size), slice(0, in_size))
        np.testing.assert_array_equal(block, resample_matrix(in_size, out_size, "bilinear",
                                                             np.dtype(np.float32)))

    def test_plans_are_cached_read_only(self):
        dt = np.dtype(np.float32)
        plan = band_plan(24, 96, "bilinear", dt)
        assert plan is band_plan(24, 96, "bilinear", dt)
        assert band_plan(24, 96, "bilinear", dt, True) is band_plan(24, 96, "bilinear", dt, True)
        for _, _, block in plan.blocks:
            assert block.dtype == np.float32 and not block.flags.writeable


class TestBatchNorm:
    def test_training_normalizes_batch(self, rng):
        bn = BatchNorm2d(6)
        x = Tensor((rng.standard_normal((4, 6, 8, 8)) * 3 + 2).astype(np.float32))
        out = bn(x).data  # scale=1, shift=0 at init: output is the normalized map
        assert np.abs(out.mean(axis=(0, 2, 3))).max() < 1e-4
        assert np.abs(out.var(axis=(0, 2, 3)) - 1).max() < 1e-3

    def test_eval_uses_running_stats(self, rng):
        bn = BatchNorm2d(3)
        x = Tensor((rng.standard_normal((2, 3, 4, 4)) * 2 + 1).astype(np.float32))
        for _ in range(200):
            bn(x)
        bn.eval()
        out = bn(x).data
        assert np.abs(out.mean(axis=(0, 2, 3))).max() < 1e-2

    def test_eval_matches_closed_form(self, rng):
        bn = BatchNorm2d(4).cast(np.float64).eval()
        bn.scale.data = rng.uniform(0.5, 2.0, 4)
        bn.shift.data = rng.standard_normal(4)
        bn.running_mean = rng.standard_normal(4)
        bn.running_var = rng.uniform(0.2, 3.0, 4)
        x = rng.standard_normal((2, 4, 5, 6)) * 4 + 3
        c = (None, slice(None), None, None)
        want = (x - bn.running_mean[c]) / np.sqrt(bn.running_var[c] + bn.EPS)
        want = want * bn.scale.data[c] + bn.shift.data[c]
        np.testing.assert_allclose(bn(Tensor(x)).data, want, rtol=1e-6)

    def test_eval_gradient(self, rng):
        bn = BatchNorm2d(3).cast(np.float64).eval()
        bn.scale.data = rng.uniform(0.5, 2.0, 3)
        bn.shift.data = rng.standard_normal(3)
        bn.running_mean = rng.standard_normal(3)
        bn.running_var = rng.uniform(0.2, 3.0, 3)
        x = Tensor(rng.standard_normal((2, 3, 4, 5)) * 2 + 1, requires_grad=True)
        weights = Tensor(rng.standard_normal(x.shape))
        err = finite_difference(lambda: T.tsum(bn(x) * weights), [x, bn.scale, bn.shift])
        assert err < TOLERANCE


def _graph_arrays(out):
    """Every array the graph behind `out` holds: each node's data and the arrays its
    backward closure, and the closures that one calls, keep."""
    arrays, seen, todo = [], set(), [out]
    while todo:
        obj = todo.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, Tensor):
            arrays.append(obj.data)
            todo.extend((*obj._parents, obj._backward))
        elif isinstance(obj, np.ndarray):
            arrays.append(obj)
        elif callable(obj) and getattr(obj, "__closure__", None):
            todo.extend(cell.cell_contents for cell in obj.__closure__)
    return arrays


def _base(a):
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


# a training ConvBnRelu on each conv kernel it takes: (in_c, out_c, stride, input shape)
TRAINING_BLOCKS = {
    "winograd": (WINO_C, 48, 1, (2, WINO_C, 16, 16)),
    "im2col": (4, 6, 2, (2, 4, 10, 10)),
}


class TestRecordedConvBnRelu:
    """A recorded `ConvBnRelu` is a conv, then one recorded batch norm + ReLU op."""

    def test_eval_gradient(self, rng):
        block = ConvBnRelu(3, 4, rng=rng).cast(np.float64).eval()
        bn = block.bn
        bn.scale.data = rng.uniform(0.5, 2.0, 4)
        bn.shift.data = rng.standard_normal(4)
        bn.running_mean = rng.standard_normal(4)
        bn.running_var = rng.uniform(0.2, 3.0, 4)
        x = Tensor(rng.standard_normal((2, 3, 5, 6)), requires_grad=True)
        weights = Tensor(rng.standard_normal((2, 4, 5, 6)))
        err = finite_difference(lambda: T.tsum(block(x) * weights), [x] + block.parameters())
        assert err < TOLERANCE

    @pytest.mark.parametrize("kernel", TRAINING_BLOCKS)
    def test_graph_keeps_two_output_sized_arrays(self, rng, kernel):
        in_c, out_c, stride, shape = TRAINING_BLOCKS[kernel]
        block = ConvBnRelu(in_c, out_c, stride=stride, rng=rng)
        x = Tensor(rng.standard_normal(shape).astype(np.float32), requires_grad=True)
        out = block(x)
        bases = {id(b): b for b in map(_base, _graph_arrays(out))}.values()
        # x̂ in the conv output's memory, and the block's output
        assert sum(b.size == out.size for b in bases) == 2
        conv_node, = (p for p in out._parents if p.shape == out.shape)
        closure = out._backward.__closure__
        kept = dict(zip(out._backward.__code__.co_freevars, (c.cell_contents for c in closure)))
        assert np.shares_memory(kept["xhat"], conv_node.data)

    @pytest.mark.parametrize("kernel", TRAINING_BLOCKS)
    def test_two_graphs_of_one_block_match_fresh_blocks(self, kernel):
        in_c, out_c, stride, shape = TRAINING_BLOCKS[kernel]

        def build():
            return ConvBnRelu(in_c, out_c, stride=stride, rng=np.random.default_rng(3)).cast(
                np.float64)

        draws = np.random.default_rng(4)
        inputs = [draws.standard_normal(shape) for _ in range(2)]
        weights = [draws.standard_normal((shape[0], out_c, *(-(-e // stride) for e in shape[2:])))
                   for _ in range(2)]
        block = build()
        xs = [Tensor(a, requires_grad=True) for a in inputs]
        outs = [block(x) for x in xs]  # both graphs are alive before either backward
        for out, w in zip(outs, weights):
            T.tsum(out * Tensor(w)).backward()
        params = [np.zeros_like(p.data) for p in block.parameters()]
        for x, out, a, w in zip(xs, outs, inputs, weights):
            fresh = build()
            fresh_x = Tensor(a, requires_grad=True)
            fresh_out = fresh(fresh_x)
            T.tsum(fresh_out * Tensor(w)).backward()
            np.testing.assert_allclose(out.data, fresh_out.data, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(x.grad, fresh_x.grad, rtol=1e-12, atol=1e-12)
            for total, p in zip(params, fresh.parameters()):
                total += p.grad
        for total, p in zip(params, block.parameters()):
            np.testing.assert_allclose(p.grad, total, rtol=1e-12, atol=1e-12)


class TestModuleState:
    def test_parameters_then_buffers(self):
        block = ConvBnRelu(2, 3)
        assert list(block.named_state()) == [
            "conv.weight", "bn.scale", "bn.shift", "bn.running_mean", "bn.running_var",
        ]
        assert block.named_state()["bn.running_var"] == (block.bn, "running_var")
        assert block.param_count() == 3 * 2 * 9 + 3 + 3

    def test_own_buffers_are_named_without_a_prefix(self):
        bn = BatchNorm2d(2)
        assert list(bn.named_state()) == ["scale", "shift", "running_mean", "running_var"]

    def test_cast_reaches_every_parameter_and_buffer(self):
        block = ConvBnRelu(2, 3).cast(np.float64)
        assert {getattr(o, a).dtype for o, a in block.named_state().values()} == {np.dtype(np.float64)}
