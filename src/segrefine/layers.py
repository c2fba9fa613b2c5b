"""Neural building blocks: convolutions, batch norm, pooling, upsampling.

Memory format: every activation is stored channels-last, (n, h, w, c), behind
its logical (n, c, h, w) shape. Each op reads `_nhwc(x)`, free for a
channels-last array and one copy for an NCHW one (im2col reads an NCHW image
as it is), and returns the (n, c, h, w) view of an (n, h, w, c) array, so
numpy's elementwise ops, `concat` along channels and the attention's
(n, c, h*w) reshape keep the layout. Weights stay OIHW. `Conv2d.forward` picks
each conv's kernel, which returns its (n, oh, ow, oc) output and a backward for
the input and weight gradients; `Conv2d.forward` makes the one graph node and
adds the bias gradient. A 1x1 stride-1 conv is one GEMM over the (n*h*w, c)
matrix, forward and for both gradients; batch norm reduces over the (n*h*w, c)
matrix. Every other kernel reads k x k windows through one band loop:
`_chunks` walks the chunks `_chunk_shape` plans (whole images, or bands of
output rows of one image), and `_band_reader` writes each chunk's input rows,
asked of a row source `source(dst, i, lo, hi)`, into one zero-bordered band
buffer, carrying the rows that consecutive bands of one image share. So no
kernel copies a whole bordered input, and a source is asked for each row once.
A depthwise conv (`_depthwise_taps`) is one multiply-add per kernel tap over
the band. Other convs run im2col (`_conv_columns`) with (positions,
k*k*c/groups) columns per band, in chunks of `_COL_BUDGET` bytes when no graph
is recorded and in one chunk, kept for the weight gradient, when one is; an
NCHW image is banded in its own order. These two kernels are row sources
themselves: `_fill` asks one for each chunk of an output array, and with no
graph `Conv2d.rows` hands one to the caller, so one conv's rows can feed the
next conv's band (`ConvBnRelu.rows`: the backbone chains its stem so).
`_scatter_taps` adds up each tap's input gradient for
every im2col and depthwise conv. A 3x3 stride-1 pad-1 conv with at least
`_WINOGRAD_MIN_CHANNELS` input channels, on a map at least 4x4 and larger than
one 4x4 tile (`Conv2d.takes_winograd`), runs Winograd F(4x4, 3x3) in
`_winograd`, recorded or not: its forward `_winograd_conv` runs the band loop
too, gathering 6x6 `_windows` from bands of tile rows, and keeps the
transformed tiles for the backward when a graph is recorded. So the kernel
follows the conv's geometry and map alone. `_winograd_conv` hands each band of
output to a sink; `_winograd` passes an array's rows and scatters into a fresh
array, while an eval `ConvBnRelu`
with no graph can run from any source into any sink (`ConvBnRelu.bands`): the
FPN decoder feeds it the merge's rows (`_merge_source`) and, at stride 4, runs
the classifier on each band (`_pointwise_sink`). A
recorded Winograd conv takes every temporary from `_scratch`, one grow-only
buffer per role and dtype, kept until `trainer.train` returns (for the process
when recorded convs run outside it): its zero-bordered band buffer
(`padded`) and the two buffers its GEMMs alternate between (`ping`, `pong`),
forward and backward. What outlives a call (the output, the kept tiles, the
gradients) is never carved from it. Fresh, those temporaries were handed back
to the OS and mapped again on every call: a train-64-shaped step took a median
of about 2400 minor page faults, and about 1 with the scratch. The no-grad
forward still allocates per call: putting it on the scratch too raised peak RSS
by 7-8% on 512x1024 inference and batch-8 256x256 evaluation for about 3% less
latency (2 benchmark pairs each, 2-vCPU Xeon), as the heap's free holes already
take those buffers. A conv's bias, or a no-grad
`ConvBnRelu`'s eval batch norm and ReLU, is an `_Epilogue` applied in cache. A
recorded `ConvBnRelu` runs its batch norm and ReLU as one op,
`_batch_norm(..., relu=True)`, which in training writes x̂ into the conv
output, since no conv backward reads it; `BatchNorm2d` runs the same op without
the ReLU.
Pooling and bilinear resizing are Rh @ x @ Rw.T with cached, banded per-axis
matrices (`band_plan`); `resample` writes its output one height block at a time
through `_block_writer`, which `bilinear_argmax` shares to arg-max a bilinear
upsample by blocks, so a class mask needs no upsampled map. `Module.named_state`
names parameters and `_buffers`.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from .tensor import ContractError, ShapeError, Tensor, _make, records_graph, relu


class Parameter(Tensor):
    """Trainable tensor that a Module registers. Weight decay follows the
    shape: `SGD` decays parameters with more than one axis (conv weights)."""

    __slots__ = ()

    def __init__(self, data):
        super().__init__(data, requires_grad=True)


class Module:
    # attributes holding state that is not a parameter (running statistics, say)
    _buffers = ()

    def __init__(self):
        object.__setattr__(self, "_params", {})
        object.__setattr__(self, "_children", {})
        object.__setattr__(self, "training", True)

    def __setattr__(self, name, value):
        if isinstance(value, Parameter):
            self._params[name] = value
        elif isinstance(value, Module):
            self._children[name] = value
        object.__setattr__(self, name, value)

    def named_parameters(self, prefix=""):
        for name, p in self._params.items():
            yield (prefix + name if prefix else name), p
        for name, child in self._children.items():
            sub = prefix + name + "." if prefix else name + "."
            yield from child.named_parameters(sub)

    def parameters(self):
        return [p for _, p in self.named_parameters()]

    def named_children(self, prefix=""):
        for name, child in self._children.items():
            path = prefix + name if prefix else name
            yield path, child
            yield from child.named_children(path + ".")

    def train(self, mode=True):
        object.__setattr__(self, "training", mode)
        for child in self._children.values():
            child.train(mode)
        return self

    def eval(self):
        return self.train(False)

    def named_state(self):
        """Every array the module tree owns: name -> (owner, attribute). Parameters first, in
        `named_parameters` order, as (p, "data"); then each module's `_buffers` (this module,
        then `named_children` order) as "path.attribute". Checkpoints and `cast` read this map.
        """
        state = {name: (p, "data") for name, p in self.named_parameters()}
        for path, module in (("", self), *self.named_children()):
            for attr in module._buffers:
                state[f"{path}.{attr}" if path else attr] = (module, attr)
        return state

    def param_count(self):
        return sum(p.size for p in self.parameters())

    def cast(self, dtype):
        """Cast every parameter and buffer in place; gradcheck uses float64."""
        for owner, attr in self.named_state().values():
            setattr(owner, attr, getattr(owner, attr).astype(dtype))
        return self

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)


def init_kaiming(rng, out_c, in_c, kh, kw):
    """Fan-in normal initialization for conv weights."""
    fan_in = in_c * kh * kw
    std = math.sqrt(2.0 / fan_in)  # a Python float keeps a float32 draw float32
    return (rng.standard_normal((out_c, in_c, kh, kw)) * std).astype(np.float32, copy=False)


# Bytes of im2col columns per streamed chunk: a 512x1024 forward timed the same for 128 KiB
# to 2 MiB (2 MiB L2 per core); 1 MiB stays inside L2 with few chunks per call.
_COL_BUDGET = 1 << 20


def _nhwc(a, pad=0):
    """(n, c, h, w) `a` as a C-ordered (n, h, w, c) array, zero-bordered by `pad`: free when
    `a` is channels-last and unpadded."""
    n, c, h, w = a.shape
    view = a.transpose(0, 2, 3, 1)
    if not pad and view.flags.c_contiguous:
        return view
    out = np.zeros((n, h + 2 * pad, w + 2 * pad, c), a.dtype)
    out[:, pad : pad + h, pad : pad + w] = view
    return out


def _channel_sums(a):
    """Column sums of `a` (positions, channels) as a GEMV: 10-20x an axis-0 sum on short rows."""
    return np.ones(len(a), a.dtype) @ a


def _windows(x, k, stride):
    """Zero-copy n, oh, ow, k, k, c sliding-window view of `x` (n, h, w, c)."""
    windows = np.lib.stride_tricks.sliding_window_view(x, (k, k), axis=(1, 2))
    return windows[:, ::stride, ::stride].transpose(0, 1, 2, 4, 5, 3)


# (role, dtype) -> the grow-only 1-D buffer behind `_scratch`; `trainer.train` empties it
# when it returns or raises
_SCRATCH = {}


def _scratch(role, size, dtype):
    """The first `size` elements of the grow-only 1-D `dtype` buffer of `role`, kept across
    calls, so a recorded kernel's temporaries stop mapping fresh pages. What it returns dies
    before the next call for `role`: nothing that escapes a call is carved from it. No lock:
    the grad flag is process-wide too."""
    key = (role, np.dtype(dtype))
    buf = _SCRATCH.get(key)
    if buf is None or len(buf) < size:
        buf = _SCRATCH[key] = np.empty(size, dtype)
    return buf[:size]


class _Epilogue(NamedTuple):
    """out * scale + shift, then ReLU: a plain conv's bias, or a no-grad `ConvBnRelu`'s eval
    batch norm and ReLU. `Conv2d.forward` folds `scale` (per output channel, or None) into the
    weights; the kernels apply `shift` and the ReLU to each chunk of output in cache."""

    scale: np.ndarray | None
    shift: np.ndarray | None
    relu: bool

    def apply(self, a):
        """Shift and ReLU `a` (..., positions, channels), C-ordered, in place; the shift is tiled
        along a row of positions, as a broadcast over channels alone loops per position."""
        if self.shift is not None:
            a.reshape(-1, a.shape[-2] * a.shape[-1], copy=False)[...] += np.tile(self.shift, a.shape[-2])
        if self.relu:
            np.maximum(a, 0, out=a)


def _chunk_shape(windows_shape, itemsize, budget):
    """(images, rows) per chunk of `windows_shape` (n, rows, columns, kh, kw, c) that fits
    `budget` bytes: whole images when one image's fit, else a band of at least one row. It
    plans the chunks of im2col columns, of depthwise taps and of Winograd tiles (rows of
    4x4 output tiles with 6x6 windows). No budget means one chunk."""
    n, oh, ow, kh, kw, c = windows_shape
    if budget is None:
        return n, oh
    row_bytes = c * kh * kw * ow * itemsize
    if row_bytes * oh <= budget:
        return budget // (row_bytes * oh), oh
    return 1, max(1, budget // row_bytes)


def _fresh(role, size, dtype):
    """A `_scratch` stand-in that allocates per call, as the no-grad kernels do."""
    return np.empty(size, dtype)


def _grown(buffers, key, size, dtype):
    """The first `size` elements of the grow-only 1-D `dtype` buffer `buffers[key]`."""
    buf = buffers.get(key)
    if buf is None or len(buf) < size:
        buf = buffers[key] = np.empty(size, dtype)
    return buf[:size]


def _chunks(n, rows, images, band):
    """(i, m, r, nb) of each chunk of the band loop over n images of `rows` output rows, for a
    `_chunk_shape` plan of (images, band): images [i, i + m) and output rows [r, r + nb), whole
    images or a band of one image."""
    for i in range(0, n, images):
        for r in range(0, rows, band):
            yield i, min(images, n - i), r, min(band, rows - r)


def _band_reader(source, shape, c, kernel, stride, pad, dtype, channels_first=False, width=None,
                 take=_fresh, largest=None):
    """The input side of the band loop every kernel that reads rows runs: `read(i, m, r, rows)`
    returns the zero-bordered input band of output rows [r, r + rows) of images [i, i + m) of a
    `kernel` x `kernel` conv at `stride` and `pad` on an (n, h, w, c) input, `shape` = (n, h, w),
    whose rows `source` writes (see `_winograd_conv`).

    The band is an (m, (rows - 1) * stride + kernel, width, c) view of one buffer, taken from
    `take` for the first band and again only when a band outgrows it; `width` is w + 2 * pad
    unless given. A caller that knows its `largest` band, (images, output rows), has the buffer
    taken at once, before its other temporaries: taken at the first band instead, after
    Winograd's `ping` and `pong`, the heap placed them so that 512x1024 inference in the
    benchmark's process peaked at 113.5 MB of RSS, against 106.9 MB. Its columns outside
    [pad, pad + w) are zeroed when it is taken, its rows outside the input on every call. When
    a band of one image starts inside the band read before it, the rows both hold are carried
    to its top, so a source read band after band is asked for each row once. `channels_first` lays the buffer out (m, c, rows, width), as an
    NCHW image is (see `_conv_columns`)."""
    n, h, w = shape
    width = width or w + 2 * pad
    held = {"buf": None, "band": None}  # the buffer, and (image, first, end padded row) in it

    def allocate(m, count):
        flat = take("padded", m * count * width * c, dtype)
        buf = (flat.reshape(m, c, count, width).transpose(0, 2, 3, 1) if channels_first
               else flat.reshape(m, count, width, c))
        buf[:, :, :pad] = 0
        buf[:, :, pad + w :] = 0
        held["buf"] = buf
        return buf

    if largest is not None:
        allocate(largest[0], (largest[1] - 1) * stride + kernel)

    def read(i, m, r, rows):
        first, count = r * stride, (rows - 1) * stride + kernel  # padded row j is input row j - pad
        buf, last = held["buf"], held["band"]
        carry = 0
        if m == 1 and last is not None and last[0] == i and last[1] <= first < last[2]:
            carry = last[2] - first
            kept = buf[:1, first - last[1] : last[2] - last[1]]
        if buf is None or len(buf) < m or buf.shape[1] < count:
            if carry:  # the new buffer may be the old one's memory (`_scratch`)
                kept = kept.copy()
            buf = allocate(max(m, 0 if buf is None else len(buf)), count)
        band = buf[:m, :count]
        if carry:
            band[:, :carry] = kept
        top = min(max(carry, pad - first), count)  # band rows [top, bottom) are input rows
        bottom = max(min(count, h + pad - first), top)
        band[:, carry:top] = 0
        if top < bottom:
            source(band[:, top:bottom, pad : pad + w], i, first + top - pad, first + bottom - pad)
        band[:, bottom:] = 0
        held["band"] = (i, first, first + count) if m == 1 else None
        return band

    return read


def _rows_out(dst, buffers, dtype):
    """Where a row source computes `dst`'s rows: `dst` itself when C-ordered, else a grow-only
    buffer of `dtype` (a band of the next conv's buffer), which `_rows_done` copies over."""
    if dst.flags.c_contiguous and dst.dtype == dtype:
        return dst
    return _grown(buffers, "out", dst.size, dtype).reshape(dst.shape)


def _rows_done(out, dst, epilogue):
    epilogue.apply(out)
    if out is not dst:
        np.copyto(dst, out)


def _fill(rows, out, kernel, c, itemsize, whole=False):
    """Every row of `out` (n, oh, ow, oc) from the row source `rows`, in one chunk when
    `whole`, else chunk by chunk of the plan `_chunk_shape` makes for `_COL_BUDGET` bytes of
    `kernel` x `kernel` windows of c channels of `itemsize` bytes; returns what the last call
    returned."""
    n, oh, ow = out.shape[:3]
    images, band = _chunk_shape((n, oh, ow, kernel, kernel, c), itemsize,
                                None if whole else _COL_BUDGET)
    for i, m, r, nb in _chunks(n, oh, images, band):
        last = rows(out[i : i + m, r : r + nb], i, r, r + nb)
    return last


def _reads_nchw(a):
    """Whether the im2col kernel bands `a` (n, c, h, w) in its own NCHW order: an input that is
    not channels-last (an image). See `_conv_columns`."""
    return not a.transpose(0, 2, 3, 1).flags.c_contiguous


def _conv_columns(source, shape, c, w_mat, kernel, stride, pad, dtype, epilogue, channels_first):
    """The im2col conv of an (n, h, w, c) input, `shape` = (n, h, w), whose rows `source` writes
    in `dtype`, as a row source: `rows(dst, i, lo, hi)` writes output rows [lo, hi) of images
    [i, i + len(dst)) into `dst` (m, hi - lo, ow, oc) and returns the columns it multiplied.

    Per call, `_band_reader` reads the input band; its columns (groups, positions,
    k*k*c/groups) are copied into one buffer and multiplied by `w_mat` (groups, oc/groups,
    k*k*c/groups), then `epilogue` runs in cache. The band, and so the buffer, follows the
    input's memory order (`channels_first` for an NCHW image): copies run along channels, or
    along positions for an image (1.7 against 4.3 ms for a 3x512x1024 stem). The conv's own
    forward (`_im2col`) fills an array by `_fill`; a chained no-grad block hands its rows to
    the next block's band (`ConvBnRelu.rows`)."""
    read = _band_reader(source, shape, c, kernel, stride, pad, dtype, channels_first)
    g, ocg, kg = w_mat.shape
    out_dtype = np.result_type(dtype, w_mat)
    buffers = {}

    def rows(dst, i, lo, hi):
        part = _windows(read(i, len(dst), lo, hi - lo), kernel, stride)
        m, nr, ow = part.shape[:3]
        buf = _grown(buffers, "columns", part.size, part.dtype)
        cols = (buf.reshape(g, kernel, kernel, c // g, m, nr, ow).transpose(0, 4, 5, 6, 1, 2, 3)
                if channels_first else buf.reshape(g, m, nr, ow, kernel, kernel, c // g))
        np.copyto(cols, part.reshape(m, nr, ow, kernel, kernel, g, c // g).transpose(5, 0, 1, 2, 3, 4, 6))
        cols = cols.reshape(g, m * nr * ow, kg)
        out = _rows_out(dst, buffers, out_dtype)
        np.matmul(cols, w_mat.transpose(0, 2, 1),
                  out=out.reshape(m * nr * ow, g, ocg, copy=False).transpose(1, 0, 2))
        _rows_done(out, dst, epilogue)
        return cols

    return rows


def _depthwise_taps(source, shape, taps, kernel, stride, pad, dtype, epilogue):
    """The depthwise conv of an (n, h, w, c) input, `shape` = (n, h, w), whose rows `source`
    writes in `dtype`, as a row source like `_conv_columns`'s: per call, one multiply-add per
    row of `taps` (k*k, c) over the `_band_reader` band, in cache, then `epilogue`."""
    read = _band_reader(source, shape, taps.shape[1], kernel, stride, pad, dtype)
    out_dtype = np.result_type(dtype, taps)
    buffers = {}

    def rows(dst, i, lo, hi):
        part = _windows(read(i, len(dst), lo, hi - lo), kernel, stride)
        out = _rows_out(dst, buffers, out_dtype)
        tmp = _grown(buffers, "tap", out.size, out_dtype).reshape(out.shape)
        np.multiply(part[:, :, :, 0, 0], taps[0], out=out)
        for t in range(1, kernel * kernel):
            out += np.multiply(part[:, :, :, t // kernel, t % kernel], taps[t], out=tmp)
        _rows_done(out, dst, epilogue)

    return rows


def _pointwise(x, w, epilogue):
    """1x1 stride-1 convolution: one GEMM over the (n*h*w, c) matrix of `x`, as is each gradient."""
    xd = _nhwc(x.data)
    n, h, wd, c = xd.shape
    x2, oc = xd.reshape(-1, c), w.shape[0]
    out = x2 @ w.data.reshape(oc, c).T
    epilogue.apply(out.reshape(n * h, wd, oc))

    def backward(grad):
        g2 = grad.reshape(-1, oc)
        if w.requires_grad:
            w._accumulate((g2.T @ x2).reshape(w.shape), owned=True)
        if x.requires_grad:
            gx = g2 @ w.data.reshape(oc, c)
            x._accumulate(gx.reshape(n, h, wd, c).transpose(0, 3, 1, 2), owned=True)

    return out.reshape(n, h, wd, oc), backward


def _out_extent(size, kernel, stride, pad):
    return (size + 2 * pad - kernel) // stride + 1


def _depthwise(x, w, stride, pad, epilogue):
    """Depthwise convolution: `_depthwise_taps` from `x`'s rows, in the chunks `_fill` plans, so
    each chunk's taps add up in cache. It keeps no columns, so it streams with
    a graph recorded too; the weight gradient reads the windows of a bordered copy of `x`."""
    c, k = w.shape[0], w.shape[2]
    n, _, h, wd = x.shape
    taps = np.ascontiguousarray(w.data.reshape(c, k * k).T)
    xd = x.data.transpose(0, 2, 3, 1)
    out = np.empty((n, _out_extent(h, k, stride, pad), _out_extent(wd, k, stride, pad), c),
                   np.result_type(xd, taps))
    _fill(_depthwise_taps(_array_source(xd), (n, h, wd), taps, k, stride, pad, xd.dtype, epilogue),
          out, k, c, xd.itemsize)

    def backward(grad):
        if w.requires_grad:
            windows = _windows(_nhwc(x.data, pad), k, stride)
            gw = np.empty_like(taps)
            for t in range(k * k):
                gw[t] = np.einsum("nhwc,nhwc->c", grad, windows[:, :, :, t // k, t % k])
            w._accumulate(np.ascontiguousarray(gw.T).reshape(w.shape), owned=True)
        if x.requires_grad:
            x._accumulate(_scatter_taps((grad * tap for tap in taps), x.shape, k, stride, pad,
                                        out.dtype), owned=True)

    return out, backward


@functools.lru_cache(maxsize=8)
def _winograd_transforms(dtype):
    """Input (36x36), filter (36x9) and output (16x36) transforms of F(4x4, 3x3).

    Winograd F(4x4, 3x3) (Lavin & Gray, arXiv 1509.09308): a 4x4 output tile of a 3x3
    correlation is At [(G w Gt) * (Bt d B)] A over its 6x6 input tile d. Row-major
    vec(M X Nt) = kron(M, N) vec(X), so each two-sided transform is one GEMM with a
    Kronecker product. Built on first use; cached, so read-only.
    """
    bt = np.array([[4, 0, -5, 0, 1, 0], [0, -4, -4, 1, 1, 0], [0, 4, -4, -1, 1, 0],
                   [0, -2, -1, 2, 1, 0], [0, 2, -1, -2, 1, 0], [0, 4, 0, -5, 0, 1]], float)
    g = np.array([[1 / 4, 0, 0], [-1 / 6, -1 / 6, -1 / 6], [-1 / 6, 1 / 6, -1 / 6],
                  [1 / 24, 1 / 12, 1 / 6], [1 / 24, -1 / 12, 1 / 6], [0, 0, 1]])
    at = np.array([[1, 1, 1, 1, 1, 0], [0, 1, -1, 2, -2, 0],
                   [0, 1, 1, 4, 4, 0], [0, 1, -1, 8, -8, 1]], float)
    mats = tuple(np.kron(m, m).astype(dtype) for m in (bt, g, at))
    for m in mats:
        m.flags.writeable = False
    return mats


# The tile position (row 1, column 1 of the 6x6 tile) whose output-transform column is
# all ones (the point 0 of F(4, 3)): a value added to its channel products adds to all
# 16 outputs of the tile.
_WINOGRAD_ONES = 1 * 6 + 1

# Fewest input channels for which 3x3 stride-1 convs take a Winograd path: below it the
# transforms and tile copies cost more than the multiplies they save. A no-grad c -> c
# conv of 1 x c x 128 x 256 took 4.8 / 5.5 ms by im2col / Winograd at c = 16, 9.2 / 9.5
# at 24, 15.7 / 11.4 at 32, 23.4 / 20.2 at 48; a recorded one of 8 x c x 16 x 16, forward
# plus backward, 2.1 / 1.0 ms at 16, 5.4 / 2.5 at 32 (2-core Xeon, one BLAS thread).
_WINOGRAD_MIN_CHANNELS = 32

# Bytes of transformed tiles per chunk of a Winograd conv: chunks of 128 tiles or more keep
# the 36 channel GEMMs wide (a no-grad 128 -> 128 conv took 3 ms less at 1x128x128x256 with
# two tile rows than with one, 35 ms less at 8x128x64x64 with four to eight).
_WINOGRAD_BUDGET = 3 << 20


def _filter_transform(weight, kg):
    """U = G w Gt of each (out, in) channel pair of a 3x3 `weight`, as (36, out, in)."""
    return (kg @ weight.reshape(-1, 9).T).reshape(36, *weight.shape[:2])


def _scatter_tiles(y, out):
    """out (n, h, w, oc) <- the 4x4 output tiles y (4, 4, n, th, tw, oc), cut to h x w."""
    _, _, n, th, tw, oc = y.shape
    h, w = out.shape[1:3]
    tiles = y.transpose(2, 3, 0, 4, 1, 5)  # n, th, 4, tw, 4, oc
    if (h, w) == (4 * th, 4 * tw):
        np.copyto(out.reshape(n, th, 4, tw, 4, oc), tiles)
    else:  # ragged edge tiles
        out[...] = tiles.reshape(n, 4 * th, 4 * tw, oc)[:, :h, :w]


def _array_source(x):
    """A row source (`_winograd_conv`, `_band_reader`) that copies its rows from `x` (n, h, w, c)."""
    return lambda dst, i, lo, hi: np.copyto(dst, x[i : i + len(dst), lo:hi])


def _array_sink(out):
    """A `_winograd_conv` sink that scatters each band into its rows of `out` (n, h, w, oc)."""
    def sink(y, i, r):
        _scatter_tiles(y, out[i : i + y.shape[2], r : r + 4 * y.shape[3]])

    return sink


def _winograd_conv(source, sink, shape, weight, dtype, epilogue, tiles=None):
    """3x3 stride-1 pad-1 correlation by Winograd F(4x4, 3x3) of an (n, h, w, c) input,
    `shape` = (n, h, w), then `epilogue`, read from a row `source` and written to a band
    `sink` one chunk at a time, so neither map need ever be whole.

    `source(dst, i, lo, hi)` writes input rows [lo, hi) of images [i, i + len(dst)) into
    `dst`, a (len(dst), hi - lo, w, c) view of the chunk's zero-bordered buffer;
    `_array_source` copies them from an array. `sink(y, i, r)` receives each chunk's 4x4
    output tiles y (4, 4, m, nb, tw, oc), after the epilogue, for output rows from r of images
    from i; `_array_sink` scatters them into an array. `y` is overwritten by the next chunk.

    Per chunk (`_chunks` of the plan `_chunk_shape` makes of the transformed tiles for
    `_WINOGRAD_BUDGET` bytes: whole images, or a band of tile rows of one image), the band
    loop's `_band_reader` writes the rows into its zero-bordered buffer, carrying the two rows
    consecutive bands of one image share, so the source is asked for each row once. The band's
    6x6 `_windows` 4 apart are copied out as tiles, and three GEMMs run the input transform, the
    36 channel products and the output transform. The shift is added to the products at
    `_WINOGRAD_ONES` and the ReLU clamps each chunk before the sink. The im2col and depthwise
    kernels read their bands through the same loop. The transformed tiles V = Bt d B are written to
    `tiles` (36, n*th*tw, c) when given, in (n, th, tw) order. The filter transform is
    recomputed each call, so never stale.
    """
    n, h, w = shape
    oc, c = weight.shape[:2]
    th, tw = -(-h // 4), -(-w // 4)
    kb, kg, ka = _winograd_transforms(dtype)
    u = _filter_transform(weight, kg)
    del weight  # folded weights handed over by `ConvBnRelu.bands` die once transformed
    images, band = _chunk_shape((n, th, tw, 6, 6, max(c, oc)), np.dtype(dtype).itemsize,
                                _WINOGRAD_BUDGET)
    images = min(images, n)
    take = _scratch if tiles is not None else _fresh
    read = _band_reader(source, shape, c, 3, 1, 1, dtype, width=4 * tw + 2, take=take,
                        largest=(images, 4 * min(band, th)))
    # each GEMM reads one buffer and writes the other: tiles, transforms, products, outputs
    ping = take("ping", 36 * max(c, oc) * images * band * tw, dtype)
    pong = take("pong", len(ping), dtype)
    for i, m, r, rows in _chunks(n, 4 * th, images, 4 * band):
        nb = rows // 4
        p = m * nb * tw
        d = ping[: 36 * p * c].reshape(6, 6, m, nb, tw, c)
        np.copyto(d, _windows(read(i, m, r, rows), 6, 4).transpose(3, 4, 0, 1, 2, 5))
        start = (i * th + r // 4) * tw
        v = pong[: 36 * p * c].reshape(36, p, c) if tiles is None else tiles[:, start : start + p]
        np.matmul(kb, d.reshape(36, p * c), out=v.reshape(36, p * c, copy=False))
        prod = ping[: 36 * p * oc].reshape(36, p, oc)
        np.matmul(v, u.transpose(0, 2, 1), out=prod)
        if epilogue.shift is not None:
            prod[_WINOGRAD_ONES] += epilogue.shift
        y = pong[: 16 * p * oc].reshape(16, p * oc)
        np.matmul(ka, prod.reshape(36, p * oc), out=y)
        if epilogue.relu:
            np.maximum(y, 0, out=y)
        sink(y.reshape(4, 4, m, nb, tw, oc), i, r)


# The two parts of a 6-wide tile along one axis, for the recorded path's overlap-add:
# (tile slice, block slice, slice within a block). With the map zero-bordered by one and
# cut into blocks of 4, tile t spans block t and the first two rows of block t + 1.
_TILE_PARTS = ((slice(0, 4), slice(None, -1), slice(0, 4)),
               (slice(4, 6), slice(1, None), slice(0, 2)))


def _winograd(x, w, dtype, epilogue, recorded):
    """3x3 stride-1 pad-1 convolution by Winograd F(4x4, 3x3) of the tensor `x` into a fresh
    array: the forward is `_winograd_conv` from `x`'s rows into that array.

    With a graph `recorded`, it keeps the transformed tiles V = Bt d B, (36, n*th*tw, c), a
    quarter of the im2col columns, and returns a backward (else None). The backward transforms
    the output gradient once, dM = A dY At: the weight gradient is Gt (sum of dMt V) G, the
    input gradient B (dM U) Bt overlap-added from the tiles, with U = G w Gt recomputed then.

    The recorded forward and the backward carve their temporaries from `_scratch`; each
    step reads one of `ping` and `pong` and writes the other, and each buffer is sized for
    the backward's largest temporary. V, the output and both gradients are allocated per call,
    since they outlive it. The no-grad forward allocates per call (see the module notes).
    """
    n, c, h, wd = x.shape
    oc = w.shape[0]
    th, tw = -(-h // 4), -(-wd // 4)
    tiles = n * th * tw
    v = np.empty((36, tiles, c), dtype) if recorded else None
    out = np.empty((n, h, wd, oc), dtype)
    _winograd_conv(_array_source(_nhwc(x.data)), _array_sink(out), (n, h, wd), w.data, dtype,
                   epilogue, v)
    if not recorded:
        return out, None
    kb, kg, ka = _winograd_transforms(dtype)

    def backward(grad):
        # each step reads one scratch buffer and writes the other; what escapes is fresh
        size = max(36 * max(tiles, oc) * max(c, oc), 16 * n * (th + 1) * (tw + 1) * c)
        ping, pong = _scratch("ping", size, dtype), _scratch("pong", size, dtype)
        tiled = ping[: 16 * tiles * oc].reshape(n, th, 4, tw, 4, oc)
        if (h, wd) != (4 * th, 4 * tw):  # ragged edge tiles
            tiled.fill(0)
        tiled.reshape(n, 4 * th, 4 * tw, oc)[:, :h, :wd] = grad
        dy = pong[: 16 * tiles * oc].reshape(4, 4, n, th, tw, oc)
        np.copyto(dy, tiled.transpose(2, 4, 0, 1, 3, 5))
        dm = ping[: 36 * tiles * oc].reshape(36, tiles, oc)
        np.matmul(ka.T, dy.reshape(16, tiles * oc), out=dm.reshape(36, tiles * oc))
        if w.requires_grad:
            du = pong[: 36 * oc * c].reshape(36, oc, c)
            np.matmul(dm.swapaxes(1, 2), v, out=du)
            w._accumulate((du.reshape(36, oc * c).T @ kg).reshape(w.shape), owned=True)
        if not x.requires_grad:
            return
        dv = pong[: 36 * tiles * c].reshape(36, tiles, c)
        np.matmul(dm, _filter_transform(w.data, kg), out=dv)
        dd = ping[: 36 * tiles * c].reshape(6, 6, n, th, tw, c)
        np.matmul(kb.T, dv.reshape(36, tiles * c), out=dd.reshape(36, tiles * c))
        blocks = pong[: 16 * n * (th + 1) * (tw + 1) * c].reshape(n, th + 1, 4, tw + 1, 4, c)
        blocks.fill(0)
        for ti, bi, ri in _TILE_PARTS:
            for tj, bj, rj in _TILE_PARTS:
                blocks[:, bi, ri, bj, rj] += dd[ti, tj].transpose(2, 3, 0, 4, 1, 5)
        gx = np.ascontiguousarray(blocks.reshape(n, 4 * th + 4, 4 * tw + 4, c)[:, 1 : h + 1, 1 : wd + 1])
        x._accumulate(gx.transpose(0, 3, 1, 2), owned=True)

    return out, backward


def _scatter_taps(tap_grads, x_shape, k, stride, pad, dtype):
    """Input gradient of a k x k conv on an `x_shape` (n, c, h, w) input, as the (n, c, h, w)
    view of an (n, h, w, c) array: the t-th of `tap_grads` (row-major taps), (n, oh, ow, ...)
    with c values per position, adds into the inputs tap t reads. Every im2col and depthwise
    conv takes its input gradient here."""
    n, c, h, w = x_shape
    gx = np.zeros((n, h + 2 * pad, w + 2 * pad, c), dtype)
    for t, grad in enumerate(tap_grads):
        (i, j), (oh, ow) = divmod(t, k), grad.shape[1:3]
        gx[:, i : i + stride * oh : stride, j : j + stride * ow : stride] += grad.reshape(n, oh, ow, c)
    return np.ascontiguousarray(gx[:, pad : pad + h, pad : pad + w]).transpose(0, 3, 1, 2)


def _im2col(x, w, stride, pad, groups, epilogue, recorded):
    """Any other convolution: `_conv_columns` from `x`'s rows, filled chunk by chunk (`_fill`),
    or, with a graph `recorded`, in one chunk whose columns the weight gradient keeps; the
    input gradient is `_scatter_taps`."""
    oc, cg, k = w.shape[:3]
    n, c, h, wd = x.shape
    xd = x.data.transpose(0, 2, 3, 1)
    w_mat = w.data.transpose(0, 2, 3, 1).reshape(groups, oc // groups, k * k * cg)
    oh, ow = _out_extent(h, k, stride, pad), _out_extent(wd, k, stride, pad)
    out = np.empty((n, oh, ow, oc), np.result_type(xd, w_mat))
    rows = _conv_columns(_array_source(xd), (n, h, wd), c, w_mat, k, stride, pad, xd.dtype,
                         epilogue, _reads_nchw(x.data))
    cols = _fill(rows, out, k, c, xd.itemsize, recorded)

    def backward(grad):
        gmat = grad.reshape(n * oh * ow, groups, oc // groups).transpose(1, 0, 2)
        if w.requires_grad:
            gw = np.matmul(gmat.transpose(0, 2, 1), cols).reshape(oc, k, k, cg)
            w._accumulate(np.ascontiguousarray(gw.transpose(0, 3, 1, 2)), owned=True)
        if x.requires_grad:
            taps = np.matmul(gmat, w_mat).reshape(groups, n, oh, ow, k * k, cg)
            x._accumulate(_scatter_taps(taps.transpose(4, 1, 2, 3, 0, 5), x.shape, k, stride, pad,
                                        out.dtype), owned=True)

    return out, backward


class Conv2d(Module):
    def __init__(self, in_c, out_c, kernel, stride=1, pad=0, groups=1, bias=True, rng=None):
        super().__init__()
        if in_c % groups or out_c % groups:
            raise ContractError(f"groups={groups} must divide in_c={in_c} and out_c={out_c}")
        self.in_c, self.out_c = in_c, out_c
        self.kernel, self.stride, self.pad, self.groups = kernel, stride, pad, groups
        rng = rng if rng is not None else np.random.default_rng(0)
        self.weight = Parameter(init_kaiming(rng, out_c, in_c // groups, kernel, kernel))
        self.bias = Parameter(np.zeros(out_c, dtype=np.float32)) if bias else None

    def takes_winograd(self, h, w):
        """Whether this conv runs Winograd F(4x4, 3x3) on an h x w map: 3x3 stride 1 pad 1,
        ungrouped, with `_WINOGRAD_MIN_CHANNELS` input channels or more, on a map at least
        4x4 and larger than one tile."""
        # a map below 4x4 is one tile of mostly padding; on one whole tile the filter
        # transform costs as much as the products it shrinks. By im2col against Winograd,
        # forward plus backward of 8x128x4x4 took 3.3 against 5.9 ms; no-grad, 1x128x4x4
        # 0.34 against 0.72, 8x128x4x4 0.67 against 0.92, 8x128x2x2 0.41 against 0.82 ms
        # (medians of 80 to 200 interleaved runs; 2-core Xeon, one BLAS thread)
        return ((self.kernel, self.stride, self.pad, self.groups) == (3, 1, 1, 1)
                and self.in_c >= _WINOGRAD_MIN_CHANNELS and min(h, w) >= 4 and max(h, w) > 4)

    @property
    def depthwise(self):
        return self.groups > 1 and self.groups == self.in_c == self.out_c

    def _folded(self, _epilogue, recorded=False):
        """(weight tensor, `_Epilogue`): the bias as the epilogue, or a no-grad caller's
        `_epilogue` with its scale folded into the weights."""
        w, b = self.weight, self.bias
        if _epilogue is None:
            return w, _Epilogue(None, None if b is None else b.data, False)
        if recorded or b is not None:
            raise ContractError("an epilogue stands in for the bias of a no-grad conv")
        return Tensor(w.data * _epilogue.scale[:, None, None, None]), _epilogue

    def forward(self, x, _epilogue=None):
        """Convolve `x` into a fresh array. A no-grad caller may pass an `_Epilogue`
        that stands in for the bias (`ConvBnRelu` passes its eval batch norm and
        ReLU)."""
        if x.shape[1] != self.in_c:
            raise ShapeError(f"conv expects {self.in_c} channels, got {x.shape[1]}")
        w, b = self.weight, self.bias
        parents = (x, w) if b is None else (x, w, b)
        k, s, p, g = self.kernel, self.stride, self.pad, self.groups
        dtype = np.result_type(*(t.data.dtype for t in parents))
        recorded = records_graph(parents)
        w, epilogue = self._folded(_epilogue, recorded)
        if self.takes_winograd(*x.shape[2:]):
            out, backward = _winograd(x, w, dtype, epilogue, recorded)
        elif self.depthwise:
            out, backward = _depthwise(x, w, s, p, epilogue)
        elif (k, s, p, g) == (1, 1, 0, 1):
            out, backward = _pointwise(x, w, epilogue)
        else:  # recorded convs keep their whole columns for the weight gradient
            out, backward = _im2col(x, w, s, p, g, epilogue, recorded)

        def node_backward(grad):  # the kernel's backward takes x and w
            gd = _nhwc(grad)
            if b is not None and b.requires_grad:
                b._accumulate(_channel_sums(gd.reshape(-1, self.out_c)))
            backward(gd)

        return _make(out.transpose(0, 3, 1, 2), parents, node_backward)

    def rows(self, source, shape, dtype, channels_first, _epilogue=None):
        """This conv with no graph as a row source of its (n, oh, ow, out_c) output, for an
        (n, in_c, h, w) input, `shape` = (n, h, w), whose rows `source` writes in `dtype`
        (`_winograd_conv` states the contract): `rows(dst, i, lo, hi)` writes output rows
        [lo, hi) of images [i, i + len(dst)) into `dst`. Asked band after band, it asks
        `source` for each input row once. `channels_first` bands the input in NCHW order, as
        `forward` bands an image. An im2col (`_conv_columns`) or depthwise (`_depthwise_taps`)
        conv only: the caller checks that `forward` would take neither Winograd nor the 1x1
        GEMM. `_epilogue` is `forward`'s."""
        w, epilogue = self._folded(_epilogue)
        k, s, p, g = self.kernel, self.stride, self.pad, self.groups
        if self.depthwise:
            taps = np.ascontiguousarray(w.data.reshape(g, k * k).T)
            return _depthwise_taps(source, shape, taps, k, s, p, dtype, epilogue)
        w_mat = w.data.transpose(0, 2, 3, 1).reshape(g, self.out_c // g, k * k * self.in_c // g)
        return _conv_columns(source, shape, self.in_c, w_mat, k, s, p, dtype, epilogue,
                             channels_first)

    def flops(self, out_shape):
        n, oc, oh, ow = out_shape
        f = 2 * n * oh * ow * oc * (self.in_c // self.groups) * self.kernel * self.kernel
        if self.bias is not None:
            f += n * oh * ow * oc
        return f


class BatchNorm2d(Module):
    _buffers = ("running_mean", "running_var")
    EPS = 1e-5  # added to the variance before the inverse square root
    MOMENTUM = 0.1  # weight of the batch statistics in the running ones

    def __init__(self, channels):
        super().__init__()
        self.channels = channels
        self.scale = Parameter(np.ones(channels, dtype=np.float32))
        self.shift = Parameter(np.zeros(channels, dtype=np.float32))
        self.running_mean = np.zeros(channels, dtype=np.float32)
        self.running_var = np.ones(channels, dtype=np.float32)

    def forward(self, x):
        return _batch_norm(self, x)

    def eval_affine(self):
        """(1 / std, scale, shift) of eval mode, out = x * scale + shift, read from the current
        parameters and running statistics each call, so a fused `ConvBnRelu` never goes stale."""
        invstd = 1.0 / np.sqrt(self.running_var + self.EPS)
        scale = self.scale.data * invstd
        return invstd, scale, self.shift.data - self.running_mean * scale

    def flops(self, out_shape):
        return math.prod(out_shape)


def _batch_norm(bn, x, relu=False):
    """`bn` over the (n*h*w, c) matrix of `x`, then a ReLU if `relu`, as one recorded op.

    Training normalizes by the batch statistics and moves the running ones; eval applies
    `bn.eval_affine()`. A recorded `ConvBnRelu` passes its conv output with `relu`. In
    training x̂ then overwrites that output, which no conv backward reads (Winograd keeps
    its tiles, im2col its columns), so the graph keeps x̂ and the op's output alone. The
    backward takes the ReLU's mask from `out > 0`."""
    gamma, beta = bn.scale, bn.shift
    xd = _nhwc(x.data)
    x2 = xd.reshape(-1, bn.channels)
    count = x2.shape[0]
    if bn.training:
        mean = _channel_sums(x2) / count
        xhat = np.subtract(x2, mean, out=x2 if relu else None)
        var = np.einsum("pc,pc->c", xhat, xhat) / count
        invstd = 1.0 / np.sqrt(var + bn.EPS)
        xhat *= invstd
        m = bn.MOMENTUM
        bn.running_mean = (1 - m) * bn.running_mean + m * mean.astype(bn.running_mean.dtype)
        bn.running_var = (1 - m) * bn.running_var + m * var.astype(bn.running_var.dtype)
        out = xhat * gamma.data
        out += beta.data
    else:
        invstd, scale, shift = bn.eval_affine()
        mean, xhat = bn.running_mean, None
        out = x2 * scale  # a single full-size temporary, shifted in place
        out += shift
    if relu:
        np.maximum(out, 0, out=out)

    def backward(g):
        g2 = _nhwc(g).reshape(-1, bn.channels)
        if relu:
            g2 = g2 * (out > 0)
        gsum = _channel_sums(g2)
        gxhat_sum = np.einsum("pc,pc->c", g2, (x2 - mean) * invstd if xhat is None else xhat)
        if gamma.requires_grad:
            gamma._accumulate(gxhat_sum)
        if beta.requires_grad:
            beta._accumulate(gsum)
        if not x.requires_grad:
            return
        coef = gamma.data * invstd
        if xhat is None:  # eval: out = x * coef + shift
            gx = g2 * coef
        else:
            gx = g2 * count
            gx -= gsum
            gx -= xhat * gxhat_sum
            gx *= coef / count
        x._accumulate(gx.reshape(xd.shape).transpose(0, 3, 1, 2), owned=True)

    return _make(out.reshape(xd.shape).transpose(0, 3, 1, 2), (x, gamma, beta), backward)


@functools.lru_cache(maxsize=256)
def resample_matrix(in_size, out_size, kind, dtype):
    """Dense out_size x in_size matrix of one separable resampling axis. "bilinear":
    align_corners=False taps, source coordinates clamped to [0, in_size - 1]; "pool": each row
    averages a floor/ceil window, so the windows tile the input. Cached, so read-only."""
    rows = np.arange(out_size)
    if kind == "bilinear":
        src = np.clip((rows + 0.5) * (in_size / out_size) - 0.5, 0, in_size - 1)
        i0 = np.floor(src).astype(np.intp)
        i1 = np.minimum(i0 + 1, in_size - 1)
        frac = src - i0
        m = np.zeros((out_size, in_size))
        m[rows, i0] = 1 - frac
        m[rows, i1] += frac  # i0 == i1 where the clamp bites: the row sums to 1
    elif kind == "pool":
        starts = (rows * in_size) // out_size
        ends = -((-(rows + 1) * in_size) // out_size)  # ceil division
        cols = np.arange(in_size)
        inside = (cols >= starts[:, None]) & (cols < ends[:, None])
        m = inside / (ends - starts)[:, None]
    else:
        raise ContractError(f"unknown resampling kind {kind!r}")
    m = m.astype(dtype)
    m.flags.writeable = False
    return m


# Output rows per block of a banded resampling product, which multiplies only the input rows
# its nonzeros touch. Against 32-row blocks, 1x5x128x256 -> 512x1024 took 2.6 against 3.9 ms
# and 8x128x32x32 -> 64x64 5.7 against 7.4 ms (channels-last, one BLAS thread).
_BAND_ROWS = 16


class BandPlan(NamedTuple):
    """One resampling axis as blocks: out[rows] = block @ x[cols] for each
    (rows, cols, block) of `blocks`, together covering `size` output rows."""

    size: int
    blocks: tuple


@functools.lru_cache(maxsize=256)
def band_plan(in_size, out_size, kind, dtype, transposed=False):
    """`resample_matrix(in_size, out_size, kind, dtype)`, or its transpose, as blocks of
    `_BAND_ROWS` output rows with the input rows their nonzeros touch; one block, the whole
    matrix, when blocks would not skip half the dense multiplies. Cached, so read-only."""
    m = resample_matrix(in_size, out_size, kind, dtype)
    if transposed:
        m = m.T
    rows, cols = m.shape
    spans = []
    for lo in range(0, rows, _BAND_ROWS):
        hi = min(lo + _BAND_ROWS, rows)
        touched = np.flatnonzero(m[lo:hi].any(axis=0))
        first, last = (int(touched[0]), int(touched[-1]) + 1) if touched.size else (0, 0)
        spans.append((slice(lo, hi), slice(first, last)))
    if 2 * sum((o.stop - o.start) * (i.stop - i.start) for o, i in spans) > rows * cols:
        spans = [(slice(0, rows), slice(0, cols))]
    blocks = []
    for o, i in spans:
        block = np.ascontiguousarray(m[o, i])
        block.flags.writeable = False
        blocks.append((o, i, block))
    return BandPlan(rows, tuple(blocks))


# Fewest channels for which a resample that grows the height runs the height axis first.
# Each axis is one GEMM per block and slice: per image over (h, w*c), per image row over
# (w, c). Few channels make the row GEMMs mostly call overhead, so they run before the
# rows multiply: 1x5x128x256 -> 512x1024 took 2.6 ms width first, over 4.6 ms height first;
# 1x128x64x128 -> 128x256 5.5 ms height first, 8.2 ms width first (one BLAS thread).
_RESAMPLE_FEW_CHANNELS = 16


def _apply_plan(a, plan, out=None):
    """The plan's matrix times each (size, rest) slice of `a` (..., size, rest), by block, into
    `out` (..., plan.size, rest) or a fresh array."""
    if out is None:
        out = np.empty(a.shape[:-2] + (plan.size, a.shape[-1]), a.dtype)
    for o, i, block in plan.blocks:
        np.matmul(block, a[..., i, :], out=out[..., o, :])
    return out


def _block_writer(x, rows, cols):
    """`write(ki, block, out)`: the rows that one block (o, ki, block) of the height `BandPlan`
    `rows` gives of rows @ x @ cols.T, written into `out` (m, len(o), ow, c), for a channels-last
    x (m, h, w, c). This is the one block primitive of `resample` and `bilinear_argmax`. The
    axis order follows `_RESAMPLE_FEW_CHANNELS`. Width first, the width pass of every input row
    runs once, here, since consecutive blocks read overlapping input rows; each block is then
    one GEMM per image. Height first, each call runs its block's height GEMM per image and the
    width pass of those rows into `out`. Every GEMM is a whole per-image or per-row slice, as
    on the whole map, so a block's rows have the whole map's bits for any number of images."""
    m, h, w, c = x.shape
    ow = cols.size
    if c < _RESAMPLE_FEW_CHANNELS and rows.size > h:
        wide = _apply_plan(x.reshape(m * h, w, c), cols).reshape(m, h, ow * c)

        def write(ki, block, out):
            np.matmul(block, wide[:, ki], out=out.reshape(m, len(block), ow * c, copy=False))
    else:
        tall = x.reshape(m, h, w * c)

        def write(ki, block, out):
            _apply_plan(np.matmul(block, tall[:, ki]).reshape(m, len(block), w, c), cols, out)

    return write


def resample(a, rows, cols):
    """rows @ a @ cols.T over the spatial axes of `a` (n, c, h, w), for `BandPlan`s `rows` and
    `cols`: the (n, c, oh, ow) view of a fresh (n, oh, ow, c) array, written one height block
    at a time (`_block_writer`)."""
    x = _nhwc(a)
    write = _block_writer(x, rows, cols)  # before `out`: the heap places the width pass first
    out = np.empty((x.shape[0], rows.size, cols.size, x.shape[3]), x.dtype)
    for o, ki, block in rows.blocks:
        write(ki, block, out[:, o])
    return out.transpose(0, 3, 1, 2)


def bilinear_argmax(a, out_h, out_w):
    """`np.argmax(bilinear_upsample(a, out_h, out_w).data, axis=1)` of an (n, c, h, w) array, bit
    for bit, without the upsampled map: the (n, out_h, out_w) intp class mask. Each `band_plan`
    height block of each image is resampled into a buffer of at most `_BAND_ROWS` rows
    (`_block_writer`, as `resample` writes it) and arg-maxed over its classes into the mask
    rows, with `np.argmax`'s tie and NaN rules. The width-first pass of few classes holds one
    image's width pass, a quarter of its upsampled map at 4x."""
    x = _nhwc(a)
    n, h, w, c = x.shape
    rows = band_plan(h, out_h, "bilinear", x.dtype)
    cols = band_plan(w, out_w, "bilinear", x.dtype)
    mask = np.empty((n, out_h, out_w), np.intp)
    band = np.empty((1, max(len(block) for _, _, block in rows.blocks), out_w, c), x.dtype)
    for i in range(n):
        write = _block_writer(x[i : i + 1], rows, cols)
        for o, ki, block in rows.blocks:
            dst = band[:, : len(block)]
            write(ki, block, dst)
            np.argmax(dst, axis=3, out=mask[i : i + 1, o])
    return mask


def _resample_op(x, out_h, out_w, kind):
    """`x` resampled to out_h x out_w by the `band_plan`s of `kind`, as one graph node."""
    if out_h < 1 or out_w < 1:
        raise ContractError(f"output extents must be positive, got {out_h}x{out_w}")
    n, c, h, w = x.shape
    dt = x.data.dtype

    def backward(g):
        if x.requires_grad:
            x._accumulate(resample(g, band_plan(h, out_h, kind, dt, True),
                                   band_plan(w, out_w, kind, dt, True)), owned=True)

    return _make(resample(x.data, band_plan(h, out_h, kind, dt), band_plan(w, out_w, kind, dt)),
                 (x,), backward)


def _merge_source(lateral, f, top):
    """A `_winograd_conv` source of the FPN merge `lateral(f) + bilinear_upsample(top, h, w)`,
    for a 1x1 `lateral` and an (n, c, h, w) `f`, with `top` wide enough to resample height
    first (`resample`). Per call: the lateral GEMM's rows, plus bias, into a buffer, then the
    upsample's rows added to it, each row of the height block of `top` that holds them times
    each width block. The height block is kept for the next call, which asks for the rows
    that follow. Each product is the one `resample` and `_pointwise` compute on the whole maps
    (a GEMM of a row subset has the same bits once no small-matrix kernel is picked), so the
    rows are the merge's rows bit for bit."""
    fd, above = _nhwc(f.data), _nhwc(top.data)
    n, h, w, cin = fd.shape
    _, ha, wa, c = above.shape
    rows = band_plan(ha, h, "bilinear", above.dtype)
    cols = band_plan(wa, w, "bilinear", above.dtype)
    above = above.reshape(n, ha, wa * c)
    weight = lateral.weight.data.reshape(c, cin).T
    bias = _Epilogue(None, None if lateral.bias is None else lateral.bias.data, False)
    held = {}  # (first image, height block) -> that block's rows of the height pass

    def source(dst, i, lo, hi):
        m = len(dst)
        merged = np.matmul(fd[i : i + m, lo:hi].reshape(-1, cin), weight).reshape(m, hi - lo, w, c)
        bias.apply(merged)
        for k, (o, ki, block) in enumerate(rows.blocks):
            a, b = max(lo, o.start), min(hi, o.stop)
            if a >= b:
                continue
            if (i, k) not in held:
                held.clear()
                held[i, k] = np.matmul(block, above[i : i + m, ki])
            part = held[i, k][:, a - o.start : b - o.start].reshape(m, b - a, wa, c)
            sums = merged[:, a - lo : b - lo]
            for oc, kc, width in cols.blocks:
                sums[:, :, oc] += width @ part[:, :, kc]
        np.copyto(dst, merged)

    return source


def _pointwise_sink(conv, out, w):
    """A `_winograd_conv` sink that runs the 1x1 stride-1 `conv` on each band of a w-wide map,
    into its rows of `out` (n, h, w, conv.out_c): the band is scattered into a buffer, then
    one GEMM and the bias write its rows, as `_pointwise` computes them on the whole map."""
    weight = conv.weight.data.reshape(conv.out_c, conv.in_c).T
    bias = _Epilogue(None, None if conv.bias is None else conv.bias.data, False)
    buf = []  # the first band's buffer, which no later band outgrows

    def sink(y, i, r):
        _, _, m, nb, _, c = y.shape
        dst = out[i : i + m, r : r + 4 * nb]
        if not buf:
            buf.append(np.empty(dst.shape[:3] + (c,), y.dtype))
        band = buf[0][:m, : dst.shape[1]]
        _scatter_tiles(y, band)
        np.matmul(band.reshape(-1, c), weight, out=dst.reshape(-1, conv.out_c, copy=False))
        bias.apply(dst)

    return sink


def adaptive_avg_pool(x, out_h, out_w):
    """Mean over floor/ceil-partitioned windows that tile the input exactly."""
    _, _, h, w = x.shape
    if out_h > h or out_w > w:
        raise ContractError(f"pool output {out_h}x{out_w} exceeds input {h}x{w}")
    return _resample_op(x, out_h, out_w, "pool")


def bilinear_upsample(x, out_h, out_w):
    """Bilinear resize (align_corners=False) to out_h x out_w, up or down."""
    return _resample_op(x, out_h, out_w, "bilinear")


class ReLU(Module):
    def forward(self, x):
        return relu(x)

    def flops(self, out_shape):
        return math.prod(out_shape)


def _bn_relu(bn):
    """`bn` in eval mode, then a ReLU, as a no-grad conv's `_Epilogue`, read afresh each call
    (`BatchNorm2d.eval_affine`)."""
    _, scale, shift = bn.eval_affine()
    return _Epilogue(scale, shift, True)


class ConvBnRelu(Module):
    """Bias-free 3x3 conv (pad 1) + batch norm + ReLU: the backbone's stage
    block and the decoder's smoothing block.

    In training, or in eval with a graph, the batch norm and ReLU are one
    recorded op after the conv; in training x̂ overwrites the conv output, so
    the graph keeps two output-sized arrays, x̂ and the block's output. In eval
    with no graph they are the conv's `_Epilogue`; `bands` runs such a block on
    the Winograd kernel from a row source into a band sink. `act` names the
    ReLU's cost row and runs no code of its own."""

    def __init__(self, in_c, out_c, stride=1, rng=None):
        super().__init__()
        self.conv = Conv2d(in_c, out_c, 3, stride=stride, pad=1, bias=False, rng=rng)
        self.bn = BatchNorm2d(out_c)
        self.act = ReLU()

    def forward(self, x):
        conv, bn = self.conv, self.bn
        if bn.training or records_graph((x, conv.weight, bn.scale, bn.shift)):
            return _batch_norm(bn, conv(x), relu=True)
        # eval with no graph: batch norm and ReLU run as the conv's epilogue
        return conv(x, _epilogue=_bn_relu(bn))

    def bands(self, source, sink, shape, dtype):
        """The eval block with no graph on an (n, c, h, w) input, `shape` = (n, h, w), whose
        rows `source` writes in `dtype`, with each band of output handed to `sink`: one
        `_winograd_conv` with the epilogue and folded weights `forward` gives `Conv2d`, so the
        bands have `forward`'s bits. The caller checks `conv.takes_winograd(h, w)`."""
        epilogue = _bn_relu(self.bn)
        _winograd_conv(source, sink, shape, self.conv.weight.data * epilogue.scale[:, None, None, None],
                       np.result_type(dtype, self.conv.weight.dtype), epilogue)

    def rows(self, source, shape, dtype, channels_first):
        """The eval block with no graph as a row source (`Conv2d.rows`) of its im2col conv with
        `forward`'s epilogue and folded weights, so its rows have `forward`'s bits once a chunk
        asks for them (`model.Backbone` chains its stem so). The caller checks that the conv
        does not take Winograd."""
        return self.conv.rows(source, shape, dtype, channels_first, _epilogue=_bn_relu(self.bn))
