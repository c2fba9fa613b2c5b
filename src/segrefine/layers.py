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
matrix, forward and for both gradients; a depthwise conv is one multiply-add
per kernel tap; batch norm reduces over the (n*h*w, c) matrix. Other convs run
im2col with (positions, k*k*c/groups) columns, streamed through one buffer of
`_COL_BUDGET` bytes when no graph is recorded, kept whole for the weight
gradient when one is. `_scatter_taps` adds up each tap's input gradient for
every im2col and depthwise conv. A 3x3 stride-1 pad-1 conv with at least
`_WINOGRAD_MIN_CHANNELS` input channels, on a map at least 4x4 and larger than
one 4x4 tile (`Conv2d.takes_winograd`), runs Winograd F(4x4, 3x3) in
`_winograd`, recorded or not: its forward `_winograd_conv` gathers 6x6
`_windows` in chunks of whole images or bands of tile rows, and keeps the
transformed tiles for the backward when a graph is recorded. So the kernel
follows the conv's geometry and map alone. `_winograd_conv` reads its input
from a row source and hands each band of output to a sink; `_winograd` passes
an array's rows and scatters into a fresh array, while an eval `ConvBnRelu`
with no graph can run from any source into any sink (`ConvBnRelu.bands`): the
FPN decoder feeds it the merge's rows (`_merge_source`) and, at stride 4, runs
the classifier on each band (`_pointwise_sink`). A
recorded Winograd conv takes every temporary from `_scratch`, one grow-only
buffer per role and dtype, kept until `trainer.train` returns (for the process
when recorded convs run outside it): its zero-bordered input copy
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
matrices (`band_plan`). `Module.named_state` names parameters and `_buffers`.
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


def _conv_columns(windows, w_mat, out, budget=None, epilogue=None):
    """out (n, oh, ow, oc) = im2col(windows) @ w_mat.T per group, then `epilogue`.

    Per chunk (`_chunk_shape`), the columns (groups, positions, k*k*c/groups) of `windows`
    (n, oh, ow, k, k, c) are copied into one buffer and multiplied by `w_mat` (groups,
    oc/groups, k*k*c/groups) into their slice of `out`. The buffer follows the input's memory
    order, so copies run along channels, or along positions for an NCHW image (1.7 against
    4.3 ms for a 3x512x1024 stem). Returns the last chunk's columns (no budget: all)."""
    n, oh, ow, kh, kw, c = windows.shape
    g, ocg, kg = w_mat.shape
    images, rows = _chunk_shape(windows.shape, windows.itemsize, budget)
    epilogue = epilogue or _Epilogue(None, None, False)
    buf = np.empty(min(images, n) * min(rows, oh) * ow * kh * kw * c, windows.dtype)
    by_position = windows.strides[-1] != windows.itemsize
    for i in range(0, n, images):
        for r in range(0, oh, rows):
            part = windows[i : i + images, r : r + rows]
            m, h = part.shape[:2]
            cols = (buf[: part.size].reshape(g, kh, kw, c // g, m, h, ow).transpose(0, 4, 5, 6, 1, 2, 3)
                    if by_position else buf[: part.size].reshape(g, m, h, ow, kh, kw, c // g))
            np.copyto(cols, part.reshape(m, h, ow, kh, kw, g, c // g).transpose(5, 0, 1, 2, 3, 4, 6))
            cols = cols.reshape(g, m * h * ow, kg)
            dst = out[i : i + m, r : r + h]
            np.matmul(cols, w_mat.transpose(0, 2, 1),
                      out=dst.reshape(m * h * ow, g, ocg, copy=False).transpose(1, 0, 2))
            epilogue.apply(dst)
    return cols


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


def _depthwise(x, w, stride, pad, epilogue):
    """Depthwise convolution: one multiply-add per kernel tap over (n, oh, ow, c) maps, in
    the chunks `_chunk_shape` plans for `_COL_BUDGET`, so each chunk's taps add up in cache.
    It keeps no columns, so it streams with a graph recorded too."""
    c, k = w.shape[0], w.shape[2]
    windows = _windows(_nhwc(x.data, pad), k, stride)
    n, oh, ow = windows.shape[:3]
    taps = np.ascontiguousarray(w.data.reshape(c, k * k).T)
    out = np.empty((n, oh, ow, c), np.result_type(windows, taps))
    images, rows = _chunk_shape(windows.shape, windows.itemsize, _COL_BUDGET)
    buf = np.empty(min(images, n) * min(rows, oh) * ow * c, out.dtype)
    for i in range(0, n, images):
        for r in range(0, oh, rows):
            part = windows[i : i + images, r : r + rows]
            dst = out[i : i + images, r : r + rows]
            tmp = buf[: dst.size].reshape(dst.shape)
            np.multiply(part[:, :, :, 0, 0], taps[0], out=dst)
            for t in range(1, k * k):
                dst += np.multiply(part[:, :, :, t // k, t % k], taps[t], out=tmp)
            epilogue.apply(dst)

    def backward(grad):
        if w.requires_grad:
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
    """A `_winograd_conv` source that copies its rows from `x` (n, h, w, c)."""
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

    Per chunk (`_chunk_shape` of the transformed tiles for `_WINOGRAD_BUDGET` bytes: whole
    images, or a band of tile rows of one image): the rows are written into the buffer, its
    6x6 `_windows` 4 apart copied out as tiles, and three GEMMs run the input transform, the
    36 channel products and the output transform. The shift is added to the products at
    `_WINOGRAD_ONES` and the ReLU clamps each chunk before the sink. Consecutive bands of one
    image share two input rows, which the band below takes from the band above's buffer, so
    the source is asked for each row once. The transformed tiles V = Bt d B are written to
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
    take = _scratch if tiles is not None else lambda role, size, dtype: np.empty(size, dtype)
    padded = take("padded", images * (4 * band + 2) * (4 * tw + 2) * c, dtype).reshape(
        images, 4 * band + 2, 4 * tw + 2, c)
    padded[:, :, 0] = 0
    padded[:, :, w + 1 :] = 0
    # each GEMM reads one buffer and writes the other: tiles, transforms, products, outputs
    ping = take("ping", 36 * max(c, oc) * images * band * tw, dtype)
    pong = take("pong", len(ping), dtype)
    for i in range(0, n, images):
        for t in range(0, th, band):
            m, nb = min(images, n - i), min(band, th - t)
            r, rows, p = 4 * t, 4 * nb + 2, m * nb * tw
            # padded row j holds input row r - 1 + j; rows outside the input are zero
            lo, hi = max(r - 1, 0), min(r + 4 * nb + 1, h)
            top, bottom = lo - r + 1, hi - r + 1
            if t:  # input rows r - 1 and r are the band above's last two (a band is one image)
                padded[:1, :2] = padded[:1, 4 * band :]
                lo, top = r + 1, 2
            else:
                padded[:, :top] = 0
            if lo < hi:
                source(padded[:m, top:bottom, 1 : w + 1], i, lo, hi)
            padded[:, bottom:rows] = 0
            d = ping[: 36 * p * c].reshape(6, 6, m, nb, tw, c)
            np.copyto(d, _windows(padded[:m, :rows], 6, 4).transpose(3, 4, 0, 1, 2, 5))
            start = (i * th + t) * tw
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


def _im2col(x, w, stride, pad, groups, epilogue, budget):
    """Any other convolution: `_conv_columns` over the k x k windows of `x`, streamed for a
    `budget` or kept whole for the weight gradient; the input gradient is `_scatter_taps`."""
    oc, cg, k = w.shape[:3]
    # an NCHW input (an image) is bordered in its own order: see `_conv_columns`
    last = x.data.transpose(0, 2, 3, 1).flags.c_contiguous
    xp = _nhwc(x.data, pad) if last else np.pad(x.data, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    windows = _windows(xp if last else xp.transpose(0, 2, 3, 1), k, stride)
    n, oh, ow = windows.shape[:3]
    w_mat = w.data.transpose(0, 2, 3, 1).reshape(groups, oc // groups, k * k * cg)
    out = np.empty((n, oh, ow, oc), np.result_type(windows, w_mat))
    cols = _conv_columns(windows, w_mat, out, budget, epilogue)

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
        if _epilogue is None:
            epilogue = _Epilogue(None, None if b is None else b.data, False)
        elif recorded or b is not None:
            raise ContractError("an epilogue stands in for the bias of a no-grad conv")
        else:  # its scale is folded into the weights
            epilogue, w = _epilogue, Tensor(w.data * _epilogue.scale[:, None, None, None])
        if self.takes_winograd(*x.shape[2:]):
            out, backward = _winograd(x, w, dtype, epilogue, recorded)
        elif g > 1 and g == self.in_c == self.out_c:
            out, backward = _depthwise(x, w, s, p, epilogue)
        elif (k, s, p, g) == (1, 1, 0, 1):
            out, backward = _pointwise(x, w, epilogue)
        else:  # recorded convs keep their whole columns for the weight gradient
            out, backward = _im2col(x, w, s, p, g, epilogue, None if recorded else _COL_BUDGET)

        def node_backward(grad):  # the kernel's backward takes x and w
            gd = _nhwc(grad)
            if b is not None and b.requires_grad:
                b._accumulate(_channel_sums(gd.reshape(-1, self.out_c)))
            backward(gd)

        return _make(out.transpose(0, 3, 1, 2), parents, node_backward)

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


def _apply_plan(a, plan):
    """The plan's matrix times each (size, rest) slice of `a` (slices, size, rest), by block."""
    out = np.empty((a.shape[0], plan.size, a.shape[2]), a.dtype)
    for o, i, block in plan.blocks:
        np.matmul(block, a[:, i], out=out[:, o])
    return out


def resample(a, rows, cols):
    """rows @ a @ cols.T over the spatial axes of `a` (n, c, h, w), for `BandPlan`s `rows` and
    `cols`: the (n, c, oh, ow) view of a fresh (n, oh, ow, c) array."""
    x = _nhwc(a)
    n, h, w, c = x.shape
    oh, ow = rows.size, cols.size
    if c < _RESAMPLE_FEW_CHANNELS and oh > h:
        x = _apply_plan(x.reshape(n * h, w, c), cols).reshape(n, h, ow * c)
        out = _apply_plan(x, rows)
    else:
        x = _apply_plan(x.reshape(n, h, w * c), rows).reshape(n * oh, w, c)
        out = _apply_plan(x, cols)
    return out.reshape(n, oh, ow, c).transpose(0, 3, 1, 2)


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
        _, scale, shift = bn.eval_affine()
        return conv(x, _epilogue=_Epilogue(scale, shift, True))

    def bands(self, source, sink, shape, dtype):
        """The eval block with no graph on an (n, c, h, w) input, `shape` = (n, h, w), whose
        rows `source` writes in `dtype`, with each band of output handed to `sink`: one
        `_winograd_conv` with the epilogue and folded weights `forward` gives `Conv2d`, so the
        bands have `forward`'s bits. The caller checks `conv.takes_winograd(h, w)`."""
        _, scale, shift = self.bn.eval_affine()
        _winograd_conv(source, sink, shape, self.conv.weight.data * scale[:, None, None, None],
                       np.result_type(dtype, self.conv.weight.dtype), _Epilogue(scale, shift, True))
