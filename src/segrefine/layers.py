"""Neural building blocks: convolutions, batch norm, pooling, upsampling.

Convolutions run as im2col + matmul. When a convolution records no graph
(under `no_grad`, or with no parent that needs a gradient) and its columns
would be a copy (kernel or stride above 1), the columns stream through one
reused buffer of about `_COL_BUDGET` bytes, whole images or bands of output
rows at a time, and each chunk's product lands in its slice of the output.
A no-grad 3x3 stride-1 pad-1 convolution with at least
`_WINOGRAD_MIN_CHANNELS` input channels runs Winograd F(4x4, 3x3) instead:
per image and per band of 4-row tile rows, three GEMMs transform the 6x6
input tiles, multiply the channels and transform back, with 4x fewer
multiplies in the channel products than im2col. A conv's bias is an
`_Epilogue` applied to each chunk or band of output while it is in cache; an
eval `ConvBnRelu` that records no graph passes its batch norm (scale folded
into the weights, shift) and ReLU as its conv's epilogue instead, so neither
runs a pass of its own.
A recorded 3x3 stride-1 pad-1 convolution with that many input channels and
a map of at least 4x4 runs Winograd F(4x4, 3x3) on the whole batch at once
(`_winograd_recorded`): it keeps the transformed input tiles, a quarter of the
im2col columns, and takes both gradients in the Winograd domain from one
transform of the output gradient, so the forward and both gradients each do
4x fewer channel multiplies than im2col. Its tiles keep their channels last,
so the gathers and the overlap-add copy runs of channels.
Any other recorded convolution builds its columns once and keeps them, since
the weight gradient needs all of them; 1x1 stride-1 columns are a view of the
input, so those convolutions never copy and run one GEMM per image (their
weight gradient folds copies of both operands only on maps so small that the
per-image products would be larger). Other recorded columns are a copy
anyway, so they are built with the batch folded in, (groups, k_g, n*oh*ow):
the forward, the weight gradient and the column gradient are each one GEMM
per group. A stride-1 input gradient is itself a stride-1 convolution, of the
output gradient padded by k - 1 - pad with the flipped kernel whose in/out
channels swap, so it streams through the same buffered im2col (unbuffered
for 1x1, whose columns are a view); only strided convolutions scatter their
column gradient back with `_col2im`. Adaptive pooling and bilinear resizing
are linear and separable, so both are Rh @ x @ Rw.T with cached per-axis
matrices, and the backward pass is the same product with the matrices
transposed. Each matrix (and its transpose) has a cached `band_plan`: blocks
of `_BAND_ROWS` output rows, each multiplying only the input rows its
nonzeros touch, so each axis is one GEMM per block into a preallocated
result. A matrix whose blocks would skip less than half of the dense
multiplies is one block, the dense product. Every layer registers its
parameters on a light Module tree, and a layer with state besides its
parameters (batch norm's running statistics) lists it in `_buffers`.
`Module.named_state` names both, so checkpoints and `cast` walk one map of
named arrays, and the cost profiler's parameter counts are sums over
`Module.parameters`.
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
    # attributes holding arrays that are state but not parameters (running
    # statistics, say); `named_state` names them next to the parameters
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

    def zero_grad(self):
        for p in self.parameters():
            p.zero_grad()

    def train(self, mode=True):
        object.__setattr__(self, "training", mode)
        for child in self._children.values():
            child.train(mode)
        return self

    def eval(self):
        return self.train(False)

    def named_state(self):
        """Every array the module tree owns: name -> (owner, attribute).

        Parameters come first, in `named_parameters` order, as (p, "data");
        then each module's `_buffers`, this module first and then in
        `named_children` order, named "path.attribute". Checkpoints and
        `cast` read this one map, so a module with more state than its
        parameters only has to list it in `_buffers`.
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


# Bytes of im2col columns per streamed chunk. A 512x1024 forward timed the
# same within noise for budgets from 128 KiB to 2 MiB (2-core Xeon, 2 MiB L2
# per core, one BLAS thread); 1 MiB stays inside L2 with few chunks per call.
_COL_BUDGET = 1 << 20


def _windows(x, k, stride, pad):
    """Zero-copy n, c, k, k, oh, ow sliding-window view of the padded input."""
    if pad:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    windows = np.lib.stride_tricks.sliding_window_view(x, (k, k), axis=(2, 3))
    return windows[:, :, ::stride, ::stride].transpose(0, 1, 4, 5, 2, 3)


class _Epilogue(NamedTuple):
    """What a conv does to its output besides the products: out * scale + shift, then ReLU.

    `scale` (per output channel, or None) is folded into the weights before
    the products; `shift` (per output channel, or None) and the ReLU are
    applied to each chunk of output while it is still in cache. A plain conv's
    epilogue is its bias; a no-grad `ConvBnRelu` passes its eval batch norm
    and ReLU as one.
    """

    scale: np.ndarray | None
    shift: np.ndarray | None
    relu: bool

    def apply(self, a):
        """Shift and ReLU `a` (..., channels, positions) in place."""
        if self.shift is not None:
            a += self.shift[:, None]
        if self.relu:
            np.maximum(a, 0, out=a)


def _chunk_shape(windows_shape, itemsize, budget):
    """(images, output rows) per chunk whose columns fit `budget` bytes.

    Several whole images when one image's columns fit, otherwise a band of
    rows of one image (at least one row). No budget means one chunk.
    """
    n, c, kh, kw, oh, ow = windows_shape
    if budget is None:
        return n, oh
    row_bytes = c * kh * kw * ow * itemsize
    if row_bytes * oh <= budget:
        return budget // (row_bytes * oh), oh
    return 1, max(1, budget // row_bytes)


def _conv_columns(windows, w_mat, out, budget=None, fold=False, epilogue=None):
    """out = w_mat @ im2col(windows), then `epilogue`, chunk by chunk.

    Returns the last chunk's columns. Each chunk's columns are copied into one
    reused buffer and its product is written straight into the matching slice
    of `out` (n, out_c, oh, ow) and finished there by the epilogue, while it
    is in cache. Without a budget there is one chunk, built without a buffer, so 1x1
    stride-1 columns stay a view of the input, (n, g, kg, oh*ow), with one
    GEMM per image. With `fold` (no budget only) the columns are copied once
    with the batch folded in, (g, kg, n*oh*ow), so the product is one GEMM
    per group and its result is transposed into `out`.
    """
    n, c, kh, kw, oh, ow = windows.shape
    g, ocg, kg = w_mat.shape
    images, rows = _chunk_shape(windows.shape, windows.itemsize, budget)
    epilogue = epilogue or _Epilogue(None, None, False)
    if epilogue.scale is not None:
        w_mat = w_mat * epilogue.scale.reshape(g, ocg, 1)
    if fold:
        cols = windows.reshape(n, g, c // g, kh, kw, oh, ow).transpose(1, 2, 3, 4, 0, 5, 6)
        cols = np.ascontiguousarray(cols).reshape(g, kg, n * oh * ow)
        prod = np.matmul(w_mat, cols).reshape(g, ocg, n, oh * ow)
        np.copyto(out.reshape(n, g, ocg, oh * ow), prod.transpose(2, 0, 1, 3))
        epilogue.apply(out.reshape(n, g * ocg, oh * ow))
        return cols
    buf = None if budget is None else np.empty(images * c * kh * kw * rows * ow, windows.dtype)
    for i in range(0, n, images):
        for r in range(0, oh, rows):
            part = windows[i : i + images, :, :, :, r : r + rows]
            m, h = part.shape[0], part.shape[4]
            if buf is None:
                cols = np.ascontiguousarray(part.reshape(m, g, kg, h * ow))
            else:
                cols = buf[: part.size].reshape(part.shape)
                np.copyto(cols, part)
                cols = cols.reshape(m, g, kg, h * ow)
            dst = out[i : i + m, :, r : r + h].reshape(m, g, ocg, h * ow, copy=False)
            np.matmul(w_mat, cols, out=dst)
            epilogue.apply(dst.reshape(m, g * ocg, h * ow))
    return cols


@functools.lru_cache(maxsize=8)
def _winograd_transforms(dtype):
    """Input (36x36), filter (36x9) and output (16x36) transforms of F(4x4, 3x3).

    Winograd F(4x4, 3x3) (Lavin & Gray, arXiv 1509.09308): a 4x4 output tile
    of a 3x3 correlation is At [(G w Gt) * (Bt d B)] A over its 6x6 input tile
    d. Row-major vec(M X Nt) = kron(M, N) vec(X), so each two-sided transform
    is one GEMM with a Kronecker product. Built on first use, so a process
    that never runs the path never allocates them; cached, so read-only.
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


# The tile position (row 1, column 1 of the 6x6 tile) whose column of the
# output transform is all ones: At has a column of ones, the point 0 of
# F(4, 3), so a value added to that position's channel products adds to all
# 16 outputs of the tile.
_WINOGRAD_ONES = 1 * 6 + 1

# Fewest input channels for which 3x3 stride-1 convolutions take a Winograd
# path: below it the no-grad path's transforms and tile copies cost more than
# the multiplies they save. A no-grad c -> c convolution of 1 x c x 128 x 256
# took, with im2col and with Winograd, 4.8 / 5.5 ms at c = 16, 9.2 / 9.5 ms at
# 24, 15.7 / 11.4 ms at 32 and 23.4 / 20.2 ms at 48; a recorded one of
# 8 x c x 16 x 16, forward plus backward, 2.1 / 1.0 ms at 16 and 5.4 / 2.5 ms
# at 32 (2-core Xeon, one BLAS thread).
_WINOGRAD_MIN_CHANNELS = 32

# Bytes of transformed tiles per band of the no-grad Winograd path. Bands of
# about 128 tiles or more keep the 36 channel GEMMs wide: against one tile row
# per band, a no-grad 128 -> 128 convolution took 3 ms less at 1 x 128 x 128 x
# 256 with two tile rows (128 tiles, 2.4 MB) and 35 ms less at 8 x 128 x 64 x
# 64 with four to eight (2-core Xeon, 2 MiB L2 per core, one BLAS thread).
_WINOGRAD_BUDGET = 3 << 20


def _winograd_conv(x, weight, dtype, budget, epilogue):
    """3x3 stride-1 pad-1 correlation of `x` (n, c, h, w) by Winograd F(4x4, 3x3), then `epilogue`.

    One image and one band of 4-row tile rows at a time: the band's rows are
    copied into a zero-bordered buffer, its 6x6 tiles (stepping by 4) are
    gathered, and three GEMMs apply the input transform, the 36 channel
    products and the output transform. A band holds as many tile rows as keep
    its transformed tiles within `budget` bytes (at least one). The epilogue
    needs no pass over the output: its scale is folded into the transformed
    filter, its shift is added to the channel products of the one tile
    position whose output-transform column is all ones, and its ReLU clamps
    each band's output tiles in place before they are scattered. The filter
    transform is recomputed on every call, so nothing goes stale when the
    weights change in place.
    """
    n, c, h, w = x.shape
    oc = weight.shape[0]
    out = np.empty((n, oc, h, w), dtype)
    th, tw = -(-h // 4), -(-w // 4)
    kb, kg, ka = _winograd_transforms(out.dtype)
    u = (kg @ weight.reshape(oc * c, 9).T).reshape(36, oc, c)
    if epilogue.scale is not None:
        u *= epilogue.scale[:, None]
    band = max(1, min(th, budget // (36 * max(c, oc) * tw * out.itemsize)))
    padded = np.zeros((c, 4 * band + 2, 4 * tw + 2), dtype)
    # each GEMM reads one buffer and writes the other: tiles, then their
    # transforms, then the channel products, then the output tiles
    ping = np.empty(36 * max(c, oc) * band * tw, dtype)
    pong = np.empty_like(ping)
    for i in range(n):
        for t in range(0, th, band):
            nb = min(band, th - t)
            r, rows, p = 4 * t, 4 * nb + 2, nb * tw
            # padded row j holds input row r - 1 + j; rows outside the input are zero
            lo, hi = max(r - 1, 0), min(r + 4 * nb + 1, h)
            top, bottom = lo - r + 1, hi - r + 1
            padded[:, :top] = 0
            padded[:, top:bottom, 1 : w + 1] = x[i, :, lo:hi]
            padded[:, bottom:rows] = 0
            win = np.lib.stride_tricks.sliding_window_view(padded[:, :rows], (6, 6), axis=(1, 2))
            d = ping[: 36 * c * p].reshape(6, 6, c, nb, tw)
            np.copyto(d, win[:, ::4, ::4].transpose(3, 4, 0, 1, 2))
            v = pong[: 36 * c * p].reshape(36, c * p)
            np.matmul(kb, d.reshape(36, c * p), out=v)
            m = ping[: 36 * oc * p].reshape(36, oc, p)
            np.matmul(u, v.reshape(36, c, p), out=m)
            if epilogue.shift is not None:
                m[_WINOGRAD_ONES] += epilogue.shift[:, None]
            y = pong[: 16 * oc * p].reshape(16, oc * p)
            np.matmul(ka, m.reshape(36, oc * p), out=y)
            if epilogue.relu:
                np.maximum(y, 0, out=y)
            y = y.reshape(4, 4, oc, nb, tw).transpose(2, 3, 0, 4, 1)  # oc, nb, 4, tw, 4
            hb = min(4 * nb, h - r)
            if hb == 4 * nb and w == 4 * tw:
                np.copyto(out[i, :, r : r + hb].reshape(oc, nb, 4, tw, 4), y)
            else:  # ragged edge tiles: drop the rows and columns past the input
                out[i, :, r : r + hb] = y.reshape(oc, 4 * nb, 4 * tw)[:, :hb, :w]
    return out


# The two parts of a 6-wide Winograd tile along one axis, for the whole-batch
# recorded path: (tile slice, block slice, slice within a block). With the
# input zero-bordered by one and cut into blocks of 4, tile t spans block t
# and the first two rows (or columns) of block t + 1.
_TILE_PARTS = ((slice(0, 4), slice(None, -1), slice(0, 4)),
               (slice(4, 6), slice(1, None), slice(0, 2)))


def _winograd_recorded(x, w, b, dtype):
    """Recorded 3x3 stride-1 pad-1 convolution by Winograd F(4x4, 3x3), whole batch at once.

    The forward gathers every 6x6 input tile of the batch and keeps only its
    transform V = Bt d B, (36, n*th*tw, c), a quarter of the im2col columns.
    The output is At (V Ut) A with U = G w Gt. The backward transforms the
    output gradient once, dM = A dY At, and takes both gradients in the
    Winograd domain: the weight gradient Gt (sum over tiles of dMt V) G, and
    the input gradient B (dM U) Bt, overlap-added back from the 6x6 tiles.
    Tiles keep their channels last, so every gather and scatter copies runs
    of channels; the filter transform is recomputed by the backward, so it
    reads the weights as they are then, like the im2col path.
    """
    n, c, h, wd = x.shape
    oc = w.shape[0]
    th, tw = -(-h // 4), -(-wd // 4)
    tiles = n * th * tw
    kb, kg, ka = _winograd_transforms(dtype)
    blocks = np.zeros((n, th + 1, 4, tw + 1, 4, c), dtype)
    blocks.reshape(n, 4 * th + 4, 4 * tw + 4, c)[:, 1 : h + 1, 1 : wd + 1] = (
        x.data.transpose(0, 2, 3, 1))
    d = np.empty((6, 6, n, th, tw, c), dtype)
    for ti, bi, ri in _TILE_PARTS:
        for tj, bj, rj in _TILE_PARTS:
            d[ti, tj] = blocks[:, bi, ri, bj, rj].transpose(2, 4, 0, 1, 3, 5)
    del blocks
    v = (kb @ d.reshape(36, tiles * c)).reshape(36, tiles, c)
    del d
    u = (kg @ w.data.reshape(oc * c, 9).T).reshape(36, oc, c)
    m = np.matmul(v, u.swapaxes(1, 2))
    del u
    y = (ka @ m.reshape(36, tiles * oc)).reshape(4, 4, n, th, tw, oc)
    del m
    tiled = np.empty((n, th, 4, tw, 4, oc), dtype)
    np.copyto(tiled, y.transpose(2, 3, 0, 4, 1, 5))
    del y
    out = np.empty((n, oc, h, wd), dtype)
    np.copyto(out, tiled.reshape(n, 4 * th, 4 * tw, oc)[:, :h, :wd].transpose(0, 3, 1, 2))
    del tiled
    if b is not None:
        out += b.data[None, :, None, None]
    parents = (x, w) if b is None else (x, w, b)

    def backward(grad):
        tiled = np.zeros((n, th, 4, tw, 4, oc), dtype)
        tiled.reshape(n, 4 * th, 4 * tw, oc)[:, :h, :wd] = grad.transpose(0, 2, 3, 1)
        dy = np.empty((4, 4, n, th, tw, oc), dtype)
        np.copyto(dy, tiled.transpose(2, 4, 0, 1, 3, 5))
        del tiled
        dm = (ka.T @ dy.reshape(16, tiles * oc)).reshape(36, tiles, oc)
        del dy
        if w.requires_grad:
            du = np.matmul(dm.swapaxes(1, 2), v)  # 36, oc, c
            w._accumulate((du.reshape(36, oc * c).T @ kg).reshape(w.shape), owned=True)
            del du
        if b is not None and b.requires_grad:
            b._accumulate(grad.sum(axis=(0, 2, 3)))
        if not x.requires_grad:
            return
        u = (kg @ w.data.reshape(oc * c, 9).T).reshape(36, oc, c)
        dv = np.matmul(dm, u)
        del dm, u
        dd = (kb.T @ dv.reshape(36, tiles * c)).reshape(6, 6, n, th, tw, c)
        del dv
        blocks = np.zeros((n, th + 1, 4, tw + 1, 4, c), dtype)
        for ti, bi, ri in _TILE_PARTS:
            for tj, bj, rj in _TILE_PARTS:
                blocks[:, bi, ri, bj, rj] += dd[ti, tj].transpose(2, 3, 0, 4, 1, 5)
        del dd
        gx = np.empty((n, c, h, wd), dtype)
        np.copyto(gx, blocks.reshape(n, 4 * th + 4, 4 * tw + 4, c)[:, 1 : h + 1, 1 : wd + 1]
                  .transpose(0, 3, 1, 2))
        x._accumulate(gx, owned=True)

    return _make(out, parents, backward)


def _fold_batch(a):
    """(n, g, rows, p) -> (g, rows, n*p): a copy with the batch folded into the columns."""
    n, g, rows, p = a.shape
    return np.ascontiguousarray(a.transpose(1, 2, 0, 3)).reshape(g, rows, n * p)


def _col2im(cols_grad, x_shape, kh, kw, stride, pad, oh, ow):
    """Scatter-add batch-folded column gradients (c*kh*kw, n*oh*ow) back to (n, c, h, w)."""
    n, c, h, w = x_shape
    gx = np.zeros((c, n, h + 2 * pad, w + 2 * pad), dtype=cols_grad.dtype)
    cg = cols_grad.reshape(c, kh, kw, n, oh, ow)
    for i in range(kh):
        for j in range(kw):
            gx[:, :, i : i + stride * oh : stride, j : j + stride * ow : stride] += cg[:, i, j]
    return gx[:, :, pad : pad + h, pad : pad + w].transpose(1, 0, 2, 3)


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

    def forward(self, x, _epilogue=None):
        """Convolve `x`. A no-grad caller may pass an `_Epilogue` that stands in
        for the bias (`ConvBnRelu` passes its eval batch norm and ReLU)."""
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
        else:
            epilogue = _epilogue
        if (k, s, p, g) == (3, 1, 1, 1) and self.in_c >= _WINOGRAD_MIN_CHANNELS:
            if not recorded:
                return Tensor(_winograd_conv(x.data, w.data, dtype, _WINOGRAD_BUDGET, epilogue))
            if min(x.shape[2:]) >= 4:  # a smaller map is one tile of mostly padding
                return _winograd_recorded(x, w, b, dtype)
        windows = _windows(x.data, k, s, p)
        n, _, _, _, oh, ow = windows.shape
        ocg, cg = self.out_c // g, self.in_c // g
        w_mat = w.data.reshape(g, ocg, cg * k * k)
        out = np.empty((n, self.out_c, oh, ow), dtype)
        # columns of kernels or strides above 1 are a copy: streamed when no
        # graph is recorded, else kept whole, batch folded, for the weight gradient
        copied = k > 1 or s > 1
        fold = copied and recorded
        budget = _COL_BUDGET if copied and not recorded else None
        cols = _conv_columns(windows, w_mat, out, budget, fold, epilogue)
        x_shape = x.data.shape

        def backward(grad):
            gmat = grad.reshape(n, g, ocg, oh * ow)
            if fold:
                gmat = _fold_batch(gmat)  # the layout of the folded columns
            if w.requires_grad:
                if fold:
                    gw = np.matmul(gmat, cols.swapaxes(-1, -2))
                elif ocg * cg > (ocg + cg) * oh * ow:
                    # on small maps the per-image products would outsize
                    # folded copies of both operands: fold them instead
                    gw = np.matmul(_fold_batch(gmat), _fold_batch(cols).swapaxes(-1, -2))
                else:
                    gw = np.matmul(gmat, cols.swapaxes(-1, -2)).sum(axis=0)
                w._accumulate(gw.reshape(w.shape))
            if b is not None and b.requires_grad:
                b._accumulate(grad.sum(axis=(0, 2, 3)))
            if not x.requires_grad:
                return
            if s == 1:
                # a stride-1 input gradient is the correlation of the output
                # gradient, padded by k - 1 - p, with the flipped kernel whose
                # in/out channels swap within each group; 1x1 columns stay a view
                q = k - 1 - p
                gpad = grad if q >= 0 else grad[:, :, -q : oh + q, -q : ow + q]
                w_t = w.data.reshape(g, ocg, cg, k, k)[:, :, :, ::-1, ::-1].transpose(0, 2, 1, 3, 4)
                gx = np.empty(x_shape, dtype)
                _conv_columns(_windows(gpad, k, 1, max(q, 0)), w_t.reshape(g, cg, ocg * k * k),
                              gx, _COL_BUDGET if k > 1 else None)
                x._accumulate(gx, owned=True)
            else:
                gcols = np.matmul(w_mat.transpose(0, 2, 1), gmat)
                x._accumulate(_col2im(gcols, x_shape, k, k, s, p, oh, ow))

        return _make(out, parents, backward)

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
        gamma, beta = self.scale, self.shift
        if self.training:
            axes = (0, 2, 3)
            mean = x.data.mean(axis=axes)
            var = x.data.var(axis=axes)
            invstd = 1.0 / np.sqrt(var + self.EPS)
            xhat = (x.data - mean[None, :, None, None]) * invstd[None, :, None, None]
            m = self.MOMENTUM
            self.running_mean = (1 - m) * self.running_mean + m * mean.astype(self.running_mean.dtype)
            self.running_var = (1 - m) * self.running_var + m * var.astype(self.running_var.dtype)
            out = gamma.data[None, :, None, None] * xhat + beta.data[None, :, None, None]
            count = x.data.size // self.channels

            def backward(g):
                gsum = g.sum(axis=axes)
                gxhat_sum = (g * xhat).sum(axis=axes)
                if gamma.requires_grad:
                    gamma._accumulate(gxhat_sum)
                if beta.requires_grad:
                    beta._accumulate(gsum)
                if x.requires_grad:
                    coef = (gamma.data * invstd / count)[None, :, None, None]
                    gx = coef * (
                        count * g
                        - gsum[None, :, None, None]
                        - xhat * gxhat_sum[None, :, None, None]
                    )
                    x._accumulate(gx, owned=True)

            return _make(out, (x, gamma, beta), backward)

        invstd, scale, shift = self.eval_affine()
        # one per-channel affine: a single full-size temporary, shifted in place
        out = x.data * scale[None, :, None, None]
        out += shift[None, :, None, None]

        def backward(g):
            if gamma.requires_grad:
                xhat = (x.data - self.running_mean[None, :, None, None]) * invstd[None, :, None, None]
                gamma._accumulate((g * xhat).sum(axis=(0, 2, 3)))
            if beta.requires_grad:
                beta._accumulate(g.sum(axis=(0, 2, 3)))
            if x.requires_grad:
                x._accumulate(g * scale[None, :, None, None], owned=True)

        return _make(out, (x, gamma, beta), backward)

    def eval_affine(self):
        """(1 / std, scale, shift) of eval mode: out = x * scale + shift.

        Read from the current parameters and running statistics on every call,
        so an eval forward and a fused `ConvBnRelu` never go stale.
        """
        invstd = 1.0 / np.sqrt(self.running_var + self.EPS)
        scale = self.scale.data * invstd
        return invstd, scale, self.shift.data - self.running_mean * scale

    def flops(self, out_shape):
        return math.prod(out_shape)


@functools.lru_cache(maxsize=256)
def resample_matrix(in_size, out_size, kind, dtype):
    """Dense out_size x in_size matrix of one separable resampling axis.

    "bilinear": align_corners=False taps, with source coordinates clamped to
    [0, in_size - 1]. "pool": each row averages a floor/ceil window, so the
    windows tile the input exactly. Cached, so the result is read-only.
    """
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


# Output rows per block of a banded resampling product. Each block multiplies
# only the input rows its nonzeros touch: a 4x bilinear upsample touches about
# 10 input rows per 32 output rows.
_BAND_ROWS = 32


class BandPlan(NamedTuple):
    """One resampling axis as blocks: out[rows] = block @ x[cols] for each
    (rows, cols, block) of `blocks`, together covering `size` output rows."""

    size: int
    blocks: tuple


@functools.lru_cache(maxsize=256)
def band_plan(in_size, out_size, kind, dtype, transposed=False):
    """`resample_matrix(in_size, out_size, kind, dtype)`, or its transpose, in blocks.

    Blocks of `_BAND_ROWS` output rows, each with the slice of input rows its
    nonzeros touch. When the blocks would not skip at least half of the dense
    product's multiplies, the plan is one block, the whole matrix, so a small
    or mostly dense matrix runs the dense product. Cached, so read-only.
    """
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


def resample(a, rows, cols):
    """rows @ a @ cols.T over the last two axes of `a` (any leading axes).

    `rows` and `cols` are `BandPlan`s; each axis runs one GEMM per block into
    a preallocated result.
    """
    *lead, h, w = a.shape
    flat = a.reshape(-1, w)
    mid = np.empty((flat.shape[0], cols.size), a.dtype)
    for o, i, block in cols.blocks:
        np.matmul(flat[:, i], block.T, out=mid[:, o])
    mid = mid.reshape(-1, h, cols.size)
    out = np.empty((mid.shape[0], rows.size, cols.size), a.dtype)
    for o, i, block in rows.blocks:
        np.matmul(block, mid[:, i], out=out[:, o])
    return out.reshape(*lead, rows.size, cols.size)


def _resample_op(x, out_h, out_w, kind):
    _, _, h, w = x.shape
    dt = x.data.dtype

    def backward(g):
        if x.requires_grad:
            x._accumulate(resample(g, band_plan(h, out_h, kind, dt, True),
                                   band_plan(w, out_w, kind, dt, True)), owned=True)

    out = resample(x.data, band_plan(h, out_h, kind, dt), band_plan(w, out_w, kind, dt))
    return _make(out, (x,), backward)


def adaptive_avg_pool(x, out_h, out_w):
    """Mean over floor/ceil-partitioned windows that tile the input exactly."""
    if out_h < 1 or out_w < 1:
        raise ContractError(f"output extents must be positive, got {out_h}x{out_w}")
    _, _, h, w = x.shape
    if out_h > h or out_w > w:
        raise ContractError(f"pool output {out_h}x{out_w} exceeds input {h}x{w}")
    return _resample_op(x, out_h, out_w, "pool")


def bilinear_upsample(x, out_h, out_w):
    """Bilinear resize (align_corners=False) to out_h x out_w, up or down."""
    if out_h < 1 or out_w < 1:
        raise ContractError("output extents must be positive")
    return _resample_op(x, out_h, out_w, "bilinear")


class ReLU(Module):
    def forward(self, x):
        return relu(x)

    def flops(self, out_shape):
        return math.prod(out_shape)


class ConvBnRelu(Module):
    """Bias-free 3x3 conv (pad 1) + batch norm + ReLU: the backbone's stage
    block and the decoder's smoothing block."""

    def __init__(self, in_c, out_c, stride=1, rng=None):
        super().__init__()
        self.conv = Conv2d(in_c, out_c, 3, stride=stride, pad=1, bias=False, rng=rng)
        self.bn = BatchNorm2d(out_c)
        self.act = ReLU()

    def forward(self, x):
        conv, bn = self.conv, self.bn
        if bn.training or records_graph((x, conv.weight, bn.scale, bn.shift)):
            return self.act(bn(conv(x)))
        # eval with no graph: batch norm and ReLU run as the conv's epilogue
        _, scale, shift = bn.eval_affine()
        return conv(x, _epilogue=_Epilogue(scale, shift, True))
