"""Dense tensor with reverse-mode automatic differentiation.

Values are numpy arrays (float32 by default; gradient checking rebuilds the
graph in float64 by constructing float64 tensors). Each differentiable op
attaches a closure that accumulates gradients into its parents; `backward`
runs the closures in reverse topological order.
"""

from __future__ import annotations

import math
import struct
from contextlib import contextmanager

import numpy as np


class ShapeError(ValueError):
    pass


class ContractError(ValueError):
    pass


_GRAD_ENABLED = True


@contextmanager
def no_grad():
    """Disable graph recording (inference / evaluation fast path)."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False):
        if isinstance(data, Tensor):
            data = data.data
        self.data = np.asarray(data)
        if self.data.dtype not in (np.float32, np.float64):
            self.data = self.data.astype(np.float32)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self):
        return self.data.size

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"

    def item(self):
        return float(self.data)

    def zero_grad(self):
        self.grad = None

    def _accumulate(self, g, owned=False):
        """Add `g` into this tensor's gradient; later ones add into the first in place.

        The first is a copy of `g` in the tensor's dtype and layout, unless the caller passes
        `owned` (`g` was built for this call alone): then `g` itself is kept when its dtype
        and shape fit and it is C-ordered or channels-last (an (n, h, w, c) array's view).
        """
        if self.grad is not None:
            self.grad += g
        elif owned and g.dtype == self.data.dtype and g.shape == self.data.shape and (
                g.flags.c_contiguous or g.ndim == 4 and g.transpose(0, 2, 3, 1).flags.c_contiguous):
            self.grad = g
        else:
            self.grad = np.empty_like(self.data)
            np.copyto(self.grad, g)

    def backward(self):
        """Reverse-mode sweep from a scalar loss; accumulates into leaf grads.

        An intermediate tensor's gradient is dropped once its closure has
        passed it on, so the sweep does not hold a gradient for every
        activation at once.
        """
        if self.data.size != 1:
            raise ContractError(f"backward requires a scalar, got shape {self.shape}")
        topo = []
        visited = set()
        stack = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in visited:
                    stack.append((p, False))
        self._accumulate(np.ones_like(self.data))
        for node in reversed(topo):
            if node._backward is not None:
                node._backward(node.grad)
                node.grad = None

    # operator sugar used throughout the layers
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def reshape(self, *shape):
        return reshape(self, shape)

    def transpose(self, *axes):
        return transpose(self, axes)


def _as_tensor(x, like=None):
    if isinstance(x, Tensor):
        return x
    dtype = like.data.dtype if like is not None else None
    return Tensor(np.asarray(x, dtype=dtype))


def records_graph(parents):
    """Whether an op on `parents` records a backward closure."""
    return _GRAD_ENABLED and any(p.requires_grad for p in parents)


def _make(data, parents, backward):
    out = Tensor(data)
    if records_graph(parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward
    return out


def _unbroadcast(g, shape):
    """Sum gradient `g` down to `shape` (reverse of numpy broadcasting)."""
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def add(a, b):
    a = _as_tensor(a)
    b = _as_tensor(b, like=a)

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g, b.shape))

    return _make(a.data + b.data, (a, b), backward)


def sub(a, b):
    a = _as_tensor(a)
    b = _as_tensor(b, like=a)

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(-g, b.shape))

    return _make(a.data - b.data, (a, b), backward)


def mul(a, b):
    a = _as_tensor(a)
    b = _as_tensor(b, like=a)

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g * a.data, b.shape))

    return _make(a.data * b.data, (a, b), backward)


def powi(a, exponent):
    """Elementwise power with a constant exponent."""
    a = _as_tensor(a)
    out_data = a.data ** exponent

    def backward(g):
        if a.requires_grad:
            a._accumulate(g * exponent * a.data ** (exponent - 1))

    return _make(out_data, (a,), backward)


def exp(a):
    a = _as_tensor(a)
    out_data = np.exp(a.data)

    def backward(g):
        if a.requires_grad:
            a._accumulate(g * out_data)

    return _make(out_data, (a,), backward)


def log(a):
    a = _as_tensor(a)

    def backward(g):
        if a.requires_grad:
            a._accumulate(g / a.data)

    return _make(np.log(a.data), (a,), backward)


def relu(a):
    a = _as_tensor(a)

    def backward(g):
        if a.requires_grad:
            a._accumulate(g * (a.data > 0), owned=True)

    return _make(np.maximum(a.data, 0), (a,), backward)


def matmul(a, b):
    """Matrix product; supports leading batch dimensions (must match)."""
    a = _as_tensor(a)
    b = _as_tensor(b)
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeError(f"matmul inner extents disagree: {a.shape} vs {b.shape}")
    if a.data.shape[:-2] != b.data.shape[:-2]:
        raise ShapeError(f"matmul batch extents disagree: {a.shape} vs {b.shape}")

    def backward(g):
        if a.requires_grad:
            a._accumulate(np.matmul(g, np.swapaxes(b.data, -1, -2)))
        if b.requires_grad:
            b._accumulate(np.matmul(np.swapaxes(a.data, -1, -2), g))

    return _make(np.matmul(a.data, b.data), (a, b), backward)


def softmax(a, axis=-1):
    """Numerically stable softmax along `axis` (max-subtracted)."""
    a = _as_tensor(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        if a.requires_grad:
            dot = (g * s).sum(axis=axis, keepdims=True)
            a._accumulate(s * (g - dot))

    return _make(s, (a,), backward)


def tsum(a, axis=None, keepdims=False):
    a = _as_tensor(a)
    out_data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        if a.requires_grad:
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            a._accumulate(g)  # broadcast to a's shape

    return _make(out_data, (a,), backward)


def tmean(a, axis=None, keepdims=False):
    a = _as_tensor(a)
    out_data = a.data.mean(axis=axis, keepdims=keepdims)
    count = a.data.size // max(out_data.size, 1)

    def backward(g):
        if a.requires_grad:
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            a._accumulate(g / count)

    return _make(out_data, (a,), backward)


def reshape(a, shape):
    a = _as_tensor(a)
    old_shape = a.shape

    def backward(g):
        if a.requires_grad:
            a._accumulate(g.reshape(old_shape))

    return _make(a.data.reshape(shape), (a,), backward)


def transpose(a, axes):
    a = _as_tensor(a)
    inverse = np.argsort(axes)

    def backward(g):
        if a.requires_grad:
            a._accumulate(g.transpose(inverse))

    return _make(a.data.transpose(axes), (a,), backward)


def concat(tensors, axis=1):
    """Concatenate; backward splits by offsets."""
    tensors = [_as_tensor(t) for t in tensors]
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                idx = [slice(None)] * g.ndim
                idx[axis] = slice(lo, hi)
                t._accumulate(g[tuple(idx)])

    return _make(np.concatenate([t.data for t in tensors], axis=axis), tensors, backward)


def gather_pixels(x, batch_idx, row_idx, col_idx):
    """Select pixel vectors from an N,C,H,W tensor; returns M,C."""
    x = _as_tensor(x)
    batch_idx = np.asarray(batch_idx)
    row_idx = np.asarray(row_idx)
    col_idx = np.asarray(col_idx)
    out_data = x.data[batch_idx, :, row_idx, col_idx]

    def backward(g):
        if x.requires_grad:
            gx = np.zeros((x.shape[0], *x.shape[2:], x.shape[1]), dtype=x.data.dtype)
            np.add.at(gx, (batch_idx, row_idx, col_idx), g)
            x._accumulate(gx.transpose(0, 3, 1, 2), owned=True)

    return _make(out_data, (x,), backward)


# ---------------------------------------------------------------------------
# FRMT on-disk tensor format: magic 'FRMT', u32 version, u32 rank,
# u32 extents, then little-endian float32 payload.

FRMT_MAGIC = b"FRMT"
FRMT_VERSION = 1
_MAX_RANK = 64


class FormatError(ValueError):
    pass


def save_array(f, arr):
    arr = np.ascontiguousarray(arr, dtype="<f4")
    f.write(FRMT_MAGIC)
    f.write(struct.pack("<II", FRMT_VERSION, arr.ndim))
    f.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
    f.write(arr.tobytes())


def read_exact(f, count, name, what):
    """Read exactly `count` bytes; a short read is a FormatError.

    A count beyond the bytes left in a seekable stream fails before the read,
    so a garbled length never asks for a huge buffer.
    """
    if f.seekable():
        here = f.tell()
        left = f.seek(0, 2) - here
        f.seek(here)
        if count > left:
            raise FormatError(f"{name}: truncated {what} ({count} bytes needed, {left} left)")
    data = f.read(count)
    if len(data) != count:
        raise FormatError(f"{name}: truncated {what}")
    return data


def load_array(f, name="<stream>"):
    magic = f.read(4)
    if magic != FRMT_MAGIC:
        raise FormatError(f"{name}: bad magic {magic!r}, expected {FRMT_MAGIC!r}")
    version, rank = struct.unpack("<II", read_exact(f, 8, name, "header"))
    if version != FRMT_VERSION:
        raise FormatError(f"{name}: unsupported version {version}")
    if rank > _MAX_RANK:  # numpy's limit; it also keeps the element count printable
        raise FormatError(f"{name}: rank {rank} is above {_MAX_RANK}")
    shape = struct.unpack(f"<{rank}I", read_exact(f, 4 * rank, name, "extents"))
    count = math.prod(shape)  # a Python int: garbled extents cannot wrap
    payload = read_exact(f, 4 * count, name, "payload")
    return np.frombuffer(payload, dtype="<f4").reshape(shape).copy()


def save_tensor_file(path, arr):
    with open(path, "wb") as f:
        save_array(f, arr)


def load_tensor_file(path):
    """The one array of an FRMT file; bytes past its payload are a FormatError."""
    with open(path, "rb") as f:
        arr = load_array(f, name=str(path))
        if f.read(1):
            raise FormatError(f"{path}: bytes past the payload")
        return arr
