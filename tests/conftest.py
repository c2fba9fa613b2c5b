import numpy as np
import pytest

from segrefine import layers
from segrefine import tensor as T
from segrefine.tensor import Tensor


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def set_identity_1x1(conv):
    """Make a square 1x1 conv the identity map."""
    c = conv.in_c
    assert conv.out_c == c and conv.kernel == 1
    conv.weight.data = np.eye(c, dtype=conv.weight.dtype).reshape(c, c, 1, 1)
    if conv.bias is not None:
        conv.bias.data = np.zeros(c, dtype=conv.bias.dtype)


def zero_params(module):
    for p in module.parameters():
        p.data = np.zeros_like(p.data)


@pytest.fixture
def handed_gradients(monkeypatch):
    """id(tensor) -> the last array an op handed to that tensor's `_accumulate`."""
    handed = {}
    accumulate = Tensor._accumulate

    def spy(self, g, owned=False):
        handed[id(self)] = g
        accumulate(self, g, owned)

    monkeypatch.setattr(Tensor, "_accumulate", spy)
    return handed


@pytest.fixture
def fresh_sums(monkeypatch):
    """`run(fn)` calls `fn()` with every `into` ignored, so a resample added into an array
    and a `ConvBnRelu` each make a fresh array: the reference for the ops that write into an
    operand."""
    resample_op, block = layers._resample_op, layers.ConvBnRelu.forward

    def resample(x, out_h, out_w, kind, into=None):
        out = resample_op(x, out_h, out_w, kind)
        return out if into is None else T.add(into, out)

    def run(fn):
        with monkeypatch.context() as patch:
            patch.setattr(layers, "_resample_op", resample)
            patch.setattr(layers.ConvBnRelu, "forward", lambda self, x, into=None: block(self, x))
            return fn()

    return run
