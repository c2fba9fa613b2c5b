import numpy as np
import pytest

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
    """`run(fn)` calls `fn()` with `tensor.add` ignoring `into`, so every sum is a fresh
    array: the reference for the merges that add into an operand."""
    add = T.add

    def run(fn):
        with monkeypatch.context() as patch:
            patch.setattr(T, "add", lambda a, b, into=None: add(a, b))
            return fn()

    return run
