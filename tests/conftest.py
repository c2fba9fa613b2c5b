import numpy as np
import pytest

from segrefine.model import FpnDecoder
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


def record_calls(monkeypatch, owners, methods):
    """The list each call of one of `methods` on one of `owners` appends (method, args) to."""
    calls = []
    for owner in owners:
        for method in methods:
            def run(*args, call=getattr(owner, method), method=method):
                calls.append((method, args))
                return call(*args)

            monkeypatch.setattr(owner, method, run)
    return calls


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
    """`run(fn)` calls `fn()` with every `FpnDecoder` run as `compose`, the plain composition
    of its modules, each call a fresh array: the reference for the banded no-grad decoder."""
    def run(fn):
        with monkeypatch.context() as patch:
            patch.setattr(FpnDecoder, "forward", FpnDecoder.compose)
            return fn()

    return run
