"""Feature refinement head: multi-stage aggregation, disentangled non-local
attention, and a depthwise feed-forward block, followed by a channel cut.

The attention weight for a pair of positions is a whitened pairwise softmax
(query/key maps mean-centered over all positions of one image) plus a
query-independent unary softmax; every row of weights therefore sums to 2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .layers import Conv2d, Module, ReLU, adaptive_avg_pool
from .tensor import ContractError, ShapeError, Tensor


@dataclass
class FeaturePyramid:
    """The four backbone stage outputs at strides 4, 8, 16, 32."""

    f1: Tensor
    f2: Tensor
    f3: Tensor
    f4: Tensor

    def stages(self):
        return [self.f1, self.f2, self.f3, self.f4]

    def validate(self):
        n = self.f1.shape[0]
        for f in self.stages():
            if f.shape[0] != n:
                raise ShapeError(f"pyramid batch extents disagree: {n} vs {f.shape[0]}")
        prev = self.f1.shape
        for f in self.stages()[1:]:
            if f.shape[2] != prev[2] // 2 or f.shape[3] != prev[3] // 2:
                raise ShapeError(
                    f"pyramid strides must halve stage to stage, got {prev[2:]} -> {f.shape[2:]}"
                )
            prev = f.shape


def aggregate_stages(p: FeaturePyramid) -> Tensor:
    """Pool stages 1..3 to the last stage's size and concatenate all four."""
    p.validate()
    _, _, h, w = p.f4.shape
    pooled = [adaptive_avg_pool(f, h, w) for f in (p.f1, p.f2, p.f3)]
    return T.concat(pooled + [p.f4], axis=1)


class ContextHead(Module):
    """`context` maps the aggregated stages, at the deepest stage's extent, to decoder width."""

    def check_extent(self, h, w):
        """Raise ContractError unless `context` can take an h x w deepest stage."""

    def forward(self, p: FeaturePyramid) -> Tensor:
        return self.context(aggregate_stages(p))


class DisentangledAttention(Module):
    """Non-local block with whitened pairwise and unary softmax terms.

    query/key 1x1 convs reduce to floor(C/4) channels; a 1x1 conv produces
    the unary saliency map; the value transform and output projection are
    channel-preserving 1x1 convs. A residual connection wraps the block.
    """

    def __init__(self, channels, rng=None):
        super().__init__()
        if channels // 4 < 1:
            raise ContractError(f"attention needs channels >= 4, got {channels}")
        self.channels = channels
        self.qk_channels = channels // 4
        self.query = Conv2d(channels, self.qk_channels, 1, rng=rng)
        self.key = Conv2d(channels, self.qk_channels, 1, rng=rng)
        self.unary = Conv2d(channels, 1, 1, rng=rng)
        self.value = Conv2d(channels, channels, 1, rng=rng)
        self.proj = Conv2d(channels, channels, 1, rng=rng)

    def attention_weights(self, q, k, m):
        """The n,HW,HW weight matrix: whitened pairwise softmax plus the
        unary softmax (every row sums to 2)."""
        n = q.shape[0]
        hw = q.shape[2] * q.shape[3]
        qf = q.reshape(n, self.qk_channels, hw)
        kf = k.reshape(n, self.qk_channels, hw)
        mf = m.reshape(n, 1, hw)
        qw = qf - T.tmean(qf, axis=2, keepdims=True)
        kw = kf - T.tmean(kf, axis=2, keepdims=True)
        pair = T.softmax(T.matmul(qw.transpose(0, 2, 1), kw), axis=2)  # n,hw,hw
        unary = T.softmax(mf, axis=2)  # n,1,hw broadcast over queries
        return pair + unary

    def attend(self, x, q, k, m, v):
        """Attention math given the transformed maps (exposed for invariance tests)."""
        n, c, h, w = x.shape
        hw = h * w
        weights = self.attention_weights(q, k, m)
        vf = v.reshape(n, c, hw)
        y = T.matmul(weights, vf.transpose(0, 2, 1))  # n,hw,c
        return y.transpose(0, 2, 1).reshape(n, c, h, w)

    def forward(self, x):
        if x.shape[1] != self.channels:
            raise ShapeError(f"attention expects {self.channels} channels, got {x.shape[1]}")
        y = self.attend(x, self.query(x), self.key(x), self.unary(x), self.value(x))
        y = self.proj(y)  # rebinding frees the attention output before the add
        return x + y

    def attention_flops(self, x_shape):
        """Matmul and softmax cost of the pairwise/unary terms for an n,c,h,w input."""
        n, c, h, w = x_shape
        hw, cqk = h * w, self.qk_channels
        f = 2 * n * hw * hw * cqk  # whitened q.k inner products
        f += 2 * n * hw * hw * c  # weighted sum over values
        f += 3 * n * hw * hw + 3 * n * hw  # softmaxes and weight addition
        return f


class FeedForwardBlock(Module):
    """1x1 expand, 3x3 depthwise, ReLU, 1x1 reduce, with a residual add."""

    def __init__(self, channels, expansion, rng=None):
        super().__init__()
        hidden = channels * expansion
        self.expand = Conv2d(channels, hidden, 1, rng=rng)
        self.depthwise = Conv2d(hidden, hidden, 3, pad=1, groups=hidden, rng=rng)
        self.act = ReLU()
        self.reduce = Conv2d(hidden, channels, 1, rng=rng)

    def forward(self, x):
        y = self.reduce(self.act(self.depthwise(self.expand(x))))
        return x + y


class FeatureRefineHead(ContextHead):
    """Aggregate the pyramid, attend, run the FFN, and cut channels."""

    def __init__(self, stage_channels, out_channels, ffn_expansion, rng=None):
        super().__init__()
        in_c = sum(stage_channels)
        self.attention = DisentangledAttention(in_c, rng=rng)
        self.ffn = FeedForwardBlock(in_c, expansion=ffn_expansion, rng=rng)
        self.cut = Conv2d(in_c, out_channels, 1, rng=rng)

    def context(self, x: Tensor) -> Tensor:
        return self.cut(self.ffn(self.attention(x)))


def attention_reference(x, block: DisentangledAttention):
    """Literal per-pair evaluation of the disentangled attention output.

    Double loop over query and key positions in float64; the independent
    oracle the vectorized block is checked against. Reads the block's
    query/key/unary/value 1x1 conv weights and biases; returns the
    pre-projection, pre-residual output.
    """
    x = np.asarray(x, dtype=np.float64)
    n, c, h, w = x.shape
    hw = h * w

    def transform(conv):
        weight = conv.weight.data[:, :, 0, 0].astype(np.float64)
        out = np.einsum("oc,nchw->nohw", weight, x)
        out = out + conv.bias.data.astype(np.float64)[None, :, None, None]
        return out.reshape(n, -1, hw)

    q = transform(block.query)
    k = transform(block.key)
    m = transform(block.unary)[:, 0]
    v = transform(block.value)
    out = np.zeros((n, c, hw))
    for b in range(n):
        mu_q = q[b].mean(axis=1)
        mu_k = k[b].mean(axis=1)
        unary = np.exp(m[b] - m[b].max())
        unary = unary / unary.sum()
        for i in range(hw):
            logits = np.array(
                [(q[b, :, i] - mu_q) @ (k[b, :, j] - mu_k) for j in range(hw)]
            )
            pair = np.exp(logits - logits.max())
            pair = pair / pair.sum()
            for j in range(hw):
                out[b, :, i] += (pair[j] + unary[j]) * v[b, :, j]
    return out.reshape(n, c, h, w)
