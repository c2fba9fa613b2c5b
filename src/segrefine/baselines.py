"""Pyramid-pooling context heads (PPM and its deep-aggregation variant).

Both consume the same concatenated multi-stage tensor as the refinement
head and emit the same decoder width, so the three heads are drop-in
interchangeable in the model.
"""

from __future__ import annotations

from . import tensor as T
from .layers import Conv2d, Module, adaptive_avg_pool, bilinear_upsample
from .refine import ContextHead
from .tensor import ContractError, Tensor


class PpmHead(ContextHead):
    """Per-bin adaptive pooling, 1x1 convs to in/4 channels, upsample,
    concat, fuse."""

    def __init__(self, stage_channels, out_channels, bins, rng=None):
        super().__init__()
        in_c = sum(stage_channels)
        self.bins = tuple(bins)
        bc = max(in_c // 4, 1)
        for i in range(len(self.bins)):
            setattr(self, f"branch{i}", Conv2d(in_c, bc, 1, rng=rng))
        self.fuse = Conv2d(in_c + bc * len(self.bins), out_channels, 1, rng=rng)

    def check_extent(self, h, w):  # adaptive pooling cannot grow a map
        for bin_size in self.bins:
            if bin_size > h or bin_size > w:
                raise ContractError(f"ppm bin {bin_size} exceeds input extent {h}x{w}")

    def context(self, x: Tensor) -> Tensor:
        _, _, h, w = x.shape
        self.check_extent(h, w)
        feats = [x]
        for i, bin_size in enumerate(self.bins):
            conv = getattr(self, f"branch{i}")
            pooled = conv(adaptive_avg_pool(x, bin_size, bin_size))
            feats.append(bilinear_upsample(pooled, h, w))
        return self.fuse(T.concat(feats, axis=1))


class DappmHead(ContextHead):
    """Hierarchical pyramid pooling: each branch adds the previous branch's
    output to its pooled input before a 3x3 fusion conv; branches (in/4
    channels each) are then concatenated and compressed."""

    def __init__(self, stage_channels, out_channels, scales, rng=None):
        super().__init__()
        in_c = sum(stage_channels)
        self.scales = tuple(scales)  # pooling downsample factors; 0 means global
        bc = max(in_c // 4, 1)
        self.branch0 = Conv2d(in_c, bc, 1, rng=rng)
        for i in range(len(self.scales)):
            setattr(self, f"pool_conv{i + 1}", Conv2d(in_c, bc, 1, rng=rng))
            setattr(self, f"fuse{i + 1}", Conv2d(bc, bc, 3, pad=1, rng=rng))
        self.compress = Conv2d(bc * (len(self.scales) + 1), out_channels, 1, rng=rng)

    def context(self, x: Tensor) -> Tensor:
        _, _, h, w = x.shape
        outputs = [self.branch0(x)]
        for i, scale in enumerate(self.scales):
            if scale == 0:
                ph = pw = 1
            else:
                ph = max(h // scale, 1)
                pw = max(w // scale, 1)
            pooled = getattr(self, f"pool_conv{i + 1}")(adaptive_avg_pool(x, ph, pw))
            pooled = bilinear_upsample(pooled, h, w)
            fused = getattr(self, f"fuse{i + 1}")(pooled + outputs[-1])
            outputs.append(fused)
        return self.compress(T.concat(outputs, axis=1))
