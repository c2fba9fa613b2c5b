"""Central finite-difference verification of every backward rule, and the
oracle table of the convolution fast paths: `ORACLE_ROWS` has one row per
path `Conv2d.forward` can take (no-grad Winograd and no-grad im2col, each
plain and with a `ConvBnRelu`'s batch norm + ReLU epilogue; the 1x1 GEMM and
the depthwise per-tap paths, each no-grad and recorded; recorded im2col and
recorded Winograd), plus one for a training `ConvBnRelu`, whose batch norm and
ReLU are one recorded op after a recorded Winograd or im2col conv, and one for
an eval `ConvBnRelu` run by `ConvBnRelu.bands` from a row source, as the FPN
decoder's smoothing blocks run with no graph, and one for the im2col and
depthwise kernels as row sources (`Conv2d.rows`), chained as the backbone
chains its stem (`ConvBnRelu.rows`). Each is
checked against the direct float64 `conv_reference` on NCHW-contiguous and on
channels-last inputs, and `segrefine oracle` prints one line per row.
`resample_deviation` checks banded resampling against the dense float64
product in the same way.

Checks rebuild each component in float64 (single-precision finite
differences are too noisy) and compare analytic gradients element by
element. Relative error uses max(|analytic|, |numeric|, 1e-2) as the
denominator so near-zero gradients are judged on an absolute scale.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

import numpy as np

from . import tensor as T
from .config import LossConfig, ModelConfig
from .datagen import IGNORE_INDEX
from .layers import (
    _WINOGRAD_MIN_CHANNELS,
    _array_sink,
    _array_source,
    _bn_relu,
    _chunks,
    BatchNorm2d,
    Conv2d,
    ConvBnRelu,
    adaptive_avg_pool,
    bilinear_upsample,
    resample_matrix,
)
from .losses import cross_entropy, hybrid_loss
from .model import SegModel
from .refine import DisentangledAttention, FeatureRefineHead, FeaturePyramid
from .tensor import Tensor

TOLERANCE = 1e-5


def finite_difference(f, tensors, step=1e-4, max_elements=None, rng=None):
    """Worst relative error of analytic vs central-difference gradients.

    f is a deterministic closure returning a scalar Tensor built from
    `tensors` (float64). `max_elements` subsamples large tensors (seeded).
    """
    for t in tensors:
        t.zero_grad()
    f().backward()
    analytic = [np.array(t.grad if t.grad is not None else np.zeros_like(t.data)) for t in tensors]
    worst = 0.0
    for t, a in zip(tensors, analytic):
        flat = t.data.reshape(-1)
        n_el = flat.size
        idx = np.arange(n_el)
        if max_elements is not None and n_el > max_elements:
            r = rng if rng is not None else np.random.default_rng(0)
            idx = r.choice(n_el, max_elements, replace=False)
        aflat = a.reshape(-1)
        for i in idx:
            orig = flat[i]
            flat[i] = orig + step
            hi = f().item()
            flat[i] = orig - step
            lo = f().item()
            flat[i] = orig
            numeric = (hi - lo) / (2 * step)
            err = abs(aflat[i] - numeric) / max(abs(aflat[i]), abs(numeric), 1e-2)
            worst = max(worst, err)
    return worst


def _rand(rng, *shape):
    return Tensor(rng.standard_normal(shape), requires_grad=True)


def _module_check(module, make_input, loss_of):
    module.cast(np.float64)
    x = make_input()
    return finite_difference(lambda: loss_of(module, x), [x] + module.parameters())


def _weighted_sum(out, rng):
    # fixed random weights make the scalar sensitive to every output element
    w = Tensor(rng.standard_normal(out.shape))
    return T.tsum(out * w)


def component_checks(seed=0):
    """Run the finite-difference suite; returns [(component, worst error)]."""
    results = []

    def run(name, fn):
        results.append((name, fn(np.random.default_rng(seed + len(results)))))

    def simple(build):
        def fn(rng):
            tensors, f = build(rng)
            return finite_difference(f, tensors)

        return fn

    run("matmul", simple(lambda rng: (
        [a := _rand(rng, 5, 7), b := _rand(rng, 7, 3)],
        lambda: _weighted_sum(T.matmul(a, b), np.random.default_rng(1)),
    )))
    run("softmax", simple(lambda rng: (
        [x := _rand(rng, 3, 9)],
        lambda: _weighted_sum(T.softmax(x, axis=1), np.random.default_rng(2)),
    )))
    run("elementwise", simple(lambda rng: (
        [a := _rand(rng, 2, 3, 4, 4), b := _rand(rng, 2, 3, 4, 4)],
        lambda: T.tsum(a * b + T.exp(T.mul(a, 0.3)) - T.powi(b * b + 1.0, 0.5)),
    )))
    run("reductions", simple(lambda rng: (
        [x := _rand(rng, 2, 5, 3, 3)],
        lambda: T.tsum(
            T.tmean(x, axis=(2, 3)) * Tensor(np.random.default_rng(3).standard_normal((2, 5)))
        ) + T.tmean(x) * T.tsum(x),
    )))
    run("concat_reshape", simple(lambda rng: (
        [a := _rand(rng, 1, 2, 3, 3), b := _rand(rng, 1, 4, 3, 3)],
        lambda: _weighted_sum(
            T.concat([a, b], axis=1).reshape(1, 6, 9).transpose(0, 2, 1),
            np.random.default_rng(4),
        ),
    )))

    def conv_check(rng, **kwargs):
        conv = Conv2d(rng=rng, **kwargs)
        return _module_check(
            conv,
            lambda: _rand(rng, 2, kwargs["in_c"], 6, 6),
            lambda m, x: _weighted_sum(m(x), np.random.default_rng(5)),
        )

    run("conv1x1", lambda rng: conv_check(rng, in_c=3, out_c=5, kernel=1))
    run("conv3x3", lambda rng: conv_check(rng, in_c=3, out_c=4, kernel=3, stride=2, pad=1))
    run("depthwise", lambda rng: conv_check(rng, in_c=4, out_c=4, kernel=3, pad=1, groups=4))

    def bn_check(rng):
        bn = BatchNorm2d(4)
        return _module_check(
            bn,
            lambda: _rand(rng, 3, 4, 5, 5),
            lambda m, x: _weighted_sum(m(x), np.random.default_rng(6)),
        )

    run("batchnorm", bn_check)
    run("adaptive_pool", simple(lambda rng: (
        [x := _rand(rng, 1, 3, 7, 7)],
        lambda: _weighted_sum(adaptive_avg_pool(x, 3, 3), np.random.default_rng(7)),
    )))
    run("bilinear_upsample", simple(lambda rng: (
        [x := _rand(rng, 1, 2, 3, 3)],
        lambda: _weighted_sum(bilinear_upsample(x, 7, 5), np.random.default_rng(8)),
    )))
    run("relu", simple(lambda rng: (
        # keep inputs away from the kink so central differences are valid
        [x := Tensor(rng.standard_normal((2, 3, 4, 4)) + 0.5 * np.sign(rng.standard_normal((2, 3, 4, 4))), requires_grad=True)],
        lambda: _weighted_sum(T.relu(x), np.random.default_rng(9)),
    )))

    def attention_check(rng):
        block = DisentangledAttention(8, rng=rng)
        return _module_check(
            block,
            lambda: _rand(rng, 1, 8, 3, 3),
            lambda m, x: _weighted_sum(m(x), np.random.default_rng(10)),
        )

    run("attention", attention_check)

    def refine_check(rng):
        head = FeatureRefineHead((2, 2, 2, 2), 4, ffn_expansion=2, rng=rng)
        head.cast(np.float64)
        pyr = FeaturePyramid(
            _rand(rng, 1, 2, 8, 8), _rand(rng, 1, 2, 4, 4),
            _rand(rng, 1, 2, 2, 2), _rand(rng, 1, 2, 1, 1),
        )
        tensors = pyr.stages() + head.parameters()
        return finite_difference(
            lambda: _weighted_sum(head(pyr), np.random.default_rng(11)), tensors)

    run("refine_head", refine_check)

    def ce_check(rng):
        logits = _rand(rng, 1, 4, 3, 3)
        labels = rng.integers(0, 4, size=(1, 3, 3))
        labels[0, 0, 0] = IGNORE_INDEX
        return finite_difference(lambda: cross_entropy(logits, labels)[0], [logits])

    run("cross_entropy", ce_check)

    def hybrid_check(rng):
        logits = _rand(rng, 1, 3, 8, 8)
        emb = _rand(rng, 1, 4, 4, 4)
        labels = rng.integers(0, 3, size=(1, 8, 8))
        cfg = LossConfig(lam=1.0, tau=0.5)

        def f():
            return hybrid_loss(logits, emb, labels, cfg, np.random.default_rng(12))[0]

        return finite_difference(f, [logits, emb])

    run("hybrid_loss", hybrid_check)

    def model_check(rng):
        cfg = ModelConfig(channels=(4, 4, 4, 4), decoder_channels=8, num_classes=3,
                          ffn_expansion=2, embed_dim=4)
        model = SegModel(cfg, rng=rng).cast(np.float64)
        model.train()
        # 64x64 keeps the last stage at 2x2: with a 1x1 stage, batch norm
        # collapses to its zero shift, parking the ReLU exactly on its kink
        image = _rand(rng, 1, 3, 64, 64)
        labels = rng.integers(0, 3, size=(1, 64, 64))
        loss_cfg = LossConfig(lam=1.0, tau=0.5)

        def f():
            out = model(image, train_mode=True)
            return hybrid_loss(out["logits"], out["embeddings"], labels, loss_cfg,
                               np.random.default_rng(13))[0]

        # smaller step: embedding L2-normalization has high curvature when a
        # sampled embedding's norm is small; 1e-4 is not in its linear regime
        return finite_difference(
            f, [image] + model.parameters(), step=1e-6,
            max_elements=6, rng=np.random.default_rng(14),
        )

    run("full_model", model_check)
    return results


def conv_reference(x, w, b, grad, stride, pad, groups):
    """Direct float64 convolution and its gradients, tap by tap; no im2col.

    Each kernel tap (i, j) sees one strided window of the padded input: the
    output adds an einsum of that window with the tap's weights, the weight
    gradient is an einsum of the window with the output gradient `grad`, and
    the input gradient adds the tap's weights times `grad` back into the same
    window. Returns (out, grad_x, grad_w, grad_b).
    """
    x, w, b, grad = (np.asarray(a, np.float64) for a in (x, w, b, grad))
    n, c, h, wd = x.shape
    oc, cg, k, _ = w.shape
    oh, ow = grad.shape[2:]
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    xp = xp.reshape(n, groups, cg, h + 2 * pad, wd + 2 * pad)
    wg = w.reshape(groups, oc // groups, cg, k, k)
    gg = grad.reshape(n, groups, oc // groups, oh, ow)
    out = np.zeros(gg.shape)
    gxp, gw = np.zeros(xp.shape), np.zeros(wg.shape)
    for i in range(k):
        for j in range(k):
            tap = (..., slice(i, i + stride * (oh - 1) + 1, stride),
                   slice(j, j + stride * (ow - 1) + 1, stride))
            out += np.einsum("goc,ngchw->ngohw", wg[..., i, j], xp[tap])
            gw[..., i, j] = np.einsum("ngohw,ngchw->goc", gg, xp[tap])
            gxp[tap] += np.einsum("goc,ngohw->ngchw", wg[..., i, j], gg)
    gx = gxp.reshape(n, c, h + 2 * pad, wd + 2 * pad)[:, :, pad : pad + h, pad : pad + wd]
    out = out.reshape(n, oc, oh, ow) + b[None, :, None, None]
    return out, gx, gw.reshape(w.shape), grad.sum(axis=(0, 2, 3))


class OracleRow(NamedTuple):
    """One convolution fast path, swept against `conv_reference` by `oracle_deviation`.

    Each conv of `convs`, (in_c, out_c, kernel, stride, pad, groups), runs at
    each batch of `batches` over each (h, w) of `extents` its kernel fits. A
    `recorded` row records a graph and also judges the input, weight and bias
    gradients. A `block` row runs each conv as the bias-free conv of a
    `ConvBnRelu` (so its convs are 3x3, pad 1, one group): an eval one with no
    graph, judged on its output, or, when `recorded`, a training one, judged
    on its output, its input, weight, scale and shift gradients and its
    updated running statistics. A `banded` block row runs each eval block by
    `ConvBnRelu.bands`, its input rows written by a callable source as the
    kernel asks for them and its output scattered band by band. A `chained`
    row runs each conv with no graph and a drawn eval batch norm + ReLU
    epilogue as a row source (`Conv2d.rows`), asked for one output row of one
    image at a time, so every band carries rows from the one above; alone, and
    feeding the band of a stride-2 eval `ConvBnRelu` (`ConvBnRelu.rows`), as
    the backbone's stem blocks run. It judges both outputs; an NCHW input is
    banded in its own order, as the backbone bands an image.
    `bounds` maps each dtype to the worst deviation allowed.
    """

    label: str
    convs: tuple
    extents: tuple
    batches: tuple
    recorded: bool
    bounds: dict
    block: bool = False
    banded: bool = False
    chained: bool = False

    def cases(self):
        """(conv, batch, h, w, channels_last) for every case of the sweep: each
        input is drawn NCHW-contiguous and, again, laid out channels-last; a
        `banded` row's only channels-last, as the decoder's maps are."""
        layouts = (True,) if self.banded else (False, True)
        return [(conv, n, h, w, last) for conv, n, (h, w), last
                in itertools.product(self.convs, self.batches, self.extents, layouts)
                if min(h, w) + 2 * conv[4] >= conv[2]]


# the sweep of the no-grad and recorded rows of the 1x1, depthwise and im2col
# paths: 4 input channels, so groups 4 is depthwise, and too few for Winograd,
# so the 3x3 stride-1 pad-1 convs take im2col too
_SWEEP = tuple((4, 4 if g == 4 else 6, k, s, p, g)
               for k in (1, 3) for s in (1, 2) for p in (0, 1) for g in (1, 2, 4))
_POINTWISE = OracleRow("1x1 conv", tuple(c for c in _SWEEP if c[2:] == (1, 1, 0, 1)),
                       ((1, 1), (2, 33), (5, 7)), (1, 3), False,
                       {np.float32: 1e-5, np.float64: 1e-12})
_DEPTHWISE = _POINTWISE._replace(label="depthwise conv",
                                 convs=tuple(c for c in _SWEEP if c[5] == 4))
_IM2COL = _POINTWISE._replace(label="im2col conv", convs=tuple(
    c for c in _SWEEP if c not in _POINTWISE.convs + _DEPTHWISE.convs))
# the Winograd rows: 3x3 stride-1 pad-1 convs wide enough for Winograd, on
# whole tiles and ragged ones; the no-grad rows leave out the widest output
_WINOGRAD_CONVS = tuple((i, o, 3, 1, 1, 1) for i, o in (
    (_WINOGRAD_MIN_CHANNELS, _WINOGRAD_MIN_CHANNELS), (_WINOGRAD_MIN_CHANNELS + 8, 16),
    (_WINOGRAD_MIN_CHANNELS, 48)))
_WINOGRAD = OracleRow("winograd conv", _WINOGRAD_CONVS[:2],
                      ((4, 8), (5, 7), (13, 17), (16, 16)), (2,), False,
                      {np.float32: 1e-4, np.float64: 1e-12})

# the ConvBnRelu convs narrow enough for im2col: stride 1 and stride 2
_BLOCK_IM2COL = tuple((4, 6, 3, s, 1, 1) for s in (1, 2))

# every path Conv2d.forward can take, one row each, in `segrefine oracle` order
ORACLE_ROWS = (
    _WINOGRAD,
    _WINOGRAD._replace(label="winograd conv + bn relu epilogue", block=True),
    _POINTWISE,
    _POINTWISE._replace(label="recorded 1x1 conv gradients", recorded=True),
    _DEPTHWISE,
    _DEPTHWISE._replace(label="recorded depthwise conv gradients", recorded=True),
    _IM2COL,
    _IM2COL._replace(label="im2col conv + bn relu epilogue", convs=_BLOCK_IM2COL, block=True),
    _IM2COL._replace(label="recorded conv gradients", recorded=True),
    _WINOGRAD._replace(label="recorded winograd conv gradients", convs=_WINOGRAD_CONVS,
                       batches=(1, 3), recorded=True),
    # a training ConvBnRelu on Winograd and im2col convs
    _WINOGRAD._replace(label="recorded conv + bn relu", convs=_WINOGRAD.convs + _BLOCK_IM2COL,
                       recorded=True, block=True),
    # an eval ConvBnRelu on a row source and a band sink; at 13x1024 a chunk is a band of
    # one or two tile rows, so each band takes two input rows from the band above
    _WINOGRAD._replace(label="winograd conv + bn relu epilogue, row source", block=True,
                       banded=True, convs=_WINOGRAD_CONVS[:1],
                       extents=_WINOGRAD.extents + ((13, 1024),)),
    # im2col at stride 1 and 2, a 3-channel one as the stem's first block, a 1x1 stride-2
    # one whose bands share no rows, and depthwise at stride 1 and 2; drawn after the
    # resampling check (`ROWS_BEFORE_RESAMPLING`)
    _IM2COL._replace(label="im2col and depthwise conv + bn relu epilogue, chained row source",
                     convs=((3, 6, 3, 2, 1, 1), (4, 6, 3, 1, 1, 2), (4, 6, 1, 2, 0, 1),
                            (4, 4, 3, 1, 1, 4), (4, 4, 3, 2, 0, 4)),
                     extents=((2, 33), (5, 7), (13, 6)), batches=(2,), chained=True),
)
# `segrefine oracle` checks banded resampling after this many rows: a row added later is
# drawn after it, so the lines above keep their draws and their numbers
ROWS_BEFORE_RESAMPLING = 12


def _deviation(got, want, worst):
    """The larger of `worst` and each pair's max |got - want| relative to its max |want|."""
    for a, ref in zip(got, want):
        # an all-zero reference (taps that see only padding) counts absolutely;
        # np.maximum keeps a NaN, so it fails the bound
        dev = np.abs(a - ref).max() / (np.abs(ref).max() or 1.0)
        worst = float(np.maximum(worst, dev))
    return worst


def _drawn_statistics(bn, dtype, rng):
    """`bn` with drawn scale, shift and running statistics in `dtype`."""
    c = bn.channels
    bn.scale.data, bn.shift.data, bn.running_mean = (
        rng.standard_normal(c).astype(dtype) for _ in range(3))
    bn.running_var = rng.uniform(0.2, 3.0, c).astype(dtype)
    return bn


def bn_relu_reference(out, bn):
    """Eval batch norm of `out` in float64 from `bn`'s running statistics, then ReLU."""
    mean, var, gamma, beta = (np.asarray(a, np.float64)[None, :, None, None] for a in (
        bn.running_mean, bn.running_var, bn.scale.data, bn.shift.data))
    return np.maximum((out - mean) / np.sqrt(var + bn.EPS) * gamma + beta, 0)


def train_bn_relu_reference(y, grad, gamma, beta, running_mean, running_var):
    """Training batch norm of `y` (n, c, h, w) in float64 by its batch statistics, then ReLU.

    Returns the output, the gradients of `y`, the scale and the shift for the output
    gradient `grad`, and the running mean and (biased) variance moved by `BatchNorm2d`'s
    momentum from `running_mean` and `running_var`.
    """
    gamma, beta = (np.asarray(a, np.float64)[None, :, None, None] for a in (gamma, beta))
    axes, count = (0, 2, 3), y.size // y.shape[1]
    mean, var = y.mean(axis=axes), y.var(axis=axes)
    xhat = (y - mean[None, :, None, None]) / np.sqrt(var + BatchNorm2d.EPS)[None, :, None, None]
    out = np.maximum(xhat * gamma + beta, 0)
    g = np.where(out > 0, grad, 0.0)
    gbeta, ggamma = g.sum(axis=axes), (g * xhat).sum(axis=axes)
    gy = gamma / np.sqrt(var + BatchNorm2d.EPS)[None, :, None, None] / count * (
        count * g - gbeta[None, :, None, None] - xhat * ggamma[None, :, None, None])
    m = BatchNorm2d.MOMENTUM
    moved = ((1 - m) * np.asarray(old, np.float64) + m * new
             for old, new in ((running_mean, mean), (running_var, var)))
    return (out, gy, ggamma, gbeta, *moved)


def oracle_deviation(row, dtype, rng):
    """Worst deviation of `row`'s cases in `dtype` from `conv_reference`.

    Each case draws its conv, a bias, an input (NCHW-contiguous, or
    channels-last) and, for a recorded row, an output gradient; a block row
    draws batch norm parameters and running statistics instead of a bias, and
    its reference is `conv_reference` followed by `bn_relu_reference` (eval) or
    `train_bn_relu_reference` (training), whose input gradient `conv_reference`
    takes back through the conv. Each array judged is relative to its max
    |reference|.
    """
    if row.chained:
        return _chained_deviation(row, dtype, rng)
    worst = 0.0
    for (in_c, out_c, k, s, p, g), n, h, w, last in row.cases():
        if row.block:
            block = ConvBnRelu(in_c, out_c, stride=s, rng=rng).cast(dtype).train(row.recorded)
            conv, bn = block.conv, _drawn_statistics(block.bn, dtype, rng)
            stats = (bn.scale.data, bn.shift.data, bn.running_mean, bn.running_var)
            bias = np.zeros(out_c)
        else:
            block = conv = Conv2d(in_c, out_c, k, stride=s, pad=p, groups=g, rng=rng).cast(dtype)
            conv.bias.data = bias = rng.standard_normal(out_c).astype(dtype)
        x = rng.standard_normal((n, h, w, in_c) if last else (n, in_c, h, w)).astype(dtype)
        x = Tensor(x.transpose(0, 3, 1, 2) if last else x, requires_grad=row.recorded)
        geometry = (conv.stride, conv.pad, conv.groups)
        if row.recorded:
            out = block(x)
            grad = rng.standard_normal(out.shape).astype(dtype)
            want = conv_reference(x.data, conv.weight.data, bias, grad, *geometry)
            got_out = out.data.copy()
            if row.block:  # batch norm hands the conv its output gradient
                ref_out, gy, *bn_want = train_bn_relu_reference(want[0], grad, *stats)
                _, gx, gw, _ = conv_reference(x.data, conv.weight.data, bias, gy, *geometry)
                want = (ref_out, gx, gw, *bn_want)
                # judge the gradients with the reference's ReLU mask: the op's backward takes
                # its mask from its output, so an output within rounding of the kink that fell
                # on the other side of it would fail a correct backward
                np.copyto(out.data, ref_out)
            T.tsum(out * Tensor(grad)).backward()
            got = (got_out, x.grad, conv.weight.grad) + (
                (bn.scale.grad, bn.shift.grad, bn.running_mean, bn.running_var) if row.block
                else (conv.bias.grad,))
        else:
            with T.no_grad():
                if row.banded:  # each band's rows copied as the kernel asks for them
                    out = np.empty((n, h, w, out_c), dtype)
                    block.bands(_array_source(x.data.transpose(0, 2, 3, 1)), _array_sink(out),
                                (n, h, w), dtype)
                    got = (out.transpose(0, 3, 1, 2),)
                else:
                    got = (block(x).data,)
            want = conv_reference(x.data, conv.weight.data, bias, np.zeros(got[0].shape),
                                  *geometry)[:1]
            if row.block:
                want = (bn_relu_reference(want[0], bn),)
        worst = _deviation(got, want, worst)  # a no-grad row stops at the output
    return worst


def _asked_row_by_row(rows, shape, dtype):
    """The (n, oh, ow, c) array of `shape` the row source `rows` writes, asked for one output
    row of one image at a time."""
    out = np.empty(shape, dtype)
    for i, _, r, _ in _chunks(shape[0], shape[1], 1, 1):
        rows(out[i : i + 1, r : r + 1], i, r, r + 1)
    return out


def _chained_deviation(row, dtype, rng):
    """Worst deviation of a `chained` row's cases in `dtype` from `conv_reference`, each
    followed by `bn_relu_reference`: the conv's rows alone, then through a stride-2 block."""
    worst = 0.0
    for (in_c, out_c, k, s, p, g), n, h, w, last in row.cases():
        conv = Conv2d(in_c, out_c, k, stride=s, pad=p, groups=g, bias=False, rng=rng).cast(dtype)
        bn = _drawn_statistics(BatchNorm2d(out_c).cast(dtype).eval(), dtype, rng)
        block = ConvBnRelu(out_c, out_c, stride=2, rng=rng).cast(dtype).eval()
        _drawn_statistics(block.bn, dtype, rng)
        x = rng.standard_normal((n, h, w, in_c) if last else (n, in_c, h, w)).astype(dtype)
        x = x.transpose(0, 3, 1, 2) if last else x

        def rows():
            return conv.rows(_array_source(x.transpose(0, 2, 3, 1)), (n, h, w), dtype, not last,
                             _epilogue=_bn_relu(bn))

        want = bn_relu_reference(conv_reference(x, conv.weight.data, np.zeros(out_c), np.zeros(
            (n, out_c, (h + 2 * p - k) // s + 1, (w + 2 * p - k) // s + 1)), s, p, g)[0], bn)
        oh, ow = want.shape[2:]
        chained = bn_relu_reference(conv_reference(
            want, block.conv.weight.data, np.zeros(out_c),
            np.zeros((n, out_c, (oh - 1) // 2 + 1, (ow - 1) // 2 + 1)), 2, 1, 1)[0], block.bn)
        with T.no_grad():
            got = (_asked_row_by_row(rows(), (n, oh, ow, out_c), dtype),
                   _asked_row_by_row(block.rows(rows(), (n, oh, ow), dtype, False),
                                     (n, *chained.shape[2:], out_c), dtype))
        worst = _deviation([a.transpose(0, 3, 1, 2) for a in got], (want, chained), worst)
    return worst


# resampling sweep of `resample_deviation`, (in h, in w, out h, out w, kind):
# several band blocks per axis up, down and at non-integer ratios, and pooling
RESAMPLE_CASES = (
    (16, 24, 64, 96, "bilinear"),
    (32, 64, 128, 256, "bilinear"),
    (64, 96, 16, 24, "bilinear"),
    (45, 70, 97, 33, "bilinear"),
    (96, 130, 6, 40, "pool"),
)
RESAMPLE_BOUNDS = {np.float32: 1e-5, np.float64: 1e-12}


def resample_deviation(dtype, rng):
    """Worst deviation of banded resampling in `dtype` from the dense float64 product.

    Each case of `RESAMPLE_CASES` runs forward and backward through
    `bilinear_upsample` or `adaptive_avg_pool`; the reference is Rh x Rw.T,
    and Rh.T g Rw for the gradient, with the float64 matrices.
    """
    worst = 0.0
    for h, w, oh, ow, kind in RESAMPLE_CASES:
        x = Tensor(rng.standard_normal((2, 3, h, w)).astype(dtype), requires_grad=True)
        out = (bilinear_upsample if kind == "bilinear" else adaptive_avg_pool)(x, oh, ow)
        grad = rng.standard_normal(out.shape).astype(dtype)
        T.tsum(out * Tensor(grad)).backward()
        rh = resample_matrix(h, oh, kind, np.dtype(np.float64))
        rw = resample_matrix(w, ow, kind, np.dtype(np.float64))
        want = (rh @ x.data.astype(np.float64) @ rw.T, rh.T @ grad.astype(np.float64) @ rw)
        worst = _deviation((out.data, x.grad), want, worst)
    return worst


def run_suite(seed=0):
    """Print one line per component; returns True iff all pass TOLERANCE."""
    results = component_checks(seed=seed)
    ok = True
    for name, err in results:
        status = "ok" if err < TOLERANCE else "FAIL"
        print(f"{name:<20} worst rel err {err:.3e}  {status}")
        if err >= TOLERANCE:
            ok = False
    worst_name, worst_err = max(results, key=lambda kv: kv[1])
    print(f"worst component: {worst_name} ({worst_err:.3e})")
    return ok
