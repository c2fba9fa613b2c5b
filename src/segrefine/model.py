"""End-to-end segmentation network: four-stage backbone, a pluggable
context head over the concatenated stages, an FPN-style decoder, and a
training-only embedding head.

With no graph recorded, the backbone chains its two stem blocks as row sources
(`Backbone.forward`), so the stride-2 map is never whole, and the decoder runs
each level whose smoothing conv takes Winograd as one banded kernel
(`FpnDecoder.forward`), so its merges and the stride-4 features are never whole
maps. `Backbone.compose` and `FpnDecoder.compose` are the same modules as plain
compositions, with the same bits. `SegModel.predict` gives the class mask alone: it
upsamples and arg-maxes the decoder's stride-4 logits by bands of output rows
(`layers.bilinear_argmax`), so the full-size logits are never built.
"""

from __future__ import annotations

import os
import struct
from dataclasses import fields

import numpy as np

from .baselines import DappmHead, PpmHead
from .config import ConfigError, ModelConfig, _coerce, format_value
from .layers import (
    Conv2d,
    ConvBnRelu,
    Module,
    _array_sink,
    _array_source,
    _fill,
    _merge_source,
    _pointwise_sink,
    _reads_nchw,
    bilinear_argmax,
    bilinear_upsample,
)
from .refine import FeaturePyramid, FeatureRefineHead
from .tensor import (
    ContractError,
    FormatError,
    Tensor,
    load_array,
    no_grad,
    read_exact,
    records_graph,
    save_array,
)


class Backbone(Module):
    """Stem at stride 4 plus three downsampling stages (conv3x3+BN+ReLU).

    `compose` is the backbone as the plain composition of its modules. `forward` computes the
    same bits; with no graph recorded, in eval, it chains the two stride-2 stem blocks as row
    sources (`ConvBnRelu.rows`): each band of `stem_b` asks `stem_a`'s kernel for the rows of
    the stride-2 map it needs, and `stem_a` reads its rows from the NCHW image. So neither the
    stride-2 map nor a bordered copy of the image is ever whole; each is held a band at a
    time, in the band loop's buffers."""

    def __init__(self, channels, rng=None):
        super().__init__()
        c1, c2, c3, c4 = channels
        self.stem_a = ConvBnRelu(3, c1, stride=2, rng=rng)
        self.stem_b = ConvBnRelu(c1, c1, stride=2, rng=rng)
        self.stage2_down = ConvBnRelu(c1, c2, stride=2, rng=rng)
        self.stage2 = ConvBnRelu(c2, c2, rng=rng)
        self.stage3_down = ConvBnRelu(c2, c3, stride=2, rng=rng)
        self.stage3 = ConvBnRelu(c3, c3, rng=rng)
        self.stage4_down = ConvBnRelu(c3, c4, stride=2, rng=rng)
        self.stage4 = ConvBnRelu(c4, c4, rng=rng)

    @staticmethod
    def check_extents(h, w):
        """Raise ContractError unless the backbone can take an H x W image.

        H and W must be at least 32, and each stage extent must halve the one
        before it exactly, as the feature pyramid requires. The two stem convs
        give ceil(H / 4), and the three stage downsamplings halve that again,
        so ceil(H / 4) and ceil(W / 4) must be multiples of 8.
        """
        if h < 32 or w < 32:
            raise ContractError(f"backbone expects H,W >= 32, got {h}x{w}")
        if -(-h // 4) % 8 or -(-w // 4) % 8:
            raise ContractError(
                f"backbone stage extents of a {h}x{w} image do not halve exactly: "
                "ceil(H/4) and ceil(W/4) must be multiples of 8"
            )

    def forward(self, image: Tensor) -> FeaturePyramid:
        a, b = self.stem_a, self.stem_b
        tensors = (image, *a.parameters(), *b.parameters())
        # one dtype throughout, so each banded product runs in the dtype `compose` gives it
        if (a.bn.training or b.bn.training or records_graph(tensors)
                or len({t.dtype for t in tensors}) != 1):
            return self.compose(image)
        return self._stages(self._chained_stem(image))

    def _chained_stem(self, image):
        """f1 of the no-grad eval stem: `stem_b`'s rows, filled band by band, from a source that
        runs `stem_a`'s kernel on the image's rows. The row sources and their band buffers die
        on return."""
        a, b = self.stem_a, self.stem_b
        n, _, h, w = self._checked(image)
        ha, wa = -(-h // 2), -(-w // 2)  # each stem block halves, rounding up
        f1 = np.empty((n, -(-ha // 2), -(-wa // 2), b.conv.out_c), image.dtype)
        stride2 = a.rows(_array_source(image.data.transpose(0, 2, 3, 1)), (n, h, w), image.dtype,
                         _reads_nchw(image.data))
        _fill(b.rows(stride2, (n, ha, wa), image.dtype, False), f1, 3, a.conv.out_c,
              image.dtype.itemsize)
        return Tensor(f1.transpose(0, 3, 1, 2))

    def compose(self, image: Tensor) -> FeaturePyramid:
        """`forward` as the plain composition of the backbone's modules, recorded or not.
        `profiler.count_costs` counts the stem's costs through it."""
        self._checked(image)
        return self._stages(self.stem_b(self.stem_a(image)))

    def _checked(self, image):
        n, c, h, w = image.shape
        if c != 3:
            raise ContractError(f"backbone expects Nx3xHxW, got {image.shape}")
        self.check_extents(h, w)
        return image.shape

    def _stages(self, f1):
        f2 = self.stage2(self.stage2_down(f1))
        f3 = self.stage3(self.stage3_down(f2))
        f4 = self.stage4(self.stage4_down(f3))
        return FeaturePyramid(f1, f2, f3, f4)


class FpnDecoder(Module):
    """Lateral 1x1 convs, top-down addition, 3x3 smoothing, classifier.

    `compose` is the decoder as the plain composition of its modules. `forward` computes the
    same bits; with no graph recorded, each level whose smoothing block can run banded runs
    as one `ConvBnRelu.bands` call: its source writes the merge's rows (`_merge_source`), and
    its sink scatters the output into the level's map or, at stride 4 when the caller does
    not read the features, runs the classifier on each band (`_pointwise_sink`). So the
    merge, its smoothing and the stride-4 features never exist as full-size maps, and each
    level dies once the level below has read it. The classifier's stride-4 logits are
    computed apart from the final `bilinear_upsample`, which runs only when the caller asks
    for an output size: `SegModel.predict` asks for none and arg-maxes them by bands."""

    def __init__(self, channels, width, num_classes, rng=None):
        super().__init__()
        c1, c2, c3, _ = channels
        self.lateral3 = Conv2d(c3, width, 1, rng=rng)
        self.lateral2 = Conv2d(c2, width, 1, rng=rng)
        self.lateral1 = Conv2d(c1, width, 1, rng=rng)
        self.smooth3 = ConvBnRelu(width, width, rng=rng)
        self.smooth2 = ConvBnRelu(width, width, rng=rng)
        self.smooth1 = ConvBnRelu(width, width, rng=rng)
        self.classifier = Conv2d(width, num_classes, 1, rng=rng)

    def forward(self, p: FeaturePyramid, context: Tensor, out_h=None, out_w=None, features=False):
        """Returns (logits, stride-4 decoder features if `features`, else None): the logits
        upsampled to out_h x out_w, or the classifier's stride-4 logits when no size is given."""
        tensors = (context, *p.stages(), *self.parameters())
        # one dtype throughout, so each banded product runs in the dtype `compose` gives it
        banded = not records_graph(tensors) and len({t.dtype for t in tensors}) == 1
        return self._decode(p, context, out_h, out_w, features, banded)

    def compose(self, p: FeaturePyramid, context: Tensor, out_h=None, out_w=None, features=False):
        """`forward` as the plain composition of the decoder's modules, each call a fresh
        array, recorded or not. `profiler.count_costs` counts the decoder's costs through it."""
        return self._decode(p, context, out_h, out_w, features, False)

    def _decode(self, p, context, out_h, out_w, features, banded):
        x, logits = context, None
        for level, (lateral, f, smooth) in enumerate(((self.lateral3, p.f3, self.smooth3),
                                                      (self.lateral2, p.f2, self.smooth2),
                                                      (self.lateral1, p.f1, self.smooth1))):
            n, _, h, w = f.shape
            if not (banded and not smooth.bn.training and smooth.conv.takes_winograd(h, w)):
                # rebinding `x` drops the level above once it is upsampled
                x = smooth(lateral(f) + bilinear_upsample(x, h, w))
                continue
            # the source holds the level above until `bands` returns, no longer
            if level == 2 and not features:  # no stride-4 map: the classifier reads each band
                out = np.empty((n, h, w, self.classifier.out_c), f.dtype)
                smooth.bands(_merge_source(lateral, f, x), _pointwise_sink(self.classifier, out, w),
                             (n, h, w), f.dtype)
                x, logits = None, Tensor(out.transpose(0, 3, 1, 2))
            else:
                out = np.empty((n, h, w, smooth.conv.out_c), f.dtype)
                smooth.bands(_merge_source(lateral, f, x), _array_sink(out), (n, h, w), f.dtype)
                x = Tensor(out.transpose(0, 3, 1, 2))
        if logits is None:
            # the features outlive the classifier only when the caller reads them
            logits, x = self.classifier(x), (x if features else None)
        if out_h is not None:
            logits = bilinear_upsample(logits, out_h, out_w)
        return logits, x


def build_context_head(cfg: ModelConfig, rng=None):
    """The head `cfg.context_head` names, one of `config.CONTEXT_HEADS` once `cfg` validates."""
    if cfg.context_head == "frm":
        return FeatureRefineHead(
            cfg.channels, cfg.decoder_channels, ffn_expansion=cfg.ffn_expansion, rng=rng
        )
    if cfg.context_head == "ppm":
        return PpmHead(cfg.channels, cfg.decoder_channels, bins=cfg.ppm_bins, rng=rng)
    return DappmHead(cfg.channels, cfg.decoder_channels, scales=cfg.dappm_scales, rng=rng)


class SegModel(Module):
    def __init__(self, cfg: ModelConfig, rng=None):
        super().__init__()
        cfg.validate()
        self.cfg = cfg
        rng = rng if rng is not None else np.random.default_rng(0)
        self.backbone = Backbone(cfg.channels, rng=rng)
        self.context_head = build_context_head(cfg, rng=rng)
        self.decoder = FpnDecoder(cfg.channels, cfg.decoder_channels, cfg.num_classes, rng=rng)
        self.embedding_head = Conv2d(cfg.decoder_channels, cfg.embed_dim, 1, rng=rng)

    def check_extents(self, h, w):
        """Raise ContractError unless the model can take an H x W image: the
        backbone's rule, then the context head's at the deepest stage extent,
        ceil(H / 4) / 8 x ceil(W / 4) / 8."""
        self.backbone.check_extents(h, w)
        self.context_head.check_extent(-(-h // 4) // 8, -(-w // 4) // 8)

    def forward(self, image: Tensor, train_mode):
        """Returns {"logits": ...} and, in training mode, {"embeddings": ...}.

        The embedding head never executes at inference time.
        """
        pyramid = self.backbone(image)
        context = self.context_head(pyramid)
        logits, feats = self.decoder(pyramid, context, image.shape[2], image.shape[3], train_mode)
        out = {"logits": logits}
        if train_mode:
            out["embeddings"] = self.embedding_head(feats)
        return out

    def predict(self, image):
        """The (n, H, W) class mask of an (n, 3, H, W) image array or Tensor: the intp
        `np.argmax(self(image, train_mode=False)["logits"].data, axis=1)`, bit for bit, run in
        eval mode with no graph recorded; the model's mode is restored on return.

        The full-size logits are never built. The decoder stops at its stride-4 logits, and
        `layers.bilinear_argmax` upsamples them one `band_plan` height block of one image at
        a time, with the products and axis order of `forward`'s upsample, and arg-maxes each
        block into the mask's rows."""
        was_training = self.training
        self.eval()
        try:
            with no_grad():
                image = Tensor(image)
                pyramid = self.backbone(image)
                logits, _ = self.decoder(pyramid, self.context_head(pyramid))
                del pyramid  # the stages die before the mask is built
                return bilinear_argmax(logits.data, image.shape[2], image.shape[3])
        finally:
            self.train(was_training)


# ---------------------------------------------------------------------------
# Checkpoints: a key=value config header followed by every array of
# `named_state()`, in its order, as a named FRMT tensor.

_CKPT_MAGIC = b"SRCP"


def save_checkpoint(path, model: SegModel, extra=None):
    header = {f.name: format_value(getattr(model.cfg, f.name)) for f in fields(ModelConfig)}
    header.update(extra or {})
    text = "".join(f"{k}={v}\n" for k, v in header.items()).encode("utf-8")
    # written beside `path`, then renamed over it: a failed write leaves the old file whole
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(_CKPT_MAGIC)
            f.write(struct.pack("<I", len(text)))
            f.write(text)
            for name, (owner, attr) in model.named_state().items():
                encoded = name.encode("utf-8")
                f.write(struct.pack("<I", len(encoded)))
                f.write(encoded)
                save_array(f, getattr(owner, attr))
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _read_text(f, path, what):
    """A u32 length prefix and that many UTF-8 bytes."""
    (length,) = struct.unpack("<I", read_exact(f, 4, path, what + " length"))
    try:
        return read_exact(f, length, path, what).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: {what} is not UTF-8") from exc


def _read_header(f, path):
    if f.read(4) != _CKPT_MAGIC:
        raise FormatError(f"{path}: not a checkpoint file")
    header = {}
    # lines end in "\n" only: a byte flipped into another line break garbles a value
    for line in _read_text(f, path, "header").split("\n"):
        if line:
            k, _, v = line.partition("=")
            header[k] = v
    return header


def model_config_from_header(header):
    defaults = ModelConfig()
    values = {}
    for f in fields(ModelConfig):
        if f.name not in header:
            raise FormatError(f"checkpoint header has no {f.name!r}")
        try:
            values[f.name] = _coerce(getattr(defaults, f.name), header[f.name])
        except ValueError as exc:
            raise FormatError(f"checkpoint header {f.name}={header[f.name]!r}: {exc}") from exc
    cfg = ModelConfig(**values)
    try:
        cfg.validate()
    except ConfigError as exc:
        raise FormatError(f"checkpoint header: {exc}") from exc
    return cfg


class _NoDrawRng:
    """Init rng stand-in for a model whose weights are all about to be loaded."""

    def standard_normal(self, shape):
        return np.zeros(shape, dtype=np.float32)


def load_checkpoint(path):
    """Rebuild the model from the header and load every named tensor.

    The whole file is parsed before the model is built, so a truncated or
    garbled file fails with FormatError before any model work.
    """
    with open(path, "rb") as f:
        header = _read_header(f, path)
        cfg = model_config_from_header(header)
        arrays = {}
        while f.peek(1):  # empty only at end of file
            name = _read_text(f, path, "tensor name")
            arrays[name] = load_array(f, name=name)
    model = SegModel(cfg, rng=_NoDrawRng())
    state = model.named_state()
    for name, arr in arrays.items():
        if name not in state:
            raise FormatError(f"{path}: unexpected tensor {name!r}")
        owner, attr = state[name]
        shape = getattr(owner, attr).shape
        if arr.shape != shape:
            raise FormatError(f"{path}: shape mismatch for {name}: {arr.shape} vs {shape}")
        setattr(owner, attr, arr)
    missing = state.keys() - arrays.keys()
    if missing:
        raise FormatError(f"{path}: missing tensors {sorted(missing)[:3]}...")
    return model, header
