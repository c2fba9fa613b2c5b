import hashlib
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from segrefine import layers
from segrefine import model as model_module
from segrefine.config import ModelConfig, format_value
from segrefine.layers import ConvBnRelu
from segrefine.model import (
    Backbone,
    FpnDecoder,
    SegModel,
    load_checkpoint,
    model_config_from_header,
    save_checkpoint,
)
from segrefine.baselines import PpmHead
from segrefine.refine import ContextHead, FeaturePyramid
from segrefine.tensor import ContractError, FormatError, ShapeError, Tensor, no_grad, save_array

from conftest import record_calls

TOY = ModelConfig(channels=(8, 16, 32, 64), decoder_channels=32, num_classes=19, embed_dim=16)


def toy_model(rng, **overrides):
    return SegModel(replace(TOY, **overrides), rng=rng)


def seeded_buffers(model, rng):
    """Fill every non-parameter array with seeded values in (0.5, 1.5)."""
    for owner, attr in model.named_state().values():
        if attr != "data":
            value = getattr(owner, attr)
            setattr(owner, attr, (rng.random(value.shape) + 0.5).astype(value.dtype))


class StepCountingBlock(ConvBnRelu):
    """A stage block with state besides its parameters: a per-channel counter."""

    _buffers = ("steps",)

    def __init__(self, in_c, out_c, **kwargs):
        super().__init__(in_c, out_c, **kwargs)
        self.steps = np.zeros(out_c, dtype=np.float32)


class TestBackbone:
    def test_stage_strides(self, rng):
        b = Backbone((8, 16, 32, 64), rng=rng)
        p = b(Tensor(rng.random((1, 3, 64, 64)).astype(np.float32)))
        assert p.f1.shape == (1, 8, 16, 16)
        assert p.f2.shape == (1, 16, 8, 8)
        assert p.f3.shape == (1, 32, 4, 4)
        assert p.f4.shape == (1, 64, 2, 2)

    def test_non_square_floor_behavior(self, rng):
        b = Backbone((8, 16, 32, 64), rng=rng)
        p = b(Tensor(rng.random((1, 3, 96, 64)).astype(np.float32)))
        assert p.f4.shape[2:] == (3, 2)

    def test_forward_determinism(self, rng):
        b = Backbone((8, 16, 32, 64), rng=rng)
        b.eval()
        x = Tensor(rng.random((1, 3, 64, 64)).astype(np.float32))
        assert b(x).f4.data.tobytes() == b(x).f4.data.tobytes()

    def test_undersized_input_rejected(self, rng):
        b = Backbone((8, 16, 32, 64), rng=rng)
        with pytest.raises(ContractError):
            b(Tensor(np.zeros((1, 3, 16, 16), dtype=np.float32)))


    @pytest.mark.parametrize("budget", ["default", "three-row-bands"])
    def test_no_grad_stem_runs_chained_with_the_composition_bits(self, rng, monkeypatch, budget):
        if budget != "default":  # stem_b's chunks are bands of three output rows
            monkeypatch.setattr(layers, "_COL_BUDGET", 3 * 9 * 8 * 24 * 4)
        b = Backbone((8, 16, 32, 64), rng=rng).eval()
        seeded_buffers(b, rng)
        image = Tensor(rng.standard_normal((2, 3, 61, 93)).astype(np.float32))  # ragged halves
        calls = record_calls(monkeypatch, (b.stem_a, b.stem_b), ("forward", "rows"))
        with no_grad():
            got = b(image)
            assert [method for method, _ in calls] == ["rows", "rows"]
            calls.clear()
            want = b.compose(image)
        assert [method for method, _ in calls] == ["forward", "forward"]
        assert got.f1.data.transpose(0, 2, 3, 1).flags.c_contiguous
        for a, c in zip(got.stages(), want.stages()):
            np.testing.assert_array_equal(a.data, c.data)  # bit for bit

    def test_no_grad_stem_never_holds_the_stride_2_map(self, rng, monkeypatch):
        # the paper's 1024x2048: stem_a's whole output would be 33.5 MB; chained, the
        # backbone peaks in stage4's Winograd temporaries (24.5 MB measured, 2-core Xeon,
        # numpy 2.4), and at 73.1 MB with the stride-2 map and its bordered copy whole
        b = Backbone(ModelConfig().channels, rng=rng).eval()
        image = Tensor(rng.standard_normal((1, 3, 1024, 2048)).astype(np.float32))
        with no_grad():
            tracemalloc.start()
            try:
                b(image)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert peak < b.stem_a.conv.out_c * 512 * 1024 * 4
        # a recorded forward runs stem_a and then stem_b through their modules
        calls = record_calls(monkeypatch, (b.stem_a, b.stem_b), ("forward", "rows"))
        b(Tensor(image.data[:, :, :64, :64]))
        assert [(method, args[0].shape[1]) for method, args in calls] == [("forward", 3),
                                                                          ("forward", 16)]

    def test_extent_rule_matches_the_pyramid_check(self, rng):
        b = Backbone((1, 1, 1, 1), rng=rng)
        for h in range(32, 140):
            stem = b.stem_b(b.stem_a(Tensor(np.zeros((1, 3, h, 32), dtype=np.float32))))
            f2 = b.stage2(b.stage2_down(stem))
            f3 = b.stage3(b.stage3_down(f2))
            pyramid = FeaturePyramid(stem, f2, f3, b.stage4(b.stage4_down(f3)))
            try:
                pyramid.validate()
                halves = True
            except ShapeError:
                halves = False
            try:
                Backbone.check_extents(h, 32)
                accepted = True
            except ContractError:
                accepted = False
            assert accepted == halves, f"H={h}"

    @pytest.mark.parametrize("bins", [(1,), (2,), (1, 2, 3, 6), (4, 5)])
    def test_model_check_refuses_exactly_the_failing_forwards(self, rng, monkeypatch, bins):
        model = SegModel(ModelConfig(channels=(1, 1, 1, 1), decoder_channels=1, num_classes=2,
                                     context_head="ppm", ffn_expansion=1, ppm_bins=bins,
                                     embed_dim=1), rng=rng).eval()
        heights = range(32, 200)  # deepest stage extents 1 to 6; width 192 gives 6
        accepted = {}
        for h in heights:
            try:
                model.check_extents(h, 192)
                accepted[h] = True
            except ContractError:
                accepted[h] = False
        # the same forwards with both checks switched off fail in the layers instead
        monkeypatch.setattr(Backbone, "check_extents", staticmethod(lambda h, w: None))
        monkeypatch.setattr(PpmHead, "check_extent", ContextHead.check_extent)
        for h in heights:
            try:
                with no_grad():
                    model(Tensor(np.zeros((1, 3, h, 192), dtype=np.float32)), train_mode=False)
                ran = True
            except (ContractError, ShapeError):
                ran = False
            assert accepted[h] == ran, f"H={h}, bins {bins}"
        assert any(accepted.values()) and not all(accepted.values())

class TestModelForward:
    def test_inference_mode_has_no_embeddings(self, rng):
        model = toy_model(rng)
        out = model(Tensor(rng.random((1, 3, 64, 64)).astype(np.float32)), train_mode=False)
        assert "embeddings" not in out

    def test_logits_at_full_resolution(self, rng):
        model = toy_model(rng)
        out = model(Tensor(rng.random((1, 3, 64, 64)).astype(np.float32)), train_mode=True)
        assert out["logits"].shape == (1, 19, 64, 64)
        assert out["embeddings"].shape == (1, 16, 16, 16)

    def test_context_head_perturbation_changes_argmax(self, rng):
        model = toy_model(rng)
        model.eval()
        x = Tensor(rng.random((1, 3, 64, 64)).astype(np.float32))
        before = np.argmax(model(x, train_mode=False)["logits"].data, axis=1)
        for p in model.context_head.parameters():
            p.data = p.data + rng.standard_normal(p.shape).astype(p.dtype) * 0.5
        after = np.argmax(model(x, train_mode=False)["logits"].data, axis=1)
        assert (before != after).any()

    @pytest.mark.parametrize("head", ["frm", "ppm", "dappm"])
    def test_head_swap_keeps_decoder_shapes(self, rng, head):
        model = toy_model(rng, context_head=head, ppm_bins=(1, 2))
        out = model(Tensor(rng.random((1, 3, 64, 64)).astype(np.float32)), train_mode=True)
        assert out["logits"].shape == (1, 19, 64, 64)
        assert out["embeddings"].shape == (1, 16, 16, 16)


def decoder_inputs(rng, channels, width, h, w):
    """A pyramid with an (h, w) stride-4 stage and a `width`-channel context at its deepest extent."""
    stages = [Tensor(rng.standard_normal((1, c, h >> i, w >> i)).astype(np.float32))
              for i, c in enumerate(channels)]
    context = Tensor(rng.standard_normal((1, width, h >> 3, w >> 3)).astype(np.float32))
    return FeaturePyramid(*stages), context


class TestFpnDecoder:
    def test_no_grad_merges_leave_the_pyramid_and_context(self, rng, fresh_sums):
        decoder = FpnDecoder(TOY.channels, 32, 5, rng=rng).eval()
        pyramid, context = decoder_inputs(rng, TOY.channels, 32, 16, 32)
        inputs = [*pyramid.stages(), context]
        before = [t.data.copy() for t in inputs]
        for features in (False, True):
            with no_grad():
                logits, p1 = decoder(pyramid, context, 64, 128, features)
                want, want_p1 = fresh_sums(lambda: decoder(pyramid, context, 64, 128, features))
            for t, data in zip(inputs, before):
                np.testing.assert_array_equal(t.data, data)
            np.testing.assert_array_equal(logits.data, want.data)  # bit for bit
            assert (p1 is None) == (want_p1 is None) == (not features)
            if features:
                np.testing.assert_array_equal(p1.data, want_p1.data)

    @pytest.mark.parametrize("features", [False, True])
    def test_no_grad_levels_die_once_read(self, rng, monkeypatch, features):
        decoder = FpnDecoder(TOY.channels, 32, 5, rng=rng).eval()
        pyramid, context = decoder_inputs(rng, TOY.channels, 32, 16, 32)
        maps = []  # weak references to the level maps the sinks write, in level order
        alive = []  # at each merge and at the logits upsample: which level maps are alive

        def spy(name, fn):
            def run(*args):
                if name == "_array_sink":
                    maps.append(weakref.ref(args[0]))
                else:
                    alive.append([ref() is not None for ref in maps])
                return fn(*args)

            monkeypatch.setattr(model_module, name, run)

        for name in ("_array_sink", "_merge_source", "bilinear_upsample"):
            spy(name, getattr(model_module, name))
        with no_grad():
            _, p1 = decoder(pyramid, context, 64, 128, features)
        assert (p1 is not None) == features
        # each level lives until the level below has read it; the stride-4 map is made
        # only when the caller reads the features (the classifier reads each band otherwise)
        assert alive == [[], [True], [False, True], [False, False] + [True] * features]

    def test_no_grad_decoder_holds_under_1_2_p1_maps(self, rng):
        # a 512x1024 image's stride-4 maps. With the levels banded, the merge sums and the
        # stride-4 features are never whole maps: level 2's map, Winograd's band buffers
        # and the logits upsample set the peak
        channels, width, h, w = (16, 32, 64, 128), 128, 128, 256
        decoder = FpnDecoder(channels, width, 5, rng=rng).eval()
        pyramid, context = decoder_inputs(rng, channels, width, h, w)
        with no_grad():
            decoder(pyramid, context, 4 * h, 4 * w, False)  # builds the cached resample plans
            tracemalloc.start()
            try:
                decoder(pyramid, context, 4 * h, 4 * w, False)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        p1 = width * h * w * 4
        # measured 1.165 p1 (2-core Xeon, numpy 2.4); 1.82 with a fresh smoothing input per
        # level that the conv wrote over, 3.31 with fresh sums and outputs. The bound leaves
        # 3% over the measured peak
        assert peak < 1.2 * p1

    @pytest.mark.parametrize("head", ["frm", "ppm", "dappm"])
    def test_banded_float64_matches_a_recorded_forward(self, rng, monkeypatch, head):
        # a budget below one tile row makes every Winograd chunk a band of one tile row
        monkeypatch.setattr(layers, "_WINOGRAD_BUDGET", 1)
        model = SegModel(ModelConfig(decoder_channels=32, num_classes=5, context_head=head,
                                     ppm_bins=(1, 2)), rng=rng).cast(np.float64).eval()
        seeded_buffers(model, rng)
        image = Tensor(rng.standard_normal((2, 3, 64, 128)))
        decoder = model.decoder
        calls = record_calls(monkeypatch, (decoder.smooth3, decoder.smooth2, decoder.smooth1),
                             ("bands",))
        with no_grad():
            got = model(image, train_mode=False)["logits"].data
        # every level ran banded
        assert [args[2] for _, args in calls] == [(2, 4, 8), (2, 8, 16), (2, 16, 32)]
        want = model(image, train_mode=False)["logits"]
        assert want.requires_grad and len(calls) == 3
        assert np.abs(got - want.data).max() <= 1e-12 * np.abs(want.data).max()

    def test_narrow_decoder_runs_the_composition(self, rng, monkeypatch):
        decoder = FpnDecoder(TOY.channels, 16, 5, rng=rng).eval()  # too narrow for Winograd
        pyramid, context = decoder_inputs(rng, TOY.channels, 16, 16, 32)
        calls = record_calls(monkeypatch, (decoder.smooth3, decoder.smooth2, decoder.smooth1),
                             ("forward", "bands"))
        with no_grad():
            logits, _ = decoder(pyramid, context, 64, 128, False)
            want, _ = decoder.compose(pyramid, context, 64, 128, False)
        assert [method for method, _ in calls] == ["forward"] * 6
        np.testing.assert_array_equal(logits.data, want.data)


class TestCheckpoint:
    def test_roundtrip_preserves_outputs(self, rng, tmp_path):
        model = toy_model(rng)
        model.eval()
        x = Tensor(rng.random((1, 3, 64, 64)).astype(np.float32))
        want = model(x, train_mode=False)["logits"].data
        path = tmp_path / "model.srcp"
        save_checkpoint(path, model, extra={"iteration": 42})
        loaded, header = load_checkpoint(path)
        assert header["iteration"] == "42"
        loaded.eval()
        got = loaded(x, train_mode=False)["logits"].data
        np.testing.assert_array_equal(got, want)

    def test_truncated_checkpoint_rejected(self, rng, tmp_path):
        model = toy_model(rng)
        path = tmp_path / "model.srcp"
        save_checkpoint(path, model)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(FormatError):
            load_checkpoint(path)

    def test_header_bytes_follow_model_config(self, rng, tmp_path):
        path = tmp_path / "model.srcp"
        save_checkpoint(path, toy_model(rng, context_head="ppm"), extra={"iteration": 7})
        text = (
            "channels=8,16,32,64\ndecoder_channels=32\nnum_classes=19\ncontext_head=ppm\n"
            "ffn_expansion=4\nppm_bins=1,2,3,6\ndappm_scales=2,4,8,0\nembed_dim=16\n"
            "iteration=7\n"
        ).encode()
        raw = path.read_bytes()
        assert raw[4:8] == len(text).to_bytes(4, "little")
        assert raw[8 : 8 + len(text)] == text
        header = load_checkpoint(path)[1]
        assert model_config_from_header(header) == replace(TOY, context_head="ppm")

    @pytest.mark.parametrize("key, value", [
        ("channels", None), ("embed_dim", None), ("num_classes", "19x"),
        ("ppm_bins", "1,,2"), ("channels", "8,16,32"), ("context_head", "nope"),
    ])
    def test_bad_header_key_is_format_error(self, key, value):
        header = {k: str(format_value(v)) for k, v in vars(TOY).items()}
        if value is None:
            del header[key]
        else:
            header[key] = value
        with pytest.raises(FormatError, match=key if value is None else None):
            model_config_from_header(header)

    # sha256 of seeded checkpoints: the layout (parameters, then the running
    # statistics in module order) is the file format, so existing checkpoints
    # keep loading only while it stays put
    PINNED = {
        "frm": "ae50c81e81c3346da7bbde5855efa9ebe3df547a1cd7e08da476eecf607876da",
        "ppm": "4399a8f2bec3bfd9ff9f0a585b488e1005976f5eff1cf5efc1ef15c862691bf0",
        "dappm": "ebe7771f37e68f900880d79a9fa68ca9bea3e96527f0d3ca679f8f37dd75505f",
    }

    @pytest.mark.parametrize("head", ["frm", "ppm", "dappm"])
    def test_checkpoint_bytes_are_pinned(self, tmp_path, head):
        rng = np.random.default_rng(7)
        model = toy_model(rng, context_head=head)
        seeded_buffers(model, rng)
        path = tmp_path / "model.srcp"
        save_checkpoint(path, model, extra={"iteration": 3})
        raw = path.read_bytes()
        assert hashlib.sha256(raw).hexdigest() == self.PINNED[head]
        loaded, header = load_checkpoint(path)
        save_checkpoint(path, loaded, extra={"iteration": header["iteration"]})
        assert path.read_bytes() == raw

    def test_failed_write_keeps_the_previous_checkpoint(self, rng, tmp_path, monkeypatch):
        path = tmp_path / "model.srcp"
        save_checkpoint(path, toy_model(rng))
        before = path.read_bytes()
        written = []

        def failing(f, arr):
            if len(written) == 5:
                raise OSError("no space left on device")
            written.append(arr)
            save_array(f, arr)

        monkeypatch.setattr(model_module, "save_array", failing)
        with pytest.raises(OSError, match="no space left"):
            save_checkpoint(path, toy_model(rng, context_head="ppm"), extra={"iteration": 9})
        assert len(written) == 5  # the new checkpoint was partway written
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model.srcp"]

    def test_declared_buffers_are_cast_saved_and_loaded(self, rng, tmp_path, monkeypatch):
        monkeypatch.setattr(model_module, "ConvBnRelu", StepCountingBlock)
        model = toy_model(rng)
        seeded_buffers(model, rng)
        assert model.named_state()["backbone.stem_a.steps"] == (model.backbone.stem_a, "steps")
        model.cast(np.float64)
        assert model.decoder.smooth1.steps.dtype == np.float64
        model.cast(np.float32)
        path = tmp_path / "model.srcp"
        save_checkpoint(path, model)
        loaded, _ = load_checkpoint(path)
        for name, (owner, attr) in model.named_state().items():
            want = getattr(owner, attr)
            got_owner, got_attr = loaded.named_state()[name]
            np.testing.assert_array_equal(getattr(got_owner, got_attr), want, err_msg=name)
        monkeypatch.undo()
        with pytest.raises(FormatError, match=r"unexpected tensor '[\w.]+\.steps'"):
            load_checkpoint(path)

    def test_shape_mismatch_and_missing_tensor_rejected(self, rng, tmp_path, monkeypatch):
        path = tmp_path / "model.srcp"
        model = toy_model(rng)
        model.backbone.stem_a.bn.running_var = np.ones(3, dtype=np.float32)
        save_checkpoint(path, model)
        with pytest.raises(FormatError, match="shape mismatch for backbone.stem_a.bn.running_var"):
            load_checkpoint(path)
        save_checkpoint(path, toy_model(rng))
        monkeypatch.setattr(model_module, "ConvBnRelu", StepCountingBlock)
        with pytest.raises(FormatError, match="missing tensors"):
            load_checkpoint(path)

    def test_not_a_checkpoint_rejected(self, tmp_path):
        path = tmp_path / "bogus.srcp"
        path.write_bytes(b"whatever")
        with pytest.raises(FormatError):
            load_checkpoint(path)
