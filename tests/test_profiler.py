from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from segrefine import layers
from segrefine.config import ModelConfig
from segrefine.layers import Conv2d
from segrefine.model import SegModel
from segrefine.profiler import bench_heads, bench_table, count_costs
from segrefine.tensor import ContractError, Tensor

TOY = ModelConfig(channels=(8, 16, 32, 64), decoder_channels=32, num_classes=7, embed_dim=16)


def toy_model(rng, **overrides):
    return SegModel(replace(TOY, **overrides), rng=rng)


class TestLayerCounts:
    def test_pointwise_conv_hand_count(self, rng):
        conv = Conv2d(4, 8, 1, bias=False, rng=rng)
        out = conv(Tensor(np.zeros((1, 4, 16, 16), dtype=np.float32)))
        assert conv.param_count() == 4 * 8
        assert conv.flops(out.shape) == 2 * 16 * 16 * 8 * 4  # two ops per multiply-accumulate

    def test_bias_adds_one_op_per_output_element(self, rng):
        conv = Conv2d(4, 8, 1, bias=True, rng=rng)
        out = conv(Tensor(np.zeros((1, 4, 16, 16), dtype=np.float32)))
        assert conv.param_count() == 4 * 8 + 8
        assert conv.flops(out.shape) == 2 * 16 * 16 * 8 * 4 + 16 * 16 * 8

    def test_spatial_conv_scales_with_kernel_area(self, rng):
        conv = Conv2d(4, 8, 3, pad=1, bias=False, rng=rng)
        out = conv(Tensor(np.zeros((1, 4, 16, 16), dtype=np.float32)))
        assert conv.param_count() == 4 * 8 * 9
        assert conv.flops(out.shape) == 2 * 16 * 16 * 8 * 4 * 9


class TestModelReport:
    def test_training_params_match_parameter_enumeration(self, rng):
        model = toy_model(rng)
        report = count_costs(model, (64, 64), mode="training")
        want = sum(p.size for _, p in model.named_parameters())
        assert report.total_params == want

    def test_training_minus_inference_is_exactly_the_embedding_head(self, rng):
        model = toy_model(rng)
        train = count_costs(model, (64, 64), mode="training")
        infer = count_costs(model, (64, 64), mode="inference")
        dparams = train.total_params - infer.total_params
        dflops = train.total_flops - infer.total_flops
        ep, ef = train.subtotal("embedding_head")
        assert (dparams, dflops) == (ep, ef)
        assert ef > 0
        assert infer.subtotal("embedding_head") == (0, 0)

    def test_doubling_resolution_scales_conv_by_four(self, rng):
        model = toy_model(rng)
        small = count_costs(model, (64, 64))
        large = count_costs(model, (128, 128))
        row_s = small.row("backbone.stem_a.conv")
        row_l = large.row("backbone.stem_a.conv")
        assert row_l.flops == 4 * row_s.flops
        assert row_l.params == row_s.params

    def test_pairwise_attention_scales_quadratically_with_positions(self, rng):
        model = toy_model(rng)
        small = count_costs(model, (64, 64))
        large = count_costs(model, (128, 128))
        fs = small.row("context_head.attention.pairwise").flops
        fl = large.row("context_head.attention.pairwise").flops
        # doubling h and w quadruples positions, so pairwise terms grow ~16x
        assert fl / fs == pytest.approx(16.0, rel=0.05)

    def test_params_independent_of_resolution(self, rng):
        model = toy_model(rng)
        a = count_costs(model, (64, 64))
        b = count_costs(model, (96, 96))
        assert a.total_params == b.total_params

    def test_serialization_row_counts(self, rng):
        report = count_costs(toy_model(rng), (64, 64))
        text, csv = report.to_text(), report.to_csv()
        assert text.count("\n") == len(report.rows) + 2
        assert csv.splitlines()[0] == "module,params,flops"
        assert csv.splitlines()[-1].startswith("TOTAL,")

    def test_training_costs_match_golden_csv(self):
        # the bench config of tests/test_cli.py, in training mode, where the
        # embedding head runs too
        cfg = ModelConfig(channels=(4, 8, 8, 8), decoder_channels=8, embed_dim=4)
        model = SegModel(cfg, rng=np.random.default_rng(0))
        csv = count_costs(model, (192, 192), mode="training").to_csv() + "\n"
        golden = Path(__file__).parent / "golden" / "costs_frm_training.csv"
        assert csv.encode() == golden.read_bytes()

    def test_banded_decoder_keeps_its_module_rows(self, rng):
        # at the default width the no-grad decoder runs every level banded, calling no
        # submodule; the report counts them through `FpnDecoder.compose`
        cfg = ModelConfig()
        report = count_costs(SegModel(cfg, rng=rng), (64, 128))
        width, classes, c1 = cfg.decoder_channels, cfg.num_classes, cfg.channels[0]
        positions = 16 * 32  # the stride-4 map of a 64x128 image
        upsampled = width * positions * (1 + 4 + 16) // 16 + classes * 64 * 128
        assert {path: report.row(path).flops for path in (
            "decoder.lateral1", "decoder.smooth1.conv", "decoder.smooth1.bn", "decoder.smooth1.act",
            "decoder.classifier", "decoder.upsample")} == {
            "decoder.lateral1": (2 * c1 + 1) * positions * width,
            "decoder.smooth1.conv": 2 * positions * width * width * 9,
            "decoder.smooth1.bn": positions * width,
            "decoder.smooth1.act": positions * width,
            "decoder.classifier": (2 * width + 1) * positions * classes,
            "decoder.upsample": upsampled,
        }

    def test_failed_forward_restores_the_model(self, rng):
        model = toy_model(rng, context_head="ppm")  # bin 6 exceeds the 2x2 stage at 64x64
        resample_op = layers._resample_op
        with pytest.raises(ContractError, match="exceeds input extent"):
            count_costs(model, (64, 64))
        assert model.training
        assert layers._resample_op is resample_op
        for _, child in model.named_children():
            assert "forward" not in vars(child) and "context" not in vars(child)


class TestHeadComparison:
    def test_head_swap_only_changes_context_rows(self, rng):
        reports = bench_heads(
            TOY.__class__(
                channels=TOY.channels,
                decoder_channels=TOY.decoder_channels,
                num_classes=TOY.num_classes,
                embed_dim=TOY.embed_dim,
                ppm_bins=(1, 2),
            ),
            (64, 64),
        )
        assert set(reports) == {"frm", "ppm", "dappm"}
        backbones = {h: r.subtotal("backbone") for h, r in reports.items()}
        decoders = {h: r.subtotal("decoder") for h, r in reports.items()}
        assert len(set(backbones.values())) == 1
        assert len(set(decoders.values())) == 1
        heads = {h: r.subtotal("context_head") for h, r in reports.items()}
        assert len(set(heads.values())) == 3

    def test_table_lists_each_head(self, rng):
        # the 64x64 map's stride-32 stage is 2x2: ppm bins up to 2 fit it
        reports = bench_heads(replace(TOY, ppm_bins=(1, 2)), (64, 64))
        table = bench_table(reports, (64, 64))
        assert "frm" in table and "dappm" in table
        assert str(reports["frm"].total_params) in table
