import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segrefine.datagen import (
    Dataset,
    SceneSpec,
    class_palette,
    generate,
    load_pgm,
    read_manifest,
    render_scene,
    save_pgm,
)
from segrefine.config import ConfigError
from segrefine.tensor import FormatError


class TestRenderScene:
    def test_shapes_and_ranges(self):
        spec = SceneSpec()
        image, labels = render_scene(spec, np.random.default_rng(0))
        assert image.shape == (3, 64, 64)
        assert labels.shape == (64, 64)
        assert image.dtype == np.float32
        assert image.min() >= 0.0 and image.max() <= 1.0
        assert labels.min() >= 0 and labels.max() < spec.num_classes

    def test_two_class_single_shape_is_one_solid_rectangle(self):
        # K=2 forces class 1, whose shape kind is a rectangle; with exactly
        # one shape the labeled pixels must fill their bounding box
        spec = SceneSpec(num_classes=2, min_shapes=1, max_shapes=1)
        _, labels = render_scene(spec, np.random.default_rng(3))
        ys, xs = np.nonzero(labels)
        area = (ys.max() - ys.min() + 1) * (xs.max() - xs.min() + 1)
        assert (labels == 1).sum() == area
        assert labels[ys.min() : ys.max() + 1, xs.min() : xs.max() + 1].all()

    def test_palette_colors_are_distinct(self):
        palette = class_palette(5)
        assert len({tuple(np.round(c, 4)) for c in palette}) == 5

    def test_identical_rng_state_reproduces_scene(self):
        spec = SceneSpec()
        img_a, lab_a = render_scene(spec, np.random.default_rng(7))
        img_b, lab_b = render_scene(spec, np.random.default_rng(7))
        assert img_a.tobytes() == img_b.tobytes()
        assert np.array_equal(lab_a, lab_b)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            generate(SceneSpec(num_classes=1), 1, "/tmp/never-used")

    @pytest.mark.parametrize("classes", [1, 256])
    def test_class_count_outside_2_to_255_is_a_config_error(self, tmp_path, classes):
        with pytest.raises(ConfigError, match="classes"):
            generate(SceneSpec(num_classes=classes), 1, tmp_path)
        assert not (tmp_path / "manifest.txt").exists()


class TestPgm:
    @settings(deadline=None, max_examples=20)
    @given(st.integers(0, 10**6), st.integers(1, 9), st.integers(1, 9))
    def test_roundtrip(self, seed, h, w):
        labels = np.random.default_rng(seed).integers(0, 256, (h, w))
        import tempfile, os

        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "x.pgm")
            save_pgm(path, labels)
            np.testing.assert_array_equal(load_pgm(path), labels)

    def test_header_layout(self, tmp_path):
        path = tmp_path / "x.pgm"
        save_pgm(path, np.zeros((2, 3), dtype=np.int64))
        raw = path.read_bytes()
        assert raw.startswith(b"P5\n3 2\n255\n")
        assert len(raw) == len(b"P5\n3 2\n255\n") + 6

    def test_wrong_maxval_rejected(self, tmp_path):
        path = tmp_path / "x.pgm"
        path.write_bytes(b"P5\n2 2\n65535\n" + b"\0" * 8)
        with pytest.raises(FormatError, match="maxval"):
            load_pgm(path)

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "x.pgm"
        path.write_bytes(b"P2\n2 2\n255\n0 0 0 0\n")
        with pytest.raises(FormatError):
            load_pgm(path)

    def test_truncated_raster_rejected(self, tmp_path):
        path = tmp_path / "x.pgm"
        path.write_bytes(b"P5\n4 4\n255\n" + b"\0" * 5)
        with pytest.raises(FormatError, match="truncated"):
            load_pgm(path)

    def test_every_truncation_rejected(self, tmp_path):
        path = tmp_path / "x.pgm"
        save_pgm(path, np.ones((2, 3), dtype=np.int64))
        raw = path.read_bytes()
        for n in range(len(raw)):
            path.write_bytes(raw[:n])
            with pytest.raises(FormatError):
                load_pgm(path)

    @pytest.mark.parametrize("raw", [
        b"P5\n# just a comment", b"P5\n2 x\n255\n", b"P5\n-2 -2\n255\n\0\0\0\0",
    ])
    def test_garbled_header_rejected(self, tmp_path, raw):
        path = tmp_path / "x.pgm"
        path.write_bytes(raw)
        with pytest.raises(FormatError):
            load_pgm(path)

    def test_out_of_range_labels_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            save_pgm(tmp_path / "x.pgm", np.full((2, 2), 300))


@pytest.fixture(scope="module")
def one_sample(tmp_path_factory):
    out = tmp_path_factory.mktemp("one_sample")
    generate(SceneSpec(height=16, width=16, seed=3), 1, out)
    return out


class TestTruncatedSample:
    @settings(deadline=None, max_examples=60)
    @given(st.sampled_from(["images/0000.frmt", "labels/0000.pgm"]), st.data())
    def test_cut_file_is_format_error(self, one_sample, name, data):
        raw = (one_sample / name).read_bytes()
        cut = data.draw(st.integers(0, len(raw) - 1), label="cut")
        with tempfile.TemporaryDirectory() as d:
            root = Path(d) / "data"
            shutil.copytree(one_sample, root)
            (root / name).write_bytes(raw[:cut])
            with pytest.raises(FormatError):
                Dataset(root)[0]


class TestGenerate:
    def test_seeded_generation_is_byte_identical(self, tmp_path):
        spec = SceneSpec(seed=11)
        generate(spec, 3, tmp_path / "a")
        generate(spec, 3, tmp_path / "b")
        for i in range(3):
            for sub in (f"images/{i:04d}.frmt", f"labels/{i:04d}.pgm"):
                assert (tmp_path / "a" / sub).read_bytes() == (tmp_path / "b" / sub).read_bytes()

    def test_different_seed_changes_data(self, tmp_path):
        generate(SceneSpec(seed=1), 1, tmp_path / "a")
        generate(SceneSpec(seed=2), 1, tmp_path / "b")
        assert (tmp_path / "a" / "labels/0000.pgm").read_bytes() != (
            tmp_path / "b" / "labels/0000.pgm"
        ).read_bytes()

    def test_manifest_histogram_matches_recount(self, tmp_path):
        spec = SceneSpec(seed=5, num_classes=4)
        generate(spec, 4, tmp_path)
        manifest = read_manifest(tmp_path)
        assert manifest["count"] == 4
        assert manifest["num_classes"] == 4
        recount = np.zeros(4, dtype=np.int64)
        for i in range(4):
            labels = load_pgm(tmp_path / "labels" / f"{i:04d}.pgm")
            recount += np.bincount(labels.ravel(), minlength=4)
        assert manifest["histogram"] == recount.tolist()
        assert sum(manifest["histogram"]) == 4 * 64 * 64

    def test_dataset_roundtrip(self, tmp_path):
        generate(SceneSpec(seed=9), 2, tmp_path)
        ds = Dataset(tmp_path)
        assert len(ds) == 2
        image, labels = ds[1]
        assert image.shape == (3, 64, 64)
        assert labels.shape == (64, 64)
        assert image.dtype == np.float32

    def test_label_outside_the_classes_is_a_format_error(self, tmp_path):
        generate(SceneSpec(height=8, width=8, num_classes=3, seed=1), 2, tmp_path)
        path = tmp_path / "labels" / "0001.pgm"
        labels = load_pgm(path)
        labels[2, 5] = 255  # the ignore label is not a class, and is allowed
        save_pgm(path, labels)
        assert Dataset(tmp_path)[1][1][2, 5] == 255
        labels[4, 4] = 3
        save_pgm(path, labels)
        with pytest.raises(FormatError, match=r"0001\.pgm: label 3 "):
            Dataset(tmp_path)[1]

    def test_manifest_records_the_sample_size(self, tmp_path):
        generate(SceneSpec(height=8, width=16, num_classes=3, seed=1), 1, tmp_path)
        assert Dataset(tmp_path).size == (8, 16) == Dataset(tmp_path)[0][1].shape

    def test_batch_assembly_preserves_index_order(self, tmp_path):
        generate(SceneSpec(seed=4), 4, tmp_path)
        ds = Dataset(tmp_path)
        images, labels = (np.stack(parts) for parts in zip(*(ds[i] for i in [3, 0, 2, 1])))
        assert images.shape == (4, 3, 64, 64)
        assert labels.shape == (4, 64, 64)
        np.testing.assert_array_equal(images[0], ds[3][0])
        np.testing.assert_array_equal(labels[1], ds[0][1])
