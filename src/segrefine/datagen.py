"""Synthetic shape-segmentation dataset: rectangles, disks, and stripes on
a noisy background, with class-correlated base colors so the task is
learnable but local evidence stays noisy.

On-disk layout: images/NNNN.frmt (3,H,W float32), labels/NNNN.pgm
(binary P5, maxval 255), manifest.txt with counts, K, seed, histogram.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .config import ConfigError
from .tensor import FormatError, load_tensor_file, save_tensor_file

IGNORE_INDEX = 255
NOISE = 0.1  # half-width of the uniform pixel noise over each rendered scene


@dataclass
class SceneSpec:
    height: int = 64
    width: int = 64
    num_classes: int = 5  # background + num_classes-1 shape classes
    min_shapes: int = 2
    max_shapes: int = 4
    seed: int = 0

    def validate(self):
        # class ids are PGM bytes, and the byte IGNORE_INDEX is not a class
        if not 2 <= self.num_classes <= IGNORE_INDEX:
            raise ConfigError(f"classes must be 2..{IGNORE_INDEX}, got {self.num_classes}")


def class_palette(num_classes):
    """Distinct base colors; class 0 (background) is dark gray."""
    hues = np.linspace(0.0, 1.0, num_classes, endpoint=False)
    colors = np.zeros((num_classes, 3), dtype=np.float32)
    colors[0] = (0.25, 0.25, 0.25)
    for c in range(1, num_classes):
        h = hues[c] * 6.0
        i = int(h) % 6
        f = h - int(h)
        v, p, q, t = 0.9, 0.15, 0.9 * (1 - 0.75 * f), 0.15 + 0.75 * f
        rgb = [(v, t, p), (q, v, p), (p, v, t), (p, q, v), (t, p, v), (v, p, q)][i]
        colors[c] = rgb
    return colors


def render_scene(spec: SceneSpec, rng):
    """One (image, labels) pair: shapes drawn back-to-front over background."""
    h, w = spec.height, spec.width
    labels = np.zeros((h, w), dtype=np.int64)
    n_shapes = int(rng.integers(spec.min_shapes, spec.max_shapes + 1))
    yy, xx = np.mgrid[0:h, 0:w]
    for _ in range(n_shapes):
        cls = int(rng.integers(1, spec.num_classes))
        kind = (cls - 1) % 3  # rectangle / disk / stripe by class
        if kind == 0:
            sh = int(rng.integers(h // 4, h // 2 + 1))
            sw = int(rng.integers(w // 4, w // 2 + 1))
            top = int(rng.integers(0, h - sh + 1))
            left = int(rng.integers(0, w - sw + 1))
            labels[top : top + sh, left : left + sw] = cls
        elif kind == 1:
            r = int(rng.integers(h // 6, h // 3 + 1))
            cy = int(rng.integers(r, h - r + 1))
            cx = int(rng.integers(r, w - r + 1))
            labels[(yy - cy) ** 2 + (xx - cx) ** 2 <= r * r] = cls
        else:
            thick = int(rng.integers(h // 8, h // 4 + 1))
            pos = int(rng.integers(0, h - thick + 1))
            if rng.random() < 0.5:
                labels[pos : pos + thick, :] = cls
            else:
                labels[:, pos : pos + thick] = cls
    palette = class_palette(spec.num_classes)
    image = palette[labels].transpose(2, 0, 1).astype(np.float32)
    image += rng.uniform(-NOISE, NOISE, size=image.shape).astype(np.float32)
    return np.clip(image, 0.0, 1.0), labels


def save_pgm(path, labels):
    labels = np.asarray(labels)
    if labels.min() < 0 or labels.max() > 255:
        raise ValueError("labels out of 8-bit range")
    h, w = labels.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        f.write(labels.astype(np.uint8).tobytes())


def load_pgm(path):
    """Labels of a binary PGM; a short or garbled header is a FormatError."""
    with open(path, "rb") as f:
        data = f.read()
    fields = []
    pos = 0
    while len(fields) < 4:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if data[pos : pos + 1] == b"#":
            while pos < len(data) and data[pos : pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        if pos == start:
            raise FormatError(f"{path}: truncated header ({len(fields)} of 4 fields)")
        fields.append(data[start:pos])
    if fields[0] != b"P5":
        raise FormatError(f"{path}: not a binary PGM (magic {fields[0]!r})")
    if not all(f.isdigit() for f in fields[1:]):
        raise FormatError(f"{path}: width, height and maxval must be decimal, got {fields[1:]!r}")
    w, h, maxval = int(fields[1]), int(fields[2]), int(fields[3])
    if maxval != 255:
        raise FormatError(f"{path}: maxval must be 255, got {maxval}")
    pos += 1  # single whitespace after maxval
    raster = data[pos : pos + w * h]
    if len(raster) != w * h:
        raise FormatError(f"{path}: truncated raster")
    return np.frombuffer(raster, dtype=np.uint8).reshape(h, w).astype(np.int64)


def generate(spec: SceneSpec, count, out_dir):
    """Write `count` deterministic samples plus a manifest; returns histogram."""
    spec.validate()
    if count < 1:
        raise ConfigError(f"count must be at least 1, got {count}")
    os.makedirs(os.path.join(out_dir, "images"), exist_ok=True)
    os.makedirs(os.path.join(out_dir, "labels"), exist_ok=True)
    histogram = np.zeros(spec.num_classes, dtype=np.int64)
    seeds = np.random.SeedSequence(spec.seed).spawn(count)
    for i in range(count):
        rng = np.random.default_rng(seeds[i])
        image, labels = render_scene(spec, rng)
        save_tensor_file(os.path.join(out_dir, "images", f"{i:04d}.frmt"), image)
        save_pgm(os.path.join(out_dir, "labels", f"{i:04d}.pgm"), labels)
        histogram += np.bincount(labels.ravel(), minlength=spec.num_classes)
    with open(os.path.join(out_dir, "manifest.txt"), "w", encoding="utf-8") as f:
        f.write(f"count={count}\n")
        f.write(f"num_classes={spec.num_classes}\n")
        f.write(f"height={spec.height}\nwidth={spec.width}\n")
        f.write(f"seed={spec.seed}\n")
        f.write("histogram=" + ",".join(str(int(v)) for v in histogram) + "\n")
    return histogram


def read_manifest(path):
    manifest = os.path.join(path, "manifest.txt")
    out = {}
    with open(manifest, "r", encoding="utf-8") as f:
        try:
            for line in f:
                key, _, value = line.strip().partition("=")
                out[key] = value
            out["count"] = int(out["count"])
            out["num_classes"] = int(out["num_classes"])
            out["size"] = (int(out["height"]), int(out["width"]))
            out["histogram"] = [int(v) for v in out["histogram"].split(",")]
        except KeyError as exc:
            raise FormatError(f"{manifest}: no {exc.args[0]!r} key") from exc
        except ValueError as exc:  # a garbled integer, or bytes that are not UTF-8
            raise FormatError(f"{manifest}: {exc}") from exc
    return out


class Dataset:
    """Index-based access to a generated dataset directory."""

    def __init__(self, path):
        self.path = path
        self.manifest = read_manifest(path)
        self.num_classes = self.manifest["num_classes"]
        self.size = self.manifest["size"]  # (h, w) that `gen` wrote every sample at

    def __len__(self):
        return self.manifest["count"]

    def __getitem__(self, i):
        image = load_tensor_file(os.path.join(self.path, "images", f"{i:04d}.frmt"))
        label_path = os.path.join(self.path, "labels", f"{i:04d}.pgm")
        labels = load_pgm(label_path)
        if image.shape[1:] != labels.shape:
            raise FormatError(f"sample {i}: image/label size mismatch")
        if labels.shape != self.size:
            raise FormatError(f"sample {i}: size {labels.shape[0]}x{labels.shape[1]} is not the "
                              f"dataset's {self.size[0]}x{self.size[1]}")
        if labels.size and labels.max() >= self.num_classes:
            bad = labels[(labels >= self.num_classes) & (labels != IGNORE_INDEX)]
            if bad.size:
                raise FormatError(f"{label_path}: label {bad[0]} is neither a class "
                                  f"(0..{self.num_classes - 1}) nor {IGNORE_INDEX}")
        return image, labels

