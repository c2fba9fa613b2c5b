"""Dataclass configs and the key=value config-file format.

Precedence when resolving a run: built-in defaults < config file < CLI flags.
Each field declares its domain once, as field metadata, and one `validate`
reads every domain; only the rules across fields are written out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

CONTEXT_HEADS = ("frm", "ppm", "dappm")


class ConfigError(ValueError):
    pass


def _bound(default, low, above=False):
    """A field whose value, or each entry of its tuple, is finite and >= low (> low if `above`)."""
    return field(default=default, metadata={"low": low, "above": above})


class _Config:
    def validate(self):
        """Raise ConfigError unless each field, nested too, is in its domain and each rule holds."""
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, _Config):
                value.validate()
            elif "choices" in f.metadata and value not in f.metadata["choices"]:
                raise ConfigError(f"unknown {f.name} {value!r}")
            elif "low" in f.metadata:
                low, above = f.metadata["low"], f.metadata["above"]
                if not all(low < v < math.inf if above else low <= v < math.inf
                           for v in (value if isinstance(value, tuple) else (value,))):
                    # "positive" is > 0 for a real and >= 1 for a count
                    bound = ("positive" if (low, above) in ((0, True), (1, False))
                             else f"{'>' if above else '>='} {low}")
                    raise ConfigError(f"{f.name} must be {bound}, got {format_value(value)}")
        for holds, message in self._rules():
            if not holds:
                raise ConfigError(message)

    def _rules(self):  # (holds, message) per rule across fields or a tuple's length
        return ()


@dataclass
class ModelConfig(_Config):
    channels: tuple = _bound((16, 32, 64, 128), 1)  # backbone stage channel plan
    decoder_channels: int = _bound(128, 1)
    num_classes: int = _bound(19, 1)
    context_head: str = field(default="frm", metadata={"choices": CONTEXT_HEADS})
    ffn_expansion: int = _bound(4, 1)
    ppm_bins: tuple = _bound((1, 2, 3, 6), 1)
    dappm_scales: tuple = _bound((2, 4, 8, 0), 0)  # 0 = global pooling branch
    embed_dim: int = _bound(64, 1)

    def _rules(self):
        yield len(self.channels) == 4, "channel plan must list four stage widths"


@dataclass
class LossConfig(_Config):
    lam: float = _bound(1.0, 0)  # weight of the contrastive term
    tau: float = _bound(0.1, 0, above=True)  # contrastive temperature
    anchors_per_class: int = _bound(16, 0)
    max_positives: int = _bound(16, 0)
    max_negatives: int = _bound(64, 0)


@dataclass
class TrainConfig(_Config):
    lr0: float = _bound(0.01, 0, above=True)
    momentum: float = _bound(0.9, 0)
    weight_decay: float = _bound(1e-4, 0)
    iters: int = _bound(1000, 1)
    poly_power: float = _bound(0.9, 0)
    crop: int = _bound(64, 1)
    batch: int = _bound(8, 1)
    seed: int = _bound(0, 0)
    scale_min: float = _bound(0.5, 0, above=True)
    scale_max: float = _bound(2.0, 0, above=True)
    eval_interval: int = _bound(100, 1)
    eval_count: int = _bound(16, 1)

    # largest scale_max: augment resizes a whole sample by up to this factor before the crop,
    # so its memory grows with the square of the scale
    SCALE_CAP = 4.0

    def _rules(self):
        yield (self.scale_min <= self.scale_max,
               f"scale_min {self.scale_min} exceeds scale_max {self.scale_max}")
        yield (self.scale_max <= self.SCALE_CAP,
               f"scale_max must be <= {self.SCALE_CAP}, got {self.scale_max}")


@dataclass
class RunConfig(_Config):
    model: ModelConfig = field(default_factory=ModelConfig)
    loss: LossConfig = field(default_factory=LossConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    data: str = "data"
    out: str = "runs/out"
    size: tuple = _bound((256, 256), 1)  # input size for cost profiling
    checkpoint: str = ""

    def _rules(self):
        yield len(self.size) == 2, f"size must be two extents, got {format_value(self.size)}"


# config-file key -> (section attr, field name); "lambda" is the file/flag
# spelling of the contrastive weight
_ALIASES = {"lambda": ("loss", "lam")}


def _coerce(current, raw):
    if isinstance(current, int):
        return int(raw)
    if isinstance(current, float):
        return float(raw)
    if isinstance(current, tuple):
        sep = "x" if "x" in raw and "," not in raw else ","
        return tuple(int(v) for v in raw.split(sep))
    return raw


def format_value(value):
    """The key=value spelling of a setting: tuples join with commas."""
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return value


def _field_map(cfg: RunConfig):
    out = {}
    for obj in (cfg.model, cfg.loss, cfg.train, cfg):
        for f in fields(obj):
            if not isinstance(getattr(obj, f.name), _Config):
                out[f.name] = (obj, f.name)
    for alias, (section, name) in _ALIASES.items():
        out[alias] = (getattr(cfg, section), name)
    return out


def apply_settings(cfg: RunConfig, settings: dict):
    fmap = _field_map(cfg)
    for key, raw in settings.items():
        if key not in fmap:
            raise ConfigError(f"unknown config key {key!r}")
        obj, name = fmap[key]
        value = raw
        if isinstance(raw, str):
            try:
                value = _coerce(getattr(obj, name), raw)
            except ValueError as exc:
                raise ConfigError(f"bad value for {key}: {raw!r} ({exc})") from exc
        setattr(obj, name, value)
    return cfg


def parse_config_file(path):
    settings = {}
    with open(path, "r", encoding="utf-8") as f:
        try:
            lines = f.readlines()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not UTF-8 ({exc.reason})") from exc
    for lineno, line in enumerate(lines, 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        settings[key.strip()] = value.strip()
    return settings


def dump_settings(cfg: RunConfig):
    """Flat key=value view of every resolved setting (run provenance)."""
    lines = []
    for key, (obj, name) in sorted(_field_map(cfg).items()):
        if key in _ALIASES:
            continue
        lines.append(f"{key}={format_value(getattr(obj, name))}")
    return "\n".join(lines) + "\n"
