"""Dataclass configs and the key=value config-file format.

Precedence when resolving a run: built-in defaults < config file < CLI flags.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields


class ConfigError(ValueError):
    pass


@dataclass
class ModelConfig:
    channels: tuple = (16, 32, 64, 128)  # backbone stage channel plan
    decoder_channels: int = 128
    num_classes: int = 19
    context_head: str = "frm"  # frm | ppm | dappm
    ffn_expansion: int = 4
    ppm_bins: tuple = (1, 2, 3, 6)
    dappm_scales: tuple = (2, 4, 8, 0)  # 0 = global pooling branch
    embed_dim: int = 64

    def validate(self):
        if self.context_head not in ("frm", "ppm", "dappm"):
            raise ConfigError(f"unknown context_head {self.context_head!r}")
        if len(self.channels) != 4:
            raise ConfigError("channel plan must list four stage widths")
        for name in ("channels", "decoder_channels", "num_classes", "ffn_expansion",
                     "ppm_bins", "embed_dim"):
            value = getattr(self, name)
            if min(value if isinstance(value, tuple) else (value,), default=1) < 1:
                raise ConfigError(f"{name} must be positive, got {format_value(value)}")


@dataclass
class LossConfig:
    lam: float = 1.0  # weight of the contrastive term
    tau: float = 0.1  # contrastive temperature
    anchors_per_class: int = 16
    max_positives: int = 16
    max_negatives: int = 64

    def validate(self):
        if self.tau <= 0:
            raise ConfigError(f"temperature must be positive, got {self.tau}")
        if self.lam < 0:
            raise ConfigError(f"contrastive weight must be >= 0, got {self.lam}")
        for name in ("anchors_per_class", "max_positives", "max_negatives"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0, got {getattr(self, name)}")


@dataclass
class TrainConfig:
    lr0: float = 0.01
    momentum: float = 0.9
    weight_decay: float = 1e-4
    iters: int = 1000
    poly_power: float = 0.9
    crop: int = 64
    batch: int = 8
    seed: int = 0
    scale_min: float = 0.5
    scale_max: float = 2.0
    eval_interval: int = 100
    eval_count: int = 16

    def validate(self):
        for name in ("iters", "batch", "eval_interval", "eval_count"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        for name in ("lr0", "scale_min"):
            if not getattr(self, name) > 0:  # NaN too
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        if self.scale_min > self.scale_max:
            raise ConfigError(f"scale_min {self.scale_min} exceeds scale_max {self.scale_max}")


@dataclass
class RunConfig:
    model: ModelConfig = field(default_factory=ModelConfig)
    loss: LossConfig = field(default_factory=LossConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    data: str = "data"
    out: str = "runs/out"
    size: tuple = (256, 256)  # input size for cost profiling
    checkpoint: str = ""

    def validate(self):
        self.model.validate()
        self.loss.validate()
        self.train.validate()
        if len(self.size) != 2 or min(self.size) < 1:
            raise ConfigError(f"size must be two positive extents, got {format_value(self.size)}")


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
    for section in ("model", "loss", "train"):
        obj = getattr(cfg, section)
        for f in fields(obj):
            out[f.name] = (obj, f.name)
    for f in fields(cfg):
        if f.name not in ("model", "loss", "train"):
            out[f.name] = (cfg, f.name)
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
