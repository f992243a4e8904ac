"""Flat key=value config files.

One `key = value` pair per line; blank lines and #-comments ignored. Network
files describe stages as

    stage.0 = fused-mbconv out=16 e=1 s=1 r=1 safm
    stage.2 = mbconv out=64 e=4 s=2 r=2 attn=ce

with scalar keys stem / head / classes / input and the optional keys
safm.mode and se.ratio; a stage's input width is the previous stage's out,
or the stem's. Train and augment files are plain scalar keys. One loader,
`_load`, reads every grammar through a table of key -> (dataclass field,
converter). An unknown key, a value its converter rejects (nan and inf
included) or a range error (`validate_config`'s too) raises ValueError naming
the file, stage.N and the key; a range error names the key only when it
differs from the field, e.g. `(key lr)`. Defaults live on the dataclasses.
TrainConfig and AugmentConfig reject non-finite floats built in Python too.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, fields

from .backbone import NetworkConfig, StageSpec, validate_config


def read_kv(path: str) -> dict[str, str]:
    """Parse `key = value` lines; later duplicates override earlier ones."""
    out: dict[str, str] = {}
    # a byte that is not UTF-8 decodes to a lone surrogate U+DC80..U+DCFF
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, raw in enumerate(fh, start=1):
            if bad := re.search("[\udc80-\udcff]", raw):
                raise ValueError(f"{path}:{lineno}: not UTF-8: byte {ord(bad[0]) - 0xdc00:#04x}")
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key = value, got {raw.strip()!r}")
            key, value = line.split("=", 1)
            out[key.strip()] = value.strip()
    return out


def _boolean(value: str) -> bool:
    v = value.lower()
    if v in ("true", "1", "yes", "on"):
        return True
    if v in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {value!r}")


def _finite(value: str) -> float:
    if not math.isfinite(x := float(value)):
        raise ValueError(f"expected a finite number, got {value!r}")
    return x


def _load(cls, where: str, kv: dict[str, str], table: dict, kind: str,
          required: tuple[str, ...] = (), **given):
    """Build dataclass cls from kv through table (key -> (field, converter));
    a (field, end) pair sets one end of a tuple field. `given` passes through."""
    unknown = [k for k in kv if k not in table]
    if unknown:
        raise ValueError(f"{where}: unknown {kind} {unknown}")
    if any(k not in kv for k in required):
        raise ValueError(f"{where}: needs {' and '.join(k + '=' for k in required)}")
    args = dict(given)
    renamed: dict[str, list[str]] = {}  # field -> keys of another name that set it
    for key, value in kv.items():
        name, conv = table[key]
        try:
            val = conv(value)
        except ValueError as exc:
            raise ValueError(f"{where}: {key}: {exc}") from None
        if isinstance(name, tuple):
            name, end = name
            pair = list(args.get(name, cls.__dataclass_fields__[name].default))
            pair[end] = val
            val = tuple(pair)
        args[name] = val
        if name != key:
            renamed.setdefault(name, []).append(key)
    try:
        return cls(**args)
    except ValueError as exc:
        keys = next((k for name, k in renamed.items() if str(exc).startswith(name + " ")), [])
        suffix = f" (key{'s' * (len(keys) > 1)} {', '.join(keys)})" if keys else ""
        raise ValueError(f"{where}: {exc}{suffix}") from None


_STAGE_KEYS = {"out": ("out_channels", int), "e": ("expansion", int), "s": ("stride", int),
               "r": ("repeats", int), "attn": ("attention", str), "safm": ("safm_after", _boolean)}

_NETWORK_KEYS = {"stem": ("stem_channels", int), "head": ("head_channels", int),
                 "classes": ("num_classes", int), "input": ("input_size", int),
                 "safm.mode": ("safm_mode", str), "se.ratio": ("se_ratio", int)}


def _parse_stage(value: str, where: str) -> StageSpec:
    tokens = value.split()
    if not tokens:
        raise ValueError(f"{where}: empty stage definition")
    fields: dict[str, str] = {}
    for tok in tokens[1:]:
        if tok == "safm":
            tok = "safm=true"
        if "=" not in tok:
            raise ValueError(f"{where}: bad token {tok!r} (expected k=v or 'safm')")
        k, v = tok.split("=", 1)
        fields[k] = v
    return _load(StageSpec, where, fields, _STAGE_KEYS, "stage field",
                 required=("out",), block_kind=tokens[0])


def parse_network_config(path: str) -> NetworkConfig:
    kv = read_kv(path)
    stage_keys = sorted((k for k in kv if k.startswith("stage.") and k[6:].isdecimal()),
                        key=lambda k: int(k[6:]))
    indices = [int(k[6:]) for k in stage_keys]
    if indices != list(range(len(indices))):
        raise ValueError(f"{path}: stage indices must be contiguous from 0, got {indices}")
    stages = [_parse_stage(kv.pop(k), f"{path}: {k}") for k in stage_keys]
    cfg = _load(NetworkConfig, path, kv, _NETWORK_KEYS, "network keys", stages=stages)
    try:
        validate_config(cfg)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return cfg


def _require_finite(cfg) -> None:
    """Raise ValueError naming the first float field of dataclass cfg (or
    tuple field holding floats) that is nan or +-inf."""
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        items = value if isinstance(value, tuple) else (value,)
        if any(isinstance(v, float) and not math.isfinite(v) for v in items):
            raise ValueError(f"{f.name} must be finite, got {value}")


@dataclass
class TrainConfig:
    network: str = ""
    dataset: str = ""
    epochs: int = 50
    batch_size: int = 16
    optimizer: str = "sgd-momentum"
    learning_rate: float | None = None  # None -> per-optimizer default
    momentum: float = 0.9
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    seed: int = 0
    augment: bool = False
    resize_to: int = 64
    split_frac: float = 0.8
    window: int = 10
    out_dir: str = "run"

    def __post_init__(self):
        _require_finite(self)
        if self.optimizer not in ("sgd-momentum", "adam"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        if self.learning_rate is None:
            self.learning_rate = 0.01 if self.optimizer == "sgd-momentum" else 1e-3
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.window < 1:
            raise ValueError(f"window must be >= 1, got {self.window}")
        if self.epochs < self.window:
            raise ValueError(
                f"epochs ({self.epochs}) must be >= metrics window ({self.window})")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not (0.0 < self.split_frac < 1.0):
            raise ValueError(f"split_frac must be in (0,1), got {self.split_frac}")
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be > 0, got {self.learning_rate}")
        for name in ("momentum", "beta1", "beta2"):
            if not (0.0 <= getattr(self, name) < 1.0):
                raise ValueError(f"{name} must be in [0,1), got {getattr(self, name)}")
        if self.adam_eps <= 0:
            raise ValueError(f"adam_eps must be > 0, got {self.adam_eps}")


_TRAIN_KEYS = {
    "network": ("network", str), "dataset": ("dataset", str), "out": ("out_dir", str),
    "optimizer": ("optimizer", str), "epochs": ("epochs", int), "window": ("window", int),
    "batch_size": ("batch_size", int), "resize": ("resize_to", int), "seed": ("seed", int),
    "augment": ("augment", _boolean), "lr": ("learning_rate", _finite),
    "split": ("split_frac", _finite), "momentum": ("momentum", _finite),
    "beta1": ("beta1", _finite), "beta2": ("beta2", _finite), "adam_eps": ("adam_eps", _finite)}


def parse_train_config(path: str) -> TrainConfig:
    return _load(TrainConfig, path, read_kv(path), _TRAIN_KEYS, "train keys",
                 required=("network", "dataset"))


@dataclass
class AugmentConfig:
    rotation_deg: tuple[float, float] = (-90.0, 90.0)
    translate_frac: float = 0.10
    gauss_std: float = 0.02
    sp_density: float = 0.02
    hflip_prob: float = 0.5
    scale_range: tuple[float, float] = (0.8, 1.25)
    per_class_new: int = 100
    seed: int = 0

    def __post_init__(self):
        _require_finite(self)
        lo, hi = self.rotation_deg
        if hi < lo:
            raise ValueError(f"rotation_deg interval degenerate: [{lo}, {hi}]")
        if not math.isfinite(hi - lo):
            raise ValueError(f"rotation_deg interval too wide: [{lo}, {hi}] has no finite width")
        slo, shi = self.scale_range
        if shi < slo or slo <= 0:
            raise ValueError(f"scale_range invalid: [{slo}, {shi}]")
        if not (0.0 <= self.hflip_prob <= 1.0):
            raise ValueError(f"hflip_prob must be in [0,1], got {self.hflip_prob}")
        if not (0.0 <= self.sp_density < 1.0):
            raise ValueError(f"sp_density must be in [0,1), got {self.sp_density}")
        if self.gauss_std < 0:
            raise ValueError(f"gauss_std must be >= 0, got {self.gauss_std}")
        if not (0.0 <= self.translate_frac <= 1.0):
            raise ValueError(f"translate_frac must be in [0,1], got {self.translate_frac}")
        if self.per_class_new < 0:
            raise ValueError(f"per_class_new must be >= 0, got {self.per_class_new}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


_AUGMENT_KEYS = {
    "rotation_min": (("rotation_deg", 0), _finite), "scale_min": (("scale_range", 0), _finite),
    "rotation_max": (("rotation_deg", 1), _finite), "scale_max": (("scale_range", 1), _finite),
    "translate_frac": ("translate_frac", _finite), "gauss_std": ("gauss_std", _finite),
    "sp_density": ("sp_density", _finite), "hflip_prob": ("hflip_prob", _finite),
    "per_class_new": ("per_class_new", int), "seed": ("seed", int)}


def parse_augment_config(path: str) -> AugmentConfig:
    return _load(AugmentConfig, path, read_kv(path), _AUGMENT_KEYS, "augment keys")
