"""Run configuration: a nested JSON file with strict key checking.

Unknown keys are rejected with their full path, wrong types name the key,
and a parse -> serialize -> parse round trip reproduces the configuration
exactly.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

from .dataio import SYNTHETIC_P
from .errors import ConfigError
from .nn import N_HEADS


@dataclass
class PathsCfg:
    corpus: str = "corpus"
    workdir: str = "work"


@dataclass
class DimsCfg:
    d: int = 64          # graph feature width
    d_m: int = 32        # molecular embedding width
    d_k: int = 16        # attention key width
    d_enc: int = 64      # fusion encoder width
    d_z: int = 16        # VAE latent width
    p: int = SYNTHETIC_P  # herb property vector length
    d_state: int = 16    # selective-scan state size


@dataclass
class GraphCfg:
    tau_s: int = 2
    tau_h: int = 2


@dataclass
class TrainCfg:
    lr: float = 3e-3
    epochs: int = 300
    batch: int = 0       # 0 = full batch
    seed: int = 42
    ratio: list[float] = field(default_factory=lambda: [0.7, 0.1, 0.2])
    mlfie_epochs: int = 100
    vae_epochs: int = 200
    fr_epochs: int = 200
    seq_max_len: int = 20


@dataclass
class AblationCfg:
    hgre: bool = True
    mlfie: bool = True
    gelram: bool = True
    fr: bool = True


@dataclass
class RunConfig:
    paths: PathsCfg = field(default_factory=PathsCfg)
    dims: DimsCfg = field(default_factory=DimsCfg)
    graph: GraphCfg = field(default_factory=GraphCfg)
    train: TrainCfg = field(default_factory=TrainCfg)
    ablation: AblationCfg = field(default_factory=AblationCfg)


_SECTION_TYPES = {"paths": PathsCfg, "dims": DimsCfg, "graph": GraphCfg,
                  "train": TrainCfg, "ablation": AblationCfg}


def _finite(path: str, number: int | float) -> float:
    """``number`` as a float.  JSON spells NaN, the infinities and ints
    beyond the float range, and every comparison with NaN is false, so no
    range check in ``_validate`` would refuse them: they are refused here."""
    if not abs(number) <= sys.float_info.max:
        raise ConfigError(f"{path}: expected a finite number, got {number!r}")
    return float(number)


def _coerce(section: str, key: str, value, annotation: str):
    path = f"{section}.{key}"
    if annotation == "bool":
        if not isinstance(value, bool):
            raise ConfigError(f"{path}: expected a boolean, got {value!r}")
        return value
    if annotation == "int":
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{path}: expected an integer, got {value!r}")
        return value
    if annotation == "float":
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{path}: expected a number, got {value!r}")
        return _finite(path, value)
    if annotation == "str":
        if not isinstance(value, str):
            raise ConfigError(f"{path}: expected a string, got {value!r}")
        return value
    if annotation == "list[float]":
        if (not isinstance(value, list)
                or any(isinstance(v, bool) or not isinstance(v, (int, float))
                       for v in value)):
            raise ConfigError(f"{path}: expected a list of numbers, got {value!r}")
        return [_finite(path, v) for v in value]
    raise ConfigError(f"{path}: unsupported config type {annotation!r}")


def _validate(cfg: RunConfig) -> RunConfig:
    for name in ("d", "d_m", "d_k", "d_enc", "d_z", "p", "d_state"):
        if getattr(cfg.dims, name) < 1:
            raise ConfigError(f"dims.{name}: must be >= 1, "
                              f"got {getattr(cfg.dims, name)}")
    for name in ("tau_s", "tau_h"):
        if getattr(cfg.graph, name) < 1:
            raise ConfigError(f"graph.{name}: must be >= 1")
    if cfg.train.lr <= 0:
        raise ConfigError("train.lr: must be positive")
    if cfg.train.seed < 0:
        raise ConfigError(f"train.seed: must be >= 0, got {cfg.train.seed}")
    for name in ("epochs", "batch", "mlfie_epochs", "vae_epochs", "fr_epochs"):
        if getattr(cfg.train, name) < 0:
            raise ConfigError(f"train.{name}: must be >= 0")
    if cfg.train.seq_max_len < 1:
        raise ConfigError(f"train.seq_max_len: must be >= 1, got {cfg.train.seq_max_len}")
    if len(cfg.train.ratio) != 3 or any(r <= 0 for r in cfg.train.ratio):
        raise ConfigError("train.ratio: must be three positive numbers")
    if abs(sum(cfg.train.ratio) - 1.0) > 1e-9:
        raise ConfigError(f"train.ratio: must sum to 1, got {sum(cfg.train.ratio)}")
    if cfg.dims.d_enc % N_HEADS != 0:
        raise ConfigError(f"dims.d_enc: must be divisible by the {N_HEADS} attention heads")
    return cfg


def config_from_dict(obj: dict) -> RunConfig:
    if not isinstance(obj, dict):
        raise ConfigError("configuration root must be an object")
    cfg = RunConfig()
    for section, content in obj.items():
        if section not in _SECTION_TYPES:
            raise ConfigError(f"unknown config section {section!r}")
        if not isinstance(content, dict):
            raise ConfigError(f"{section}: expected an object")
        target = getattr(cfg, section)
        known = {f.name: f.type for f in fields(_SECTION_TYPES[section])}
        for key, value in content.items():
            if key not in known:
                raise ConfigError(f"unknown config key {section}.{key}")
            setattr(target, key, _coerce(section, key, value, known[key]))
    return _validate(cfg)


def parse_config(path: str | Path) -> RunConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        obj = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc})") from exc
    return config_from_dict(obj)


def serialize_config(cfg: RunConfig) -> str:
    return json.dumps(asdict(cfg), sort_keys=True, indent=2) + "\n"


def config_hash(cfg: RunConfig) -> str:
    return hashlib.blake2b(serialize_config(cfg).encode("utf-8"),
                           digest_size=16).hexdigest()
