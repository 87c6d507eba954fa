"""Run configuration: JSON document parsing with strict key checking."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields, replace

from .errors import ConfigError, ValidationError
from .fock import FockParams
from .model import Schedule
from .spectral import DEGENERACY_TOL


@dataclass(frozen=True)
class RunConfig:
    omega: float = 6.2832
    g_max: float = 6.2832
    c: float = 0.0
    n_fock: int = 256
    buffer: int = 64
    sweep_kind: str = "r"
    sweep_start: float = 0.0
    sweep_stop: float = 1.0
    sweep_points: int = 51
    k_levels: int = 7
    tol_degeneracy: float = DEGENERACY_TOL
    tol_convergence: float = 1e-6
    out_csv: str | None = None
    out_svg: str | None = None

    def fock(self) -> FockParams:
        return FockParams(n_fock=self.n_fock, buffer=self.buffer)

    def schedule(self) -> Schedule:
        return Schedule(omega=self.omega, g_max=self.g_max, c=self.c)


# The type of each RunConfig field, which is also the type of its JSON key
# and of its CLI flag; a None default (the output paths) is a str.  Every
# subcommand takes every field as a flag.  The r path and verify's
# thresholds are fixed in code, so neither has a field.
FIELD_TYPES = {
    f.name: str if f.default is None else type(f.default) for f in fields(RunConfig)
}
# The sweep_* fields live in the nested "sweep" object.
_SWEEP_KEYS = {
    name.removeprefix("sweep_"): kind
    for name, kind in FIELD_TYPES.items()
    if name.startswith("sweep_")
}
_TOP_KEYS = {
    name: kind for name, kind in FIELD_TYPES.items() if not name.startswith("sweep_")
}
_TOP_KEYS["sweep"] = dict


def _coerce(name: str, value, kind):
    if kind is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"key {name!r} must be a number, got {value!r}")
        return float(value)
    if kind is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"key {name!r} must be an integer, got {value!r}")
        return value
    if kind is str:
        if not isinstance(value, str):
            raise ConfigError(f"key {name!r} must be a string, got {value!r}")
        return value
    if kind is dict:
        if not isinstance(value, dict):
            raise ConfigError(f"key {name!r} must be an object, got {value!r}")
        return value
    raise AssertionError(kind)


def validate(cfg: RunConfig) -> RunConfig:
    """Enforce the RunConfig invariants, raising ConfigError with the cause.

    The rules on omega, g_max, c, n_fock and buffer are those of
    FockParams and Schedule, checked by building both.
    """
    for name in ("omega", "g_max", "c", "sweep_start", "sweep_stop",
                 "tol_degeneracy", "tol_convergence"):
        if not math.isfinite(getattr(cfg, name)):
            raise ConfigError(f"key {name!r} must be finite")
    try:
        cfg.fock()
        cfg.schedule()
    except ValidationError as exc:
        raise ConfigError(str(exc)) from exc
    if cfg.sweep_kind not in ("r", "g"):
        raise ConfigError(f"sweep kind must be 'r' or 'g', got {cfg.sweep_kind!r}")
    if cfg.sweep_points < 2:
        raise ConfigError("sweep points must be >= 2")
    if cfg.sweep_stop <= cfg.sweep_start:
        raise ConfigError("sweep stop must be greater than start")
    if cfg.sweep_kind == "r" and not (0.0 <= cfg.sweep_start and cfg.sweep_stop <= 1.0):
        raise ConfigError("r-sweep range must lie within [0, 1]")
    if cfg.sweep_kind == "g" and cfg.sweep_start < 0.0:
        raise ConfigError("g-sweep range must be non-negative")
    if cfg.k_levels < 1:
        raise ConfigError("k_levels must be >= 1")
    for name in ("tol_degeneracy", "tol_convergence"):
        if getattr(cfg, name) <= 0:
            raise ConfigError(f"{name} must be > 0")
    for name in ("out_csv", "out_svg"):
        value = getattr(cfg, name)
        if value is not None and not value:
            raise ConfigError(f"{name} must be a non-empty path when given")
    return cfg


def parse_config(text: str) -> RunConfig:
    """Parse a JSON configuration document into a validated RunConfig."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("configuration must be a single JSON object")
    values: dict = {}
    for key, value in doc.items():
        if key not in _TOP_KEYS:
            raise ConfigError(f"unknown configuration key {key!r}")
        value = _coerce(key, value, _TOP_KEYS[key])
        if key == "sweep":
            for sub, subval in value.items():
                if sub not in _SWEEP_KEYS:
                    raise ConfigError(f"unknown configuration key 'sweep.{sub}'")
                values[f"sweep_{sub}"] = _coerce(f"sweep.{sub}", subval, _SWEEP_KEYS[sub])
        else:
            values[key] = value
    return validate(replace(RunConfig(), **values))
