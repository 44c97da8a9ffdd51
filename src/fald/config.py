"""Flat key=value experiment configuration files.

Lines are ``key = value`` with ``#`` comments; keys are validated against the
documented schema, duplicates and unknown keys are rejected, and every parse
error carries the offending line number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

SWEEP_AXES = ("k_local", "alpha", "rho", "eta", "s_scheme")
SCHEMES = ("full", "scheme1", "scheme2")
MODELS = ("gaussian", "logistic")
SCHEDULES = ("fixed", "decaying")


class ConfigError(ValueError):
    """Malformed configuration; message carries a line number when one applies."""


@dataclass
class ExperimentConfig:
    """Parsed experiment description (engine fields plus orchestration)."""

    model: str = "gaussian"
    n_clients: int = 0
    points_per_client: Tuple[int, ...] = ()
    dimension: int = 2
    sigma: Optional[np.ndarray] = None  # None: identity
    alpha: float = 1.0
    tau: float = 1.0
    k_local: int = 1
    eta: Optional[float] = None
    schedule: str = "fixed"
    rho: float = 0.0
    scheme: str = "full"
    s_devices: Optional[int] = None
    subsample_ratio: float = 1.0
    horizon: Optional[int] = None
    replications: Optional[int] = None
    seed: int = 0
    init: Optional[Tuple[float, ...]] = None
    sweep: Optional[str] = None
    sweep_values: Tuple = ()
    target_eps: Optional[float] = None
    outdir: str = "."
    collect_every: int = 10
    warmup_rounds: int = 0
    ece_bins: int = 10
    ridge: float = 0.01
    n_features: int = 2
    n_classes: int = 3
    n_test: int = 500
    delta_l: Optional[float] = None
    delta0: float = 1e-5
    delta1: float = 1e-6
    delta2: float = 1e-6
    eps_star: Optional[float] = None
    delta_star: Optional[float] = None


def _parse_int(raw, line):
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"line {line}: expected an integer, got {raw!r}") from None


def _parse_float(raw, line):
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"line {line}: expected a number, got {raw!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"line {line}: expected a finite number, got {raw!r}")
    return value


def _parse_floats(raw, line):
    return tuple(_parse_float(part.strip(), line) for part in raw.split(","))


def _parse_ints(raw, line):
    return tuple(_parse_int(part.strip(), line) for part in raw.split(","))


def _parse_choice(raw, line, choices, key):
    if raw not in choices:
        raise ConfigError(f"line {line}: {key} must be one of {', '.join(choices)}; got {raw!r}")
    return raw


_PARSERS = {
    "model": lambda raw, line: _parse_choice(raw, line, MODELS, "model"),
    "n_clients": _parse_int,
    "points_per_client": _parse_ints,
    "dimension": _parse_int,
    "sigma": _parse_floats,
    "alpha": _parse_float,
    "tau": _parse_float,
    "k_local": _parse_int,
    "eta": _parse_float,
    "schedule": lambda raw, line: _parse_choice(raw, line, SCHEDULES, "schedule"),
    "rho": _parse_float,
    "scheme": lambda raw, line: _parse_choice(raw, line, SCHEMES, "scheme"),
    "s_devices": _parse_int,
    "subsample_ratio": _parse_float,
    "horizon": _parse_int,
    "replications": _parse_int,
    "seed": _parse_int,
    "init": _parse_floats,
    "sweep": lambda raw, line: _parse_choice(raw, line, SWEEP_AXES, "sweep"),
    "sweep_values": lambda raw, line: raw,  # typed once the axis is known
    "target_eps": _parse_float,
    "outdir": lambda raw, line: raw,
    "collect_every": _parse_int,
    "warmup_rounds": _parse_int,
    "ece_bins": _parse_int,
    "ridge": _parse_float,
    "n_features": _parse_int,
    "n_classes": _parse_int,
    "n_test": _parse_int,
    "delta_l": _parse_float,
    "delta0": _parse_float,
    "delta1": _parse_float,
    "delta2": _parse_float,
    "eps_star": _parse_float,
    "delta_star": _parse_float,
}

_MANDATORY = ("n_clients", "points_per_client", "seed")


def _parse_sweep_values(axis: str, raw: str, line: int) -> tuple:
    parts = [p.strip() for p in raw.split(",") if p.strip()]
    if not parts:
        raise ConfigError(f"line {line}: sweep_values must be a nonempty list")
    if axis == "k_local":
        return tuple(_parse_int(p, line) for p in parts)
    if axis in ("alpha", "rho", "eta"):
        return tuple(_parse_float(p, line) for p in parts)
    # s_scheme values look like "full", "scheme1:5", "scheme2:5"
    values = []
    for p in parts:
        if p == "full":
            values.append(("full", None))
            continue
        name, _, count = p.partition(":")
        if name not in ("scheme1", "scheme2") or not count:
            raise ConfigError(
                f"line {line}: s_scheme sweep values must be 'full' or 'scheme1:<S>'/'scheme2:<S>'; got {p!r}"
            )
        values.append((name, _parse_int(count, line)))
    return tuple(values)


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a key=value configuration."""
    values = {}
    lines = {}
    sweep_values_raw: Optional[Tuple[str, int]] = None
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        stripped = raw_line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw_line.strip()!r}")
        key, _, raw_value = stripped.partition("=")
        key = key.strip()
        raw_value = raw_value.strip()
        if key not in _PARSERS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r} (first set on line {lines[key]})")
        if not raw_value:
            raise ConfigError(f"line {lineno}: empty value for {key!r}")
        if key == "sweep_values":
            sweep_values_raw = (raw_value, lineno)
            values[key] = raw_value
        else:
            values[key] = _PARSERS[key](raw_value, lineno)
        lines[key] = lineno

    for key in _MANDATORY:
        if key not in values:
            raise ConfigError(f"missing mandatory key {key!r}")

    cfg = ExperimentConfig()
    for key, value in values.items():
        if key != "sweep_values":
            setattr(cfg, key, value)

    if cfg.sweep is not None:
        if sweep_values_raw is None:
            raise ConfigError("sweep is set but sweep_values is missing")
        cfg.sweep_values = _parse_sweep_values(cfg.sweep, *sweep_values_raw)
    elif sweep_values_raw is not None:
        raise ConfigError(f"line {sweep_values_raw[1]}: sweep_values given without a sweep axis")

    _validate(cfg, lines)
    return cfg


def parse_config_file(path) -> ExperimentConfig:
    with open(path, encoding="utf-8") as fh:
        return parse_config(fh.read())


def _fail(lines, key, message):
    prefix = f"line {lines[key]}: " if key in lines else ""
    raise ConfigError(prefix + message)


def _validate(cfg: ExperimentConfig, lines) -> None:
    if cfg.seed < 0:
        _fail(lines, "seed", "seed must be >= 0")
    if cfg.seed >= 2**63:
        # the sigma_sg stream keys add up to about 1e10 per client to the seed
        _fail(lines, "seed", "seed must be < 2**63")
    if cfg.n_clients < 1:
        _fail(lines, "n_clients", "n_clients must be >= 1")
    counts = cfg.points_per_client
    if len(counts) == 1:
        counts = counts * cfg.n_clients
    if len(counts) != cfg.n_clients:
        _fail(lines, "points_per_client", f"need 1 or {cfg.n_clients} client point counts, got {len(counts)}")
    if any(c < 1 for c in counts):
        _fail(lines, "points_per_client", "every client needs at least one point")
    cfg.points_per_client = counts
    if cfg.dimension < 1:
        _fail(lines, "dimension", "dimension must be >= 1")
    if cfg.sigma is not None:
        flat = np.asarray(cfg.sigma, dtype=np.float64)
        d = cfg.dimension
        if flat.size != d * d:
            _fail(lines, "sigma", f"sigma needs {d * d} entries (row-major {d}x{d}), got {flat.size}")
        cfg.sigma = flat.reshape(d, d)
    if cfg.alpha < 0:
        _fail(lines, "alpha", "alpha must be nonnegative")
    if cfg.tau < 0:
        _fail(lines, "tau", "tau must be nonnegative")
    if cfg.k_local < 1:
        _fail(lines, "k_local", "k_local must be >= 1")
    if cfg.eta is not None and cfg.eta <= 0:
        _fail(lines, "eta", "eta must be positive")
    if not 0 <= cfg.rho <= 1:
        _fail(lines, "rho", "rho must lie in [0, 1]")
    if cfg.scheme in ("scheme1", "scheme2"):
        if cfg.s_devices is None:
            _fail(lines, "scheme", f"{cfg.scheme} requires s_devices")
        if not 1 <= cfg.s_devices <= cfg.n_clients:
            _fail(lines, "s_devices", "need 1 <= s_devices <= n_clients")
    if cfg.scheme == "scheme2" and len(set(counts)) != 1:
        _fail(lines, "scheme", "scheme2 requires balanced clients (equal point counts per client)")
    if cfg.sweep == "s_scheme":
        for name, s in cfg.sweep_values:
            if name == "scheme2" and len(set(counts)) != 1:
                _fail(lines, "sweep_values", "scheme2 sweep values require balanced clients")
            if s is not None and not 1 <= s <= cfg.n_clients:
                _fail(lines, "sweep_values", f"s_devices {s} outside 1..{cfg.n_clients}")
    if not 0 < cfg.subsample_ratio <= 1:
        _fail(lines, "subsample_ratio", "subsample_ratio must lie in (0, 1]")
    if cfg.horizon is not None:
        if cfg.horizon < 1:
            _fail(lines, "horizon", "horizon must be >= 1")
        if cfg.sweep != "k_local" and cfg.horizon % cfg.k_local != 0:
            _fail(lines, "horizon", "horizon must be a multiple of k_local")
        if cfg.sweep == "k_local":
            for k in cfg.sweep_values:
                if k < 1 or cfg.horizon % k != 0:
                    _fail(lines, "sweep_values", f"horizon must be a multiple of every swept k_local (offender: {k})")
    if cfg.replications is not None and cfg.replications < 2:
        _fail(lines, "replications", "replications must be >= 2")
    if cfg.sweep == "rho":
        for r in cfg.sweep_values:
            if not 0 <= r <= 1:
                _fail(lines, "sweep_values", f"rho value {r} outside [0, 1]")
    if cfg.sweep == "eta":
        for e in cfg.sweep_values:
            if e <= 0:
                _fail(lines, "sweep_values", f"eta value {e} must be positive")
    if cfg.sweep == "alpha":
        for a in cfg.sweep_values:
            if a < 0:
                _fail(lines, "sweep_values", f"alpha value {a} must be nonnegative")
    if cfg.model == "logistic":
        if cfg.n_classes < 2:
            _fail(lines, "n_classes", "n_classes must be >= 2")
        if cfg.n_features < 1:
            _fail(lines, "n_features", "n_features must be >= 1")
        if cfg.n_test < 1:
            _fail(lines, "n_test", "n_test must be >= 1")
        if cfg.ridge <= 0:
            _fail(lines, "ridge", "ridge must be positive")
    if cfg.init is not None and len(cfg.init) != (
        cfg.dimension if cfg.model == "gaussian" else cfg.n_classes * cfg.n_features
    ):
        _fail(lines, "init", "init must list one value per parameter dimension")
    if cfg.collect_every < 1:
        _fail(lines, "collect_every", "collect_every must be >= 1")
    if cfg.warmup_rounds < 0:
        _fail(lines, "warmup_rounds", "warmup_rounds must be >= 0")
    if cfg.ece_bins < 1:
        _fail(lines, "ece_bins", "ece_bins must be >= 1")
    for key in ("target_eps", "delta_l", "eps_star", "delta_star"):
        if getattr(cfg, key) is not None and getattr(cfg, key) <= 0:
            _fail(lines, key, f"{key} must be positive")
    if not 0 < cfg.delta0 < 1:
        _fail(lines, "delta0", "delta0 must lie in (0, 1)")
    for key in ("delta1", "delta2"):
        if not 0 <= getattr(cfg, key) < 1:
            _fail(lines, key, f"{key} must lie in [0, 1)")


def require(cfg: ExperimentConfig, *keys: str) -> None:
    """Command-level check that optional keys were actually provided."""
    for key in keys:
        if getattr(cfg, key) is None:
            raise ConfigError(f"missing mandatory key {key!r} for this command")
