"""Flat key=value experiment configuration files.

Lines are ``key = value`` with ``#`` comments; keys are validated against the
documented schema, duplicates and unknown keys are rejected, and every parse
error carries the offending line number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from typing import Optional, Tuple

import numpy as np

from .model import ModelError, _check_spd

SWEEP_AXES = ("k_local", "alpha", "rho", "eta", "s_scheme")
SCHEMES = ("full", "scheme1", "scheme2")
MODELS = ("gaussian", "logistic")
SCHEDULES = ("fixed", "decaying")


class ConfigError(ValueError):
    """Malformed configuration; message carries a line number when one applies."""


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


def _choice(key, choices):
    def parse(raw, line):
        if raw not in choices:
            raise ConfigError(f"line {line}: {key} must be one of {', '.join(choices)}; got {raw!r}")
        return raw

    return parse


def _key(default, parse, interval=None):
    """A config key: its default, its parser of (raw, line) and the range of its values, or None."""
    return field(default=default, metadata={"parse": parse, "range": interval})


@dataclass
class ExperimentConfig:
    """Parsed experiment description (engine fields plus orchestration); each field is one key."""

    model: str = _key("gaussian", _choice("model", MODELS))
    n_clients: int = _key(0, _parse_int, "[1, inf)")
    points_per_client: Tuple[int, ...] = _key((), _parse_ints, "[1, inf)")
    dimension: int = _key(2, _parse_int, "[1, inf)")
    sigma: Optional[np.ndarray] = _key(None, _parse_floats)  # None: identity
    alpha: float = _key(1.0, _parse_float, "[0, inf)")
    tau: float = _key(1.0, _parse_float, "[0, inf)")
    k_local: int = _key(1, _parse_int, "[1, inf)")
    eta: Optional[float] = _key(None, _parse_float, "(0, inf)")
    schedule: str = _key("fixed", _choice("schedule", SCHEDULES))
    rho: float = _key(0.0, _parse_float, "[0, 1]")
    scheme: str = _key("full", _choice("scheme", SCHEMES))
    s_devices: Optional[int] = _key(None, _parse_int, "[1, inf)")
    subsample_ratio: float = _key(1.0, _parse_float, "(0, 1]")
    horizon: Optional[int] = _key(None, _parse_int, "[1, inf)")
    replications: Optional[int] = _key(None, _parse_int, "[2, inf)")
    seed: int = _key(0, _parse_int, "[0, 2**64)")
    init: Optional[Tuple[float, ...]] = _key(None, _parse_floats)
    sweep: Optional[str] = _key(None, _choice("sweep", SWEEP_AXES))
    sweep_values: Tuple = _key((), lambda raw, line: raw)  # typed once the axis is known
    target_eps: Optional[float] = _key(None, _parse_float, "(0, inf)")
    outdir: str = _key(".", lambda raw, line: raw)
    collect_every: int = _key(10, _parse_int, "[1, inf)")
    warmup_rounds: int = _key(0, _parse_int, "[0, inf)")
    ece_bins: int = _key(10, _parse_int, "[1, inf)")
    ridge: float = _key(0.01, _parse_float, "(0, inf)")
    n_features: int = _key(2, _parse_int, "[1, inf)")
    n_classes: int = _key(3, _parse_int, "[2, inf)")
    n_test: int = _key(500, _parse_int, "[1, inf)")
    delta_l: Optional[float] = _key(None, _parse_float, "(0, inf)")
    delta0: float = _key(1e-5, _parse_float, "(0, 1)")
    delta1: float = _key(1e-6, _parse_float, "[0, 1)")
    delta2: float = _key(1e-6, _parse_float, "[0, 1)")
    eps_star: Optional[float] = _key(None, _parse_float, "(0, inf)")
    delta_star: Optional[float] = _key(None, _parse_float, "(0, inf)")


_KEYS = {f.name: (f.metadata["parse"], f.metadata["range"]) for f in fields(ExperimentConfig)}
"""key -> (parser of the raw text, range of every value as interval text, or None).

A range holds whenever the key has a value, whatever the model; it applies to
each count of a list-valued key and to every swept value of the key.
"""

_MANDATORY = ("n_clients", "points_per_client", "seed")


def _parse_scheme_value(raw, line):
    """An s_scheme sweep value: "full", "scheme1:5" or "scheme2:5", as (scheme, s_devices)."""
    if raw == "full":
        return ("full", None)
    name, _, count = raw.partition(":")
    if name == "full" or name not in SCHEMES or not count:
        raise ConfigError(
            f"line {line}: s_scheme sweep values must be 'full' or 'scheme1:<S>'/'scheme2:<S>'; got {raw!r}"
        )
    return (name, _parse_int(count, line))


def _parse_sweep_values(axis: str, raw: str, line: int) -> tuple:
    parts = [p.strip() for p in raw.split(",") if p.strip()]
    if not parts:
        raise ConfigError(f"line {line}: sweep_values must be a nonempty list")
    parse = _parse_scheme_value if axis == "s_scheme" else _KEYS[axis][0]
    return tuple(parse(p, line) for p in parts)


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a key=value configuration, then every sweep point."""
    values = {}
    lines = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        stripped = raw_line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw_line.strip()!r}")
        key, _, raw_value = stripped.partition("=")
        key = key.strip()
        raw_value = raw_value.strip()
        if key not in _KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r} (first set on line {lines[key]})")
        if not raw_value:
            raise ConfigError(f"line {lineno}: empty value for {key!r}")
        values[key] = _KEYS[key][0](raw_value, lineno)
        lines[key] = lineno

    for key in _MANDATORY:
        if key not in values:
            raise ConfigError(f"missing mandatory key {key!r}")

    cfg = ExperimentConfig()
    raw_sweep = values.pop("sweep_values", None)
    for key, value in values.items():
        setattr(cfg, key, value)

    if cfg.sweep is not None:
        if raw_sweep is None:
            raise ConfigError("sweep is set but sweep_values is missing")
        cfg.sweep_values = _parse_sweep_values(cfg.sweep, raw_sweep, lines["sweep_values"])
    elif raw_sweep is not None:
        raise ConfigError(f"line {lines['sweep_values']}: sweep_values given without a sweep axis")

    _validate(cfg, lines)
    for value in cfg.sweep_values:
        try:
            _validate(sweep_point(cfg, value), {})
        except ConfigError as err:
            label = sweep_label(cfg, value)
            raise ConfigError(f"line {lines['sweep_values']}: {err} (offender: {label})") from None
    return cfg


def parse_config_file(path) -> ExperimentConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as err:
        raise ConfigError(f"cannot read config file {path}: {err}") from None
    return parse_config(text)


def sweep_point(cfg: ExperimentConfig, value) -> ExperimentConfig:
    """The config with the swept key replaced by ``value`` (an s_scheme value sets scheme and s_devices)."""
    if cfg.sweep == "s_scheme":
        name, s = value
        return replace(cfg, scheme=name, s_devices=s)
    return replace(cfg, **{cfg.sweep: value})


def sweep_label(cfg: ExperimentConfig, value) -> str:
    """How a sweep value is written in the sweep outputs: 'scheme1:5', '2', '0.001'."""
    if cfg.sweep == "s_scheme":
        name, s = value
        return name if s is None else f"{name}:{s}"
    return repr(value)


def _fail(lines, key, message):
    prefix = f"line {lines[key]}: " if key in lines else ""
    raise ConfigError(prefix + message)


def _bound(text: str) -> float:
    base, _, power = text.partition("**")
    return float(base) ** int(power) if power else float(text)


def _range_error(key: str, value, interval: str) -> Optional[str]:
    """Why ``value`` lies outside ``interval`` (such as "[0, 2**64)"), or None when it lies inside.

    Floats bounded on both ends name the interval; otherwise the message names
    the violated end, and a float bounded below by 0 must be positive or nonnegative.
    """
    lo_text, hi_text = interval[1:-1].split(", ")
    lo, hi = _bound(lo_text), _bound(hi_text)
    lo_closed, hi_closed = interval[0] == "[", interval[-1] == "]"
    low_ok = value > lo or (lo_closed and value == lo)
    high_ok = value < hi or (hi_closed and value == hi)
    if low_ok and high_ok:
        return None
    if isinstance(value, float) and math.isfinite(hi):
        return f"{key} must lie in {interval}"
    if not low_ok and isinstance(value, float) and lo == 0:
        return f"{key} must be {'nonnegative' if lo_closed else 'positive'}"
    if not low_ok:
        return f"{key} must be {'>=' if lo_closed else '>'} {lo_text}"
    return f"{key} must be {'<=' if hi_closed else '<'} {hi_text}"


def _validate(cfg: ExperimentConfig, lines) -> None:
    for key, (_, interval) in _KEYS.items():
        value = getattr(cfg, key)
        if interval is None or value is None:
            continue
        for item in value if isinstance(value, tuple) else (value,):
            message = _range_error(key, item, interval)
            if message is not None:
                _fail(lines, key, message)
    if (cfg.eps_star is None) != (cfg.delta_star is None):
        given, missing = ("eps_star", "delta_star") if cfg.delta_star is None else ("delta_star", "eps_star")
        _fail(lines, given, f"{given} needs {missing}: the budget search takes both")
    counts = cfg.points_per_client
    if len(counts) == 1:
        counts = counts * cfg.n_clients
    if len(counts) != cfg.n_clients:
        _fail(lines, "points_per_client", f"need 1 or {cfg.n_clients} client point counts, got {len(counts)}")
    cfg.points_per_client = counts
    if cfg.sigma is not None:
        flat = np.asarray(cfg.sigma, dtype=np.float64)
        d = cfg.dimension
        if flat.size != d * d:
            _fail(lines, "sigma", f"sigma needs {d * d} entries (row-major {d}x{d}), got {flat.size}")
        try:
            cfg.sigma = _check_spd(flat.reshape(d, d))
        except ModelError as err:
            _fail(lines, "sigma", str(err))
    if cfg.scheme != "full":
        if cfg.s_devices is None:
            _fail(lines, "scheme", f"{cfg.scheme} requires s_devices")
        if cfg.s_devices > cfg.n_clients:
            _fail(lines, "s_devices", "need s_devices <= n_clients")
    elif cfg.s_devices is not None:
        _fail(lines, "s_devices", "s_devices needs scheme = scheme1 or scheme2 (scheme = full uses every client)")
    if cfg.scheme == "scheme2" and len(set(counts)) != 1:
        _fail(lines, "scheme", "scheme2 requires balanced clients (equal point counts per client)")
    if cfg.horizon is not None and cfg.horizon % cfg.k_local != 0:
        _fail(lines, "horizon", "horizon must be a multiple of k_local")
    first_sample = cfg.warmup_rounds + cfg.collect_every
    if cfg.model == "logistic" and cfg.horizon is not None and first_sample > cfg.horizon // cfg.k_local:
        key = "warmup_rounds" if "warmup_rounds" in lines else "horizon"
        _fail(lines, key, "horizon ends before the first sample-collection round "
              f"(warmup_rounds + collect_every = {first_sample} rounds)")
    if cfg.sweep == "eta" and cfg.schedule == "decaying":
        _fail(lines, "sweep", "an eta sweep needs schedule = fixed (the decaying schedule ignores eta)")
    if cfg.init is not None and len(cfg.init) != (
        cfg.dimension if cfg.model == "gaussian" else cfg.n_classes * cfg.n_features
    ):
        _fail(lines, "init", "init must list one value per parameter dimension")


def require(cfg: ExperimentConfig, *keys: str) -> None:
    """Command-level check that optional keys were actually provided."""
    for key in keys:
        if getattr(cfg, key) is None:
            raise ConfigError(f"missing mandatory key {key!r} for this command")
