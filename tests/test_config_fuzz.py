"""Config fuzz: every command on generated configs exits 0, 2 or 3, and a run that exits 0 writes its files.

The configs are tiny (at most 4 clients of 6 points, 12 rounds and 3
replications) and set any subset of the keys in the README table, with edge
values such as 1e-300 and 1e300 wherever a key takes a positive number.
"""

import contextlib
import csv
import io
import os
import tempfile
import warnings
from pathlib import Path
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from fald import cli, config
from tests_support_limits import time_limit

POSITIVE = st.sampled_from([1e-300, 1e-170, 1e-9, 0.5, 1.0, 1e6, 1e300]) | st.floats(1e-3, 10.0)
NONNEGATIVE = st.just(0.0) | POSITIVE
UNIT = st.sampled_from([0.0, 1e-300, 0.3, 1.0]) | st.floats(0.0, 1.0)  # [0, 1]
OPEN_UNIT = st.sampled_from([1e-300, 1e-5, 0.5, 0.9999999999999999]) | st.floats(0.0, 1.0, exclude_min=True,
                                                                                   exclude_max=True)
PROBABILITY_BELOW_1 = st.just(0.0) | OPEN_UNIT  # [0, 1)
EXAMPLE_SECONDS = 20.0


def _text(value) -> str:
    if isinstance(value, (list, tuple)):
        return ", ".join(map(_text, value))
    return repr(value) if isinstance(value, float) else str(value)


def symmetric(flat: list) -> list:
    """The row-major square matrix whose upper triangle mirrors the lower one of ``flat``."""
    d = round(len(flat) ** 0.5)
    return [flat[max(i, j) * d + min(i, j)] for i in range(d) for j in range(d)]


def optional_keys(n: int, model: str, d: int, features: int, classes: int, k: int, axis: str) -> dict:
    """Keys -> strategy of their values, for every key that `configs` may leave out, given the drawn shape.

    Keys that only make sense together are drawn together; a value None leaves its key out.
    """
    size = d if model == "gaussian" else features * classes
    diagonal = st.lists(POSITIVE, min_size=d, max_size=d).map(lambda v: [v[i] if i == j else 0.0 for i in range(d)
                                                                         for j in range(d)])
    sweep_value = {
        "k_local": st.integers(1, 3),
        "alpha": NONNEGATIVE,
        "rho": UNIT,
        "eta": POSITIVE,
        "s_scheme": st.just("full") | st.builds("{}:{}".format, st.sampled_from(["scheme1", "scheme2"]),
                                                st.integers(1, n)),
    }[axis]
    return {
        # mostly diagonal, else any symmetric matrix (seldom positive definite)
        ("sigma",): st.tuples(st.one_of([diagonal] * 3 + [st.lists(st.floats(-2.0, 2.0), min_size=d * d,
                                                                    max_size=d * d).map(symmetric)])),
        ("alpha",): st.tuples(NONNEGATIVE),
        ("tau",): st.tuples(NONNEGATIVE),
        ("k_local",): st.tuples(st.just(k)),
        ("eta",): st.tuples(POSITIVE),
        ("schedule",): st.tuples(st.sampled_from(config.SCHEDULES)),
        ("rho",): st.tuples(UNIT),
        ("scheme", "s_devices"): st.tuples(st.just("full"), st.none())
        | st.tuples(st.sampled_from(["scheme1", "scheme2"]), st.integers(1, n)),
        ("subsample_ratio",): st.tuples(st.just(1.0) | UNIT.filter(lambda q: q > 0)),
        ("horizon",): st.tuples(st.integers(1, 12).map(lambda rounds: rounds * k)),
        ("replications",): st.tuples(st.integers(2, 3)),
        ("init",): st.tuples(st.lists(st.sampled_from([0.0, -1e200, 1e200]) | st.floats(-5.0, 5.0),
                                      min_size=size, max_size=size)),
        ("sweep", "sweep_values"): st.tuples(st.just(axis), st.lists(sweep_value, min_size=1, max_size=3)),
        ("target_eps",): st.tuples(POSITIVE),
        ("collect_every",): st.tuples(st.integers(1, 3)),
        ("warmup_rounds",): st.tuples(st.integers(0, 2)),
        ("ece_bins",): st.tuples(st.integers(1, 10)),
        ("ridge",): st.tuples(POSITIVE),
        ("n_test",): st.tuples(st.integers(1, 30)),
        ("delta_l",): st.tuples(POSITIVE),
        ("delta0",): st.tuples(OPEN_UNIT),
        ("delta1",): st.tuples(PROBABILITY_BELOW_1),
        ("delta2",): st.tuples(PROBABILITY_BELOW_1),
        ("eps_star", "delta_star"): st.tuples(POSITIVE, POSITIVE),
        ("outdir",): st.tuples(st.just("unused")),
    }


# keys that `configs` always draws, and those that set the shape of other keys' values
SHAPE_KEYS = {"dimension": (1, 2), "n_features": (1, 2), "n_classes": (2, 3)}  # key -> (least value, default)


@st.composite
def configs(draw) -> dict:
    """key -> value text; every key besides the mandatory ones may be left to its default."""
    n = draw(st.integers(1, 4))
    values = {
        "model": draw(st.sampled_from(config.MODELS)),
        "n_clients": n,
        "points_per_client": draw(st.integers(1, 6) | st.lists(st.integers(1, 6), min_size=n, max_size=n)),
        "seed": draw(st.integers(0, 2**64 - 1)),
    }
    for key, (low, _) in SHAPE_KEYS.items():
        values[key] = draw(st.none() | st.integers(low, 3))
    shape = [SHAPE_KEYS[key][1] if values[key] is None else values[key] for key in SHAPE_KEYS]
    k, axis = draw(st.integers(1, 3)), draw(st.sampled_from(config.SWEEP_AXES))
    optional = optional_keys(n, values["model"], *shape, k, axis)
    for keys, strategy in optional.items():
        if draw(st.integers(0, 3)):  # set three times in four
            values.update(zip(keys, draw(strategy)))
    return {key: _text(value) for key, value in values.items() if value is not None}


def test_fuzz_covers_every_config_key():
    optional = optional_keys(2, "gaussian", 2, 2, 3, 1, "eta")
    drawn = {"model", "n_clients", "points_per_client", "seed", *SHAPE_KEYS, *(k for keys in optional for k in keys)}
    assert drawn == set(config._KEYS)


def expected_files(command: str, cfg: dict, outdir: Path) -> set:
    """The files an exit-0 `command` writes; a sweep charts each metric that a value reached."""
    if command == "sweep":
        with open(outdir / "sweep.csv", newline="") as fh:
            metrics = {row["metric"] for row in csv.DictReader(fh)} - {"truncated"}
        t_eps = cfg["model"] == "gaussian" and "target_eps" in cfg
        return {"sweep.csv", *(f"sweep_{m}.svg" for m in metrics), *(["sweep_t_eps.csv"] if t_eps else [])}
    return {
        "gen-data": {"dataset.csv"},
        "run": {"trajectory.csv", "run_metrics.csv", "run_metrics.svg", "summary.txt"},
        "plan": {"plan.txt"},
        "bounds": {"bounds.csv", "bounds.svg"},
        "privacy": {"privacy_report.txt"},
    }[command]


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(cfg=configs())
def test_every_command_exits_0_2_or_3(cfg):
    text = "".join(f"{key} = {value}\n" for key, value in cfg.items())
    with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ, FALD_THREADS="1"), \
            warnings.catch_warnings(), time_limit(EXAMPLE_SECONDS):
        warnings.simplefilter("ignore")  # numpy's overflow warnings at edge values
        path = Path(tmp) / "fuzz.cfg"
        path.write_text(text, encoding="utf-8")
        for command in sorted(cli._COMMANDS):
            outdir = Path(tmp) / command
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main([command, str(path), "--outdir", str(outdir)])
            assert code in (0, 2, 3), f"fald {command} exited {code} on\n{text}"
            if code == 0:
                written = {p.name for p in outdir.iterdir()}
                assert expected_files(command, cfg, outdir) <= written, f"fald {command} on\n{text}"
