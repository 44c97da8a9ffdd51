import csv
import json
import math
import os
import re
import subprocess
import sys
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fald import cli, config, metrics, model as model_mod, privacy, theory
from fald.config import ConfigError, parse_config
from fald.engine import FixedStep, FullDevice, SchemeI, SchemeII, run_block
from tests_support_golden import BLAS_THREAD_VARS, GOLDEN_CONFIGS
from tests_support_model import exact_grads

MINIMAL = """
# smallest valid experiment description
n_clients = 3
points_per_client = 4
seed = 7
"""

RUN_GAUSSIAN = """
model = gaussian
n_clients = 3
points_per_client = 6
dimension = 2
sigma = 5, -2, -2, 1
alpha = 1.0
tau = 1.0
k_local = 2
eta = 0.0005
horizon = 40
replications = 4
seed = 11
"""


def write_config(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def run_cli(args):
    return cli.main([str(a) for a in args])


# ---------------------------------------------------------------------------
# parsing


def test_minimal_config_defaults():
    cfg = parse_config(MINIMAL)
    assert cfg.rho == 0.0
    assert cfg.scheme == "full"
    assert cfg.subsample_ratio == 1.0
    assert cfg.model == "gaussian"
    assert cfg.points_per_client == (4, 4, 4)


def test_unknown_key_rejected_with_line():
    with pytest.raises(ConfigError, match=r"line 2: unknown key 'etaa'"):
        parse_config("n_clients = 2\netaa = 3\n")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate key 'seed'"):
        parse_config(MINIMAL + "seed = 8\n")


def test_type_mismatch_has_line_number():
    with pytest.raises(ConfigError, match="line 2: expected an integer"):
        parse_config("n_clients = 2\nhorizon = soon\npoints_per_client = 3\nseed = 0\n")


def test_missing_mandatory_key():
    with pytest.raises(ConfigError, match="missing mandatory key 'seed'"):
        parse_config("n_clients = 2\npoints_per_client = 3\n")


def test_scheme2_unbalanced_rejected():
    text = "n_clients = 2\npoints_per_client = 3, 5\nseed = 0\nscheme = scheme2\ns_devices = 1\n"
    with pytest.raises(ConfigError, match="balanced"):
        parse_config(text)


def test_sweep_values_typed_by_axis():
    cfg = parse_config(MINIMAL + "sweep = k_local\nsweep_values = 1, 2, 4\nhorizon = 8\n")
    assert cfg.sweep_values == (1, 2, 4)
    cfg = parse_config(MINIMAL + "sweep = s_scheme\nsweep_values = full, scheme1:2\n")
    assert cfg.sweep_values == (("full", None), ("scheme1", 2))


def test_sweep_values_require_axis():
    with pytest.raises(ConfigError, match="without a sweep axis"):
        parse_config(MINIMAL + "sweep_values = 1, 2\n")


def test_horizon_must_cover_swept_k():
    with pytest.raises(ConfigError, match="offender"):
        parse_config(MINIMAL + "sweep = k_local\nsweep_values = 2, 3\nhorizon = 8\n")


@pytest.mark.parametrize(
    "text, message",
    [
        (MINIMAL + "sweep = rho\nsweep_values = 0.5, 1.5\n", "line 7: rho must lie in [0, 1] (offender: 1.5)"),
        (MINIMAL + "sweep = eta\nsweep_values = 0.001, 0\n", "line 7: eta must be positive (offender: 0.0)"),
        (MINIMAL + "sweep = alpha\nsweep_values = 1, -1\n", "line 7: alpha must be nonnegative (offender: -1.0)"),
        (MINIMAL + "sweep = k_local\nsweep_values = 0, 1\n", "line 7: k_local must be >= 1 (offender: 0)"),
        (
            MINIMAL + "sweep = s_scheme\nsweep_values = full, scheme1:9\n",
            "line 7: need s_devices <= n_clients (offender: scheme1:9)",
        ),
        (
            MINIMAL.replace("points_per_client = 4", "points_per_client = 4, 5, 6")
            + "sweep = s_scheme\nsweep_values = scheme1:2, scheme2:2\n",
            "line 7: scheme2 requires balanced clients (equal point counts per client) (offender: scheme2:2)",
        ),
        # the base k_local is what run, bounds and plan use, so the base config fails first
        (
            MINIMAL + "sweep = k_local\nsweep_values = 2, 4\nk_local = 3\nhorizon = 8\n",
            "line 9: horizon must be a multiple of k_local",
        ),
        # one round at k_local = 24, and the first sample would be collected at round 10
        (
            MINIMAL + "model = logistic\nhorizon = 24\nsweep = k_local\nsweep_values = 2, 24\n",
            "line 9: horizon ends before the first sample-collection round "
            "(warmup_rounds + collect_every = 10 rounds) (offender: 24)",
        ),
    ],
    ids=["rho1.5", "eta0", "alpha-1", "k_local0-no-horizon", "scheme1:9", "scheme2-unbalanced", "base-k3-horizon8",
         "logistic-k24-one-round"],
)
def test_sweep_values_checked_like_the_base_config(text, message, tmp_path, capsys):
    path = write_config(tmp_path, text)
    assert run_cli(["sweep", path, "--outdir", tmp_path]) == 2
    assert capsys.readouterr().err.strip() == f"config error: {message}"


def test_eta_sweep_under_decaying_schedule_rejected(tmp_path, capsys):
    # the decaying schedule ignores eta, so every value would run the same chain
    path = write_config(tmp_path, MINIMAL + "schedule = decaying\nsweep = eta\nsweep_values = 0.001, 0.1\n")
    assert run_cli(["sweep", path, "--outdir", tmp_path]) == 2
    assert "line 7: an eta sweep needs schedule = fixed" in capsys.readouterr().err


def test_ranges_hold_whatever_the_model():
    with pytest.raises(ConfigError, match=r"line 6: n_classes must be >= 2"):
        parse_config(MINIMAL + "n_classes = 1\n")
    with pytest.raises(ConfigError, match=r"line 6: s_devices must be >= 1"):
        parse_config(MINIMAL + "s_devices = 0\n")


def test_readme_key_table_matches_key_table():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Configuration files", 1)[1].split("\n### ", 1)[0]
    rows, documented = {}, {}
    for line in section.splitlines():
        if line.startswith("| `"):
            cells = line.split("|")
            keys = re.findall(r"`([^`]+)`", cells[1])
            defaults = [text.strip().strip("`") for text in cells[3].split(",")]
            assert len(defaults) == len(keys), f"README row of {keys} needs one default per key"
            rows.update(dict.fromkeys(keys, line))
            documented.update(zip(keys, defaults))
    assert set(rows) == set(config._KEYS)
    for key, (parse, interval) in config._KEYS.items():
        if interval is not None and "inf" not in interval:
            assert interval in rows[key], f"README row of {key} lacks {interval}"
        default = getattr(config.ExperimentConfig(), key)
        if key not in config._MANDATORY and default not in (None, ()):
            assert parse(documented[key], 0) == default, f"README default of {key} is {documented[key]!r}"


def test_bad_scheme_value():
    with pytest.raises(ConfigError, match="scheme must be one of"):
        parse_config(MINIMAL + "scheme = schemeX\n")


@pytest.mark.parametrize(
    "line, message",
    [
        ("tau = inf", "line 6: expected a finite number, got 'inf'"),
        ("tau = nan", "line 6: expected a finite number, got 'nan'"),
        ("delta_l = nan", "line 6: expected a finite number"),
        ("target_eps = -inf", "line 6: expected a finite number"),
        ("init = 0.5, nan", "line 6: expected a finite number, got 'nan'"),
        ("sweep = eta\nsweep_values = 0.001, inf", "line 7: expected a finite number, got 'inf'"),
    ],
    ids=["tau-inf", "tau-nan", "delta_l-nan", "target_eps-inf", "init-nan", "sweep_values-inf"],
)
def test_non_finite_numbers_rejected_with_line(line, message):
    with pytest.raises(ConfigError, match=message):
        parse_config(MINIMAL + line + "\n")


LOGISTIC_MINIMAL = "model = logistic\nn_clients = 2\npoints_per_client = 6\nseed = 1\n"


@pytest.mark.parametrize(
    "text, message",
    [
        (MINIMAL.replace("seed = 7", "seed = -1"), "line 5: seed must be >= 0"),
        (LOGISTIC_MINIMAL + "n_classes = 1\n", "line 5: n_classes must be >= 2"),
        (LOGISTIC_MINIMAL + "n_features = 0\n", "line 5: n_features must be >= 1"),
        (LOGISTIC_MINIMAL + "n_test = 0\n", "line 5: n_test must be >= 1"),
        (MINIMAL + "tau = inf\n", "line 6: expected a finite number"),
        (MINIMAL + "tau = nan\n", "line 6: expected a finite number"),
        (MINIMAL.replace("seed = 7", f"seed = {2**64}"), "line 5: seed must be < 2**64"),
        (MINIMAL + "target_eps = 0\n", "line 6: target_eps must be positive"),
        (MINIMAL + "target_eps = -1\n", "line 6: target_eps must be positive"),
        (MINIMAL + "delta_l = 0\n", "line 6: delta_l must be positive"),
        (MINIMAL + "delta0 = 0\n", "line 6: delta0 must lie in (0, 1)"),
        (MINIMAL + "delta0 = 1\n", "line 6: delta0 must lie in (0, 1)"),
        (MINIMAL + "delta1 = 1\n", "line 6: delta1 must lie in [0, 1)"),
        (MINIMAL + "delta2 = -0.1\n", "line 6: delta2 must lie in [0, 1)"),
        (MINIMAL + "eps_star = 0\n", "line 6: eps_star must be positive"),
        (MINIMAL + "delta_star = -1e-3\n", "line 6: delta_star must be positive"),
        (MINIMAL + "sigma = 1, 2, 2, 1\n", "line 6: sigma is not positive definite: smallest eigenvalue -1.000000e+00"),
        (MINIMAL + "sigma = 1, 0.5, 0, 1\n", "line 6: sigma must be symmetric within 1e-12"),
        (MINIMAL + "eps_star = 5\n", "line 6: eps_star needs delta_star"),
        (MINIMAL + "delta_star = 1e-3\n", "line 6: delta_star needs eps_star"),
        # warmup_rounds is unset, so the horizon carries the line
        (LOGISTIC_MINIMAL + "horizon = 4\n", "line 5: horizon ends before the first sample-collection round"),
        (MINIMAL + "s_devices = 2\n", "line 6: s_devices needs scheme = scheme1 or scheme2"),
    ],
    ids=[
        "seed-1", "n_classes1", "n_features0", "n_test0", "tau-inf", "tau-nan", "seed2^64",
        "target_eps0", "target_eps-1", "delta_l0", "delta0-0", "delta0-1", "delta1-1", "delta2-neg",
        "eps_star0", "delta_star-neg", "sigma-indefinite", "sigma-asymmetric", "eps_star-alone",
        "delta_star-alone", "logistic-horizon-before-collection", "s_devices-full",
    ],
)
@pytest.mark.parametrize("command", ["run", "plan"])
def test_unhonourable_values_exit_2_with_line(text, message, command, tmp_path, capsys):
    path = write_config(tmp_path, text)
    assert run_cli([command, path, "--outdir", tmp_path]) == 2
    assert message in capsys.readouterr().err


def test_largest_seed_plans_a_minibatch_run(tmp_path):
    # every stream key, the sigma_sg Monte Carlo's too, mixes the seed modulo 2**64
    text = MINIMAL.replace("seed = 7", f"seed = {2**64 - 1}") + "subsample_ratio = 0.5\ntarget_eps = 0.5\n"
    path = write_config(tmp_path, text)
    assert run_cli(["plan", path, "--outdir", tmp_path]) == 0
    assert "k_star = " in (tmp_path / "plan.txt").read_text()


NEWTON_STALL = """
model = logistic
n_clients = 2
points_per_client = 40, 3
n_features = 4
n_classes = 8
alpha = 0.5
seed = 5
k_local = 2
eta = 0.0005
horizon = 20
target_eps = 0.5
"""


@pytest.mark.parametrize("command,output", [("plan", "plan.txt"), ("bounds", "bounds.csv")])
def test_newton_solve_survives_rounding_level_line_search(tmp_path, command, output):
    # on this federation the Armijo decrease falls below the energy's rounding
    # error before the gradient reaches 1e-10; the solve must still converge
    path = write_config(tmp_path, NEWTON_STALL)
    assert run_cli([command, path, "--outdir", tmp_path]) == 0
    assert (tmp_path / output).exists()


def test_comments_and_blank_lines_ignored():
    cfg = parse_config("# header\n\nn_clients = 1 # trailing\npoints_per_client = 2\nseed = 1\n")
    assert cfg.n_clients == 1


# ---------------------------------------------------------------------------
# CLI commands


def percell_csv(header, rows) -> bytes:
    """Reference: the cell-by-cell writer that the column-wise write_csv replaced."""
    lines = [",".join(header)] + [",".join(cli._fmt(v) for v in row) for row in rows]
    return ("\n".join(lines) + "\n").encode("utf-8")


SPECIAL_FLOATS = [-0.0, 0.0, math.inf, -math.inf, math.nan, 5e-324, -2.5e-310, 1e300, -1e-300, 1e-300]
FLOAT_VALUES = st.floats() | st.sampled_from(SPECIAL_FLOATS)
CELL_VALUES = st.one_of(st.integers(-(2**63), 2**63 - 1), FLOAT_VALUES, st.booleans(), st.text(max_size=5))
# (strategy for a short pool of values, how the pool becomes a column of length n)
COLUMN_KINDS = {
    "int64": (st.integers(-(2**63), 2**63 - 1), lambda pool, n: np.resize(np.array(pool, dtype=np.int64), n)),
    "float64": (FLOAT_VALUES, lambda pool, n: np.resize(np.array(pool, dtype=np.float64), n)),
    "bool": (st.booleans(), lambda pool, n: np.resize(np.array(pool, dtype=bool), n)),
    "str": (st.text(max_size=5), lambda pool, n: (pool * n)[:n]),
    "mixed": (CELL_VALUES, lambda pool, n: (pool * n)[:n]),
}


@st.composite
def csv_columns(draw):
    chunk = cli._CSV_CHUNK_ROWS
    n = draw(st.sampled_from([0, 1, chunk - 1, chunk, chunk + 1]) | st.integers(0, 12))
    columns = []
    for kind in draw(st.lists(st.sampled_from(sorted(COLUMN_KINDS)), min_size=1, max_size=4)):
        values, to_column = COLUMN_KINDS[kind]
        columns.append(to_column(draw(st.lists(values, min_size=1, max_size=6)), n))
    return columns


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(columns=csv_columns())
def test_column_writer_matches_percell_writer(columns, tmp_path):
    header = [f"c{i}" for i in range(len(columns))]
    expected = percell_csv(header, zip(*columns))
    path = tmp_path / "out.csv"
    cli.write_csv(path, header, columns)
    assert path.read_bytes() == expected
    cli.write_csv(path, header, iter(list(zip(*columns))))  # rows from an iterator
    assert path.read_bytes() == expected


def test_writer_rejects_ragged_or_transposed_columns(tmp_path):
    path = tmp_path / "out.csv"
    for columns in ([np.arange(5000), np.arange(4096)], [(1, 2), (3, 4), (5, 6)], iter([(1, 2), (3,)])):
        with pytest.raises(ValueError):
            cli.write_csv(path, ["a", "b"], columns)
    assert not path.exists()


def test_crlf_dataset_still_loads(tmp_path):
    # dataset.csv used to be written with CRLF line ends; it now ends lines in LF
    spec, _, _ = model_mod.gen_logistic_federation(3, 0.5, [4, 6, 5], 2, 3, seed=2)
    lf, crlf = tmp_path / "lf.csv", tmp_path / "crlf.csv"
    cli.save_dataset_csv(spec.data, lf)
    assert b"\r" not in lf.read_bytes()
    crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
    for path in (lf, crlf):
        loaded = model_mod.load_dataset_csv(path)
        for a, b in zip(loaded.clients + loaded.labels, spec.data.clients + spec.data.labels):
            assert np.array_equal(a, b) and a.dtype == b.dtype


def test_gen_data_writes_dataset(tmp_path):
    path = write_config(tmp_path, MINIMAL)
    assert run_cli(["gen-data", path, "--outdir", tmp_path]) == 0
    loaded = model_mod.load_dataset_csv(tmp_path / "dataset.csv")
    assert loaded.n_clients == 3
    assert loaded.counts.tolist() == [4, 4, 4]


def test_run_emits_metrics_trajectory_svg_summary(tmp_path):
    path = write_config(tmp_path, RUN_GAUSSIAN)
    assert run_cli(["run", path, "--outdir", tmp_path]) == 0
    with open(tmp_path / "run_metrics.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["round", "w2", "w2_mean", "w2_cov"]
    assert len(rows) == 22  # header + rounds 0..20
    traj = (tmp_path / "trajectory.csv").read_text().splitlines()
    assert traj[0] == "replication,round,iteration,theta_1,theta_2"
    assert len(traj) == 1 + 4 * 21
    svg = (tmp_path / "run_metrics.svg").read_text()
    assert svg.startswith("<svg")
    assert (tmp_path / "summary.txt").read_text().startswith("model = gaussian")


def test_svg_renders_only_csv_data(tmp_path):
    path = write_config(tmp_path, RUN_GAUSSIAN)
    run_cli(["run", path, "--outdir", tmp_path])
    with open(tmp_path / "run_metrics.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    w2 = [float(r[1]) for r in rows]
    svg = (tmp_path / "run_metrics.svg").read_text()
    points = re.search(r'points="([^"]+)"', svg).group(1).split()
    assert len(points) == len([v for v in w2 if v > 0])


def test_config_error_exit_code(tmp_path):
    path = write_config(tmp_path, "nonsense\n")
    assert run_cli(["run", path, "--outdir", tmp_path]) == 2


@pytest.mark.parametrize("case", ["missing", "directory", "not-utf8", "outdir-under-a-file"])
def test_unreadable_config_or_outdir_exits_2(case, tmp_path, capsys):
    path, outdir = write_config(tmp_path, RUN_GAUSSIAN), tmp_path / "out"
    if case == "missing":
        path = tmp_path / "absent.cfg"
    elif case == "directory":
        path = tmp_path
    elif case == "not-utf8":
        path.write_bytes(b"\xff\xfe" + RUN_GAUSSIAN.encode())
    else:
        outdir = path / "out"
    assert run_cli(["run", path, "--outdir", outdir]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and str(outdir if case == "outdir-under-a-file" else path) in err


def test_divergent_run_exit_code(tmp_path):
    text = RUN_GAUSSIAN.replace("eta = 0.0005", "eta = 50.0")
    path = write_config(tmp_path, text)
    assert run_cli(["run", path, "--outdir", tmp_path]) == 3


def test_worker_crash_exit_code(tmp_path, monkeypatch, capsys):
    def crash(*args, **kwargs):
        raise BrokenProcessPool("a child process terminated abruptly")

    monkeypatch.setattr(cli.engine, "run_replicated", crash)
    path = write_config(tmp_path, RUN_GAUSSIAN)
    assert run_cli(["run", path, "--outdir", tmp_path]) == 3
    assert "worker process died" in capsys.readouterr().err


@pytest.mark.parametrize("threads, message", [
    ("two", "FALD_THREADS must be an integer, got 'two'"),
    ("-3", "FALD_THREADS must be >= 0"),
])
def test_fald_threads_not_a_count_exits_2(threads, message, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("FALD_THREADS", threads)
    path = write_config(tmp_path, RUN_GAUSSIAN)
    assert run_cli(["run", path, "--outdir", tmp_path]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "trajectory.csv").exists()


def test_zero_temperature_run_targets_point_mass(tmp_path):
    # a noiseless chain is measured against the point mass, not the tau = 1 posterior
    path = write_config(tmp_path, RUN_GAUSSIAN.replace("tau = 1.0", "tau = 0.0"))
    assert run_cli(["run", path, "--outdir", tmp_path]) == 0
    with open(tmp_path / "run_metrics.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    assert len(rows) == 21
    assert all(float(r[3]) == 0.0 for r in rows)


def test_single_value_sweep_emits_one_curve(tmp_path):
    text = RUN_GAUSSIAN + "sweep = rho\nsweep_values = 0.5\n"
    path = write_config(tmp_path, text)
    assert run_cli(["sweep", path, "--outdir", tmp_path]) == 0
    with open(tmp_path / "sweep.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["sweep_value", "round", "metric", "value"]
    values = {r[0] for r in rows[1:]}
    assert values == {"0.5"}
    assert (tmp_path / "sweep_w2.svg").exists()


def test_sweep_eta_multiple_curves_and_t_eps(tmp_path):
    text = RUN_GAUSSIAN + "sweep = eta\nsweep_values = 0.0002, 0.0004\ntarget_eps = 1e9\n"
    path = write_config(tmp_path, text)
    assert run_cli(["sweep", path, "--outdir", tmp_path]) == 0
    t_eps = (tmp_path / "sweep_t_eps.csv").read_text().splitlines()
    assert t_eps[0] == "sweep_value,t_eps_rounds,t_eps_iterations"
    assert len(t_eps) == 3
    # the absurdly easy target is hit at the first recorded round
    assert t_eps[1].split(",")[1] == "0"


def test_bounds_first_row_matches_theory(tmp_path):
    path = write_config(tmp_path, RUN_GAUSSIAN)
    assert run_cli(["bounds", path, "--outdir", tmp_path]) == 0
    rows = (tmp_path / "bounds.csv").read_text().splitlines()
    assert rows[0] == "k,bound"
    first = float(rows[1].split(",")[1])

    from fald.config import parse_config_file

    cfg = parse_config_file(path)
    spec, _, _ = cli.build_model(cfg)
    inputs = theory.bound_inputs(
        cli.model_constants(cfg, spec), tau=cfg.tau, d=spec.dim, K=cfg.k_local, rho=cfg.rho,
        N=cfg.n_clients, min_pc=float(np.min(spec.data.weights)), eta=cfg.eta,
    )
    assert first == pytest.approx(theory.bound_full_fixed(inputs, 0), rel=1e-12)


def test_privacy_report_matches_account(tmp_path):
    text = RUN_GAUSSIAN + "delta_l = 1.0\nsubsample_ratio = 0.5\neps_star = 1e6\ndelta_star = 0.9\n"
    text = text.replace("eta = 0.0005", "eta = 1e-7")
    path = write_config(tmp_path, text)
    assert run_cli(["privacy", path, "--outdir", tmp_path]) == 0
    report = dict(
        line.split(" = ") for line in (tmp_path / "privacy_report.txt").read_text().splitlines()
    )
    from fald.config import parse_config_file

    cfg = parse_config_file(path)
    spec, _, _ = cli.build_model(cfg)
    params = cli._dp_params(cfg, spec)
    budget = privacy.account_report(params)
    assert float(report["epsilon_total"]) == budget["epsilon_total"]
    assert float(report["delta_total"]) == budget["delta_total"]
    assert "budget_search_rho" in report


def test_privacy_inadmissible_eta_reports_and_fails(tmp_path, capsys):
    text = RUN_GAUSSIAN + "delta_l = 1.0\nsubsample_ratio = 0.1\n"
    path = write_config(tmp_path, text)
    assert run_cli(["privacy", path, "--outdir", tmp_path]) == 2
    report = (tmp_path / "privacy_report.txt").read_text()
    assert "eta_max_dp" in report


def test_privacy_requires_eta(tmp_path, capsys):
    path = write_config(tmp_path, MINIMAL + "horizon = 10\ndelta_l = 1\n")
    assert run_cli(["privacy", path, "--outdir", tmp_path]) == 2
    assert "missing mandatory key 'eta' for this command" in capsys.readouterr().err
    assert not (tmp_path / "privacy_report.txt").exists()


@pytest.mark.parametrize(
    "line, message",
    [
        ("schedule = decaying", "privacy accounting needs schedule = fixed"),
        ("rho = 1", "privacy: rho must lie in [0, 1)"),
        ("tau = 0", "privacy: tau must be positive"),
    ],
    ids=["decaying", "rho1", "tau0"],
)
def test_privacy_inputs_it_cannot_account_exit_2(line, message, tmp_path, capsys):
    # the decaying schedule never uses the configured eta the accountant would read
    text = "n_clients = 3\npoints_per_client = 6\nseed = 7\neta = 0.0005\nhorizon = 20\ndelta_l = 1\n"
    path = write_config(tmp_path, text + line + "\n")
    assert run_cli(["privacy", path, "--outdir", tmp_path]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "privacy_report.txt").exists()


def test_plan_reports_optimal_k(tmp_path):
    text = RUN_GAUSSIAN + "target_eps = 0.05\n"
    path = write_config(tmp_path, text)
    assert run_cli(["plan", path, "--outdir", tmp_path]) == 0
    report = dict(
        line.split(" = ") for line in (tmp_path / "plan.txt").read_text().splitlines()
    )
    kappa = float(report["kappa"])
    assert kappa == pytest.approx(17 + 12 * np.sqrt(2), rel=1e-9)
    assert int(report["k_star"]) == theory.optimal_local_steps(kappa)
    assert float(report["k_star_eta"]) > 0


@pytest.mark.parametrize("name, scheme", [("scheme1", SchemeI(2)), ("scheme2", SchemeII(2))], ids=["scheme1", "scheme2"])
def test_plan_warns_when_the_partial_device_bound_misses_the_target(name, scheme, tmp_path, capsys):
    # the planning rule has no device-sampling term; at S = 2 of N = 3 the partial-device
    # bias alone exceeds target_eps, so both plans warn and plan.txt stays the full-device one
    full_text = RUN_GAUSSIAN + "target_eps = 0.05\n"
    part_text = full_text + f"scheme = {name}\ns_devices = 2\n"
    assert run_cli(["plan", write_config(tmp_path, full_text, "full.cfg"), "--outdir", tmp_path / "full"]) == 0
    assert capsys.readouterr().err == ""
    assert run_cli(["plan", write_config(tmp_path, part_text, "part.cfg"), "--outdir", tmp_path / "part"]) == 0
    warnings = capsys.readouterr().err.splitlines()
    plan = (tmp_path / "part" / "plan.txt").read_text()
    assert plan == (tmp_path / "full" / "plan.txt").read_text()
    report = dict(line.split(" = ") for line in plan.splitlines())
    cfg = parse_config(part_text)
    spec, _, _ = cli.build_model(cfg)
    consts = cli.model_constants(cfg, spec)
    assert len(warnings) == 2
    for label, line in zip(("configured", "k_star"), warnings):
        k, eta, t_eps = int(report[f"{label}_k"]), float(report[f"{label}_eta"]), int(report[f"{label}_t_eps"])
        bound = theory.bound_partial(cli._bound_inputs(cfg, spec, consts, k, scheme, eta), t_eps)
        assert bound > 0.05
        assert line.startswith(f"warning: {label} plan (k = {k}, eta = {eta:g}, t_eps = {t_eps}): the {name} bound")
        assert f" is {bound:g} > target_eps = 0.05;" in line


def test_sweep_alpha_regenerates_data(tmp_path):
    text = RUN_GAUSSIAN + "sweep = alpha\nsweep_values = 0.0, 2.0\n"
    path = write_config(tmp_path, text)
    assert run_cli(["sweep", path, "--outdir", tmp_path]) == 0
    with open(tmp_path / "sweep.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    labels = {r[0] for r in rows}
    assert labels == {"0.0", "2.0"}
    # different heterogeneity levels give different curves
    by_label = {lab: [float(r[3]) for r in rows if r[0] == lab] for lab in labels}
    assert by_label["0.0"] != by_label["2.0"]


def test_sweep_k_local_rounds_differ(tmp_path):
    text = RUN_GAUSSIAN.replace("k_local = 2", "k_local = 1") + "sweep = k_local\nsweep_values = 1, 4\n"
    path = write_config(tmp_path, text)
    assert run_cli(["sweep", path, "--outdir", tmp_path]) == 0
    with open(tmp_path / "sweep.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    rounds = {lab: max(int(r[1]) for r in rows if r[0] == lab) for lab in ("1", "4")}
    assert rounds == {"1": 40, "4": 10}


def test_sweep_marks_divergent_value_truncated(tmp_path):
    text = RUN_GAUSSIAN + "sweep = eta\nsweep_values = 0.0002, 60.0\n"
    path = write_config(tmp_path, text)
    assert run_cli(["sweep", path, "--outdir", tmp_path]) == 0
    with open(tmp_path / "sweep.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    truncated = [r for r in rows if r[2] == "truncated"]
    assert len(truncated) == 1 and truncated[0][0] == "60.0"
    assert any(r[0] == "0.0002" and r[2] == "w2" for r in rows)


@pytest.mark.parametrize(
    "text, truncated",
    [
        (GOLDEN_CONFIGS["sweep-logistic-rho"] + "target_eps = 0.5\n", False),
        (RUN_GAUSSIAN.replace("model = gaussian", "model = logistic")
         + "target_eps = 0.5\nsweep = eta\nsweep_values = 0.0005, 60.0\n", True),
    ],
    ids=["logistic-rho", "logistic-eta-diverging"],
)
def test_logistic_sweep_writes_no_t_eps_table(text, truncated, tmp_path):
    # T_eps is measured on the W2 curve, which only Gaussian runs have
    path = write_config(tmp_path, text)
    assert run_cli(["sweep", path, "--outdir", tmp_path]) == 0
    assert ("truncated" in (tmp_path / "sweep.csv").read_text()) == truncated
    assert not (tmp_path / "sweep_t_eps.csv").exists()


@pytest.mark.parametrize(
    "text",
    [RUN_GAUSSIAN + "target_eps = 0.48\nsweep = rho\nsweep_values = 0, 0.5\n", GOLDEN_CONFIGS["sweep-logistic-rho"]],
    ids=["gaussian", "logistic"],
)
def test_sweep_rows_equal_the_runs_of_its_values(text, tmp_path):
    # sweep.csv holds each value's charted run_metrics.csv columns, and sweep_t_eps.csv its summary's T_eps
    path = write_config(tmp_path, text)
    assert run_cli(["sweep", path, "--outdir", tmp_path / "sweep"]) == 0
    sweep_rows = (tmp_path / "sweep" / "sweep.csv").read_text().splitlines()[1:]
    t_eps_csv = tmp_path / "sweep" / "sweep_t_eps.csv"
    t_eps_rows = t_eps_csv.read_text().splitlines()[1:] if t_eps_csv.exists() else []
    cfg = parse_config(text)
    base = "".join(line for line in text.splitlines(True) if not line.startswith(("rho =", "sweep")))
    for value in cfg.sweep_values:
        label = config.sweep_label(cfg, value)
        path = write_config(tmp_path, base + f"rho = {label}\n", f"rho-{label}.cfg")
        assert run_cli(["run", path, "--outdir", tmp_path / label]) == 0
        header, *rows = [line.split(",") for line in (tmp_path / label / "run_metrics.csv").read_text().splitlines()]
        charted = header[1:2] if cfg.model == "gaussian" else header[1:]
        expected = [f"{label},{row[0]},{name},{row[header.index(name)]}" for row in rows for name in charted]
        assert [row for row in sweep_rows if row.startswith(label + ",")] == expected
        summary = dict(line.split(" = ") for line in (tmp_path / label / "summary.txt").read_text().splitlines())
        if cfg.target_eps is not None:
            assert f"{label},{summary['t_eps_rounds']},{summary['t_eps_iterations']}" in t_eps_rows
    assert len(t_eps_rows) == (len(cfg.sweep_values) if cfg.target_eps is not None else 0)


def test_bounds_decaying_schedule(tmp_path):
    text = RUN_GAUSSIAN.replace("eta = 0.0005", "schedule = decaying")
    path = write_config(tmp_path, text)
    assert run_cli(["bounds", path, "--outdir", tmp_path]) == 0
    rows = (tmp_path / "bounds.csv").read_text().splitlines()[1:]
    values = [float(r.split(",")[1]) for r in rows]
    assert all(a > b for a, b in zip(values, values[1:]))  # decays with k


@pytest.mark.parametrize("scheme", ["scheme1", "scheme2"])
def test_bounds_decaying_schedule_rejects_partial_devices(scheme, tmp_path, capsys):
    # the decaying-step bound is stated for full device participation only; the
    # partial-device bias must not be dropped silently
    text = RUN_GAUSSIAN.replace("eta = 0.0005", "schedule = decaying") + f"scheme = {scheme}\ns_devices = 1\n"
    path = write_config(tmp_path, text)
    assert run_cli(["bounds", path, "--outdir", tmp_path]) == 3
    assert "full device participation only" in capsys.readouterr().err
    assert not (tmp_path / "bounds.csv").exists()


def test_logistic_run_metrics(tmp_path):
    text = """
model = logistic
n_clients = 2
points_per_client = 30
n_features = 2
n_classes = 3
ridge = 0.05
tau = 0.5
k_local = 2
eta = 0.002
horizon = 80
replications = 3
seed = 5
collect_every = 10
warmup_rounds = 0
n_test = 50
"""
    path = write_config(tmp_path, text)
    assert run_cli(["run", path, "--outdir", tmp_path]) == 0
    with open(tmp_path / "run_metrics.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["round", "accuracy", "brier", "ece"]
    assert len(rows) == 5  # collection rounds 10, 20, 30, 40
    for row in rows[1:]:
        acc, brier, ece = map(float, row[1:])
        assert 0 <= acc <= 1 and 0 <= brier <= 2 and 0 <= ece <= 1


def test_logistic_metrics_score_the_mean_of_the_samples_collected_so_far():
    cfg = parse_config(GOLDEN_CONFIGS["logistic-full-q1"].replace("warmup_rounds = 0", "warmup_rounds = 1"))
    spec, test_x, test_y = cli.build_model(cfg)
    records = np.random.default_rng(4).standard_normal((cfg.replications, cfg.horizon // cfg.k_local + 1, spec.dim))
    table = cli.logistic_metric_rows(cfg, spec, records, test_x, test_y)
    assert list(table) == ["round", "accuracy", "brier", "ece"] and table["round"] == [3, 5, 7, 9, 11]
    collected = []
    for i, r in enumerate(table["round"]):
        collected += [model_mod.predict_proba(spec, theta, test_x) for theta in records[:, r]]
        total = collected[0]
        for probs in collected[1:]:
            total = total + probs
        scored = metrics.classification_metrics(total / len(collected), test_y, cfg.ece_bins)
        assert [table[name][i] for name in ("accuracy", "brier", "ece")] == [scored.accuracy, scored.brier, scored.ece]


def test_horizon_before_the_first_collection_round_exits_2(tmp_path, capsys):
    # 12 rounds, and the first sample would be collected at round 12 + 2
    path = write_config(tmp_path, GOLDEN_CONFIGS["logistic-full-q1"].replace("warmup_rounds = 0", "warmup_rounds = 12"))
    assert run_cli(["run", path, "--outdir", tmp_path / "out"]) == 2
    assert capsys.readouterr().err == (
        "config error: line 16: horizon ends before the first sample-collection round "
        "(warmup_rounds + collect_every = 14 rounds)\n"
    )
    assert list((tmp_path / "out").glob("*")) == []


@pytest.mark.parametrize(
    "command, text, threads",
    [
        ("run", RUN_GAUSSIAN + "tau = nan\n", "1"),
        ("run", RUN_GAUSSIAN.replace("eta = 0.0005\n", ""), "1"),
        ("run", RUN_GAUSSIAN.replace("replications = 4\n", ""), "1"),
        ("run", RUN_GAUSSIAN, "-3"),
        ("sweep", RUN_GAUSSIAN, "1"),
        ("plan", RUN_GAUSSIAN, "1"),
        ("privacy", RUN_GAUSSIAN + "delta_l = 1\nschedule = decaying\n", "1"),
        ("privacy", RUN_GAUSSIAN + "delta_l = 1\nrho = 1\n", "1"),
    ],
    ids=["nan", "no-eta", "no-replications", "threads-3", "no-sweep-axis", "no-target", "privacy-decaying",
         "privacy-rho1"],
)
def test_config_errors_leave_the_outdir_empty(command, text, threads, tmp_path, monkeypatch):
    # eta above eta_max_dp is the one config error that writes a file: privacy_report.txt states the limit
    monkeypatch.setenv("FALD_THREADS", threads)
    path = write_config(tmp_path, text)
    assert run_cli([command, path, "--outdir", tmp_path / "out"]) == 2
    assert list((tmp_path / "out").glob("*")) == []


def test_console_script_entry_point(tmp_path):
    path = write_config(tmp_path, MINIMAL)
    proc = subprocess.run(
        [sys.executable, "-m", "fald.cli", "gen-data", str(path), "--outdir", str(tmp_path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "dataset.csv").exists()


SWEEP_R8 = """
n_clients = 4
points_per_client = 6
sigma = 5, -2, -2, 1
alpha = 1.0
k_local = 2
eta = 0.0005
rho = 0.3
horizon = 24
replications = 8
seed = 9
"""


@pytest.mark.parametrize(
    "lines",
    [
        "subsample_ratio = 0.5\nsweep = s_scheme\nsweep_values = full, scheme1:2, scheme2:3\n",
        "sweep = alpha\nsweep_values = 0.0, 1.0, 4.0\n",
        "sweep = k_local\nsweep_values = 1, 3, 4\n",
        "init = 1, 1\ntarget_eps = 0.5\nsweep = eta\nsweep_values = 0.0005, 60.0, 0.001\n",
    ],
    ids=["s_scheme-q0.5", "alpha", "k_local", "eta-diverging"],
)
def test_sweep_bytes_and_errors_independent_of_worker_count(lines, tmp_path):
    # at R = 8 the sweep runs in one process, or in a pool of 2 or 3 slices
    path = write_config(tmp_path, SWEEP_R8 + lines)
    seen = {}
    for threads in ("1", "2", "3"):
        outdir = tmp_path / f"threads{threads}"
        proc = subprocess.run(
            [sys.executable, "-m", "fald.cli", "sweep", str(path), "--outdir", str(outdir)],
            capture_output=True, text=True, env=dict(os.environ, FALD_THREADS=threads),
        )
        assert proc.returncode == 0, proc.stderr
        seen[threads] = ((outdir / "sweep.csv").read_bytes(), proc.stderr)
    assert seen["1"] == seen["2"] == seen["3"]
    assert ("truncated" in seen["1"][0].decode()) == lines.startswith("init")


def test_startup_keeps_blas_on_one_thread_and_loads_no_pool():
    # a fresh interpreter: pytest has already imported numpy and fald in this one
    probe = (
        "import json, os, sys; import fald.cli; print(json.dumps({'env': [os.environ.get(v) for v in %r], "
        "'loaded': [m for m in ('multiprocessing', 'concurrent.futures.process') if m in sys.modules]}))"
    ) % (BLAS_THREAD_VARS,)
    clean = {key: value for key, value in os.environ.items() if key not in BLAS_THREAD_VARS}
    for preset, expected in (({}, ["1", "1", "1"]), ({"OPENBLAS_NUM_THREADS": "3"}, ["3", "1", "1"])):
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env={**clean, **preset})
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == {"env": expected, "loaded": []}


def test_commands_load_no_numpy_random(tmp_path):
    # every draw is a counter-based stream: numpy.random, and the OpenSSL that it
    # loads through secrets -> hmac -> _hashlib, stay out of a fald process
    gaussian = write_config(tmp_path, GOLDEN_CONFIGS["gaussian-full-q1"], "gaussian.cfg")
    logistic = write_config(tmp_path, GOLDEN_CONFIGS["logistic-scheme1:2-q0.5"], "logistic.cfg")
    calls = [[command, str(path), "--outdir", str(tmp_path / command)]
             for command, path in (("run", gaussian), ("plan", logistic), ("gen-data", logistic))]
    probe = (
        "import contextlib, io, json, sys\nfrom fald import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n    codes = [cli.main(argv) for argv in %r]\n"
        "print(json.dumps({'codes': codes, 'loaded': [m for m in %r if m in sys.modules]}))"
    ) % (calls, ("numpy.random", "secrets", "_hashlib"))
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=dict(os.environ, FALD_THREADS="1"))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"codes": [0, 0, 0], "loaded": []}


def test_library_call_forms_of_the_benchmark():
    # bench/layers.py and bench/run.py call these forms directly
    cfg = parse_config(RUN_GAUSSIAN + "delta_l = 1.0\n")
    spec, _, _ = cli.build_model(cfg)
    for name, s, scheme in (("full", None, FullDevice()), ("scheme1", 2, SchemeI(2)), ("scheme2", 2, SchemeII(2))):
        run_cfg = cli.build_run_config(cfg, spec, scheme_spec=cli._scheme(name, s))
        assert run_cfg.scheme == scheme
        assert run_block(run_cfg, spec, range(2)).records.shape == (2, cfg.horizon // cfg.k_local + 1, spec.dim)
    params = cli._dp_params(cfg, spec)
    assert (params.eta, params.T, params.scheme) == (cfg.eta, cfg.horizon, FullDevice())
    rng = np.random.default_rng(0)
    thetas = rng.standard_normal((5, spec.dim))
    # every point of client 0 at q = 1 is its exact gradient
    idx = np.tile(np.arange(6), (5, 1))
    exact = [exact_grads(spec, t)[:, 0] for t in thetas]
    assert np.allclose(model_mod.gaussian_client_grad_subset(spec, 0, thetas, idx, 1.0), exact)
    l_spec, _, _ = cli.build_model(parse_config(LOGISTIC_MINIMAL))
    w = rng.standard_normal((3, l_spec.dim))
    grads = model_mod.logistic_client_grad(l_spec, 0, w)
    assert grads.shape == w.shape and np.array_equal(grads[1], exact_grads(l_spec, w[1])[:, 0])
