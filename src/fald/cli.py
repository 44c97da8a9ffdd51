"""Config-driven command-line front end.

Subcommands: gen-data, run, sweep, bounds, privacy, plan.  Exit codes:
0 success, 2 configuration error, 3 numeric failure or a dead worker
process.  FALD_THREADS caps the number of worker processes (0 or unset =
all CPUs); the emitted CSV bytes are identical for every thread count.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from concurrent.futures import BrokenExecutor
from dataclasses import asdict, replace
from pathlib import Path
from typing import Iterator, List, Optional

import numpy as np

from . import engine, metrics, model as model_mod, privacy, theory
from .config import ConfigError, ExperimentConfig, parse_config_file, require, sweep_label, sweep_point
from .engine import (
    ChainDivergenceError,
    DecayingStep,
    FixedStep,
    FullDevice,
    RunConfig,
    SchemeI,
    SchemeII,
)
from .svgchart import line_chart

T_EPS_SMOOTHING_WINDOW = 5  # trailing moving average applied before the first crossing
_CSV_CHUNK_ROWS = 4096  # rows formatted at a time


def _workers() -> int:
    raw = os.environ.get("FALD_THREADS", "0")
    try:
        workers = int(raw)
    except ValueError:
        raise ConfigError(f"FALD_THREADS must be an integer, got {raw!r}") from None
    if workers < 0:
        raise ConfigError(f"FALD_THREADS must be >= 0 (0 = all CPUs), got {raw!r}")
    return engine.resolve_workers(workers)


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _cells(column):
    """The column's cells as `_fmt` writes them; int and float arrays are formatted whole."""
    kind = column.dtype.kind if isinstance(column, np.ndarray) else "O"
    if kind in "iuf":
        return map(repr if kind == "f" else str, column.tolist())
    return map(_fmt, column)


def _csv_chunks(header: List[str], columns):
    """The CSV text in pieces: the header line, then _CSV_CHUNK_ROWS rows at a time."""
    yield ",".join(header) + "\n"
    for i0 in range(0, len(columns[0]), _CSV_CHUNK_ROWS):
        cells = [_cells(col[i0 : i0 + _CSV_CHUNK_ROWS]) for col in columns]
        yield "\n".join(map(",".join, zip(*cells, strict=True))) + "\n"


def write_csv(path: Path, header: List[str], columns) -> None:
    """Write a CSV with LF line ends in one ``Path.write_text`` call; only one chunk's cells exist at once.

    ``columns`` is a sequence of equal-length columns (arrays or lists), one per
    header name, or else an iterator of row tuples, which is transposed."""
    if isinstance(columns, Iterator):
        columns = list(zip(*columns, strict=True)) or [()] * len(header)
    if len(columns) != len(header):
        raise ValueError(f"{path}: {len(columns)} columns for {len(header)} header names")
    path.write_text("".join(_csv_chunks(header, columns)), encoding="utf-8")


def save_dataset_csv(data: model_mod.FederatedDataset, path: Path) -> None:
    """One row per point: client_id, x_1..x_d and, when present, label; `model.load_dataset_csv` reads it."""
    header = ["client_id"] + [f"x_{j + 1}" for j in range(data.dim)]
    columns = [np.repeat(np.arange(data.n_clients), data.counts)] + list(data.all_points.T)
    if data.labels is not None:
        header.append("label")
        columns.append(data.all_labels)
    write_csv(path, header, columns)


def write_keyvalues(path: Path, pairs) -> None:
    path.write_text("".join(f"{k} = {_fmt(v)}\n" for k, v in pairs), encoding="utf-8")


# ---------------------------------------------------------------------------
# model / run-config assembly


def build_model(cfg: ExperimentConfig):
    """Instantiate the configured federation; logistic also returns test data."""
    if cfg.model == "gaussian":
        sigma = cfg.sigma if cfg.sigma is not None else np.eye(cfg.dimension)
        spec = model_mod.gen_gaussian_federation(
            cfg.n_clients, cfg.alpha, cfg.points_per_client, sigma, cfg.seed, tau=cfg.tau
        )
        return spec, None, None
    spec, test_x, test_y = model_mod.gen_logistic_federation(
        cfg.n_clients,
        cfg.alpha,
        cfg.points_per_client,
        cfg.n_features,
        cfg.n_classes,
        cfg.seed,
        ridge=cfg.ridge,
        tau=cfg.tau,
        n_test=cfg.n_test,
    )
    return spec, test_x, test_y


def _scheme(name: str, s: Optional[int]):
    if name == "full":
        return FullDevice()
    if name == "scheme1":
        return SchemeI(s)
    return SchemeII(s)


def build_run_config(cfg: ExperimentConfig, spec, scheme_spec=None) -> RunConfig:
    require(cfg, "horizon")
    if cfg.schedule == "decaying":
        schedule = DecayingStep(*model_mod.smoothness(spec))
    elif cfg.eta is None:
        raise ConfigError("fixed schedule requires an eta")
    else:
        schedule = FixedStep(cfg.eta)
    scheme = scheme_spec if scheme_spec is not None else _scheme(cfg.scheme, cfg.s_devices)
    return RunConfig(
        local_steps=cfg.k_local,
        rho=cfg.rho,
        schedule=schedule,
        scheme=scheme,
        subsample_ratio=cfg.subsample_ratio,
        horizon=cfg.horizon,
        master_seed=cfg.seed,
        init=np.asarray(cfg.init) if cfg.init is not None else None,
    )


def model_constants(cfg: ExperimentConfig, spec) -> model_mod.EnergyConstants:
    """Energy constants, with D taken from the distance of init to the minimizer."""
    d = spec.dim
    init = np.asarray(cfg.init) if cfg.init is not None else np.zeros(d)
    consts = model_mod.constants(spec, 0.0, subsample_ratio=cfg.subsample_ratio, seed=cfg.seed)
    radius = float(np.linalg.norm(init - consts.theta_star))
    return replace(consts, D=radius / np.sqrt(d))


# ---------------------------------------------------------------------------
# metric table


def logistic_metric_rows(cfg: ExperimentConfig, spec, records: np.ndarray, test_x, test_y) -> dict:
    """The round, accuracy, brier and ece columns at each sample-collection round.

    One parameter sample per replication is collected every ``collect_every``
    rounds after the warmup; predictions average over all samples collected so
    far, pooled across replications.
    """
    table = {"round": list(range(cfg.warmup_rounds + cfg.collect_every, records.shape[1], cfg.collect_every))}
    total = None
    for i, r in enumerate(table["round"]):
        for theta in records[:, r]:  # one sample per replication
            probs = model_mod.predict_proba(spec, theta, test_x)
            total = probs if total is None else total + probs
        scored = metrics.classification_metrics(total / ((i + 1) * len(records)), test_y, cfg.ece_bins)
        for name, value in asdict(scored).items():
            table.setdefault(name, []).append(value)
    return table


def metric_table(cfg: ExperimentConfig, spec, records: np.ndarray, test_x, test_y) -> dict:
    """One run's metric columns, "round" first: w2, w2_mean and w2_cov at every round of a
    Gaussian run, the predictive metrics of `logistic_metric_rows` for a logistic one."""
    if cfg.model != "gaussian":
        return logistic_metric_rows(cfg, spec, records, test_x, test_y)
    target = model_mod.target_posterior(spec)
    table = {"round": list(range(records.shape[1]))}
    parts = [metrics.w2_gaussian_parts(metrics.empirical_summary(records[:, r, :]), target) for r in table["round"]]
    table.update(zip(("w2", "w2_mean", "w2_cov"), zip(*parts)))
    return table


def charted(cfg: ExperimentConfig, table: dict):
    """(metric, rounds, values) per charted metric: W2 alone for Gaussian runs, every metric for logistic runs."""
    names = ["w2"] if cfg.model == "gaussian" else list(table)[1:]
    return [(name, table["round"], table[name]) for name in names]


def smoothed_first_crossing(rounds, values, eps: float):
    """First round whose trailing moving average over T_EPS_SMOOTHING_WINDOW values is <= eps; inf if none."""
    for i in range(len(values)):
        if float(np.mean(values[max(0, i + 1 - T_EPS_SMOOTHING_WINDOW) : i + 1])) <= eps:
            return int(rounds[i])
    return math.inf


def t_eps(table: dict, eps: float, K: int):
    """(rounds, iterations) until the smoothed W2 curve first reaches eps."""
    t_round = smoothed_first_crossing(table["round"], table["w2"], eps)
    return t_round, t_round * K if math.isfinite(t_round) else math.inf


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen_data(cfg: ExperimentConfig, outdir: Path) -> int:
    spec, _, _ = build_model(cfg)
    path = outdir / "dataset.csv"
    save_dataset_csv(spec.data, path)
    print(f"wrote {path}")
    return 0


def cmd_run(cfg: ExperimentConfig, outdir: Path) -> int:
    spec, test_x, test_y = build_model(cfg)
    run_cfg = build_run_config(cfg, spec)
    if isinstance(run_cfg.schedule, FixedStep) and cfg.model == "gaussian":
        L, _ = model_mod.smoothness(spec)
        if run_cfg.schedule.eta > 1.0 / (2.0 * L):
            print(
                f"warning: eta = {run_cfg.schedule.eta:g} exceeds 1/(2L) = {1.0 / (2.0 * L):g}; "
                "convergence bounds do not apply",
                file=sys.stderr,
            )
    require(cfg, "replications")
    records = engine.run_replicated(run_cfg, spec, cfg.replications, workers=_workers())

    R, n_rows, d = records.shape
    rounds = np.arange(n_rows)
    write_csv(
        outdir / "trajectory.csv",
        ["replication", "round", "iteration"] + [f"theta_{j + 1}" for j in range(d)],
        [np.repeat(np.arange(R), n_rows), np.tile(rounds, R), np.tile(rounds * run_cfg.local_steps, R)]
        + [records[..., j].ravel() for j in range(d)],
    )

    summary_pairs = [("model", cfg.model), ("rounds", records.shape[1] - 1)]
    table = metric_table(cfg, spec, records, test_x, test_y)
    write_csv(outdir / "run_metrics.csv", list(table), list(table.values()))
    series = charted(cfg, table)
    if cfg.model == "gaussian":
        svg = line_chart(series, "sampling error by communication round", "communication round", "W2", log_y=True)
        tail = max(1, len(table["w2"]) // 4)
        summary_pairs.append(("plateau_w2", float(np.mean(table["w2"][-tail:]))))
        if cfg.target_eps is not None:
            t_round, t_iter = t_eps(table, cfg.target_eps, run_cfg.local_steps)
            summary_pairs += [("t_eps_rounds", t_round), ("t_eps_iterations", t_iter)]
    else:
        svg = line_chart(series, "predictive metrics by communication round", "communication round", "value")
    (outdir / "run_metrics.svg").write_text(svg, encoding="utf-8")
    write_keyvalues(outdir / "summary.txt", summary_pairs)
    print(f"wrote {outdir / 'run_metrics.csv'}")
    return 0


def _sweep_points(cfg: ExperimentConfig, spec):
    """Yield (label, spec, run_cfg) per sweep value; only an alpha sweep draws a new federation."""
    for value in cfg.sweep_values:
        point = sweep_point(cfg, value)
        point_spec = build_model(point)[0] if cfg.sweep == "alpha" else spec
        yield sweep_label(cfg, value), point_spec, build_run_config(point, point_spec)


def cmd_sweep(cfg: ExperimentConfig, outdir: Path) -> int:
    if cfg.sweep is None:
        raise ConfigError("sweep command requires a sweep axis")
    require(cfg, "replications")
    spec, test_x, test_y = build_model(cfg)
    long_rows, t_eps_rows, curves = [], [], {}
    with_t_eps = cfg.model == "gaussian" and cfg.target_eps is not None
    points = list(_sweep_points(cfg, spec))
    # one lockstep batch and one process pool for every value; a diverging value stops alone
    outcomes = engine.run_sweep([p[2] for p in points], [p[1] for p in points], cfg.replications, _workers())
    for (label, point_spec, run_cfg), records in zip(points, outcomes):
        if isinstance(records, ChainDivergenceError):
            print(f"sweep value {label}: {records}", file=sys.stderr)
            long_rows.append((label, 0, "truncated", 1.0))
            if with_t_eps:
                t_eps_rows.append((label, math.inf, math.inf))
            continue
        table = metric_table(cfg, point_spec, records, test_x, test_y)
        series = charted(cfg, table)
        long_rows += [(label, r, name, values[i]) for i, r in enumerate(table["round"]) for name, _, values in series]
        for name, rounds, values in series:
            curves.setdefault(name, []).append((label, rounds, values))
        if with_t_eps:
            t_eps_rows.append((label, *t_eps(table, cfg.target_eps, run_cfg.local_steps)))

    write_csv(outdir / "sweep.csv", ["sweep_value", "round", "metric", "value"], iter(long_rows))
    for name, series in curves.items():
        svg = line_chart(
            series,
            f"{name} by communication round (sweep over {cfg.sweep})",
            "communication round",
            name,
            log_y=(name == "w2"),
        )
        (outdir / f"sweep_{name}.svg").write_text(svg, encoding="utf-8")
    if with_t_eps:
        write_csv(outdir / "sweep_t_eps.csv", ["sweep_value", "t_eps_rounds", "t_eps_iterations"], iter(t_eps_rows))
    print(f"wrote {outdir / 'sweep.csv'}")
    return 0


def _bound_inputs(cfg: ExperimentConfig, spec, consts, K: int, scheme, eta=None) -> theory.BoundInputs:
    return theory.bound_inputs(
        consts,
        tau=spec.tau,
        d=spec.dim,
        K=K,
        rho=cfg.rho,
        N=spec.data.n_clients,
        min_pc=float(np.min(spec.data.weights)),
        scheme=scheme,
        eta=eta,
    )


def cmd_bounds(cfg: ExperimentConfig, outdir: Path) -> int:
    spec, _, _ = build_model(cfg)
    run_cfg = build_run_config(cfg, spec)
    eta = run_cfg.schedule.eta if isinstance(run_cfg.schedule, FixedStep) else None
    inputs = _bound_inputs(cfg, spec, model_constants(cfg, spec), run_cfg.local_steps, run_cfg.scheme, eta)
    ks = np.arange(0, cfg.horizon + 1, run_cfg.local_steps)
    if isinstance(run_cfg.schedule, DecayingStep):
        evaluate = theory.bound_decaying
    elif isinstance(run_cfg.scheme, (SchemeI, SchemeII)):
        evaluate = theory.bound_partial
    else:
        evaluate = theory.bound_full_fixed
    bound = [float(evaluate(inputs, int(k))) for k in ks]
    write_csv(outdir / "bounds.csv", ["k", "bound"], [ks, bound])
    svg = line_chart(
        [("bound", ks.tolist(), bound)],
        "convergence bound by iteration",
        "iteration",
        "W2 bound",
        log_y=True,
    )
    (outdir / "bounds.svg").write_text(svg, encoding="utf-8")
    print(f"wrote {outdir / 'bounds.csv'}")
    return 0


def _dp_params(cfg: ExperimentConfig, spec) -> privacy.DpParams:
    if cfg.schedule == "decaying":
        raise ConfigError("privacy accounting needs schedule = fixed (the decaying schedule ignores eta)")
    require(cfg, "delta_l", "horizon", "eta")
    try:
        return privacy.DpParams(
            delta_l=cfg.delta_l,
            q=cfg.subsample_ratio,
            eta=cfg.eta,
            tau=spec.tau,
            rho=cfg.rho,
            min_pc=float(np.min(spec.data.weights)),
            K=cfg.k_local,
            T=cfg.horizon,
            N=spec.data.n_clients,
            scheme=_scheme(cfg.scheme, cfg.s_devices),
            delta0=cfg.delta0,
            delta1=cfg.delta1,
            delta2=cfg.delta2,
        )
    except privacy.PrivacyError as err:
        raise ConfigError(f"privacy: {err}") from None


def cmd_privacy(cfg: ExperimentConfig, outdir: Path) -> int:
    spec, _, _ = build_model(cfg)
    params = _dp_params(cfg, spec)
    limit = privacy.eta_max_dp(params)
    path = outdir / "privacy_report.txt"
    if params.eta > limit:
        write_keyvalues(path, [("error", "eta exceeds admissible maximum"), ("eta", params.eta), ("eta_max_dp", limit)])
        print(f"eta = {params.eta:g} exceeds eta_max_dp = {limit:g}; see {path}", file=sys.stderr)
        return 2
    report = list(privacy.account_report(params).items())
    if cfg.eps_star is not None and cfg.delta_star is not None:
        found = privacy.budget_search(cfg.eps_star, cfg.delta_star, params)
        if found is None:
            report.append(("budget_search", "infeasible"))
        else:
            report.append(("budget_search_rho", found[0]))
            report.append(("budget_search_s", found[1]))
    write_keyvalues(path, report)
    print(f"wrote {path}")
    return 0


def cmd_plan(cfg: ExperimentConfig, outdir: Path) -> int:
    require(cfg, "target_eps")
    spec, _, _ = build_model(cfg)
    consts = model_constants(cfg, spec)
    run_scheme = _scheme(cfg.scheme, cfg.s_devices)
    pairs = [("kappa", consts.kappa)]
    k_star = theory.optimal_local_steps(consts.kappa)
    pairs.append(("k_star", k_star))
    for label, k in (("configured", cfg.k_local), ("k_star", k_star)):
        inputs = _bound_inputs(cfg, spec, consts, k, run_scheme)
        eta, t_eps, rounds = theory.plan_steps(cfg.target_eps, inputs)
        # the planning rule has no device-sampling term; the partial-device bound does
        bound = 0.0 if isinstance(run_scheme, FullDevice) else theory.bound_partial(replace(inputs, eta=eta), t_eps)
        if bound > cfg.target_eps:
            print(
                f"warning: {label} plan (k = {k}, eta = {eta:g}, t_eps = {t_eps}): the {cfg.scheme} bound is "
                f"{bound:g} > target_eps = {cfg.target_eps:g}; the plan ignores the partial-device bias",
                file=sys.stderr,
            )
        pairs += [
            (f"{label}_k", k),
            (f"{label}_eta", eta),
            (f"{label}_t_eps", t_eps),
            (f"{label}_rounds", rounds),
        ]
    path = outdir / "plan.txt"
    write_keyvalues(path, pairs)
    print(f"wrote {path}")
    return 0


# ---------------------------------------------------------------------------


_COMMANDS = {
    "gen-data": cmd_gen_data,
    "run": cmd_run,
    "sweep": cmd_sweep,
    "bounds": cmd_bounds,
    "privacy": cmd_privacy,
    "plan": cmd_plan,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="fald", description=__doc__)
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("config", help="path to a key=value configuration file")
    parser.add_argument("--outdir", default=None, help="output directory (overrides the config)")
    args = parser.parse_args(argv)

    try:
        cfg = parse_config_file(args.config)
        outdir = Path(args.outdir if args.outdir is not None else cfg.outdir)
        try:
            outdir.mkdir(parents=True, exist_ok=True)
        except OSError as err:
            raise ConfigError(f"cannot create output directory {outdir}: {err.strerror}") from None
        return _COMMANDS[args.command](cfg, outdir)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except BrokenExecutor as err:
        print(f"error: a worker process died ({err}); FALD_THREADS=1 runs without workers", file=sys.stderr)
        return 3
    except (ChainDivergenceError, theory.TheoryError, privacy.PrivacyError,
            model_mod.ModelError, metrics.MetricsError, engine.EngineError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
