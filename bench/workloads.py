"""Workloads of the fald benchmark and the checks on their outputs.

A workload is a list of `fald` CLI commands run on one generated config.
The benchmark seed is written into the config's ``seed``; everything else is
fixed here.  Sizes are smaller than the README example so that one pass of a
workload takes a few seconds and a run of the benchmark holds several passes
to take a median over; each workload keeps the layer it is meant to stress
dominant (see ``why``).

The output checks never compare against numbers taken from a previous run:
the Gaussian plateau is checked against the exact second moments of the
linear-Gaussian chain plus the Monte Carlo floor of R replications, and the
logistic accuracy against the majority-class rate of the test labels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

# README example federation: N = 10 clients of 20 points, d = 2.
_README = {
    "n_clients": 10,
    "points_per_client": 20,
    "sigma": "5, -2, -2, 1",
    "alpha": 1.0,
    "tau": 1.0,
    "k_local": 10,
    "eta": 1e-4,
    "replications": 200,
}

_MINIBATCH = dict(_README, subsample_ratio=0.5, horizon=500)

# The plateau (tail mean of W2) must lie within this many Monte Carlo floors
# of the reference.  The floor f = sqrt(tr P / R) is the RMS error of the mean
# of R chains; W2 of the R-sample fit is about f * sqrt(z^2 + z'^2 / 2) for
# standard normal z, z' when the bias is small (the posterior here is nearly
# one-dimensional), so even a single round exceeds the reference by 4 f with
# probability below 1e-4.  A missing noise term, a wrong gradient scale or a
# wrong synchronization weight moves the plateau by far more than that.
PLATEAU_FLOORS = 4.0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    commands: Tuple[str, ...]
    threads: int  # FALD_THREADS for every command
    config: Dict[str, object]
    tiny: Dict[str, object] = field(default_factory=dict)  # overrides for the smoke test
    setup_constants: bool = False  # whether a command calls cli.model_constants

    def config_text(self, seed: int, tiny: bool = False) -> str:
        values = dict(self.config, seed=seed)
        if tiny:
            values.update(self.tiny)
        return "".join(f"{k} = {v}\n" for k, v in values.items())


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="gauss_run",
            why="Gaussian full-batch run on the README federation: streams, the process pool, "
            "W2 per round and the trajectory CSV writer",
            commands=("run",),
            threads=2,
            config=dict(_README, horizon=2000, target_eps=0.05),
            tiny={"horizon": 200, "replications": 8},
            setup_constants=True,
        ),
        # Not listed in BENCHMARK.json: on a shared 2-vCPU host its median wall
        # time moved by up to 75% between consecutive 20-s runs (IQR / median
        # over 10 seeds 0.23 and 0.39), wider than any bound the benchmark may
        # set.  Its oracle is timed in every traced run instead.
        Workload(
            name="logistic_run",
            why="softmax run, almost all time in model.logistic_client_grad; bypasses streams, "
            "CSV size and the pool",
            commands=("run",),
            threads=1,
            config={
                "model": "logistic",
                "n_clients": 10,
                "points_per_client": 30,
                "n_features": 5,
                "n_classes": 3,
                "k_local": 5,
                "eta": 5e-4,
                "horizon": 150,
                "replications": 20,
                "collect_every": 5,
                "warmup_rounds": 10,
            },
            tiny={"horizon": 50, "replications": 4, "warmup_rounds": 0},
        ),
        Workload(
            name="minibatch_sweep",
            why="s_scheme sweep at subsample_ratio 0.5: the minibatch path, both device schemes "
            "and three pool start-ups; bypasses the trajectory writer",
            commands=("sweep",),
            threads=2,
            config=dict(_MINIBATCH, sweep="s_scheme", sweep_values="full, scheme1:5, scheme2:5"),
            tiny={"horizon": 200, "replications": 8},
        ),
        Workload(
            name="analysis",
            why="plan, bounds and privacy on the minibatch config with scheme2: theory, privacy "
            "and the sigma_sg Monte Carlo; runs no chain",
            commands=("plan", "bounds", "privacy"),
            threads=1,
            config=dict(
                _MINIBATCH,
                scheme="scheme2",
                s_devices=5,
                delta_l=1.0,
                eps_star=50,
                delta_star=1e-3,
                target_eps=0.05,
            ),
            tiny={"horizon": 200},
            setup_constants=True,
        ),
    )
}


def run_configs(cfg):
    """(label, scheme name, S) for every chain a run/sweep command simulates."""
    if cfg.sweep is None:
        return [("run", cfg.scheme, cfg.s_devices)]
    if cfg.sweep != "s_scheme":
        raise ValueError("the benchmark only sweeps s_scheme")
    return [(name if s is None else f"{name}:{s}", name, s) for name, s in cfg.sweep_values]


def client_steps(workload: Workload, cfg) -> int:
    """R * N * T summed over the chains the workload's commands run."""
    chains = sum(len(run_configs(cfg)) for c in workload.commands if c in ("run", "sweep"))
    return chains * cfg.replications * cfg.n_clients * cfg.horizon


# ---------------------------------------------------------------------------
# references


def _sqrtm(mat: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(0.5 * (mat + mat.T))
    return (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.T


def _bures_sq(a: np.ndarray, b: np.ndarray) -> float:
    root_b = _sqrtm(b)
    cross = _sqrtm(root_b @ a @ root_b)
    return max(0.0, float(np.trace(a) + np.trace(b) - 2.0 * np.trace(cross)))


def gaussian_reference(spec, cfg, scheme: str, s):
    """Expected W2 per round of the R-replication Gaussian fit, and its MC floor.

    Exact first and second moments of the averaged chain: each client runs K
    steps theta <- A theta + B xbar + noise with A = I - eta n Sigma^-1 and
    B = I - A, where xbar is the client mean (full batch) or the mean of a
    uniform without-replacement minibatch; the server then averages with the
    scheme's random weights, whose mean is p_c.  Returns two per-round arrays:
    sqrt(|m_r - mu|^2 + Bures(P_r, Sigma_post)^2 + f_r^2), the bias with the
    Monte Carlo floor added, and the floor f_r = sqrt(tr(P_r) / R) itself.
    """
    d, n, N = spec.dim, spec.data.total_points, spec.data.n_clients
    p = spec.data.weights
    eta, K, R, q, tau, rho = cfg.eta, cfg.k_local, cfg.replications, cfg.subsample_ratio, cfg.tau, cfg.rho
    eye = np.eye(d)
    B = eta * n * np.linalg.inv(spec.sigma)
    A = eye - B
    powers = [np.linalg.matrix_power(A, j) for j in range(K + 1)]
    AK = powers[K]
    mus = np.stack([c.mean(axis=0) for c in spec.data.clients])
    mu_bar = p @ mus

    def accumulate(inner):
        return sum(powers[j] @ inner @ powers[j].T for j in range(K))

    G = accumulate(eye)
    noise = []
    for c, pts in enumerate(spec.data.clients):
        n_c = pts.shape[0]
        cov = 2.0 * eta * tau * (1.0 - rho * rho) / p[c] * G
        if q < 1.0:
            size = max(1, math.floor(q * n_c))
            if not math.isclose(size, q * n_c):
                raise ValueError("the reference needs q * n_c to be an integer")
            v_c = (1.0 - size / n_c) * np.cov(pts, rowvar=False, ddof=1).reshape(d, d) / size
            cov = cov + accumulate(B @ v_c @ B.T)
        noise.append(cov)
    spread = (mus - mu_bar).T @ ((mus - mu_bar) * p[:, None])  # sum_c p_c (mu_c - mu)(mu_c - mu)'
    if scheme == "full":
        ew2, cw = p * p, np.zeros((d, d))
    elif scheme == "scheme1":
        ew2, cw = p * (1.0 - p) / s + p * p, spread / s
    else:
        ew2, cw = np.full(N, 1.0 / (s * N)), spread * (N - s) / (s * (N - 1))
    M = (eye - AK) @ cw @ (eye - AK).T + 2.0 * eta * tau * rho * rho * G
    M = M + sum(w * q_c for w, q_c in zip(ew2, noise))

    target_cov = (tau / n) * spec.sigma
    rounds = cfg.horizon // K
    mean = np.zeros(d) if cfg.init is None else np.asarray(cfg.init, dtype=np.float64)
    P = np.zeros((d, d))
    ref, floor = np.empty(rounds + 1), np.empty(rounds + 1)
    for r in range(rounds + 1):
        floor[r] = math.sqrt(np.trace(P) / R)
        ref[r] = math.sqrt(float(np.sum((mean - mu_bar) ** 2)) + _bures_sq(P, target_cov) + floor[r] ** 2)
        mean = AK @ mean + (eye - AK) @ mu_bar
        P = AK @ P @ AK.T + M
    return ref, floor


def plateau_of(curve) -> float:
    """Tail mean over the last quarter of rounds, the rule `fald run` uses."""
    tail = max(1, len(curve) // 4)
    return float(np.mean(curve[-tail:]))


def references(workload: Workload, cfg) -> dict:
    """Reference values the output checks compare against (computed once per seed)."""
    from fald import cli

    if workload.commands[0] not in ("run", "sweep"):
        return {}
    spec, _, test_y = cli.build_model(cfg)
    if cfg.model == "logistic":
        return {"majority_rate": float(np.bincount(test_y).max() / len(test_y))}
    refs = {}
    for label, scheme, s in run_configs(cfg):
        ref, floor = gaussian_reference(spec, cfg, scheme, s)
        refs[label] = (plateau_of(ref), plateau_of(floor))
    return refs


# ---------------------------------------------------------------------------
# output checks


def _rows(path: Path) -> List[List[str]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    return [line.split(",") for line in lines[1:]]


def _keyvalues(path: Path) -> Dict[str, str]:
    pairs = (line.split(" = ", 1) for line in path.read_text(encoding="utf-8").splitlines())
    return {k: v for k, v in pairs}


def _finite(text: str) -> bool:
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


def _check_plateau(label: str, value: float, ref, problems: List[str]) -> None:
    expected, floor = ref
    if not (math.isfinite(value) and value > 0 and abs(value - expected) <= PLATEAU_FLOORS * floor):
        problems.append(f"{label}: plateau W2 {value!r} is not within {PLATEAU_FLOORS:g} Monte Carlo "
                        f"floors ({floor:.4g}) of the reference {expected:.4g}")


def check_outputs(command: str, cfg, outdir: Path, refs: dict) -> List[str]:
    """Problems found in one command's output directory; empty when all is well."""
    try:
        return _check_outputs(command, cfg, outdir, refs)
    except (ValueError, KeyError, IndexError) as err:
        return [f"{command}: malformed output ({err!r})"]


def _check_outputs(command: str, cfg, outdir: Path, refs: dict) -> List[str]:
    problems: List[str] = []
    expected = {
        "run": ["run_metrics.csv", "run_metrics.svg", "trajectory.csv", "summary.txt"],
        "sweep": ["sweep.csv", "sweep_w2.svg"],
        "plan": ["plan.txt"],
        "bounds": ["bounds.csv", "bounds.svg"],
        "privacy": ["privacy_report.txt"],
    }[command]
    missing = [f for f in expected if not (outdir / f).is_file()]
    if missing:
        return [f"{command}: missing {', '.join(missing)}"]

    rounds = cfg.horizon // cfg.k_local
    if command == "run":
        traj = (outdir / "trajectory.csv").read_bytes().count(b"\n") - 1
        if traj != cfg.replications * (rounds + 1):
            problems.append(f"trajectory.csv has {traj} rows, expected {cfg.replications * (rounds + 1)}")
        rows = _rows(outdir / "run_metrics.csv")
        summary = _keyvalues(outdir / "summary.txt")
        if cfg.model == "gaussian":
            if len(rows) != rounds + 1:
                problems.append(f"run_metrics.csv has {len(rows)} rows, expected {rounds + 1}")
            _check_plateau("run", float(summary.get("plateau_w2", "nan")), refs["run"], problems)
        else:
            want = len(range(cfg.warmup_rounds + cfg.collect_every, rounds + 1, cfg.collect_every))
            if len(rows) != want:
                problems.append(f"run_metrics.csv has {len(rows)} rows, expected {want}")
            for r, acc, brier, ece in rows:
                if not (0 <= float(acc) <= 1 and 0 <= float(brier) <= 2 and 0 <= float(ece) <= 1):
                    problems.append(f"round {r}: metrics out of range ({acc}, {brier}, {ece})")
            if rows and not float(rows[-1][1]) > refs["majority_rate"]:
                problems.append(f"final accuracy {rows[-1][1]} not above the majority-class rate "
                                f"{refs['majority_rate']:.4g}")
    elif command == "sweep":
        rows = _rows(outdir / "sweep.csv")
        labels = [label for label, _, _ in run_configs(cfg)]
        if len(rows) != len(labels) * (rounds + 1):
            problems.append(f"sweep.csv has {len(rows)} rows, expected {len(labels) * (rounds + 1)}")
        for label in labels:
            curve = [float(v) for lab, _, metric, v in rows if lab == label and metric == "w2"]
            _check_plateau(f"sweep {label}", plateau_of(curve) if curve else math.nan, refs[label], problems)
    elif command == "bounds":
        rows = _rows(outdir / "bounds.csv")
        if len(rows) != rounds + 1:
            problems.append(f"bounds.csv has {len(rows)} rows, expected {rounds + 1}")
        if not all(_finite(v) and float(v) >= 0 for _, v in rows):
            problems.append("bounds.csv holds a negative or non-finite bound")
    else:  # plan, privacy
        name = "plan.txt" if command == "plan" else "privacy_report.txt"
        report = _keyvalues(outdir / name)
        words = {"true", "false", "infeasible"}
        bad = [k for k, v in report.items() if v not in words and not _finite(v)]
        if bad or not report:
            problems.append(f"{name}: non-finite or missing fields {bad}")
    return problems
