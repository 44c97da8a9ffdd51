"""Per-layer measurements for the traced run of the fald benchmark.

Three kinds of numbers come from here:

* spans: `Tracer` wraps every public function of each fald module, so a call
  that crosses from one module (layer) into another records a span (name,
  start, end, parent).  Calls within one module are not spans.  Spans stay in
  memory until `Tracer.dump` writes them.  A layer's self time is its spans'
  durations minus the time their child spans cover.
* kernels: each layer's hot functions timed on their own at fixed shapes
  taken from the workloads (B = 200 chains of N = 10 clients, d = 2; the
  softmax oracle at B = 20 and 200), reported as rates.
* engine: `run_block` on a workload's own run config with one worker, its two
  halves, and `run_replicated` with two workers, which gives the pool's
  overhead and imbalance and checks that the records are bit-identical.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import io
import json
import statistics
import sys
import time
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np

from workloads import run_configs

LAYERS = ("config", "streams", "model", "engine", "metrics", "theory", "privacy", "cli", "svgchart")

_MIN_KERNEL_S = 0.2  # each kernel is repeated for at least this long


class Tracer:
    """Spans around every call into a fald layer's public functions."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self._stack = []
        self._patched = []

    def install(self) -> None:
        modules = [importlib.import_module(f"fald.{layer}") for layer in LAYERS]
        wrappers = {}
        for layer, mod in zip(LAYERS, modules):
            for attr, fn in vars(mod).items():
                if not attr.startswith("_") and inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrappers[fn] = self._wrap(f"{layer}.{attr}", fn, mod.__name__)
        # patch every binding, including names imported into other modules
        for mod in modules + [importlib.import_module("fald")]:
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, wrappers[value])

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def _wrap(self, name, fn, home):
        spans, stack, clock, frame = self.spans, self._stack, time.perf_counter, sys._getframe

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if frame(1).f_globals.get("__name__") == home:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else -1])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()

        return traced

    def self_seconds(self) -> dict:
        """Self time per layer: span time minus the time of its child spans."""
        out = dict.fromkeys(LAYERS, 0.0)
        for name, start, end, parent in self.spans:
            out[name.split(".")[0]] += end - start
            if parent >= 0:
                out[self.spans[parent][0].split(".")[0]] -= end - start
        return out

    def dump(self, path: Path) -> None:
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [[n, round((s - t0) * 1e9), round((e - t0) * 1e9), p] for n, s, e, p in self.spans]
        path.write_text(json.dumps({"columns": ["name", "start_ns", "end_ns", "parent"], "spans": rows}))


def per_call(fn, min_s: float = _MIN_KERNEL_S) -> float:
    """Median seconds per call of fn(), over at least 3 calls and min_s seconds."""
    times = []
    start = time.perf_counter()
    while len(times) < 3 or time.perf_counter() - start < min_s:
        t = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def kernel_metrics(seed: int, gauss_cfg, logistic_cfg, analysis_cfg, scratch: Path) -> dict:
    """Rates of each layer's kernels at the workloads' shapes."""
    from fald import cli, metrics, model, privacy, streams, svgchart, theory

    rng = np.random.default_rng(seed)
    out = {}
    B, N, iters, d = 200, 10, 500, 2
    keys = streams.key_grid(seed, range(B), range(iters), range(N), "noise")
    out["streams.keys_per_s"] = keys.size / per_call(
        lambda: streams.key_grid(seed, range(B), range(iters), range(N), "noise"))
    out["streams.normals_per_s"] = keys.size * d / per_call(lambda: streams.normals_for_keys(keys, d))
    step_keys = keys[:, 0, :]
    out["streams.uniforms_per_s"] = step_keys.size * 20 / per_call(lambda: streams.uniforms_for_keys(step_keys, 20))

    g_spec, _, _ = cli.build_model(gauss_cfg)
    thetas = rng.standard_normal((B, N, d))
    out["model.gauss_grad_steps_per_s"] = B * N / per_call(lambda: model.gaussian_client_grads(g_spec, thetas))
    idx = np.argsort(rng.random((B, 20)), axis=1)[:, :10]
    out["model.gauss_subset_grad_steps_per_s"] = B / per_call(
        lambda: model.gaussian_client_grad_subset(g_spec, 0, thetas[:, 0], idx, 0.5))
    l_spec, test_x, test_y = cli.build_model(logistic_cfg)
    for b in (20, 200):
        w = rng.standard_normal((b, l_spec.dim))
        out[f"model.logistic_grad_steps_per_s_b{b}"] = b / per_call(lambda: model.logistic_client_grad(l_spec, 0, w))

    a_spec, _, _ = cli.build_model(analysis_cfg)
    t = time.perf_counter()
    consts = model.constants(a_spec, 1.0, subsample_ratio=analysis_cfg.subsample_ratio, seed=seed)
    out["model.constants_s"] = time.perf_counter() - t

    records = rng.standard_normal((gauss_cfg.replications, gauss_cfg.horizon // gauss_cfg.k_local + 1, d)) * 0.1
    target = model.target_posterior(g_spec)

    def w2_rows():
        for r in range(records.shape[1]):
            metrics.w2_gaussian_parts(metrics.empirical_summary(records[:, r]), target)

    out["metrics.w2_rounds_per_s"] = records.shape[1] / per_call(w2_rows, 0.0)
    l_rounds = logistic_cfg.horizon // logistic_cfg.k_local + 1
    l_records = rng.standard_normal((logistic_cfg.replications, l_rounds, l_spec.dim))
    out["metrics.classification_s"] = per_call(
        lambda: cli.logistic_metric_rows(logistic_cfg, l_spec, l_records, test_x, test_y), 0.0)

    csv_path = scratch / "kernel_trajectory.csv"  # half the gauss_run trajectory
    half, K = records[: records.shape[0] // 2], gauss_cfg.k_local
    rows = lambda: ((rep, r, r * K, *half[rep, r]) for rep in range(half.shape[0]) for r in range(half.shape[1]))
    seconds = per_call(lambda: cli.write_csv(csv_path, ["replication", "round", "iteration", "theta_1", "theta_2"], rows()), 0.0)
    out["cli.csv_mb_per_s"] = csv_path.stat().st_size / 1e6 / seconds
    csv_path.unlink()
    xs = list(range(records.shape[1]))
    ys = list(np.abs(records[0, :, 0]) + 1e-3)
    out["svgchart.render_s"] = per_call(lambda: svgchart.line_chart([("w2", xs, ys)], "t", "x", "y", log_y=True))

    run_cfg = cli.build_run_config(analysis_cfg, a_spec)
    inputs = theory.bound_inputs(
        consts, tau=analysis_cfg.tau, d=a_spec.dim, K=run_cfg.local_steps, rho=run_cfg.rho,
        N=analysis_cfg.n_clients, min_pc=float(np.min(a_spec.data.weights)), scheme=run_cfg.scheme,
        eta=analysis_cfg.eta)
    ks = range(0, analysis_cfg.horizon + 1, run_cfg.local_steps)
    out["theory.bound_evals_per_s"] = len(ks) / per_call(lambda: [theory.bound_partial(inputs, k) for k in ks])
    params = cli._dp_params(analysis_cfg, a_spec)
    out["privacy.account_s"] = per_call(lambda: privacy.account_report(params))
    out["privacy.budget_search_s"] = per_call(
        lambda: privacy.budget_search(analysis_cfg.eps_star, analysis_cfg.delta_star, params))
    return out


def engine_metrics(cfg, failures: dict) -> dict:
    """run_block at one worker, its two halves, and run_replicated at two workers."""
    from fald import cli, engine

    spec, _, _ = cli.build_model(cfg)
    _, scheme, s = run_configs(cfg)[0]
    run_cfg = cli.build_run_config(cfg, spec, scheme_spec=cli._scheme(scheme, s))
    R = cfg.replications
    cut = int(np.linspace(0, R, 3)[1])  # run_replicated's split for two workers

    def timed(fn):
        t = time.perf_counter()
        result = fn()
        return time.perf_counter() - t, result

    try:
        t_full, full = timed(lambda: engine.run_block(run_cfg, spec, range(R)).records)
        t_a, part_a = timed(lambda: engine.run_block(run_cfg, spec, range(cut)).records)
        t_b, part_b = timed(lambda: engine.run_block(run_cfg, spec, range(cut, R)).records)
        t_pool, pooled = timed(lambda: engine.run_replicated(run_cfg, spec, R, workers=2))
    except engine.ChainDivergenceError:
        failures["engine.divergences"] += 1
        return {}
    except BrokenProcessPool:
        failures["engine.broken_pools"] += 1
        return {}
    identical = np.array_equal(full, pooled) and np.array_equal(full, np.concatenate([part_a, part_b]))
    return {
        "engine.run_block_steps_per_s": R * cfg.n_clients * cfg.horizon / t_full,
        "engine.pool_overhead_s": t_pool - max(t_a, t_b),
        "engine.pool_imbalance_s": abs(t_a - t_b),
        "engine.parallel_efficiency": (t_a + t_b) / (2.0 * t_pool),
        "engine.workers_identical": 1.0 if identical else 0.0,
    }


def replay(commands, cfg_path: Path, outdir: Path, tracer=None) -> float:
    """Run the CLI commands in this process; returns the wall time."""
    from fald import cli

    if tracer is not None:
        tracer.install()
    try:
        t = time.perf_counter()
        for command in commands:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main([command, str(cfg_path), "--outdir", str(outdir / command)])
            if code != 0:
                raise RuntimeError(f"in-process fald {command} exited {code}")
        return time.perf_counter() - t
    finally:
        if tracer is not None:
            tracer.uninstall()
