#!/usr/bin/env python3
"""Benchmark of the fald command-line tool, end to end and layer by layer.

Usage, from the root of a source checkout (fald is imported from ./src):

    python3 bench/run.py --workload gauss_run --seed 1 --seconds 20 --trace 0

``--workload all`` runs every workload in turn, each in its own process, and
ends with one JSON object whose metric names are prefixed by the workload.

With ``--trace 0`` the workload's `fald` commands run as a user runs them,
each in its own process, repeatedly for ``--seconds`` seconds; every pass is
checked, and the end-to-end metrics are medians over the passes.  Set-up time
is measured separately, several times, in fresh interpreters.  With
``--trace 1`` the commands run once as processes, then again inside this
process with and without spans around every call into a fald layer, and the
layers' kernels are timed on their own (see layers.py); this run does a fixed
amount of work, so ``--seconds`` does not apply to it.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a readable report that also gives each timing's sample count and tail,
the error rate (``failed / attempted``) and client-steps per second, which
the JSON leaves out because the error rate is 0 when all is well and the
analysis workload runs no chain.  A results file with every sample, the
machine facts, the output digests and the problems found is written to
bench/out/results/, and the spans of the last traced run of a workload to
bench/out/spans-<workload>.json.  The exit code is 1 when an output check
failed and 2 when the checkout holds no fald sources.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import layers
from workloads import WORKLOADS, check_outputs, client_steps, references, run_configs

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

# name -> unit; the --trace 0 metrics
END_TO_END = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}

# name -> unit; the --trace 1 metrics ("<layer>.self_s" come from the spans)
PER_LAYER = {
    "streams.keys_per_s": "1/s",
    "streams.normals_per_s": "1/s",
    "streams.uniforms_per_s": "1/s",
    "streams.normals_drawn": "count",
    "streams.draw_useful_ratio": "ratio",
    "model.gauss_grad_steps_per_s": "1/s",
    "model.gauss_subset_grad_steps_per_s": "1/s",
    "model.logistic_grad_steps_per_s_b20": "1/s",
    "model.logistic_grad_steps_per_s_b200": "1/s",
    "model.constants_s": "s",
    "model.subsample_useful_ratio": "ratio",
    "engine.client_steps": "count",
    "engine.run_block_steps_per_s": "1/s",
    "engine.pool_overhead_s": "s",
    "engine.pool_imbalance_s": "s",
    "engine.parallel_efficiency": "ratio",
    "engine.device_useful_ratio": "ratio",
    "engine.divergences": "count",
    "engine.broken_pools": "count",
    "engine.workers_identical": "count",
    "metrics.w2_rounds_per_s": "1/s",
    "metrics.classification_s": "s",
    "cli.csv_mb_per_s": "MB/s",
    "cli.bytes_written": "bytes",
    "svgchart.render_s": "s",
    "config.parse_s": "s",
    "theory.bound_evals_per_s": "1/s",
    "privacy.account_s": "s",
    "privacy.budget_search_s": "s",
    "trace.overhead_s": "s",
    "trace.replay_identical": "count",
}
PER_LAYER.update({f"{layer}.self_s": "s" for layer in layers.LAYERS})

MIN_PASSES = 3
DEADLINE_S = 170.0  # every process this benchmark starts ends within this

SETUP_SCRIPT = """
import sys, time
t0 = time.perf_counter()
import fald
from fald import cli
from fald.config import parse_config_file
cfg = parse_config_file(sys.argv[1])
spec, _, _ = cli.build_model(cfg)
cli.build_run_config(cfg, spec)
if sys.argv[2] == "1":
    cli.model_constants(cfg, spec)
print(repr(time.perf_counter() - t0))
"""

_START = time.perf_counter()


# ---------------------------------------------------------------------------
# processes


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_process(argv, env, log: Path):
    """Run argv to completion; returns (wall s, cpu s, peak RSS MB, exit code, output).

    CPU time and peak RSS come from wait4 and so include the pool workers the
    process waited for.  The process gets its own session so that a timeout
    kills its workers too.
    """
    remaining = max(1.0, DEADLINE_S - (time.perf_counter() - _START))
    with open(log, "wb") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=fh, stderr=subprocess.STDOUT, start_new_session=True)
        timer = threading.Timer(remaining, _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, proc.returncode, log.read_text(errors="replace")


def count_failures(output: str, failures: dict) -> None:
    """Chains that diverged and pools that broke, read from a command's output."""
    failures["engine.broken_pools"] += output.count("BrokenProcessPool:")
    failures["engine.divergences"] += output.count("consider reducing the step size") + output.count(
        "non-finite state at iteration")


def digests_of(outdir: Path) -> dict:
    return {
        str(p.relative_to(outdir)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(outdir.rglob("*")) if p.is_file()
    }


# ---------------------------------------------------------------------------
# reporting helpers


def tail_percentile(samples):
    """Highest percentile with at least 10 samples beyond it: (p, value) or None."""
    n = len(samples)
    for p in (99.9, 99, 95, 90, 75):
        if n * (1 - p / 100) >= 10:
            ordered = sorted(samples)
            return p, ordered[min(n - 1, math.ceil(p / 100 * n) - 1)]
    return None


def describe(name, unit, samples) -> str:
    med = statistics.median(samples)
    tail = tail_percentile(samples)
    tail_text = f"p{tail[0]:g} {tail[1]:.6g}" if tail else f"no percentile with 10 samples beyond it; max {max(samples):.6g}"
    return f"  {name:<20} median {med:.6g} {unit}  ({tail_text}; n={len(samples)})"


def speed_probe() -> float:
    """Median seconds of a fixed compute loop; rises when the host is contended.

    The 1-minute load average only counts this machine's own processes, so
    a shared host that slows every process shows here and not there.
    """
    def loop():
        total = 0
        for i in range(200_000):
            total += i * i
        return total

    return layers.per_call(loop, 0.0)


def machine_facts() -> dict:
    import numpy

    model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = []
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
            caches.append(f"L{level} {kind} {size}")
        except OSError:
            continue
    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = done.stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted((SRC / "fald").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "fald_commit": commit,
        "fald_source_sha256": source.hexdigest(),
    }


# ---------------------------------------------------------------------------
# the two kinds of run


def end_to_end(workload, cfg, cfg_path, refs, seconds, env, work, report):
    passes, setups, problems, digests = [], [], [], {}
    failures = report["failures"]
    run_process([sys.executable, "-c", "import fald.cli"], env, work / "warmup.log")
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
        sample = {"wall_s": 0.0, "cpu_s": 0.0, "peak_rss_mb": 0.0, "commands": []}
        for command in workload.commands:
            outdir = work / command
            shutil.rmtree(outdir, ignore_errors=True)
            wall, cpu, rss, code, output = run_process(
                [sys.executable, "-m", "fald.cli", command, str(cfg_path), "--outdir", str(outdir)],
                env, work / f"{command}.log")
            report["attempted"] += 1
            count_failures(output, failures)
            found = [f"{command}: exit code {code}: {output.strip()[-300:]}"] if code != 0 else []
            found += check_outputs(command, cfg, outdir, refs) if code == 0 else []
            for name, digest in digests_of(outdir).items():
                key = f"{command}/{name}"
                if digests.setdefault(key, digest) != digest:
                    found.append(f"{key}: output bits differ between passes")
            if found:
                report["failed"] += 1
                problems.extend(found)
            sample["wall_s"] += wall
            sample["cpu_s"] += cpu
            sample["peak_rss_mb"] = max(sample["peak_rss_mb"], rss)
            sample["commands"].append({"command": command, "wall_s": wall, "cpu_s": cpu, "peak_rss_mb": rss, "exit": code})
        passes.append(sample)
        if problems:
            break

    setup_start = time.perf_counter()
    while len(setups) < 3 or (time.perf_counter() - setup_start < 5.0 and len(setups) < 25):
        wall, _, _, code, output = run_process(
            [sys.executable, "-c", SETUP_SCRIPT, str(cfg_path), "1" if workload.setup_constants else "0"],
            env, work / "setup.log")
        report["attempted"] += 1
        if code != 0:
            report["failed"] += 1
            problems.append(f"setup: exit code {code}: {output.strip()[-300:]}")
            break
        setups.append(float(output.strip().splitlines()[-1]))

    series = {name: [p[name] for p in passes] for name in ("wall_s", "cpu_s", "peak_rss_mb")}
    series["setup_s"] = setups or [math.nan]
    steps = client_steps(workload, cfg)
    print(f"workload {workload.name}: {len(passes)} passes of {' + '.join(workload.commands)} "
          f"in {time.perf_counter() - start:.1f} s")
    for name, unit in END_TO_END.items():
        print(describe(name, unit, series[name]))
    if steps:
        print(f"  {'client_steps_per_s':<20} {steps / statistics.median(series['wall_s']):.6g} 1/s  "
              f"(R*N*T = {steps} over the median wall_s)")
    print(f"  {'error_rate':<20} {report['failed'] / report['attempted']:.6g}  "
          f"({report['failed']} of {report['attempted']} operations failed; "
          f"{failures['engine.divergences']} chains diverged, {failures['engine.broken_pools']} pools broke)")
    report.update(passes=passes, setup_s=setups, digests=digests, problems=problems,
                  client_steps=steps)
    return {name: statistics.median(values) for name, values in series.items()}


def traced(workload, cfg, cfg_path, refs, configs, seed, env, work, report):
    from fald.config import parse_config_file

    failures, problems = report["failures"], []
    bytes_written = 0
    for command in workload.commands:
        outdir = work / "cli" / command
        _, _, _, code, output = run_process(
            [sys.executable, "-m", "fald.cli", command, str(cfg_path), "--outdir", str(outdir)],
            env, work / f"{command}.log")
        report["attempted"] += 1
        count_failures(output, failures)
        found = [f"{command}: exit code {code}"] if code != 0 else check_outputs(command, cfg, outdir, refs)
        if found:
            report["failed"] += 1
            problems.extend(found)
        if outdir.is_dir():
            bytes_written += sum(p.stat().st_size for p in outdir.iterdir())

    # the replays run with one worker so that no span is lost in a pool worker;
    # output bits do not depend on the worker count
    os.environ["FALD_THREADS"] = "1"
    tracer = layers.Tracer()
    # untraced, traced, untraced: the first replay in a process also pays for
    # warming up, so the traced one is compared with the mean of the other two
    replays = ("replay_plain", "replay_traced", "replay_plain_again")
    try:
        walls = [layers.replay(workload.commands, cfg_path, work / d, tracer if d == "replay_traced" else None)
                 for d in replays]
        traced_s, untraced_s = walls[1], (walls[0] + walls[2]) / 2
    except RuntimeError as err:
        problems.append(f"replay: {err}")
        untraced_s = traced_s = math.nan
    report["attempted"] += len(replays)
    cli_digests = report["digests"] = digests_of(work / "cli")
    identical = all(digests_of(work / d) == cli_digests for d in replays)
    if not identical:
        report["failed"] += 1
        problems.append("in-process replay wrote different bytes than the CLI")
    tracer.dump(OUT / f"spans-{workload.name}.json")

    metrics = layers.engine_metrics(cfg, failures)
    report["attempted"] += 1
    if metrics.get("engine.workers_identical") != 1.0:
        report["failed"] += 1
        problems.append("run_replicated records differ between 1 and 2 workers")
    metrics.update(layers.kernel_metrics(seed, configs["gauss_run"], configs["logistic_run"],
                                         configs["analysis"], work))
    t_parse = layers.per_call(lambda: parse_config_file(cfg_path))
    d = (cfg.n_classes * cfg.n_features) if cfg.model == "logistic" else cfg.dimension
    steps = client_steps(workload, cfg)
    q, n_c = cfg.subsample_ratio, cfg.points_per_client[0]
    schemes = [s for _, name, s in run_configs(cfg) if name == "scheme2"]
    metrics.update({
        "config.parse_s": t_parse,
        "streams.normals_drawn": float(steps // cfg.n_clients * (cfg.n_clients + 1) * 2 * ((d + 1) // 2)),
        "streams.draw_useful_ratio": d / (2 * ((d + 1) // 2)),
        "model.subsample_useful_ratio": (max(1, math.floor(q * n_c)) / n_c) if q < 1 else 1.0,
        "engine.client_steps": float(steps),
        "engine.device_useful_ratio": min(schemes) / cfg.n_clients if schemes else 1.0,
        "cli.bytes_written": float(bytes_written),
        "trace.overhead_s": traced_s - untraced_s,
        "trace.replay_identical": 1.0 if identical else 0.0,
    })
    for layer, seconds in tracer.self_seconds().items():
        metrics[f"{layer}.self_s"] = seconds
    metrics.update({k: float(v) for k, v in failures.items()})
    print(f"workload {workload.name}: per-layer metrics (<layer>.self_s is derived: span time minus child spans)")
    for name, unit in PER_LAYER.items():
        print(f"  {name:<38} {metrics.get(name, math.nan):.6g} {unit}")
    print(f"  traced replay {traced_s:.4g} s, untraced {untraced_s:.4g} s, {len(tracer.spans)} spans")
    report.update(problems=problems, spans=len(tracer.spans), replay_s={"untraced": untraced_s, "traced": traced_s})
    return metrics


# ---------------------------------------------------------------------------


def run_all(args) -> int:
    """Every workload in its own process; one combined JSON line at the end."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        done = subprocess.run(argv, capture_output=True, text=True)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else {"correct": False}
        combined["correct"] &= result["correct"] and done.returncode == 0
        combined["attempted"] += result.get("attempted", 0)
        combined["failed"] += result.get("failed", 0)
        combined["metrics"].update({f"{name}.{k}": v for k, v in result.get("metrics", {}).items()})
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small sizes, for the harness smoke test")
    args = parser.parse_args(argv)

    if not (SRC / "fald" / "cli.py").is_file():
        print(f"no fald sources under {SRC}; run from the root of a source checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    from fald.config import parse_config_file

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]

    load_before, probe_before = os.getloadavg()[0], speed_probe()
    work = OUT / f"work-{workload.name}-{os.getpid()}"
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    work.mkdir(parents=True)
    old_path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + old_path if old_path else ""),
               FALD_THREADS=str(workload.threads))
    report = {"workload": workload.name, "seed": args.seed, "trace": args.trace, "seconds": args.seconds,
              "tiny": args.tiny, "attempted": 0, "failed": 0,
              "failures": {"engine.divergences": 0, "engine.broken_pools": 0}}
    try:
        configs = {}
        for w in WORKLOADS.values():
            path = work / f"{w.name}.cfg"
            path.write_text(w.config_text(args.seed, args.tiny), encoding="utf-8")
            configs[w.name] = parse_config_file(path)
        cfg_path = work / f"{workload.name}.cfg"
        cfg = configs[workload.name]
        refs = references(workload, cfg)
        report["references"] = refs
        report["config"] = cfg_path.read_text()
        if args.trace:
            metrics = traced(workload, cfg, cfg_path, refs, configs, args.seed, env, work, report)
            units = PER_LAYER
        else:
            metrics = end_to_end(workload, cfg, cfg_path, refs, args.seconds, env, work, report)
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)

    results_path = OUT / "results" / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    if results_path.is_file() and "digests" in report:
        previous = json.loads(results_path.read_text()).get("digests", {})
        changed = sorted(k for k, v in report["digests"].items() if previous.get(k, v) != v)
        report["digests_changed_since_last_run"] = changed
        if changed:
            print(f"  output digests changed since the last run of this seed: {', '.join(changed)}")
    report.update(machine=machine_facts(), loadavg_1min={"before": load_before, "after": os.getloadavg()[0]},
                  speed_probe_s={"before": probe_before, "after": speed_probe()}, metrics=metrics)
    results_path.write_text(json.dumps(report, indent=1, default=str))
    for problem in report["problems"]:
        print(f"  FAILED CHECK: {problem}")
    correct = not report["problems"]
    print(json.dumps({
        "correct": correct,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": metrics.get(name, math.nan), "unit": unit} for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
