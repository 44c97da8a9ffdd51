"""Smoke test of the benchmark harness at tiny sizes.

    python3 -m pytest bench/test_smoke.py -q

Checks that every metric named in BENCHMARK.json is printed with its unit,
that a failed output check makes the harness exit non-zero, and that the
harness refuses to run without the fald sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(BENCH))
from workloads import WORKLOADS  # noqa: E402

# Drops the last row of every CSV file written, as a broken program would.
_FAULT = """
import pathlib
_write_text = pathlib.Path.write_text
def _drop_last_row(self, data, *args, **kwargs):
    if self.suffix == ".csv":
        data = "".join(data.splitlines(keepends=True)[:-1])
    return _write_text(self, data, *args, **kwargs)
pathlib.Path.write_text = _drop_last_row
"""


@pytest.fixture
def scratch(request):
    path = BENCH / "out" / f"smoke-{request.node.name}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def run(workload, trace, cwd=ROOT, env=None):
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
            "--seconds", "0", "--trace", str(trace), "--tiny"]
    return subprocess.run(argv, cwd=cwd, env=env, capture_output=True, text=True, timeout=170)


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def assert_metrics(result, kind):
    metrics = last_json(result.stdout)["metrics"]
    for metric in SPEC[kind]:
        assert metric["name"] in metrics, metric["name"]
        assert metrics[metric["name"]]["unit"] == metric["unit"]
        assert metric["name"] in result.stdout.rsplit("\n", 2)[0]  # also in the readable report


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_end_to_end_metrics_printed(workload):
    result = run(workload, 0)
    assert result.returncode == 0, result.stdout + result.stderr
    assert last_json(result.stdout)["correct"] is True
    assert last_json(result.stdout)["failed"] == 0
    assert_metrics(result, "end_to_end")


def test_per_layer_metrics_printed():
    result = run("gauss_run", 1)
    assert result.returncode == 0, result.stdout + result.stderr
    assert last_json(result.stdout)["correct"] is True
    assert_metrics(result, "per_layer")


def test_failed_output_check_exits_nonzero(scratch):
    (scratch / "sitecustomize.py").write_text(_FAULT)
    result = run("gauss_run", 0, env={"PATH": "/usr/bin:/bin", "PYTHONPATH": str(scratch)})
    assert result.returncode == 1, result.stdout + result.stderr
    report = last_json(result.stdout)
    assert report["correct"] is False and report["failed"] >= 1
    assert "FAILED CHECK" in result.stdout


def test_refuses_to_run_without_sources(scratch):
    shutil.copy(ROOT / "BENCHMARK.json", scratch)
    shutil.copytree(BENCH, scratch / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    result = run("gauss_run", 0, cwd=scratch)
    assert result.returncode != 0
    assert '"correct"' not in result.stdout
