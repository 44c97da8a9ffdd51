"""Golden output pins: small CLI configs and the SHA-256 digests of their outputs.

Every engine path (Gaussian and logistic oracles, full device, scheme I and
scheme II, full batch and minibatch, fixed and decaying schedules) has one
small config here, plus a sweep on every axis (the eta one with a diverging
value) and two `gen-data` datasets.  ``tests/test_golden.py`` runs each through the CLI and
compares output bytes with ``golden_digests.json``.  Temperature 0.7 and
rho 0.3 make any slip in how tau or rho reach the noise visible.

The float64 log1p/exp/log kernels are SIMD-dispatched and the small linear
algebra runs through OpenBLAS, so the pinned bits hold per CPU class: for the
numpy version, its X86_V4 dispatch, the OpenBLAS core and the machine recorded
next to the digests.  Regenerate only when a change alters output bits on purpose:

    PYTHONPATH=src python tests/tests_support_golden.py --write
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import os
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np
from numpy._core._multiarray_umath import __cpu_features__

DIGEST_FILE = Path(__file__).with_name("golden_digests.json")

_GAUSSIAN = """\
model = gaussian
n_clients = 4
points_per_client = 6
dimension = 2
sigma = 5, -2, -2, 1
alpha = 1.0
tau = 0.7
rho = 0.3
k_local = 2
horizon = 40
replications = 3
seed = 17
"""

_LOGISTIC = """\
model = logistic
n_clients = 4
points_per_client = 8
n_features = 2
n_classes = 3
ridge = 0.05
alpha = 0.5
tau = 0.7
rho = 0.3
k_local = 2
eta = 0.002
horizon = 24
replications = 3
seed = 23
collect_every = 2
warmup_rounds = 0
n_test = 30
"""

_SCHEMES = {
    "full": "scheme = full\n",
    "scheme1:2": "scheme = scheme1\ns_devices = 2\n",
    "scheme2:2": "scheme = scheme2\ns_devices = 2\n",
}

# analysis commands need a privacy sensitivity, budgets and an accuracy target
_ANALYSIS = "delta_l = 1.0\neps_star = 50.0\ndelta_star = 0.5\ntarget_eps = 0.5\n"

RUN_FILES = ("trajectory.csv", "run_metrics.csv", "run_metrics.svg", "summary.txt")
ANALYSIS_FILES = {"plan": ("plan.txt",), "bounds": ("bounds.csv", "bounds.svg"), "privacy": ("privacy_report.txt",)}
ANALYSED = ("gaussian-scheme2:2-q0.5", "logistic-scheme1:2-q0.5", "logistic-scheme1:2-q1",
            "logistic-c9-scheme1:2-q0.5")
GEN_DATA = ("gaussian-full-q1", "logistic-full-q1")
SWEEP_FILES = ("sweep.csv", "sweep_t_eps.csv")
# one chart per charted metric: W2 for the Gaussian model, each predictive metric for the softmax one
SWEEP_CHARTS = {"gaussian": ("sweep_w2.svg",), "logistic": ("sweep_accuracy.svg", "sweep_brier.svg", "sweep_ece.svg")}
# what `import fald` sets to "1" unless already set: a fald process runs BLAS on one thread
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _configs() -> dict:
    configs = {}
    for model, base in (("gaussian", _GAUSSIAN + "eta = 0.0005\n"), ("logistic", _LOGISTIC)):
        for scheme, scheme_lines in _SCHEMES.items():
            for q in ("1", "0.5"):
                name = f"{model}-{scheme}-q{q}"
                text = base + scheme_lines + f"subsample_ratio = {q}\n"
                configs[name] = text + (_ANALYSIS if name in ANALYSED else "")
    configs["gaussian-full-decaying"] = _GAUSSIAN + "schedule = decaying\n"
    # unequal client sizes: the minibatch gradient batches clients per size group
    configs["gaussian-unequal-scheme1:2-q0.5"] = (
        _GAUSSIAN.replace("points_per_client = 6", "points_per_client = 5, 6, 6, 8")
        + "eta = 0.0005\n" + _SCHEMES["scheme1:2"] + "subsample_ratio = 0.5\n"
    )
    # the same sizes through the softmax oracle, minibatch and full batch
    unequal_logistic = _LOGISTIC.replace("points_per_client = 8", "points_per_client = 5, 6, 6, 8")
    configs["logistic-unequal-scheme1:2-q0.5"] = unequal_logistic + _SCHEMES["scheme1:2"] + "subsample_ratio = 0.5\n"
    configs["logistic-unequal-full-q1"] = unequal_logistic + _SCHEMES["full"] + "subsample_ratio = 1\n"
    # an odd dimension (Box-Muller drops the last sine, the matrix is 3 x 3) and
    # nine classes (the class sum of the softmax adds pairwise, as do the d = 18
    # coordinates of the sigma_sg Monte Carlo)
    configs["gaussian-d3-scheme2:2-q0.5"] = (
        _GAUSSIAN.replace("dimension = 2\nsigma = 5, -2, -2, 1", "dimension = 3\nsigma = 5, -2, 1, -2, 3, 0.5, 1, 0.5, 2")
        + "eta = 0.0005\n" + _SCHEMES["scheme2:2"] + "subsample_ratio = 0.5\n"
    )
    configs["logistic-c9-scheme1:2-q0.5"] = (
        _LOGISTIC.replace("n_classes = 3", "n_classes = 9")
        + _SCHEMES["scheme1:2"] + "subsample_ratio = 0.5\n" + _ANALYSIS
    )
    # sweeps: the t_eps table, and a diverging eta whose truncated row mixes types
    configs["sweep-gaussian-s_scheme"] = (
        _GAUSSIAN + "eta = 0.0005\nsubsample_ratio = 0.5\ntarget_eps = 0.9\n"
        + "sweep = s_scheme\nsweep_values = full, scheme1:2, scheme2:2\n"
    )
    configs["sweep-gaussian-eta-diverging"] = (
        _GAUSSIAN + "target_eps = 0.9\nsweep = eta\nsweep_values = 0.0005, 0.5\n"
    )
    # the other axes: the local step count, the client spread (one federation
    # per value) and the correlated-noise coefficient through the softmax oracle
    configs["sweep-gaussian-k_local"] = (
        _GAUSSIAN + "eta = 0.0005\ntarget_eps = 0.9\nsweep = k_local\nsweep_values = 1, 2, 4\n"
    )
    configs["sweep-gaussian-alpha"] = (
        _GAUSSIAN + "eta = 0.0005\ntarget_eps = 0.9\nsweep = alpha\nsweep_values = 0, 1, 3\n"
    )
    configs["sweep-logistic-rho"] = _LOGISTIC + "sweep = rho\nsweep_values = 0, 0.3, 1\n"
    return configs


#: name -> config text; sweep-* configs are swept, every other config is run,
#: the ANALYSED ones also analysed and the GEN_DATA ones written out as datasets
GOLDEN_CONFIGS = _configs()


def _openblas_core() -> str:
    """The kernel set that numpy's bundled OpenBLAS dispatched, such as "SkylakeX", or "unknown"."""
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*")):
        corename = getattr(ctypes.CDLL(str(path)), "scipy_openblas_get_corename64_", None)
        if corename is not None:
            corename.restype = ctypes.c_char_p
            return corename().decode()
    return "unknown"


def platform_facts() -> dict:
    """What selects the pinned bits: numpy's version and SIMD dispatch, the OpenBLAS core and the machine."""
    return {
        "numpy": np.__version__,
        "numpy_x86_v4": bool(__cpu_features__.get("X86_V4", False)),
        "openblas_core": _openblas_core(),
        "machine": platform.machine(),
    }


def in_process(argv: list) -> int:
    """``fald argv`` through ``cli.main`` in this process, stdout discarded; the exit code."""
    from fald import cli

    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def output_digests(name: str, workdir: Path, fald=in_process) -> dict:
    """Run config ``name`` through ``fald`` (argv -> exit code); file name -> SHA-256."""
    cfg_path = workdir / f"{name.replace(':', '_')}.cfg"
    cfg_path.write_text(GOLDEN_CONFIGS[name], encoding="utf-8")
    # sweep_t_eps.csv is written only when the config sets target_eps
    sweep_files = SWEEP_FILES if "target_eps" in GOLDEN_CONFIGS[name] else SWEEP_FILES[:1]
    sweep_files += SWEEP_CHARTS[name.split("-")[1]] if name.startswith("sweep-") else ()
    commands = {"sweep": sweep_files} if name.startswith("sweep-") else {"run": RUN_FILES}
    if name in ANALYSED:
        commands.update(ANALYSIS_FILES)
    if name in GEN_DATA:
        commands["gen-data"] = ("dataset.csv",)
    digests = {}
    for command, files in commands.items():
        outdir = workdir / f"{cfg_path.stem}-{command}"
        code = fald([command, str(cfg_path), "--outdir", str(outdir)])
        if code != 0:
            raise RuntimeError(f"fald {command} on golden config {name} exited {code}")
        for file in files:
            digests[file] = hashlib.sha256((outdir / file).read_bytes()).hexdigest()
    return digests


def load_pins() -> dict:
    return json.loads(DIGEST_FILE.read_text(encoding="utf-8"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="compute, check or rewrite the golden digests")
    parser.add_argument("--write", action="store_true", help=f"overwrite {DIGEST_FILE.name}")
    args = parser.parse_args(argv)
    os.environ["FALD_THREADS"] = "1"
    with tempfile.TemporaryDirectory() as tmp:
        digests = {name: output_digests(name, Path(tmp)) for name in GOLDEN_CONFIGS}
    if args.write:
        pins = dict(platform_facts(), digests=digests)
        DIGEST_FILE.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {DIGEST_FILE}")
        return 0
    pinned = load_pins()["digests"]
    changed = [f"{n}/{f}" for n in digests for f in digests[n] if pinned.get(n, {}).get(f) != digests[n][f]]
    # a pin no run produced belongs to a removed config or output file and checks nothing
    changed += [f"{n}/{f} (pinned, not produced)" for n in pinned for f in pinned[n] if f not in digests.get(n, {})]
    print("\n".join(changed) if changed else "all golden digests match")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
