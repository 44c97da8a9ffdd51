"""Byte-level pins of CLI outputs for every engine path (see tests_support_golden)."""

import os
import subprocess
import sys

import pytest

from tests_support_golden import (
    ANALYSED,
    BLAS_THREAD_VARS,
    GOLDEN_CONFIGS,
    load_pins,
    output_digests,
    platform_facts,
)


def describe(facts: dict) -> str:
    return (
        f"numpy {facts['numpy']} (X86_V4 kernels {'on' if facts['numpy_x86_v4'] else 'off'}) "
        f"and OpenBLAS core {facts['openblas_core']} on {facts['machine']}"
    )


@pytest.mark.parametrize("name", sorted(GOLDEN_CONFIGS))
def test_golden_digests(name, tmp_path, monkeypatch):
    monkeypatch.setenv("FALD_THREADS", "1")
    pins = load_pins()
    here = platform_facts()
    got = output_digests(name, tmp_path)
    assert set(got) == set(pins["digests"][name])
    for file, digest in got.items():
        assert digest == pins["digests"][name][file], (
            f"{name}: {file} changed; pinned with {describe(pins)}, running {describe(here)}"
        )


def test_pins_record_every_platform_fact():
    # a mismatch message names the pinned value of each fact next to the running one
    pins = load_pins()
    assert set(platform_facts()) <= set(pins)
    describe(pins)


def test_every_pinned_name_is_a_golden_config():
    # test_golden_digests looks only at GOLDEN_CONFIGS, so a pin left by a removed config would go unchecked
    assert sorted(load_pins()["digests"]) == sorted(GOLDEN_CONFIGS)


def fald_process(argv: list) -> int:
    """``python -m fald.cli argv`` in a fresh interpreter that sets its own BLAS thread count."""
    env = {key: value for key, value in os.environ.items() if key not in BLAS_THREAD_VARS}
    env["FALD_THREADS"] = "1"
    proc = subprocess.run([sys.executable, "-m", "fald.cli", *argv], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.returncode


@pytest.mark.parametrize("name", ANALYSED)
def test_golden_digests_through_a_fald_process(name, tmp_path):
    # test_golden_digests runs after pytest has loaded numpy, so its BLAS never
    # sees the thread setting a fald process makes before importing numpy
    assert output_digests(name, tmp_path, fald_process) == load_pins()["digests"][name]
