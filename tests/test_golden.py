"""Byte-level pins of CLI outputs for every engine path (see tests_support_golden)."""

import pytest

from tests_support_golden import GOLDEN_CONFIGS, load_pins, output_digests, platform_facts


@pytest.mark.parametrize("name", sorted(GOLDEN_CONFIGS))
def test_golden_digests(name, tmp_path, monkeypatch):
    monkeypatch.setenv("FALD_THREADS", "1")
    pins = load_pins()
    here = platform_facts()
    got = output_digests(name, tmp_path)
    assert set(got) == set(pins["digests"][name])
    for file, digest in got.items():
        assert digest == pins["digests"][name][file], (
            f"{name}: {file} changed; pinned with numpy {pins['numpy']} on {pins['machine']}, "
            f"running numpy {here['numpy']} on {here['machine']}"
        )
