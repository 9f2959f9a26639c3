"""Shared fixtures for the benchmark's own tests.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)

for path in (os.path.join(ROOT, "src"), BENCH):
    if path not in sys.path:
        sys.path.insert(0, path)


@pytest.fixture(scope="session")
def baseline_cache(tmp_path_factory):
    """One private baseline cache for the session (baselines are pure
    functions of their spec, so tests may share them)."""
    return str(tmp_path_factory.mktemp("baseline-cache"))


@pytest.fixture(autouse=True)
def private_cache(baseline_cache, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", baseline_cache)
