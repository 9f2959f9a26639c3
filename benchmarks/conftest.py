"""Shared benchmark helpers and the common result archive.

Timing measurements go through :func:`write_bench_result`, which gives
every bench script — pytest-driven or standalone — one JSON schema and
one archive location (``benchmarks/results/<bench>__<timestamp>.json``),
so CI artifact collection and cross-run comparisons never have to learn
per-script formats.  The standalone CI bench jobs install only numpy and
import this module directly, so it does not import pytest.
"""

import json
import pathlib
import time

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def write_bench_result(name: str, params: dict, seconds: float,
                       metadata: dict | None = None) -> pathlib.Path:
    """Archive one benchmark measurement with the common schema.

    Writes ``benchmarks/results/<name>__<timestamp>.json`` holding
    ``{"name", "params", "seconds", "metadata", "recorded_at"}`` and
    returns the path.  ``params`` describes the workload (scale, attempts,
    workers, ...), ``seconds`` is the headline wall-clock measurement, and
    ``metadata`` carries any secondary numbers (rates, counters,
    comparisons).
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    path = RESULTS_DIR / f"{name}__{stamp}.json"
    payload = {
        "name": name,
        "params": dict(params or {}),
        "seconds": float(seconds),
        "metadata": dict(metadata or {}),
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    try:
        # keep the latest/best rollup in step with every archived run;
        # best-effort so a rollup bug never fails the bench that measured.
        # Loaded by path: benchmarks/ is not a package and may not be on
        # sys.path when the conftest is imported by CI bench scripts.
        import importlib.util
        spec = importlib.util.spec_from_file_location(
            "repro_bench_trajectory",
            pathlib.Path(__file__).parent / "trajectory.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        module.write_trajectory()
    except Exception:
        pass
    return path


def run_once(benchmark, func):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(func, rounds=1, iterations=1)

