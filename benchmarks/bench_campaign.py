"""Campaign engine throughput: sequential vs. parallel trial execution.

Runs the same smoke-scale Table V cell through the campaign engine with
``workers=1`` (one trial at a time, ``batch_trials=1``) and ``workers=4``
and reports trials/s for each (the outcomes are asserted bit-identical —
parallelism must never change results).  Set ``REPRO_BENCH_WORKERS`` to
change the parallel width.

Also the home of the telemetry overhead regression: instrumentation is a
``None`` check when disabled and cheap timestamping when enabled, and
``test_telemetry_overhead_bounded`` keeps it that way by failing if an
instrumented campaign (NullSink) runs more than 5% slower than a bare one.
"""

import os
import time

from repro import telemetry
from repro.experiments import run_experiment
from repro.experiments.common import BaselineCache

from conftest import run_once, write_bench_result

BENCH_WORKERS = int(os.environ.get("REPRO_BENCH_WORKERS", "4"))

CELL = dict(scale="smoke", frameworks=("chainer_like",),
            models=("alexnet", "vgg16"))


def test_campaign_sequential_throughput(benchmark, tmp_path):
    cache = BaselineCache(str(tmp_path / "cache"))
    run_experiment("table5", cache=cache, **CELL)  # warm the baselines
    result = run_once(
        benchmark,
        lambda: run_experiment("table5", cache=cache, workers=1,
                               batch_trials=1, **CELL),
    )
    campaign = result.extra["campaign"]
    print(f"\nsequential: {campaign['trials_per_second']} trials/s "
          f"({campaign['total']} trials)")
    assert campaign["failed"] == 0
    write_bench_result(
        "campaign_sequential", dict(CELL, workers=1, batch_trials=1),
        campaign["wall_time"],
        {"trials": campaign["total"],
         "trials_per_second": campaign["trials_per_second"]},
    )


def test_campaign_parallel_throughput(benchmark, tmp_path):
    cache = BaselineCache(str(tmp_path / "cache"))
    sequential = run_experiment("table5", cache=cache, workers=1, **CELL)
    result = run_once(
        benchmark,
        lambda: run_experiment("table5", cache=cache,
                               workers=BENCH_WORKERS, **CELL),
    )
    campaign = result.extra["campaign"]
    print(f"\nworkers={BENCH_WORKERS}: {campaign['trials_per_second']} "
          f"trials/s ({campaign['total']} trials)")
    assert campaign["failed"] == 0
    # parallelism must never change the science
    assert result.rows == sequential.rows
    write_bench_result(
        "campaign_parallel", dict(CELL, workers=BENCH_WORKERS),
        campaign["wall_time"],
        {"trials": campaign["total"],
         "trials_per_second": campaign["trials_per_second"]},
    )


def test_telemetry_overhead_bounded(tmp_path):
    """Instrumented (NullSink) vs bare campaign wall-clock, <5% apart.

    Best-of-3 on each side to keep scheduler noise out of the comparison;
    the measured ratio is archived with the common bench schema so CI
    artifacts track it over time.
    """
    rounds = 3
    cell = dict(scale="smoke", frameworks=("chainer_like",),
                models=("alexnet",))
    cache = BaselineCache(str(tmp_path / "cache"))
    run_experiment("table5", cache=cache, **cell)  # warm baselines + caches

    def timed() -> float:
        start = time.perf_counter()
        run_experiment("table5", cache=cache, workers=1, **cell)
        return time.perf_counter() - start

    off = min(timed() for _ in range(rounds))
    telemetry.configure(telemetry.NullSink())
    try:
        on = min(timed() for _ in range(rounds))
    finally:
        telemetry.shutdown()

    overhead = on / off - 1.0
    print(f"\ntelemetry off: {off:.3f}s  on(NullSink): {on:.3f}s  "
          f"overhead: {overhead:+.2%}")
    write_bench_result(
        "telemetry_overhead", dict(cell, workers=1, rounds=rounds),
        on,
        {"baseline_seconds": round(off, 6),
         "overhead_fraction": round(overhead, 6)},
    )
    assert overhead < 0.05, (
        f"telemetry overhead {overhead:.1%} exceeds the 5% budget"
    )
