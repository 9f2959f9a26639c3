"""Atlas ingest throughput: journal trials/sec into the columnar store.

The atlas promises "refresh on every /atlas request" — affordable only
because re-ingest skips already-consumed bytes and a cold ingest itself
moves journals fast.  This bench measures the cold path: synthesize a
campaign journal (plus a stamped flip-provenance stream to exercise the
telemetry join), ingest it into a fresh store, and report trials/sec.
The stream holds one ``flips`` line per trial, as the injector writes it,
so the timing includes decoding it into ``flip`` events; every trial must
join to its layer.  The acceptance floor is 5000 trials/sec; CI gates on
``--min-rate``.

A second timed pass re-ingests the unchanged journal, measuring the
steady-state cost a live ``/atlas`` endpoint pays per request.

Run standalone (the CI smoke step)::

    PYTHONPATH=src python benchmarks/bench_atlas_ingest.py --min-rate 5000
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys
import tempfile
import time

from repro.atlas import AtlasIngester, AtlasStore
from repro.telemetry.aggregate import FLIP_COLUMNS

from conftest import write_bench_result

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

LAYERS = ("conv1/W", "conv1/b", "conv2/W", "fc1/W", "fc2/W")
OUTCOMES = ("masked", "masked", "masked", "degraded", "collapsed")


def synthesize(workdir: str, trials: int) -> tuple[str, str]:
    """A *trials*-record journal plus its stamped ``flips`` stream."""
    journal = os.path.join(workdir, "bench.jsonl")
    telemetry_path = os.path.join(workdir, "telemetry.jsonl")
    with open(journal, "w", encoding="utf-8") as journal_handle, \
            open(telemetry_path, "w", encoding="utf-8") as stream:
        for index in range(trials):
            trial_id = f"bench/{index}"
            journal_handle.write(json.dumps({
                "trial_id": trial_id, "kind": "fig3", "status": "ok",
                "outcome": {"final_accuracy": 0.9}, "error": None,
                "attempts": 1, "timed_out": False, "duration": 0.01,
                "worker": index % 4,
                "payload": {"model": "lenet", "framework": "repro",
                            "flips": 1},
                "outcome_class": OUTCOMES[index % len(OUTCOMES)],
                "structural_findings": None,
            }) + "\n")
            flip = {"location": LAYERS[index % len(LAYERS)],
                    "flat_index": index, "kind": "f", "precision": 32,
                    "bit_msb": index % 32, "old_value": 1.0,
                    "new_value": -1.0}
            stream.write(json.dumps({
                "type": "event", "name": "flips", "pid": 1,
                "ts": float(index), "span_id": None, "trace_id": "b",
                "attrs": {"trial_id": trial_id,
                          **{name: [flip[name]] for name in FLIP_COLUMNS}},
            }) + "\n")
    return journal, telemetry_path


def time_ingest(store_root: str, journal: str,
                telemetry_path: str) -> tuple[float, dict]:
    ingester = AtlasIngester(AtlasStore(store_root))
    ingester.add_journal(journal, campaign="bench",
                         telemetry_paths=(telemetry_path,))
    start = time.perf_counter()
    stats = ingester.ingest()
    return time.perf_counter() - start, stats


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Measure atlas ingest throughput in trials/sec.")
    parser.add_argument("--trials", type=int, default=20000)
    parser.add_argument("--rounds", type=int, default=3,
                        help="cold-ingest repetitions; best-of wins "
                             "(default 3, absorbs fsync jitter)")
    parser.add_argument("--min-rate", type=float, default=None,
                        help="exit non-zero unless cold ingest moves at "
                             "least this many trials/sec (the acceptance "
                             "floor is 5000)")
    parser.add_argument("--output", default=None,
                        help="JSON path (default benchmarks/results/"
                             "atlas_ingest.json)")
    args = parser.parse_args(argv)

    cold_seconds = warm_seconds = float("inf")
    stats = None
    with tempfile.TemporaryDirectory() as workdir:
        journal, telemetry_path = synthesize(workdir, args.trials)
        for round_index in range(max(1, args.rounds)):
            store_root = os.path.join(workdir, f"atlas-{round_index}")
            elapsed, stats = time_ingest(store_root, journal,
                                         telemetry_path)
            assert stats["rows"] == args.trials, stats
            layers = AtlasStore(store_root).load()["layer"]
            assert "?" not in layers, \
                f"{layers.count('?')} trials joined to no flip"
            cold_seconds = min(cold_seconds, elapsed)
            # steady-state: nothing new, the catalog short-circuits
            warm_elapsed, warm_stats = time_ingest(store_root, journal,
                                                   telemetry_path)
            assert warm_stats["rows"] == 0, warm_stats
            warm_seconds = min(warm_seconds, warm_elapsed)

    cold_rate = args.trials / cold_seconds if cold_seconds else 0.0
    print(f"cold ingest: {args.trials} trials in "
          f"{cold_seconds * 1e3:8.1f} ms ({cold_rate:,.0f} trials/s, "
          f"{stats['segments']} segments)")
    print(f"warm re-ingest (no new bytes): {warm_seconds * 1e3:8.1f} ms")

    RESULTS_DIR.mkdir(exist_ok=True)
    output = pathlib.Path(args.output) if args.output else \
        RESULTS_DIR / "atlas_ingest.json"
    output.write_text(json.dumps({
        "trials": args.trials,
        "rounds": max(1, args.rounds),
        "cold_seconds": round(cold_seconds, 6),
        "warm_seconds": round(warm_seconds, 6),
        "trials_per_sec": round(cold_rate, 1),
        "segments": stats["segments"],
    }, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {output}")
    write_bench_result(
        "atlas_ingest",
        {"trials": args.trials, "rounds": max(1, args.rounds)},
        cold_seconds,
        {"trials_per_sec": round(cold_rate, 1),
         "warm_seconds": round(warm_seconds, 6),
         "segments": stats["segments"]},
    )

    if args.min_rate is not None and cold_rate < args.min_rate:
        print(f"FAIL: {cold_rate:,.0f} trials/s is below the "
              f"--min-rate floor of {args.min_rate:,.0f}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
