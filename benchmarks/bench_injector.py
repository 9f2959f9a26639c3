"""Injection-engine benchmark: scalar vs vectorized apply path.

Times a 1000-attempt ``bit_range`` campaign over an AlexNet-shaped fp32
checkpoint with both engines, checks they produce byte-identical output,
and archives the comparison as JSON for EXPERIMENTS.md / CI artifacts.
The checkpoint holds AlexNet's eight bias vectors next to its weights, as
a real one does; their few elements draw repeated indices, so the
identity check covers the vectorized engine's read-after-write chains.

File open/parse time is excluded — both engines share it unchanged; what
is compared is the injection stage itself (plan sampling + apply), which
is where ``engine="vectorized"`` replaces per-element byte I/O with
batched array kernels over ``Dataset.view()``.

Run standalone (the CI smoke step)::

    PYTHONPATH=src python benchmarks/bench_injector.py --scale smoke

or at full AlexNet size (~220 MB checkpoint)::

    PYTHONPATH=src python benchmarks/bench_injector.py --scale full
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import sys
import tempfile
import time

import numpy as np

from repro import hdf5
from repro.injector import CheckpointCorrupter, InjectorConfig

from conftest import write_bench_result

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: AlexNet weight and bias shapes (fp32): ~54 M parameters, ~220 MB on
#: disk.
ALEXNET_SHAPES: dict[str, tuple[int, ...]] = {
    "conv1/W": (96, 3, 11, 11),
    "conv1/b": (96,),
    "conv2/W": (256, 96, 5, 5),
    "conv2/b": (256,),
    "conv3/W": (384, 256, 3, 3),
    "conv3/b": (384,),
    "conv4/W": (384, 384, 3, 3),
    "conv4/b": (384,),
    "conv5/W": (256, 384, 3, 3),
    "conv5/b": (256,),
    "fc6/W": (4096, 9216),
    "fc6/b": (4096,),
    "fc7/W": (4096, 4096),
    "fc7/b": (4096,),
    "fc8/W": (10, 4096),
    "fc8/b": (10,),
}

#: Total-size divisor per scale, spread over the dims as the ndim-th root
#: so every dataset keeps its aspect.
SCALE_DIVISORS = {"smoke": 16, "tiny": 8, "small": 4, "full": 1}


def scaled_shapes(scale: str) -> dict[str, tuple[int, ...]]:
    divisor = SCALE_DIVISORS[scale]
    out = {}
    for name, shape in ALEXNET_SHAPES.items():
        per_dim = divisor ** (1.0 / len(shape))
        scaled = tuple(max(1, round(dim / per_dim)) for dim in shape)
        out[name] = scaled
    return out


def build_checkpoint(path: str, scale: str, seed: int = 0) -> int:
    """Write the AlexNet-shaped fp32 checkpoint; returns total parameters."""
    gen = np.random.default_rng(seed)
    total = 0
    with hdf5.File(path, "w") as f:
        for name, shape in scaled_shapes(scale).items():
            data = gen.standard_normal(shape).astype(np.float32)
            f.create_dataset(name, data=data)
            total += data.size
    return total


def _campaign_config(attempts: int, seed: int) -> InjectorConfig:
    return InjectorConfig(
        injection_attempts=attempts, corruption_mode="bit_range",
        first_bit=2, float_precision=32, seed=seed,
    )


def corrupted_bytes(source: str, engine: str, attempts: int,
                    seed: int) -> tuple[bytes, dict]:
    """Corrupt a fresh copy once; return its bytes and result counters."""
    config = _campaign_config(attempts, seed)
    with tempfile.TemporaryDirectory() as workdir:
        target = os.path.join(workdir, "target.h5")
        shutil.copy(source, target)
        result = CheckpointCorrupter(config, engine=engine).corrupt(target)
        with open(target, "rb") as fh:
            return fh.read(), result.to_dict()


def time_campaign(source: str, engine: str, attempts: int, seed: int,
                  rounds: int) -> float:
    """Best-of-*rounds* warm injection time in seconds.

    All rounds run against one already-open, already-faulted mapping (the
    un-timed warm-up round touches exactly the pages the seeded campaign
    will touch again), so the measurement compares the engines' own work
    rather than page-cache and writeback jitter from staging a fresh
    multi-hundred-MB copy.  Identical seeds mean later rounds XOR the same
    bits back and forth — the workload per round is the same.
    """
    config = _campaign_config(attempts, seed)
    best = float("inf")
    with tempfile.TemporaryDirectory() as workdir:
        target = os.path.join(workdir, "target.h5")
        shutil.copy(source, target)
        with hdf5.File(target, "r+") as handle:
            corrupter = CheckpointCorrupter(config, engine=engine)
            corrupter.corrupt_open_file(handle)  # warm-up, not timed
            for _ in range(rounds):
                corrupter = CheckpointCorrupter(config, engine=engine)
                start = time.perf_counter()
                corrupter.corrupt_open_file(handle)
                best = min(best, time.perf_counter() - start)
    return best


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Time the scalar vs vectorized injection engines.")
    parser.add_argument("--scale", choices=sorted(SCALE_DIVISORS),
                        default=os.environ.get("REPRO_BENCH_SCALE", "tiny"))
    parser.add_argument("--attempts", type=int, default=1000)
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--min-speedup", type=float, default=None,
                        help="exit non-zero unless vectorized is at least "
                             "this many times faster")
    parser.add_argument("--output", default=None,
                        help="JSON path (default benchmarks/results/"
                             "injector_engine.json)")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as workdir:
        source = os.path.join(workdir, "alexnet.h5")
        parameters = build_checkpoint(source, args.scale)
        size_mb = os.path.getsize(source) / 1e6
        print(f"checkpoint: {parameters:,} fp32 parameters "
              f"({size_mb:.1f} MB) at scale={args.scale}")

        timings: dict[str, float] = {}
        payloads: dict[str, bytes] = {}
        for engine in ("scalar", "vectorized"):
            payload, counters = corrupted_bytes(
                source, engine, args.attempts, args.seed)
            elapsed = time_campaign(
                source, engine, args.attempts, args.seed, args.rounds)
            timings[engine] = elapsed
            payloads[engine] = payload
            rate = args.attempts / elapsed if elapsed else float("inf")
            print(f"{engine:>10}: {elapsed * 1e3:8.2f} ms "
                  f"({rate:,.0f} attempts/s, "
                  f"{counters['successes']} successes)")

    identical = payloads["scalar"] == payloads["vectorized"]
    speedup = timings["scalar"] / timings["vectorized"] \
        if timings["vectorized"] else float("inf")
    print(f"bit-identical output: {identical}")
    print(f"speedup: {speedup:.1f}x")

    RESULTS_DIR.mkdir(exist_ok=True)
    output = pathlib.Path(args.output) if args.output else \
        RESULTS_DIR / "injector_engine.json"
    output.write_text(json.dumps({
        "scale": args.scale,
        "attempts": args.attempts,
        "parameters": parameters,
        "checkpoint_mb": round(size_mb, 2),
        "scalar_seconds": round(timings["scalar"], 6),
        "vectorized_seconds": round(timings["vectorized"], 6),
        "speedup": round(speedup, 2),
        "bit_identical": identical,
    }, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {output}")
    write_bench_result(
        "injector_engine",
        {"scale": args.scale, "attempts": args.attempts,
         "parameters": parameters, "rounds": args.rounds},
        timings["vectorized"],
        {"scalar_seconds": round(timings["scalar"], 6),
         "speedup": round(speedup, 2), "bit_identical": identical},
    )

    if not identical:
        print("FAIL: engines disagree", file=sys.stderr)
        return 1
    if args.min_speedup is not None and speedup < args.min_speedup:
        print(f"FAIL: speedup {speedup:.1f}x below required "
              f"{args.min_speedup}x", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
