"""Campaign benchmark: one fig3-class trial body through four execution modes.

Run from the root of a checkout::

    python3 perfbench/run.py --workload pool2-cheap --seed 0 --seconds 18 \
        --trace 0

``--trace 0`` prints the end-to-end metrics (``metrics.END_TO_END``),
``--trace 1`` the per-layer metrics (``metrics.PER_LAYER``) of a separate
traced run.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it describe the host, the speed sentinel and the checks.  The exit
code is 0 only when every trial's outcome checked out.

This file is the orchestrator and imports neither numpy nor ``repro``.  An
untraced run starts ``MEASURE_PROCS`` fresh interpreters one after another
(``--role measure``); each sets up on an empty cache, as a user's first
campaign does, then measures its share of ``--seconds``.  A process keeps
its own speed for its whole life on a busy host (rounds of one process
cluster, processes differ by up to a third), so the run averages over
several.  All scratch files live under ``.perfbench_tmp/`` in the checkout
and are removed at exit.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SCRATCH = os.path.join(ROOT, ".perfbench_tmp")

#: BLAS thread knobs.  The benchmark measures the program as users run it,
#: with the BLAS library's default threading, so it neither sets these nor
#: passes a caller's values on to the processes it measures.
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: Measuring processes per untraced run; ``setup_s`` is their median.
MEASURE_PROCS = 3
#: Whole-run budget in seconds; children are killed past it.
DEADLINE_S = 170.0

WORKLOAD_NAMES = ("inline-bs1", "batch16-bs1", "pool2-cheap", "serve1-cheap")


def sentinel_s() -> float:
    """Seconds for a fixed pure-Python loop: a host-speed reading taken
    before and after each run, reported beside the metrics and used to
    adjust none of them."""
    start = time.perf_counter()
    acc = 0
    for i in range(2_000_000):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - start


def host_fingerprint(caller_threads: dict) -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    sha = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"], check=True,
                capture_output=True, text=True, timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "caller_thread_env": caller_threads,
        "measured_thread_env": {name: None for name in THREAD_ENV},
        "git_sha": sha,
    }


def numpy_fingerprint() -> dict:
    import numpy

    blas = {}
    try:
        config = numpy.show_config(mode="dicts")
        blas = config.get("Build Dependencies", {}).get("blas", {})
    except TypeError:  # numpy < 1.26 has no dict mode
        pass
    return {"numpy": numpy.__version__, "blas": {
        key: blas.get(key) for key in ("name", "version",
                                       "openblas configuration")}}


def role_measure(args) -> dict:
    """The worker role: one measuring process (fresh interpreter)."""
    import modes

    workload = modes.WORKLOADS[args.workload]
    if args.trace:
        import tracing

        result = tracing.traced_run(workload, args.seed, args.seconds,
                                    args.workdir)
    else:
        result = modes.measure(workload, args.seed, args.seconds,
                               args.workdir, STARTED)
    result["host"] = numpy_fingerprint()
    return result


# ---------------------------------------------------------------------------
# Orchestrator
# ---------------------------------------------------------------------------

class RunFailed(RuntimeError):
    pass


def child(args, seconds: float, workdir: str, deadline: float) -> dict:
    """Run one measuring process; returns its JSON result line."""
    os.makedirs(os.path.join(workdir, "tmp"), exist_ok=True)
    env = {key: value for key, value in os.environ.items()
           if key not in THREAD_ENV}
    env.update(PYTHONPATH=os.pathsep.join([SRC, HERE]),
               REPRO_CACHE_DIR=os.path.join(workdir, "cache"),
               TMPDIR=os.path.join(workdir, "tmp"))
    command = [sys.executable, os.path.abspath(__file__), "--role",
               "measure", "--workload", args.workload, "--seed",
               str(args.seed), "--seconds", repr(seconds), "--trace",
               str(args.trace), "--workdir", workdir]
    process = subprocess.Popen(command, env=env, cwd=ROOT,
                               stdout=subprocess.PIPE, text=True,
                               start_new_session=True)
    try:
        out, _ = process.communicate(
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise RunFailed(f"measuring ran past the {DEADLINE_S:.0f} s budget")
    finally:
        # the role joins its own forks; anything left in its session is
        # stray and goes with it
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if process.returncode != 0:
        raise RunFailed(f"measuring exited with code {process.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise RunFailed("measuring printed no result")
    return json.loads(lines[-1])


def combine(parts: list[dict]) -> dict:
    """One run's end-to-end result from its measuring processes."""
    attempted = sum(p["attempted"] for p in parts)
    return {
        "correct": all(p["correct"] for p in parts),
        "attempted": attempted,
        "failed": sum(p["failed"] for p in parts),
        "problems": [q for p in parts for q in p["problems"]],
        "metrics": {
            "trials_per_s": (sum(p["ok"] for p in parts)
                             / sum(sum(p["round_walls"]) for p in parts)),
            "setup_s": statistics.median(p["setup_s"] for p in parts),
            "cpu_s_per_trial": sum(p["cpu_s"] for p in parts) / attempted,
            "peak_rss_mb": max(p["peak_rss_mb"] for p in parts),
            "ok_frac": (attempted - sum(p["failed"] for p in parts))
            / attempted,
        },
    }


def measure_run(args, run_dir: str, deadline: float) -> tuple[dict, list]:
    if args.trace:
        part = child(args, args.seconds, os.path.join(run_dir, "measure"),
                     deadline)
        return part, [part]
    parts = []
    for index in range(MEASURE_PROCS):
        # each process measures an equal share of what is left, so rounding
        # to whole rounds in one process is made up by the next
        spent = sum(sum(p["round_walls"]) for p in parts)
        share = (args.seconds - spent) / (MEASURE_PROCS - index)
        parts.append(child(args, max(share, 0.0),
                           os.path.join(run_dir, f"measure-{index}"),
                           deadline))
    return combine(parts), parts


def report(args, result: dict, parts: list, host: dict, before: float,
           after: float) -> None:
    from metrics import END_TO_END, PER_LAYER

    units = PER_LAYER if args.trace else END_TO_END
    metrics = result["metrics"]
    print(f"workload={args.workload} seed={args.seed} "
          f"plan_seed={parts[0]['plan_seed']} seconds={args.seconds} "
          f"trace={args.trace}")
    print("host " + json.dumps(host, sort_keys=True))
    print(f"sentinel_s before={before:.4f} after={after:.4f}")
    for index, part in enumerate(parts):
        walls = " ".join(f"{w:.4f}" for w in part.get("round_walls", ()))
        setup = (f" setup_s={part['setup_s']:.4f}" if "setup_s" in part
                 else "")
        print(f"process {index}:{setup} round_wall_s {walls} "
              f"digest {part['digest']} over {part['digest_trials']} trials")
    for problem in result["problems"]:
        print(f"problem: {problem}")
    if args.trace:
        breakdown = result["breakdown"]
        wall = breakdown["trial_wall_s"]
        print(f"self time per trial (trial wall {wall:.5f} s):")
        rows = list(breakdown["self_s"].items())
        rows.append(("(unaccounted)", breakdown["unaccounted_s"]))
        rows.append(("(sum)", sum(seconds for _, seconds in rows)))
        for name, seconds in rows:
            print(f"  {name:28s} {seconds:10.5f} s  "
                  f"{100 * seconds / wall:6.2f}%")
        print(f"trace overhead: untraced "
              f"{metrics['trace.untraced_trials_per_s']:.4f} / traced "
              f"{metrics['trace.trials_per_s']:.4f} trials/s = "
              f"{metrics['trace.overhead']:.3f}x")
    for name, unit in units.items():
        print(f"  {name:34s} {metrics[name]:14.6g} {unit}")
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))


def orchestrate(args, caller_threads: dict) -> int:
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program sources at {SRC}; run from the root "
              "of a checkout", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    run_dir = os.path.join(SCRATCH, f"run-{os.getpid()}-{time.time_ns()}")
    os.makedirs(run_dir)
    try:
        before = sentinel_s()
        result, parts = measure_run(args, run_dir, deadline)
        after = sentinel_s()
    except RunFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            os.rmdir(SCRATCH)
        except OSError:
            pass
    host = {**host_fingerprint(caller_threads), **parts[0]["host"]}
    report(args, result, parts, host, before, after)
    return 0 if result["correct"] else 1


def main(argv: list[str] | None = None) -> int:
    caller_threads = {name: os.environ.pop(name, None)
                      for name in THREAD_ENV}
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=18.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("measure",),
                        help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.role is None:
        return orchestrate(args, caller_threads)
    print(json.dumps(role_measure(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
