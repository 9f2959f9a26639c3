"""The benchmark's workloads: one fig3-class trial body, four execution modes.

Every workload runs *rounds*.  A round is one closed-loop campaign: its whole
plan is queued at the start and at most two processes pull trials from it.
The two pairs share trial plans, so their outcomes must be bit-identical:

* ``bs1``: smoke ResNet-50 on ``tf_like`` trained at ``batch_size=1``, one
  safe-range flip per trial -- run ``inline-bs1`` (sequential) and
  ``batch16-bs1`` (``batch_trials=16``);
* ``cheap``: smoke AlexNet on ``chainer_like`` at batch size 32, 1000
  safe-range flips per trial -- run ``pool2-cheap`` (two-worker
  fork-per-trial pool) and ``serve1-cheap`` (a ``CampaignSpec`` drained by
  one forked ``run_worker`` process, then one atlas ingest and surface
  query).

Why one serve worker: with two long-lived workers and the BLAS library's
default threading, a round settles into a fast or a slow CPU-contention
state for its whole length (16 trials in ~2.4 s or ~5.4 s on a 2-vCPU
host), and ten runs of such rounds spread by a third of their median -- too
wide for any bound.  ``pool2-cheap`` forks a fresh process per trial, which
averages that lottery out, so two-worker contention is measured there.

Importing this module imports ``repro``: the orchestrator in ``run.py``
calls into it only from its worker subprocesses.
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import os
import resource
import time

from repro import telemetry
from repro.atlas import AtlasIngester, AtlasStore, surface
from repro.experiments import fig3_bitflip_rates as fig3
from repro.experiments.common import DEFAULT_CACHE, SCALES
from repro.experiments.runner import TrialTask, run_campaign
from repro.serve import CampaignSpec, CampaignStore, ServeWorker, run_worker

import digest

#: Trials in each pair's plan; 16 makes ``batch16-bs1`` exactly one chunk
#: and cuts two 8-trial shards for ``serve1-cheap``.
PLAN_TRIALS = 16
#: Seconds a forked serve worker may take before the round is failed.
JOIN_TIMEOUT = 150.0

BS1_SCALE = dataclasses.replace(SCALES["smoke"], name="perfbench_bs1",
                                batch_size=1)


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    pair: str  # "bs1" | "cheap": workloads of one pair share a plan
    mode: str  # "inline" | "batched" | "pool" | "serve"
    workers: int
    #: trials per round; ``inline-bs1`` takes a sliding window of its plan
    round_trials: int


WORKLOADS = {w.name: w for w in (
    Workload("inline-bs1", "bs1", "inline", 1, 2),
    Workload("batch16-bs1", "bs1", "batched", 1, PLAN_TRIALS),
    Workload("pool2-cheap", "cheap", "pool", 2, PLAN_TRIALS),
    Workload("serve1-cheap", "cheap", "serve", 1, PLAN_TRIALS),
)}


def plan_seed(seed: int, golden: dict) -> int:
    """The vetted seed ``--seed`` selects (see ``make_golden.py``)."""
    return golden["seeds"][seed % len(golden["seeds"])]


def cheap_spec(seed: int, trials: int = PLAN_TRIALS) -> CampaignSpec:
    return CampaignSpec(kind="fig3", scale="smoke", seed=seed,
                        params={"pairs": [["chainer_like", "alexnet"]],
                                "bitflips": [1000], "trainings": trials})


def build_plan(workload: Workload, seed: int,
               trials: int = PLAN_TRIALS) -> list[TrialTask]:
    """The pair's trial plan (trains the baseline on a cold cache)."""
    if workload.pair == "bs1":
        tasks, _ = fig3.build_tasks(BS1_SCALE, seed, [("tf_like", "resnet50")],
                                    (1,), trials, DEFAULT_CACHE)
        return tasks
    return cheap_spec(seed, trials).build_tasks()


def setup(workload: Workload, seed: int, workdir: str) -> list[TrialTask]:
    """Everything a user pays before the first trial dispatch: baseline
    training into the (empty) cache and the plan build; for serve, also the
    submit and the plan unit as a serve worker runs it."""
    if workload.mode == "serve":
        store = CampaignStore(os.path.join(workdir, "setup-store"))
        store.submit(cheap_spec(seed))
        ServeWorker(store, owner="planner").run(drain=True, max_units=1)
    return build_plan(workload, seed)


# ---------------------------------------------------------------------------
# Rounds
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class Round:
    wall: float
    expected: int
    records: list[dict]
    problems: list[str]
    #: serve only: (events, bytes) of the campaign's per-shard telemetry
    tee: tuple[int, int] = (0, 0)

    @property
    def ok(self) -> int:
        return sum(rec.get("status") == "ok" for rec in self.records)


def round_tasks(workload: Workload, tasks: list[TrialTask],
                index: int) -> list[TrialTask]:
    size = workload.round_trials
    if size >= len(tasks):
        return tasks
    start = (index * size) % len(tasks)
    return [tasks[(start + k) % len(tasks)] for k in range(size)]


def run_round(workload: Workload, tasks: list[TrialTask], seed: int,
              index: int, workdir: str) -> Round:
    todo = round_tasks(workload, tasks, index)
    if workload.mode == "serve":
        return _serve_round(seed, len(todo), workload.workers, index,
                            workdir)
    journal = os.path.join(workdir, f"round-{index}.jsonl")
    kwargs = {"workers": workload.workers}
    if workload.mode == "batched":
        kwargs["batch_trials"] = PLAN_TRIALS
    start = time.perf_counter()
    run_campaign(todo, journal=journal, **kwargs)
    wall = time.perf_counter() - start
    return Round(wall, len(todo), digest.read_journal(journal), [])


def _drain(root: str, owner: str) -> None:
    """Forked serve worker: drain the store, then exit (the parent joins)."""
    with telemetry.span("bench.worker", owner=owner):
        run_worker(root, owner=owner, drain=True)
    telemetry.flush_metrics()


def _serve_round(seed: int, trials: int, workers: int, index: int,
                 workdir: str) -> Round:
    root = os.path.join(workdir, f"store-{index}")
    store = CampaignStore(root)
    cid = store.submit(cheap_spec(seed, trials))
    ServeWorker(store, owner="planner").run(drain=True, max_units=1)
    context = multiprocessing.get_context("fork")
    processes = [context.Process(target=_drain, args=(root, f"worker-{k}"))
                 for k in range(workers)]
    problems = []
    start = time.perf_counter()
    for process in processes:
        process.start()
    for process in processes:
        process.join(JOIN_TIMEOUT)
    for process in processes:
        if process.is_alive():
            process.terminate()
            process.join()
            problems.append(f"serve worker {process.pid} timed out")
        elif process.exitcode != 0:
            problems.append(f"serve worker exited {process.exitcode}")
    atlas = AtlasStore(os.path.join(workdir, f"atlas-{index}"))
    ingester = AtlasIngester(atlas)
    ingester.add_campaign_root(root)
    ingester.ingest()
    with telemetry.span("atlas.surface"):
        cells = surface(atlas.load(), "layer", "bit")
    wall = time.perf_counter() - start
    status = store.status(cid)
    if status["state"] != "done":
        problems.append(f"campaign {cid} ended {status['state']}")
    if cells.total_trials != trials:
        problems.append(f"atlas surface holds {cells.total_trials} of "
                        f"{trials} trials")
    tee = [0, 0]
    for path in store.telemetry_paths(cid):
        with open(path, "rb") as handle:
            data = handle.read()
        tee[0] += data.count(b"\n")
        tee[1] += len(data)
    records = [json.loads(line) for line in store.results(cid)]
    return Round(wall, trials, records, problems, tuple(tee))


def run_rounds(workload: Workload, tasks: list[TrialTask], seed: int,
               seconds: float, workdir: str, first: int = 0) -> list[Round]:
    """Rounds back to back, stopping at the round boundary nearest to
    *seconds* of round wall time (at least one round)."""
    rounds: list[Round] = []
    spent = 0.0
    while not rounds or spent + spent / len(rounds) / 2 < seconds:
        rounds.append(run_round(workload, tasks, seed, first + len(rounds),
                                workdir))
        spent += rounds[-1].wall
    return rounds


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------

def verify(workload: Workload, seed: int, rounds: list[Round],
           golden: dict) -> dict:
    """Check every trial of every round against the pair's golden table.

    A trial fails when it is not journaled ``ok``, when it is missing from
    its round's journal, or when its digest entry differs from the golden
    one -- which both workloads of a pair share, so a mismatch is also a
    disagreement between execution modes.
    """
    expected = golden[workload.pair][str(seed)]["trials"]
    problems = [p for r in rounds for p in r.problems]
    failed = 0
    entries: set[str] = set()
    bad: set[str] = set()
    for r in rounds:
        if len(r.records) != r.expected:
            problems.append(f"round journaled {len(r.records)} of "
                            f"{r.expected} trials")
            failed += max(0, r.expected - len(r.records))
        wrong = set(digest.check_entries(r.records, expected))
        failed += len(wrong)
        bad |= wrong
        entries |= {digest.trial_entry(rec) for rec in r.records}
    if bad:
        problems.append(f"{len(bad)} trial(s) with a wrong outcome: "
                        f"{sorted(bad)[:4]}")
    attempted = sum(r.expected for r in rounds)
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": min(failed, attempted),
        "problems": problems,
        "digest": digest.digest(entries),
        "digest_trials": len(entries),
    }


# ---------------------------------------------------------------------------
# The measuring process
# ---------------------------------------------------------------------------

def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it has reaped."""
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024


def measure(workload: Workload, seed: int, seconds: float, workdir: str,
            started: float) -> dict:
    """One measuring process: set up on a cold cache (timed from the
    interpreter's start, *started*), then untraced rounds for *seconds*."""
    golden = digest.load_golden()
    seed = plan_seed(seed, golden)
    tasks = setup(workload, seed, workdir)
    setup_s = time.perf_counter() - started
    cpu0 = _cpu_seconds()
    rounds = run_rounds(workload, tasks, seed, seconds, workdir)
    cpu = _cpu_seconds() - cpu0
    return {
        **verify(workload, seed, rounds, golden),
        "plan_seed": seed,
        "setup_s": setup_s,
        "round_walls": [r.wall for r in rounds],
        "ok": sum(r.ok for r in rounds),
        "cpu_s": cpu,
        "peak_rss_mb": peak_rss_mb(),
    }
