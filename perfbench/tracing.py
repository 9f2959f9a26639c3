"""The traced run: benchmark-side spans and the per-layer breakdown.

The program already emits spans for ``trial``, ``trial_batch``, ``inject*``,
``hdf5.open``, ``train``, ``serve.*`` and ``atlas.ingest``.  :class:`Tracer`
wraps the public functions that have none -- checkpoint copy, dataset and
model rebuild, checkpoint load, journal append, the scheduler's claim, model
stacking -- and times the training loop through :mod:`repro.nn.profiler`.
Every wrapper reports through :mod:`repro.telemetry`, so it does nothing
while telemetry is off and, installed before a fork, reports from the child
into the same event stream.  :func:`per_layer` turns that stream into the
metrics of ``metrics.PER_LAYER`` and :meth:`Stream.self_times` into the stage
breakdown whose self times, with the unaccounted rest, add up to the trial
wall time.
"""

from __future__ import annotations

import functools
import multiprocessing.process
import os
import statistics
import time

from repro import telemetry
from repro.batched import engine as batched_engine
from repro.experiments import common
from repro.experiments import fig3_bitflip_rates as fig3
from repro.experiments.runner import Journal
from repro.frameworks.base import FrameworkFacade
from repro.nn.model import Model
from repro.nn.optim import SGD
from repro.nn.profiler import profile_model
from repro.nn.trainer import BatchedTrainer, Trainer
from repro.serve.scheduler import FairScheduler
from repro.serve.store import CampaignStore
from repro.telemetry import load_events, merge_metrics

import modes
from digest import load_golden
from metrics import LAYER_KINDS, PER_LAYER

#: Spans that stand for one unit of campaign work; everything a trial does
#: nests under one of them.
TRIAL_ROOTS = ("trial", "trial_batch")


def thread_count() -> int:
    """OS threads of this process, as ``/proc`` reports them."""
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return 0


class Tracer:
    """Installs the benchmark's wrappers; :meth:`uninstall` restores them."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []
        #: profiler reports of the fits running in this process (a stack:
        #: fits do not nest in practice, but a stack costs nothing)
        self._fits: list[tuple[object, dict]] = []

    def _patch(self, owner, name: str, make) -> None:
        original = getattr(owner, name)
        self._saved.append((owner, name, original))
        setattr(owner, name, functools.wraps(original)(make(original)))

    def _span(self, owner, name: str, span_name: str) -> None:
        def make(original):
            def wrapper(*args, **kwargs):
                if not telemetry.enabled():
                    return original(*args, **kwargs)
                with telemetry.span(span_name):
                    return original(*args, **kwargs)
            return wrapper
        self._patch(owner, name, make)

    def _counter(self, owner, name: str, calls: str | None,
                 seconds: str | None = None) -> None:
        """Count *owner.name*'s calls and/or add up its seconds (for
        functions called too often to give each call a span)."""
        def make(original):
            def wrapper(*args, **kwargs):
                if not telemetry.enabled():
                    return original(*args, **kwargs)
                start = time.perf_counter()
                try:
                    return original(*args, **kwargs)
                finally:
                    if calls is not None:
                        telemetry.count(calls)
                    if seconds is not None:
                        telemetry.count(seconds,
                                        time.perf_counter() - start)
            return wrapper
        self._patch(owner, name, make)

    def install(self) -> "Tracer":
        self._span(common, "make_dataset", "common.build")
        self._span(common, "build_session_model", "common.build")
        self._span(common.BaselineCache, "_train", "common.baseline_train")
        self._span(FrameworkFacade, "load_checkpoint",
                   "frameworks.load_checkpoint")
        self._span(Journal, "append", "runner.journal_append")
        self._span(FairScheduler, "next_work", "serve.claim")
        self._span(CampaignStore, "submit", "serve.submit")
        self._span(batched_engine, "stack_models", "batched.stack")
        self._span(batched_engine, "stack_optimizers", "batched.stack")
        self._counter(SGD, "step", "bench.nn.steps", "bench.nn.optim_s")
        for owner in (Trainer, BatchedTrainer):
            self._counter(owner, "run_epoch", None, "bench.nn.epoch_s")
        self._counter(os, "fsync", "bench.fsyncs")
        self._counter(multiprocessing.process.BaseProcess, "start",
                      "bench.forks")
        self._patch(fig3, "corrupted_copy", self._copy)
        for owner in (Trainer, BatchedTrainer):
            self._patch(owner, "fit", self._fit)
        self._patch(Model, "evaluate", self._evaluate)
        self._patch(BatchedTrainer, "_evaluate", self._evaluate)
        return self

    def uninstall(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    # -- wrappers with more to do than a span --------------------------------

    @staticmethod
    def _copy(original):
        def wrapper(*args, **kwargs):
            if not telemetry.enabled():
                return original(*args, **kwargs)
            with telemetry.span("common.copy"):
                path = original(*args, **kwargs)
            telemetry.count("bench.copy_bytes", os.path.getsize(path))
            return path
        return wrapper

    def _fit(self, original):
        def wrapper(trainer, *args, **kwargs):
            if not telemetry.enabled():
                return original(trainer, *args, **kwargs)
            eval_forward: dict[str, float] = {}
            # the profiler emits one layer_timing event per layer on exit
            with profile_model(trainer.model) as report:
                self._fits.append((report, eval_forward))
                try:
                    return original(trainer, *args, **kwargs)
                finally:
                    self._fits.pop()
                    telemetry.event("bench.eval_forward",
                                    seconds=eval_forward)
                    telemetry.event("bench.threads",
                                    threads=thread_count())
        return wrapper

    def _evaluate(self, original):
        def wrapper(*args, **kwargs):
            if not telemetry.enabled():
                return original(*args, **kwargs)
            fit = self._fits[-1] if self._fits else None
            before = _forward_by_kind(fit[0]) if fit else {}
            with telemetry.span("nn.eval"):
                result = original(*args, **kwargs)
            if fit:
                for kind, seconds in _forward_by_kind(fit[0]).items():
                    fit[1][kind] = (fit[1].get(kind, 0.0) + seconds
                                    - before.get(kind, 0.0))
            return result
        return wrapper


def _forward_by_kind(report) -> dict[str, float]:
    totals: dict[str, float] = {}
    for timing in report.timings.values():
        totals[timing.kind] = totals.get(timing.kind, 0.0) + \
            timing.forward_seconds
    return totals


# ---------------------------------------------------------------------------
# Analysis
# ---------------------------------------------------------------------------

class Stream:
    """One telemetry event stream, indexed by span and event name."""

    def __init__(self, events: list[dict]):
        self.spans: dict[str, list[dict]] = {}
        self.points: dict[str, list[dict]] = {}
        self.by_id: dict[str, dict] = {}
        self.children: dict[str | None, list[dict]] = {}
        for event in events:
            if event.get("type") == "span":
                self.spans.setdefault(event["name"], []).append(event)
                self.by_id[event["span_id"]] = event
                self.children.setdefault(event.get("parent_id"),
                                         []).append(event)
            elif event.get("type") == "event":
                self.points.setdefault(event["name"], []).append(event)
        self.counters = {name: float(entry.get("value", 0.0))
                         for name, entry in merge_metrics(events).items()
                         if entry.get("kind") != "histogram"}

    def total(self, name: str) -> float:
        return sum(span["dur"] for span in self.spans.get(name, ()))

    def count(self, name: str) -> int:
        return len(self.spans.get(name, ()))

    def under(self, root: str, name: str) -> float:
        """Seconds of *name* spans that descend from a *root* span."""
        total = 0.0
        for span in self.spans.get(name, ()):
            node = self.by_id.get(span.get("parent_id"))
            while node is not None and node["name"] != root:
                node = self.by_id.get(node.get("parent_id"))
            if node is not None:
                total += span["dur"]
        return total

    def trial_durations(self) -> list[float]:
        """Per-trial wall times: ``trial`` spans, and each ``trial_batch``
        split evenly over its trials (as the runner journals them)."""
        out = [span["dur"] for span in self.spans.get("trial", ())]
        for batch in self.spans.get("trial_batch", ()):
            size = int(batch["attrs"].get("size", 1)) or 1
            out.extend([batch["dur"] / size] * size)
        return out

    def self_times(self) -> tuple[dict[str, float], float, float]:
        """Self time by span name under every trial root.

        Returns ``(self seconds by name, unaccounted seconds, trial
        seconds)``.  A span's self time is its interval minus the union of
        its children's, each child clipped to its parent first, so the self
        times of a trial's spans plus the root's own uncovered time
        (*unaccounted*) add up to the root's wall time exactly.
        """
        by_name: dict[str, float] = {}

        def walk(span: dict, lo: float, hi: float) -> float:
            kids = []
            for child in self.children.get(span["span_id"], ()):
                c_lo = max(lo, child["ts"])
                c_hi = min(hi, child["ts"] + child["dur"])
                if c_hi > c_lo:
                    kids.append((child, c_lo, c_hi))
            for child, c_lo, c_hi in kids:
                # the stages of one trial run one after another, so sibling
                # clips do not overlap and their self times add up
                by_name[child["name"]] = by_name.get(child["name"], 0.0) + \
                    walk(child, c_lo, c_hi)
            return (hi - lo) - _union([(c_lo, c_hi) for _, c_lo, c_hi in kids])

        unaccounted = wall = 0.0
        for root in TRIAL_ROOTS:
            for span in self.spans.get(root, ()):
                lo, hi = span["ts"], span["ts"] + span["dur"]
                unaccounted += walk(span, lo, hi)
                wall += hi - lo
        return by_name, unaccounted, wall


def _union(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    end = None
    for lo, hi in sorted(intervals):
        if end is None or lo > end:
            total += hi - lo
            end = hi
        elif hi > end:
            total += hi - end
            end = hi
    return total


def per_layer(stream: Stream, setup: Stream, *, trials: int, campaigns: int,
              workers: int, wall: float, extra: dict) -> dict[str, float]:
    """The ``PER_LAYER`` metrics of one traced run.

    *trials*/*campaigns* count what the traced rounds ran, *wall* is their
    summed round wall time; *extra* carries the values measured outside the
    event stream (tee size, the batched marginal cost, traced vs untraced
    throughput).  A layer a workload does not exercise reports 0.
    """
    counters = stream.counters
    total = stream.total
    steps = counters.get("bench.nn.steps", 0.0)
    per_trial = 1.0 / trials
    per_step = 1.0 / steps if steps else 0.0
    per_campaign = 1.0 / campaigns
    chunks = stream.count("trial_batch")
    per_chunk = 1.0 / chunks if chunks else 0.0
    out = {name: 0.0 for name in PER_LAYER}

    out["nn.fit_s"] = total("train") * per_trial
    out["nn.steps"] = steps * per_trial
    out["nn.step_s"] = counters.get("bench.nn.epoch_s", 0.0) * per_step
    out["nn.optim_s"] = counters.get("bench.nn.optim_s", 0.0) * per_step
    out["nn.eval_s"] = total("nn.eval") * per_trial
    for event in stream.points.get("layer_timing", ()):
        kind = event["attrs"]["kind"]
        if kind in LAYER_KINDS:
            out[f"nn.fwd.{kind}_s"] += \
                event["attrs"]["forward_seconds"] * per_step
            out[f"nn.bwd.{kind}_s"] += \
                event["attrs"]["backward_seconds"] * per_step
    # training passes only: the eval share of each kind's forward time
    for event in stream.points.get("bench.eval_forward", ()):
        for kind, seconds in event["attrs"]["seconds"].items():
            if kind in LAYER_KINDS:
                out[f"nn.fwd.{kind}_s"] -= seconds * per_step

    out["batched.load_s"] = stream.under(
        "trial_batch", "frameworks.load_checkpoint") * per_chunk
    out["batched.stack_s"] = total("batched.stack") * per_chunk
    out["batched.fit_s"] = stream.under("trial_batch", "train") * per_chunk
    out["batched.marginal_s_per_trial"] = extra.get("marginal_s", 0.0)

    out["injector.corrupt_s"] = total("inject") * per_trial
    out["injector.plan_s"] = total("inject.plan") * per_trial
    out["injector.apply_s"] = total("inject.apply") * per_trial
    out["injector.flips"] = len(stream.points.get("flip", ())) * per_trial
    out["injector.bytes_touched"] = \
        counters.get("inject.bytes_touched", 0.0) * per_trial
    out["hdf5.opens"] = stream.count("hdf5.open") * per_trial
    out["hdf5.open_s"] = total("hdf5.open") * per_trial
    # every "r"/"r+" open reads the whole file before any dataset access
    opened = sum(span["attrs"].get("bytes", 0)
                 for span in stream.spans.get("hdf5.open", ()))
    out["hdf5.bytes_read"] = \
        (opened + counters.get("hdf5.bytes_read", 0.0)) * per_trial
    out["hdf5.bytes_written"] = \
        counters.get("hdf5.bytes_written", 0.0) * per_trial
    out["frameworks.load_checkpoint_s"] = \
        total("frameworks.load_checkpoint") * per_trial

    out["common.baseline_train_s"] = setup.total("common.baseline_train")
    out["common.copy_s"] = total("common.copy") * per_trial
    out["common.copy_bytes"] = counters.get("bench.copy_bytes", 0.0) * \
        per_trial
    out["common.build_s"] = total("common.build") * per_trial

    durations = stream.trial_durations()
    _, unaccounted, trial_wall = stream.self_times()
    out["runner.trial_s"] = statistics.median(durations) if durations \
        else 0.0
    out["runner.unaccounted_frac"] = unaccounted / trial_wall \
        if trial_wall else 0.0
    out["runner.forks"] = counters.get("bench.forks", 0.0) * per_trial
    out["runner.fsyncs"] = counters.get("bench.fsyncs", 0.0) * per_trial
    out["runner.journal_append_s"] = \
        total("runner.journal_append") * per_trial
    busy = total("serve.shard") if stream.count("serve.shard") \
        else sum(durations)
    out["runner.worker_utilization"] = busy / (workers * wall)
    out["runner.worker_threads"] = max(
        (event["attrs"]["threads"]
         for event in stream.points.get("bench.threads", ())), default=0)

    if stream.count("serve.submit"):
        out["serve.submit_s"] = total("serve.submit") * per_campaign
        out["serve.plan_s"] = total("serve.plan") * per_campaign
        claims = stream.count("serve.claim")
        out["serve.claim_s"] = total("serve.claim") / claims if claims \
            else 0.0
        shards = [span["dur"] for span in stream.spans.get("serve.shard", ())]
        out["serve.shard_s"] = statistics.median(shards) if shards else 0.0
        idle = []
        for worker in stream.spans.get("bench.worker", ()):
            busy_here = sum(span["dur"] for name in ("serve.shard",
                                                     "serve.plan")
                            for span in stream.spans.get(name, ())
                            if span["pid"] == worker["pid"])
            idle.append(worker["dur"] - busy_here)
        out["serve.idle_s"] = statistics.mean(idle) if idle else 0.0
        for metric, counter in (("serve.claims", "serve.shards_claimed"),
                                ("serve.claim_contention",
                                 "serve.claim_contention"),
                                ("serve.lease_reclaims",
                                 "serve.lease_reclaims"),
                                ("atlas.rows", "atlas.rows_ingested")):
            out[metric] = counters.get(counter, 0.0) * per_campaign
        out["telemetry.events"] = extra["tee_events"]
        out["telemetry.tee_bytes"] = extra["tee_bytes"]
        out["atlas.ingest_s"] = total("atlas.ingest") * per_campaign
        out["atlas.surface_s"] = total("atlas.surface") * per_campaign

    out["trace.trials_per_s"] = extra["traced_trials_per_s"]
    out["trace.untraced_trials_per_s"] = extra["untraced_trials_per_s"]
    out["trace.overhead"] = (extra["untraced_trials_per_s"]
                             / extra["traced_trials_per_s"])
    return out


def _rate(rounds) -> float:
    return sum(r.ok for r in rounds) / sum(r.wall for r in rounds)


def traced_run(workload, seed: int, seconds: float, workdir: str) -> dict:
    """Set up on a cold cache and run one untraced round, then traced rounds
    for *seconds*; returns the correctness summary, the per-layer metrics
    and the stage breakdown."""
    golden = load_golden()
    seed = modes.plan_seed(seed, golden)
    setup_log = os.path.join(workdir, "setup-events.jsonl")
    log = os.path.join(workdir, "events.jsonl")
    extra: dict[str, float] = {}
    tracer = Tracer().install()
    try:
        telemetry.configure(jsonl=setup_log)
        try:
            tasks = modes.setup(workload, seed, workdir)
        finally:
            telemetry.shutdown()
        base = modes.run_round(workload, tasks, seed, 0, workdir)
        if workload.mode == "batched":
            # one more chunk of half the size prices the marginal trial
            half = tasks[: len(tasks) // 2]
            start = time.perf_counter()
            modes.run_campaign(half, batch_trials=len(tasks),
                               journal=os.path.join(workdir, "half.jsonl"))
            extra["marginal_s"] = (base.wall - (time.perf_counter() - start)) \
                / (len(tasks) - len(half))
        telemetry.configure(jsonl=log)
        try:
            rounds = modes.run_rounds(workload, tasks, seed, seconds,
                                      workdir, first=1)
        finally:
            telemetry.shutdown()
    finally:
        tracer.uninstall()
    check = modes.verify(workload, seed, [base] + rounds, golden)
    stream = Stream(load_events(log))
    trials = sum(r.expected for r in rounds)
    extra.update(
        tee_events=base.tee[0] / base.expected,
        tee_bytes=base.tee[1] / base.expected,
        untraced_trials_per_s=_rate([base]),
        traced_trials_per_s=_rate(rounds))
    metrics = per_layer(stream, Stream(load_events(setup_log)), trials=trials,
                        campaigns=len(rounds), workers=workload.workers,
                        wall=sum(r.wall for r in rounds), extra=extra)
    by_name, unaccounted, wall = stream.self_times()
    return {
        **check,
        "plan_seed": seed,
        "round_walls": [r.wall for r in [base] + rounds],
        "metrics": metrics,
        "breakdown": {
            "trial_wall_s": wall / trials,
            "unaccounted_s": unaccounted / trials,
            "self_s": {name: seconds / trials
                       for name, seconds in sorted(
                           by_name.items(), key=lambda kv: -kv[1])},
        },
    }
