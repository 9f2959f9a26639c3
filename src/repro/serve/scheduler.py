"""Fair-share scheduling and the shard-executing worker loop.

Scheduling is *pull-based*: there is no central dispatcher process to
crash.  Each worker runs a :class:`FairScheduler` over the shared
:class:`~repro.serve.store.CampaignStore` and claims one unit of work at a
time — the planning step of an unplanned campaign, or one shard lease.
Fairness and priority live entirely in the claim order:

* campaigns are grouped by ``spec.priority`` (higher first);
* within a priority tier the worker round-robins — each successful claim
  advances a cursor, so a worker alternates between concurrent campaigns
  instead of draining the lexically-first one;
* two workers naturally interleave because every claim is an exclusive
  lease; neither can hoard shards it is not executing.

A claimed shard runs through the ordinary
:func:`~repro.experiments.runner.run_campaign` with the shard's own
journal and ``resume=True``, so a reclaimed shard (its previous owner
killed mid-run) re-executes only the trials the journal does not already
hold — the crash-safety the single-host engine already guarantees,
inherited wholesale by the distributed layer.  Trials whose kind declares
a per-trial footprint run on the runner's fork pool, as many at once as
:func:`~repro.experiments.runner.pool_size` allows: the worker's CPU
share, capped by the shard's chunks and by memory.  Pool processes die
with their worker, and each trial's span is written before its journal
record, so a ``kill -9`` leaves neither a trial running nor a journaled
trial untraced.

Observability: before opening its ``serve.plan``/``serve.shard`` spans a
worker restores the campaign's submit-time trace context
(``telemetry.trace_scope``) and tees every event into a per-shard JSONL
under the campaign directory — so one campaign is one trace across every
worker and host, read back as one after the fact (``GET
/campaigns/{id}/trace`` reads every per-shard file through the shared
trial join).  The lease heartbeat doubles as the
worker's liveness beacon, publishing RSS/CPU resource samples plus
claim/trial counters to ``<root>/workers/``.
"""

from __future__ import annotations

import logging
import os
import time

from .. import telemetry
from ..experiments.runner import Journal, pool_size, run_campaign
from .shards import Heartbeat, manifest_tasks
from .store import CampaignStore

log = logging.getLogger("repro.serve.scheduler")


class FairScheduler:
    """Priority-tiered round-robin claim order over a store."""

    def __init__(self, store: CampaignStore, owner: str):
        self.store = store
        self.owner = owner
        self._last_served: str | None = None
        #: cumulative claim/contention/reclaim counts, published through
        #: the worker's heartbeat samples for the fleet console
        self.counters: dict[str, int] = {}

    def next_work(self):
        """Claim the next unit: ``("plan", cid, lease)`` or
        ``("shard", cid, shard_id, lease)``; ``None`` when nothing is
        claimable anywhere."""
        campaigns = []
        for cid in self.store.list_campaigns():
            status_state = self.store.coarse_state(cid)
            if status_state in ("cancelled", "failed", "done"):
                continue
            campaigns.append((-self.store.spec(cid).priority, cid))
        if not campaigns:
            return None
        campaigns.sort()
        tiers: dict[int, list[str]] = {}
        for neg_priority, cid in campaigns:
            tiers.setdefault(neg_priority, []).append(cid)
        for neg_priority in sorted(tiers):
            tier = tiers[neg_priority]
            # rotate: scan starts just after the campaign served last, so
            # consecutive claims spread across the tier instead of
            # draining one campaign first
            if self._last_served in tier:
                pivot = tier.index(self._last_served) + 1
                tier = tier[pivot:] + tier[:pivot]
            for cid in tier:
                work = self.store.claim_work(cid, self.owner,
                                             self.counters)
                if work is None:
                    continue
                self._last_served = cid
                if work[0] == "plan":
                    return ("plan", cid, work[1])
                return ("shard", cid, work[1], work[2])
        return None


class ServeWorker:
    """One worker process/thread: claim, heartbeat, execute, repeat."""

    def __init__(self, store: CampaignStore, owner: str | None = None,
                 cache=None, poll: float = 0.2,
                 shard_telemetry: bool = True):
        if not poll > 0:
            raise ValueError("poll must be positive")
        self.store = store
        self.owner = owner or f"worker-{os.getpid()}"
        self.cache = cache
        self.poll = poll
        #: tee each unit's telemetry into the campaign tree (the fleet
        #: merge's input); off only for overhead benchmarking
        self.shard_telemetry = shard_telemetry
        self.scheduler = FairScheduler(store, self.owner)
        self.served: list[tuple[str, str]] = []  # (campaign_id, unit)
        self.started = time.time()
        self.trials_done = 0
        self.units_done = 0
        self._current: tuple[str, str] | None = None  # (campaign, unit)

    def _heartbeat_info(self) -> dict:
        """What each heartbeat sample reports beyond liveness/resources."""
        current = self._current or (None, None)
        return {
            "started": self.started,
            "campaign": current[0],
            "shard": current[1],
            "units_done": self.units_done,
            "trials_done": self.trials_done,
            **self.scheduler.counters,
        }

    def run(self, drain: bool = False, max_units: int | None = None,
            stop_file: str | None = None) -> int:
        """The worker loop; returns the number of units executed.

        ``drain=True`` exits when a pass finds nothing claimable (the
        batch-mode worker); otherwise the worker polls forever (the
        service-mode worker) until *stop_file* appears.
        """
        executed = 0
        while True:
            if stop_file is not None and os.path.exists(stop_file):
                return executed
            if max_units is not None and executed >= max_units:
                return executed
            work = self.scheduler.next_work()
            if work is None:
                if drain:
                    return executed
                time.sleep(self.poll)
                continue
            self._execute(work)
            executed += 1

    def _execute(self, work) -> None:
        if work[0] == "plan":
            _, cid, lease = work
            unit = "plan"
        else:
            _, cid, shard_id, lease = work
            unit = shard_id
        self.served.append((cid, unit))
        self._current = (cid, unit)
        heartbeat = Heartbeat(
            lease, sample_path=self.store.worker_sample_path(self.owner),
            info=self._heartbeat_info)
        with heartbeat:
            try:
                if unit == "plan":
                    self._plan(cid)
                else:
                    self._run_shard(cid, shard_id)
            finally:
                self.units_done += 1
                self._current = None
                lease.release()

    def _telemetry_path(self, cid: str, unit: str) -> str | None:
        if not self.shard_telemetry:
            return None
        return self.store.shard_telemetry_path(cid, unit, self.owner)

    def _plan(self, cid: str) -> None:
        # restore the submit-time trace so the plan span joins the
        # campaign's distributed trace, teeing into the campaign tree
        with telemetry.trace_scope(
                self.store.trace(cid),
                jsonl=self._telemetry_path(cid, "plan")):
            with telemetry.span("serve.plan", campaign=cid,
                                owner=self.owner):
                try:
                    self.store.build_plan(cid, self.cache)
                except Exception:
                    # already journaled as state=failed by the store; the
                    # worker moves on instead of dying
                    log.exception("planning %s failed", cid)

    def _run_shard(self, cid: str, shard_id: str) -> None:
        if self.store.is_cancelled(cid):
            return
        manifest = self.store.load_manifest(cid, shard_id)
        tasks = manifest_tasks(manifest)
        spec = self.store.spec(cid)
        log.info("%s: running %s/%s (%d trials)", self.owner, cid, shard_id,
                 len(tasks))
        # one trace for the whole campaign: restore the submit-time
        # context before the shard span opens, so this span — and the
        # trial/inject/train spans run_campaign and its forked children
        # emit inside it — all carry the campaign's trace id into the
        # per-shard telemetry file the /trace endpoint reads back
        with telemetry.trace_scope(
                self.store.trace(cid),
                jsonl=self._telemetry_path(cid, shard_id)):
            telemetry.count("serve.shards_claimed")
            with telemetry.span("serve.shard", campaign=cid, shard=shard_id,
                                owner=self.owner, trials=len(tasks)) as span:
                # a shard stacks only what its spec asks for: several
                # workers share the host, and each would hold a stack.
                # Its chunks run on as many pool processes as the
                # worker's CPU share and the free memory allow; the lease
                # heartbeat pauses around each fork of that pool, sized
                # by the trials the shard journal does not hold yet
                batch_trials = spec.batch_trials or 1
                journal = self.store.shard_journal_path(cid, shard_id)
                journaled = Journal(journal).completed_ids()
                result = run_campaign(
                    tasks, workers=pool_size(
                        [t for t in tasks if t.trial_id not in journaled],
                        batch_trials),
                    journal=journal,
                    resume=True, **{**spec.runner_kwargs(),
                                    "batch_trials": batch_trials})
                span.set(executed=result.stats.executed,
                         skipped=result.stats.skipped)
            telemetry.count("serve.shards_completed")
        self.trials_done += result.stats.executed
        self.store.mark_shard_done(cid, shard_id)
        if self.store.maybe_mark_done(cid):
            log.info("campaign %s complete", cid)


def run_worker(root: str, *, owner: str | None = None, poll: float = 0.2,
               lease_ttl: float = 30.0, shard_size: int = 8,
               drain: bool = False, stop_file: str | None = None,
               max_units: int | None = None,
               shard_telemetry: bool = True) -> int:
    """Top-level worker entry point (picklable; ``Process(target=...)``).

    Builds its own store handle over *root* — workers share nothing but
    the filesystem, which is what lets them run on any host that mounts
    the campaign root.
    """
    store = CampaignStore(root, shard_size=shard_size, lease_ttl=lease_ttl)
    worker = ServeWorker(store, owner=owner, poll=poll,
                         shard_telemetry=shard_telemetry)
    return worker.run(drain=drain, stop_file=stop_file, max_units=max_units)
