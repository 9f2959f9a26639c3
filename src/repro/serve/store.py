"""The filesystem campaign store: submissions, plans, shards, results.

One directory per campaign holds everything a fleet of workers (on any
host sharing the directory) needs::

    <root>/campaigns/<campaign_id>/
        spec.json               # the CampaignSpec, verbatim
        trace.json              # submit-time TraceContext (one campaign
                                # == one distributed trace)
        state.json              # {"state", "error"?} — atomic replace
        plan.json               # shard index; presence == planning done
        shards/shard-0000.json  # manifests (atomic commits)
        journals/shard-0000.jsonl   # per-shard trial journals
        journals/shard-0000.done    # completion marker (cache; journals
                                    # are the ground truth)
        leases/plan.lease, leases/shard-0000.lease
        telemetry/shard-0000__<owner>.jsonl  # per-worker span streams

    plus ``<root>/workers/<owner>.json`` — each worker's latest heartbeat
    resource sample, the fleet console's liveness signal.

The store is deliberately dumb about scheduling — it answers "what exists,
what's claimable, what's done" and leaves fairness to
:mod:`repro.serve.scheduler`.  Every write is a :mod:`repro.durable`
commit or lease, so any number of workers and front doors can share a
root without coordination beyond the leases.
"""

from __future__ import annotations

import logging
import os
import re
import time
from dataclasses import asdict
from typing import Iterator

from .. import telemetry
from ..analysis.campaign import CampaignStats
from ..durable import Lease, lease_info, read_json, write_json
from ..experiments.runner import Journal
from ..telemetry import TraceContext
from ..telemetry.export import prom_sample
from ..telemetry.fleet import (
    CampaignFleetStatus,
    FleetStats,
    ShardStatus,
    WorkerStatus,
    fleet_prometheus,
)
from .shards import (
    cut_shards,
    ensure_dir,
    manifest_payload,
    shard_name,
)
from .spec import CampaignSpec, PLAN_BUILDERS, coerce_spec, ensure_builders

log = logging.getLogger("repro.serve.store")

#: Campaign lifecycle states surfaced by :meth:`CampaignStore.status`.
STATES = ("queued", "planning", "running", "done", "cancelled", "failed")


class BacklogFull(RuntimeError):
    """Submission rejected: the store's active-campaign queue is at its
    bound (backpressure — the front door turns this into a 429)."""


class UnknownCampaign(KeyError):
    """No campaign with that id in this store."""


class CampaignStore:
    """CRUD + rollups over a shared campaign root directory."""

    def __init__(self, root: str, max_active: int = 64,
                 shard_size: int = 8, lease_ttl: float = 30.0):
        # a zero or negative bound never works: shard_size fails every
        # plan, max_active refuses every submission, and a lease_ttl that
        # is not positive expires every lease at once, so a second worker
        # could reclaim a shard that is still running
        for name, value in (("shard_size", shard_size),
                            ("max_active", max_active)):
            if value < 1:
                raise ValueError(f"{name} must be a positive integer")
        if not lease_ttl > 0:
            raise ValueError("lease_ttl must be positive")
        self.root = root
        self.max_active = max_active
        self.shard_size = shard_size
        self.lease_ttl = lease_ttl
        ensure_dir(self._campaigns_dir())
        self._spec_cache: dict[str, CampaignSpec] = {}

    # -- paths -------------------------------------------------------------

    def _campaigns_dir(self) -> str:
        return os.path.join(self.root, "campaigns")

    def campaign_dir(self, campaign_id: str) -> str:
        return os.path.join(self._campaigns_dir(), campaign_id)

    def _spec_path(self, cid: str) -> str:
        return os.path.join(self.campaign_dir(cid), "spec.json")

    def _state_path(self, cid: str) -> str:
        return os.path.join(self.campaign_dir(cid), "state.json")

    def _plan_path(self, cid: str) -> str:
        return os.path.join(self.campaign_dir(cid), "plan.json")

    def _manifest_path(self, cid: str, shard_id: str) -> str:
        return os.path.join(self.campaign_dir(cid), "shards",
                            f"{shard_id}.json")

    def shard_journal_path(self, cid: str, shard_id: str) -> str:
        return os.path.join(self.campaign_dir(cid), "journals",
                            f"{shard_id}.jsonl")

    def _trace_path(self, cid: str) -> str:
        return os.path.join(self.campaign_dir(cid), "trace.json")

    def telemetry_dir(self, cid: str) -> str:
        return os.path.join(self.campaign_dir(cid), "telemetry")

    def shard_telemetry_path(self, cid: str, unit: str, owner: str) -> str:
        """Where *owner* streams its telemetry while executing *unit*.

        One file per (unit, owner): a reclaimed shard's new owner appends
        to its own file, so the campaign's telemetry directory is also a
        record of who touched what.
        """
        safe = re.sub(r"[^A-Za-z0-9._-]", "_", owner)
        return os.path.join(self.telemetry_dir(cid),
                            f"{unit}__{safe}.jsonl")

    def telemetry_paths(self, cid: str) -> list[str]:
        """Every per-shard telemetry stream the campaign has, sorted."""
        try:
            names = os.listdir(self.telemetry_dir(cid))
        except FileNotFoundError:
            return []
        return [os.path.join(self.telemetry_dir(cid), name)
                for name in sorted(names) if name.endswith(".jsonl")]

    def _workers_dir(self) -> str:
        return os.path.join(self.root, "workers")

    def worker_sample_path(self, owner: str) -> str:
        safe = re.sub(r"[^A-Za-z0-9._-]", "_", owner)
        return os.path.join(self._workers_dir(), f"{safe}.json")

    def worker_samples(self) -> list[dict]:
        """Every worker's latest heartbeat sample (unordered)."""
        try:
            names = os.listdir(self._workers_dir())
        except FileNotFoundError:
            return []
        samples = []
        for name in sorted(names):
            if not name.endswith(".json"):
                continue
            sample = read_json(os.path.join(self._workers_dir(), name))
            if sample is not None:
                samples.append(sample)
        return samples

    def _done_marker(self, cid: str, shard_id: str) -> str:
        return os.path.join(self.campaign_dir(cid), "journals",
                            f"{shard_id}.done")

    def _lease(self, cid: str, name: str, owner: str) -> Lease:
        return Lease(
            os.path.join(self.campaign_dir(cid), "leases", f"{name}.lease"),
            owner=owner, ttl=self.lease_ttl)

    # -- submission --------------------------------------------------------

    def submit(self, spec, trace=None) -> str:
        """Persist *spec* as a new campaign; returns its id.

        *trace* is the submitter's :class:`~repro.telemetry.TraceContext`
        (or its dict form) — the identity every worker restores before
        opening spans for this campaign.  ``None`` falls back to the
        submitting process's ambient trace, then to a freshly minted one,
        so every campaign has exactly one trace id from birth.

        Raises ``ValueError`` for an invalid spec or unregistered kind and
        :class:`BacklogFull` when ``max_active`` campaigns are already
        queued or running (bounded-queue backpressure).
        """
        spec = coerce_spec(spec)
        ensure_builders()
        if spec.kind not in PLAN_BUILDERS:
            raise ValueError(
                f"no plan builder registered for kind {spec.kind!r}; "
                f"registered: {sorted(PLAN_BUILDERS)}")
        if isinstance(trace, dict):
            trace = TraceContext.from_dict(trace)
        if trace is None:
            trace = telemetry.current_trace() or TraceContext.new()
        active = sum(1 for cid in self.list_campaigns()
                     if self.coarse_state(cid) not in
                     ("done", "cancelled", "failed"))
        if active >= self.max_active:
            raise BacklogFull(
                f"{active} campaigns already active (max_active="
                f"{self.max_active}); retry after some complete")
        cid = self._allocate_id(spec.kind)
        write_json(self._spec_path(cid), spec.to_dict())
        write_json(self._trace_path(cid), trace.to_dict())
        write_json(self._state_path(cid), {"state": "queued"})
        telemetry.count("serve.campaigns_submitted")
        log.info("campaign %s submitted (kind=%s scale=%s trace=%s)", cid,
                 spec.kind, spec.scale, trace.trace_id)
        return cid

    def _allocate_id(self, kind: str) -> str:
        """A unique, submission-ordered id via atomic ``mkdir``.

        ``mkdir`` without ``exist_ok`` is the one-winner primitive: racing
        submitters that compute the same sequence number collide on the
        directory and retry with the next one.
        """
        while True:
            seq = 1 + max(
                (int(name.split("-", 1)[0])
                 for name in self.list_campaigns()
                 if name.split("-", 1)[0].isdigit()),
                default=0)
            cid = f"{seq:05d}-{kind}"
            try:
                os.mkdir(self.campaign_dir(cid))
            except FileExistsError:
                continue
            return cid

    # -- reads -------------------------------------------------------------

    def list_campaigns(self) -> list[str]:
        try:
            names = os.listdir(self._campaigns_dir())
        except FileNotFoundError:
            return []
        return sorted(name for name in names
                      if os.path.isfile(self._spec_path(name)))

    def spec(self, cid: str) -> CampaignSpec:
        cached = self._spec_cache.get(cid)
        if cached is not None:
            return cached
        payload = read_json(self._spec_path(cid))
        if payload is None:
            raise UnknownCampaign(cid)
        spec = CampaignSpec.from_dict(payload)
        self._spec_cache[cid] = spec  # specs are immutable once submitted
        return spec

    def trace(self, cid: str) -> TraceContext | None:
        """The campaign's submit-time trace context (``None`` for
        campaigns from stores that predate trace propagation)."""
        return TraceContext.from_dict(read_json(self._trace_path(cid)))

    def plan(self, cid: str) -> dict | None:
        return read_json(self._plan_path(cid))

    def load_manifest(self, cid: str, shard_id: str) -> dict:
        manifest = read_json(self._manifest_path(cid, shard_id))
        if manifest is None:
            raise UnknownCampaign(f"{cid}/{shard_id}")
        return manifest

    def coarse_state(self, cid: str) -> str:
        state = read_json(self._state_path(cid)) or {}
        return state.get("state", "queued")

    def is_cancelled(self, cid: str) -> bool:
        return self.coarse_state(cid) == "cancelled"

    # -- planning ----------------------------------------------------------

    def claim_planning(self, cid: str, owner: str) -> Lease | None:
        """The planning lease, or ``None`` if planned/claimed/cancelled."""
        if self.plan(cid) is not None or self.coarse_state(cid) in (
                "cancelled", "failed"):
            return None
        lease = self._lease(cid, "plan", owner)
        return lease if lease.try_claim() else None

    def build_plan(self, cid: str, cache=None) -> dict:
        """Build and persist the campaign's shard plan (caller holds the
        planning lease).

        A planning failure (unknown params, builder crash) marks the
        campaign ``failed`` with the error text instead of leaving it
        queued forever.
        """
        spec = self.spec(cid)
        try:
            tasks = spec.build_tasks(cache)
            shards = cut_shards(tasks, self.shard_size)
            for index, shard_tasks in enumerate(shards):
                sid = shard_name(index)
                write_json(self._manifest_path(cid, sid),
                           manifest_payload(cid, sid, shard_tasks))
            plan = {
                "total": len(tasks),
                "shard_size": self.shard_size,
                "shards": [{"shard_id": shard_name(i), "count": len(s)}
                           for i, s in enumerate(shards)],
            }
            write_json(self._plan_path(cid), plan)
        except Exception as exc:
            write_json(self._state_path(cid),
                       {"state": "failed", "error": repr(exc)})
            telemetry.count("serve.plan_failures")
            log.warning("campaign %s planning failed: %r", cid, exc)
            raise
        write_json(self._state_path(cid), {"state": "running"})
        telemetry.count("serve.campaigns_planned")
        telemetry.count("serve.shards_planned", len(plan["shards"]))
        log.info("campaign %s planned: %d trials in %d shards", cid,
                 plan["total"], len(plan["shards"]))
        return plan

    # -- shard claims ------------------------------------------------------

    def shard_ids(self, cid: str) -> list[str]:
        plan = self.plan(cid)
        if plan is None:
            return []
        return [entry["shard_id"] for entry in plan["shards"]]

    def shard_done(self, cid: str, shard_id: str) -> bool:
        """Whether the shard's journal covers its manifest.

        The ``.done`` marker is a cache; the journal is the truth (a
        marker cannot exist without the journal record set that justified
        it, because the marker is written after the journal fsyncs).
        """
        return os.path.exists(self._done_marker(cid, shard_id)) or \
            self._covers(cid, shard_id, self._journal(cid, shard_id))

    def _journal(self, cid: str, shard_id: str) -> list:
        return Journal(self.shard_journal_path(cid, shard_id)).load()

    def _covers(self, cid: str, shard_id: str, records: list) -> bool:
        """Whether *records* (the shard's journal) cover its manifest;
        marks the shard done when they do."""
        manifest = read_json(self._manifest_path(cid, shard_id))
        if manifest is None:
            return False
        if set(manifest["trial_ids"]) <= {r.trial_id for r in records}:
            self.mark_shard_done(cid, shard_id)
            return True
        return False

    def mark_shard_done(self, cid: str, shard_id: str) -> None:
        write_json(self._done_marker(cid, shard_id), {"done": True})

    def claim_shard(self, cid: str, shard_id: str, owner: str,
                    counters: dict | None = None) -> Lease | None:
        if self.shard_done(cid, shard_id):
            return None
        lease = self._lease(cid, shard_id, owner)
        held = lease_info(lease.path) is not None
        if held and not lease.is_expired():
            return None  # healthily claimed elsewhere — not contention
        if not lease.try_claim():
            # the shard looked claimable (no lease, or an expired one)
            # but another worker won the race in the window since we
            # looked: genuine claim contention
            telemetry.count("serve.claim_contention")
            if counters is not None:
                counters["claim_contention"] = \
                    counters.get("claim_contention", 0) + 1
            return None
        if counters is not None:
            counters["claims"] = counters.get("claims", 0) + 1
        if lease.acquired_via == "reclaim":
            telemetry.count("serve.lease_reclaims")
            if counters is not None:
                counters["lease_reclaims"] = \
                    counters.get("lease_reclaims", 0) + 1
        return lease

    def claim_work(self, cid: str, owner: str,
                   counters: dict | None = None):
        """The campaign's next claimable unit, as ``("plan", lease)`` or
        ``("shard", shard_id, lease)``; ``None`` when nothing is
        claimable (all claimed/done/cancelled).  *counters* (mutated in
        place) accumulates claim/contention/reclaim counts for the
        caller's heartbeat samples."""
        if self.coarse_state(cid) in ("cancelled", "failed", "done"):
            return None
        if self.plan(cid) is None:
            lease = self.claim_planning(cid, owner)
            return ("plan", lease) if lease is not None else None
        for shard_id in self.shard_ids(cid):
            lease = self.claim_shard(cid, shard_id, owner, counters)
            if lease is not None:
                return ("shard", shard_id, lease)
        return None

    # -- lifecycle ---------------------------------------------------------

    def cancel(self, cid: str) -> dict:
        """Mark the campaign cancelled; workers stop claiming its shards.

        A shard already executing finishes (its journal records are kept —
        the results endpoint serves whatever completed before the cancel).
        """
        self.spec(cid)  # raises UnknownCampaign
        state = self.coarse_state(cid)
        if state not in ("done", "failed"):
            write_json(self._state_path(cid), {"state": "cancelled"})
            telemetry.count("serve.campaigns_cancelled")
            log.info("campaign %s cancelled", cid)
        return self.status(cid)

    def maybe_mark_done(self, cid: str) -> bool:
        """Stamp ``done`` when every shard is complete (idempotent)."""
        shard_ids = self.shard_ids(cid)
        if not shard_ids:
            return False
        if all(self.shard_done(cid, sid) for sid in shard_ids):
            if self.coarse_state(cid) not in ("cancelled", "failed"):
                write_json(self._state_path(cid), {"state": "done"})
            return True
        return False

    # -- rollups -----------------------------------------------------------

    def _records(self, cid: str) -> tuple[list, set[str]]:
        """Every journaled record across the campaign's shards, deduped by
        trial id (first record wins; duplicates can only arise from a
        pathological double-claim and are bit-identical anyway), in plan
        order, and the shards whose journal covers their manifest.  Each
        shard journal is read once."""
        by_id, done = {}, set()
        for shard_id in self.shard_ids(cid):
            records = self._journal(cid, shard_id)
            for record in records:
                by_id.setdefault(record.trial_id, record)
            if os.path.exists(self._done_marker(cid, shard_id)) or \
                    self._covers(cid, shard_id, records):
                done.add(shard_id)
        ordered = []
        for shard_id in self.shard_ids(cid):
            manifest = read_json(self._manifest_path(cid, shard_id))
            if manifest is None:
                continue
            for trial_id in manifest["trial_ids"]:
                record = by_id.get(trial_id)
                if record is not None:
                    ordered.append(record)
        return ordered, done

    def results(self, cid: str) -> Iterator[str]:
        """The campaign's journal records as JSONL lines, plan-ordered and
        deduped — what ``GET /campaigns/{id}/results`` streams."""
        self.spec(cid)  # raises UnknownCampaign
        for record in self._records(cid)[0]:
            yield record.to_json_line() + "\n"

    def status(self, cid: str) -> dict:
        """The progress rollup served by ``GET /campaigns/{id}``."""
        return self._rollup(cid)[0]

    def _rollup(self, cid: str) -> tuple[dict, set[str]]:
        """:meth:`status` and the shards done, from one read of each shard
        journal."""
        spec = self.spec(cid)
        state_doc = read_json(self._state_path(cid)) or {}
        coarse = state_doc.get("state", "queued")
        plan = self.plan(cid)
        shard_ids = self.shard_ids(cid)
        records, done = self._records(cid)
        done_shards = len(done)
        stats = CampaignStats.from_records(
            (asdict(record) for record in records), wall_time=0.0)
        if coarse not in ("cancelled", "failed", "done"):
            if plan is None:
                state = "queued"
            elif shard_ids and done_shards == len(shard_ids):
                state = "done"
            elif records or done_shards:
                state = "running"
            else:
                state = "running" if plan is not None else "queued"
        else:
            state = coarse
        trace = self.trace(cid)
        return {
            "campaign_id": cid,
            "kind": spec.kind,
            "state": state,
            "priority": spec.priority,
            "planned": plan is not None,
            "total": plan["total"] if plan is not None else None,
            "done": stats.ok + stats.failed,
            "ok": stats.ok,
            "failed": stats.failed,
            "outcomes": {**stats.outcomes, **stats.other_outcomes},
            "shards": {
                "total": len(shard_ids),
                "done": done_shards,
            },
            "trace_id": trace.trace_id if trace is not None else None,
            "error": state_doc.get("error"),
        }, done

    # -- fleet aggregate ---------------------------------------------------

    def _submitted_at(self, cid: str) -> float | None:
        try:
            return os.stat(self._spec_path(cid)).st_mtime
        except OSError:
            return None

    def fleet_stats(self) -> FleetStats:
        """The fleet-wide snapshot the console and alert rules consume.

        Campaign throughput/ETA derive from journaled trials over wall
        time since submission (the spec file's mtime — specs are written
        once).  Shard lease state comes straight from the lease files;
        worker liveness from the heartbeat samples.  Terminal campaigns
        contribute their rollup but no shard rows (their queue slots are
        gone).
        """
        now = time.time()
        campaigns: list[CampaignFleetStatus] = []
        shards: list[ShardStatus] = []
        for cid in self.list_campaigns():
            status, done = self._rollup(cid)
            submitted = self._submitted_at(cid)
            elapsed = (now - submitted) if submitted is not None else 0.0
            rate = status["done"] / elapsed if elapsed > 0 else 0.0
            eta = None
            if status["total"] is not None and \
                    status["state"] == "running":
                remaining = max(0, status["total"] - status["done"])
                if remaining == 0:
                    eta = 0.0
                elif rate > 0:
                    eta = remaining / rate
            campaigns.append(CampaignFleetStatus(
                campaign_id=cid, state=status["state"],
                total=status["total"], done=status["done"],
                ok=status["ok"], failed=status["failed"],
                outcomes=status["outcomes"],
                shards_total=status["shards"]["total"],
                shards_done=status["shards"]["done"],
                trials_per_second=rate, eta_seconds=eta,
                trace_id=status["trace_id"]))
            if status["state"] in ("done", "cancelled", "failed"):
                continue
            for shard_id in self.shard_ids(cid):
                if shard_id in done:
                    shards.append(ShardStatus(cid, shard_id, "done"))
                    continue
                lease = self._lease(cid, shard_id, "fleet-observer")
                info = lease_info(lease.path, ttl=self.lease_ttl)
                if info is None:
                    shards.append(ShardStatus(cid, shard_id, "todo"))
                    continue
                shards.append(ShardStatus(
                    cid, shard_id, "claimed",
                    lease_owner=info.get("owner"),
                    lease_age=info.get("age"),
                    lease_ttl=self.lease_ttl,
                    # full criterion (mtime ttl OR dead pid on this host)
                    expired=lease.is_expired()))
        workers = []
        for sample in self.worker_samples():
            workers.append(WorkerStatus(
                owner=str(sample.get("owner", "?")),
                host=str(sample.get("host", "")),
                pid=sample.get("pid"),
                campaign_id=sample.get("campaign"),
                shard_id=sample.get("shard"),
                last_seen=sample.get("ts"),
                started=sample.get("started"),
                rss_bytes=sample.get("rss_bytes"),
                cpu_seconds=sample.get("cpu_seconds"),
                units_done=int(sample.get("units_done", 0)),
                trials_done=int(sample.get("trials_done", 0)),
                claims=int(sample.get("claims", 0)),
                claim_contention=int(sample.get("claim_contention", 0)),
                lease_reclaims=int(sample.get("lease_reclaims", 0))))
        return FleetStats(root=self.root, generated_at=now,
                          campaigns=campaigns, workers=workers,
                          shards=shards)

    def fleet_prometheus(self, alert_totals: dict | None = None) -> str:
        """Store progress + fleet rollups as one exposition document."""
        return self.exposition(self.fleet_stats(), alert_totals)

    # -- metrics -----------------------------------------------------------

    def exposition(self, stats: FleetStats,
                   alert_totals: dict | None = None) -> str:
        """Store-wide campaign progress and the ``repro_fleet_*`` rollups
        of one :meth:`fleet_stats` snapshot, as one exposition document."""
        campaigns = stats.campaigns
        lines = [
            "# HELP repro_serve_campaigns Campaigns per lifecycle state.",
            "# TYPE repro_serve_campaigns gauge",
        ]
        by_state = {state: 0 for state in STATES}
        for status in campaigns:
            by_state[status.state] = by_state.get(status.state, 0) + 1
        for state in sorted(by_state):
            lines.append(prom_sample("repro_serve_campaigns",
                                     {"state": state}, by_state[state]))
        lines += [
            "# HELP repro_serve_trials Journaled terminal trials "
            "per campaign.",
            "# TYPE repro_serve_trials counter",
        ]
        for status in campaigns:
            cid = status.campaign_id
            lines.append(prom_sample("repro_serve_trials",
                                     {"campaign": cid, "status": "ok"},
                                     status.ok))
            lines.append(prom_sample("repro_serve_trials",
                                     {"campaign": cid, "status": "failed"},
                                     status.failed))
        lines += [
            "# HELP repro_serve_outcomes Classified trial outcomes "
            "per campaign.",
            "# TYPE repro_serve_outcomes counter",
        ]
        for status in campaigns:
            for outcome in sorted(status.outcomes):
                lines.append(prom_sample(
                    "repro_serve_outcomes",
                    {"campaign": status.campaign_id, "outcome": outcome},
                    status.outcomes[outcome]))
        lines += [
            "# HELP repro_serve_shards Shards per campaign by completion.",
            "# TYPE repro_serve_shards gauge",
        ]
        for status in campaigns:
            cid = status.campaign_id
            lines.append(prom_sample("repro_serve_shards",
                                     {"campaign": cid, "state": "done"},
                                     status.shards_done))
            lines.append(prom_sample(
                "repro_serve_shards", {"campaign": cid, "state": "todo"},
                status.shards_total - status.shards_done))
        return "\n".join(lines) + "\n" + fleet_prometheus(stats,
                                                          alert_totals)
