"""Fleet-level telemetry: merge per-shard streams, aggregate, alert.

The serve layer (PR 7) scattered a campaign's execution across N workers,
each journalling and (since this PR) emitting telemetry into its own
per-shard JSONL file under the campaign directory.  This module is the
read side that makes the fleet legible again:

* :class:`FleetTelemetry` — an offset-resumable merge over any number of
  per-shard telemetry files.  Events are already host- and pid-stamped at
  emit time, so the merged stream feeds the ordinary exporters
  (``chrome_trace`` gets one track per ``(host, pid)``; ``merge_metrics``
  keys on ``(host, pid, name)``) without further disambiguation.  Each
  file is tailed by :class:`repro.durable.JsonlTail`.
* :class:`FleetStats` and friends — the plain-data aggregate the store
  builds from filesystem state (campaign rollups, worker heartbeat
  resource samples, shard lease ages) and the fleet console renders.
* :class:`AlertRule` / :func:`evaluate_alerts` — declarative stall rules
  over a :class:`FleetStats` snapshot (plus the previous one for
  trend rules): shard lease past TTL, worker silent too long, campaign
  ETA regression, collapsed-outcome rate spike.
* :func:`fleet_prometheus` — the ``repro_fleet_*`` exposition, including
  ``repro_fleet_alerts_total``.

Nothing here imports :mod:`repro.serve` or :mod:`repro.experiments` —
those layers import *this* vocabulary and feed it data, keeping the
dependency arrow pointing at telemetry as everywhere else in the repo.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass, field, replace
from typing import Callable

from ..durable import JsonlTail
from .export import prom_sample


class FleetTelemetry:
    """Offset-resumable merge of many per-shard telemetry JSONL files.

    Sources can be added at any time (new shards appear while a campaign
    runs); :meth:`poll` drains every tail and accumulates the union in
    :attr:`events`.  Merge order is per-file append order — good enough
    for the exporters, which sort or bucket by timestamp themselves.
    """

    def __init__(self, paths: list[str] | None = None):
        self._tails: dict[str, JsonlTail] = {}
        self.events: list[dict] = []
        for path in paths or []:
            self.add_source(path)

    def add_source(self, path: str) -> None:
        path = os.fspath(path)
        if path not in self._tails:
            self._tails[path] = JsonlTail(path)

    @property
    def sources(self) -> list[str]:
        return sorted(self._tails)

    def poll(self) -> list[dict]:
        """Ingest newly appended events from every source; returns them."""
        fresh: list[dict] = []
        for path in sorted(self._tails):
            fresh.extend(self._tails[path].poll())
        self.events.extend(fresh)
        return fresh

    # -- views over the merged stream --------------------------------------

    def spans(self, name: str | None = None) -> list[dict]:
        out = [e for e in self.events if e.get("type") == "span"]
        if name is not None:
            out = [e for e in out if e.get("name") == name]
        return out

    def trace_ids(self) -> set[str]:
        """Distinct trace ids across the merged stream — one well-formed
        campaign merge yields exactly one."""
        return {e["trace_id"] for e in self.events
                if e.get("trace_id") is not None}

    def trial_span_ids(self) -> dict[str, str]:
        """``{trial_id: span_id}`` for every closed trial span."""
        out: dict[str, str] = {}
        for span in self.spans("trial"):
            trial_id = (span.get("attrs") or {}).get("trial_id")
            if trial_id is not None:
                out[str(trial_id)] = span.get("span_id", "")
        return out


# ---------------------------------------------------------------------------
# fleet aggregate (plain data; produced by CampaignStore.fleet_stats)
# ---------------------------------------------------------------------------

@dataclass
class WorkerStatus:
    """One worker's latest heartbeat resource sample."""

    owner: str
    host: str = ""
    pid: int | None = None
    campaign_id: str | None = None
    shard_id: str | None = None
    last_seen: float | None = None  # wall-clock ts of the newest sample
    started: float | None = None
    rss_bytes: float | None = None
    cpu_seconds: float | None = None
    units_done: int = 0
    trials_done: int = 0
    claims: int = 0
    claim_contention: int = 0
    lease_reclaims: int = 0

    @property
    def trials_per_second(self) -> float:
        if not self.started or not self.last_seen or not self.trials_done:
            return 0.0
        elapsed = self.last_seen - self.started
        return self.trials_done / elapsed if elapsed > 0 else 0.0

    def silent_for(self, now: float) -> float | None:
        return (now - self.last_seen) if self.last_seen else None


@dataclass
class ShardStatus:
    """One shard's queue/lease state at snapshot time."""

    campaign_id: str
    shard_id: str
    state: str  # "todo" | "claimed" | "done"
    lease_owner: str | None = None
    lease_age: float | None = None  # seconds since last heartbeat renewal
    lease_ttl: float | None = None
    expired: bool = False


@dataclass
class CampaignFleetStatus:
    """One campaign's progress rollup as the fleet console shows it."""

    campaign_id: str
    state: str
    total: int | None = None
    done: int = 0
    ok: int = 0
    failed: int = 0
    outcomes: dict = field(default_factory=dict)
    shards_total: int = 0
    shards_done: int = 0
    trials_per_second: float = 0.0
    eta_seconds: float | None = None
    trace_id: str | None = None


@dataclass
class FleetStats:
    """Everything the fleet console and ``fleet_prometheus`` consume."""

    root: str
    generated_at: float
    campaigns: list[CampaignFleetStatus] = field(default_factory=list)
    workers: list[WorkerStatus] = field(default_factory=list)
    shards: list[ShardStatus] = field(default_factory=list)

    @property
    def queue_depth(self) -> int:
        """Shards not yet done across active campaigns (claimed included:
        they still occupy the queue until their journal covers them)."""
        return sum(1 for shard in self.shards if shard.state != "done")

    def campaign(self, campaign_id: str) -> CampaignFleetStatus | None:
        for status in self.campaigns:
            if status.campaign_id == campaign_id:
                return status
        return None

    def to_json(self) -> dict:
        return {
            "root": self.root,
            "generated_at": self.generated_at,
            "queue_depth": self.queue_depth,
            "campaigns": [asdict(c) for c in self.campaigns],
            "workers": [dict(asdict(w),
                             trials_per_second=w.trials_per_second)
                        for w in self.workers],
            "shards": [asdict(s) for s in self.shards],
        }


# ---------------------------------------------------------------------------
# alert rules
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Alert:
    """One fired alert: journaled as an event and counted in Prometheus."""

    rule: str
    severity: str
    message: str
    campaign_id: str | None = None
    shard_id: str | None = None
    worker: str | None = None
    ts: float = 0.0

    def to_json(self) -> dict:
        payload = {"type": "alert", "rule": self.rule,
                   "severity": self.severity, "message": self.message,
                   "ts": self.ts}
        if self.campaign_id is not None:
            payload["campaign_id"] = self.campaign_id
        if self.shard_id is not None:
            payload["shard_id"] = self.shard_id
        if self.worker is not None:
            payload["worker"] = self.worker
        return payload

    def key(self) -> tuple:
        """Dedup identity: one (rule, subject) pair alerts once per
        continuous violation, not once per poll."""
        return (self.rule, self.campaign_id, self.shard_id, self.worker)


@dataclass(frozen=True)
class AlertRule:
    """A declarative stall rule over consecutive :class:`FleetStats`.

    ``check(rule, stats, previous)`` returns the violations it sees now;
    ``params`` carries the rule's thresholds so operators can tune a rule
    with :func:`dataclasses.replace` without touching its logic.
    """

    name: str
    description: str
    check: Callable[["AlertRule", FleetStats, FleetStats | None],
                    list[Alert]]
    severity: str = "warning"
    params: dict = field(default_factory=dict)

    def with_params(self, **params) -> "AlertRule":
        return replace(self, params=dict(self.params, **params))


def _lease_expired(rule: AlertRule, stats: FleetStats,
                   previous: FleetStats | None) -> list[Alert]:
    alerts = []
    for shard in stats.shards:
        if shard.state == "claimed" and shard.expired:
            age = f"{shard.lease_age:.1f}s" if shard.lease_age is not None \
                else "?"
            alerts.append(Alert(
                rule=rule.name, severity=rule.severity,
                message=f"shard {shard.shard_id} lease held by "
                        f"{shard.lease_owner or '?'} is past its TTL "
                        f"(age {age}, ttl {shard.lease_ttl}s)",
                campaign_id=shard.campaign_id, shard_id=shard.shard_id,
                worker=shard.lease_owner, ts=stats.generated_at))
    return alerts


def _worker_silent(rule: AlertRule, stats: FleetStats,
                   previous: FleetStats | None) -> list[Alert]:
    silent_after = float(rule.params.get("silent_after", 60.0))
    alerts = []
    for worker in stats.workers:
        silent = worker.silent_for(stats.generated_at)
        if silent is not None and silent > silent_after and \
                worker.campaign_id is not None:
            # a worker with no campaign is idle, not stalled
            alerts.append(Alert(
                rule=rule.name, severity=rule.severity,
                message=f"worker {worker.owner} silent for {silent:.0f}s "
                        f"while on {worker.campaign_id}/"
                        f"{worker.shard_id or '?'}",
                campaign_id=worker.campaign_id, shard_id=worker.shard_id,
                worker=worker.owner, ts=stats.generated_at))
    return alerts


def _eta_regression(rule: AlertRule, stats: FleetStats,
                    previous: FleetStats | None) -> list[Alert]:
    if previous is None:
        return []
    factor = float(rule.params.get("factor", 1.5))
    slack = float(rule.params.get("slack_seconds", 10.0))
    alerts = []
    for status in stats.campaigns:
        if status.state != "running" or status.eta_seconds is None:
            continue
        before = previous.campaign(status.campaign_id)
        if before is None or before.eta_seconds is None:
            continue
        # ETA should shrink roughly with wall time; flag when it *grew*
        # beyond noise — throughput collapsed or the plan got bigger
        if status.eta_seconds > before.eta_seconds * factor + slack:
            alerts.append(Alert(
                rule=rule.name, severity=rule.severity,
                message=f"campaign {status.campaign_id} ETA regressed "
                        f"{before.eta_seconds:.0f}s -> "
                        f"{status.eta_seconds:.0f}s",
                campaign_id=status.campaign_id, ts=stats.generated_at))
    return alerts


def _collapsed_spike(rule: AlertRule, stats: FleetStats,
                     previous: FleetStats | None) -> list[Alert]:
    min_done = int(rule.params.get("min_done", 8))
    threshold = float(rule.params.get("threshold", 0.5))
    alerts = []
    for status in stats.campaigns:
        if status.done < min_done:
            continue
        collapsed = int(status.outcomes.get("collapsed", 0))
        rate = collapsed / status.done
        if rate > threshold:
            alerts.append(Alert(
                rule=rule.name, severity=rule.severity,
                message=f"campaign {status.campaign_id} collapsed-outcome "
                        f"rate {rate:.0%} over {status.done} trials "
                        f"(threshold {threshold:.0%})",
                campaign_id=status.campaign_id, ts=stats.generated_at))
    return alerts


DEFAULT_ALERT_RULES: tuple[AlertRule, ...] = (
    AlertRule("lease-expired",
              "A claimed shard's lease is past its TTL (owner dead or "
              "wedged); another worker should reclaim it.",
              _lease_expired),
    AlertRule("worker-silent",
              "A worker assigned to a campaign has not heartbeat-sampled "
              "for longer than `silent_after` seconds.",
              _worker_silent, params={"silent_after": 60.0}),
    AlertRule("eta-regression",
              "A running campaign's ETA grew by more than `factor`x (+ "
              "`slack_seconds`) between consecutive snapshots.",
              _eta_regression,
              params={"factor": 1.5, "slack_seconds": 10.0}),
    AlertRule("collapsed-spike",
              "More than `threshold` of a campaign's first `min_done`+ "
              "classified trials collapsed — the fault model may be "
              "saturating instead of sampling.",
              _collapsed_spike, params={"min_done": 8, "threshold": 0.5}),
)


def evaluate_alerts(stats: FleetStats,
                    previous: FleetStats | None = None,
                    rules: tuple[AlertRule, ...] = DEFAULT_ALERT_RULES,
                    ) -> list[Alert]:
    """Run every rule over the snapshot pair; rule order is preserved."""
    alerts: list[Alert] = []
    for rule in rules:
        alerts.extend(rule.check(rule, stats, previous))
    return alerts


# ---------------------------------------------------------------------------
# Prometheus exposition
# ---------------------------------------------------------------------------

def fleet_prometheus(stats: FleetStats,
                     alert_totals: dict[str, int] | None = None) -> str:
    """The ``repro_fleet_*`` exposition for one :class:`FleetStats`.

    *alert_totals* is the cumulative fired-alert count per rule name
    (maintained by whoever polls, e.g. the fleet console) — exposed as
    ``repro_fleet_alerts_total{rule=...}``.
    """
    lines: list[str] = []

    def family(name: str, kind: str, help_text: str) -> None:
        lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} {kind}")

    family("repro_fleet_queue_depth", "gauge",
           "Shards not yet completed across active campaigns.")
    lines.append(prom_sample("repro_fleet_queue_depth", None,
                             stats.queue_depth))

    family("repro_fleet_workers", "gauge",
           "Workers with a heartbeat sample in the store.")
    lines.append(prom_sample("repro_fleet_workers", None,
                             len(stats.workers)))

    family("repro_fleet_shard_lease_age_seconds", "gauge",
           "Seconds since each claimed shard lease was last renewed.")
    for shard in stats.shards:
        if shard.state == "claimed" and shard.lease_age is not None:
            lines.append(prom_sample(
                "repro_fleet_shard_lease_age_seconds",
                {"campaign": shard.campaign_id, "shard": shard.shard_id},
                shard.lease_age))

    family("repro_fleet_worker_trials_per_second", "gauge",
           "Per-worker journaled-trial throughput since worker start.")
    for worker in stats.workers:
        lines.append(prom_sample("repro_fleet_worker_trials_per_second",
                                 {"worker": worker.owner},
                                 worker.trials_per_second))

    family("repro_fleet_worker_rss_bytes", "gauge",
           "Per-worker resident set size from the latest heartbeat "
           "sample.")
    for worker in stats.workers:
        if worker.rss_bytes is not None:
            lines.append(prom_sample("repro_fleet_worker_rss_bytes",
                                     {"worker": worker.owner},
                                     worker.rss_bytes))

    family("repro_fleet_worker_cpu_seconds_total", "counter",
           "Per-worker user+system CPU seconds from the latest heartbeat "
           "sample.")
    for worker in stats.workers:
        if worker.cpu_seconds is not None:
            lines.append(prom_sample("repro_fleet_worker_cpu_seconds_total",
                                     {"worker": worker.owner},
                                     worker.cpu_seconds))

    family("repro_fleet_worker_trials_total", "counter",
           "Per-worker journaled trials executed.")
    for worker in stats.workers:
        lines.append(prom_sample("repro_fleet_worker_trials_total",
                                 {"worker": worker.owner},
                                 worker.trials_done))

    family("repro_fleet_claim_contention_total", "counter",
           "Per-worker shard claim attempts lost to another worker.")
    for worker in stats.workers:
        lines.append(prom_sample("repro_fleet_claim_contention_total",
                                 {"worker": worker.owner},
                                 worker.claim_contention))

    family("repro_fleet_lease_reclaims_total", "counter",
           "Per-worker expired-lease takeovers.")
    for worker in stats.workers:
        lines.append(prom_sample("repro_fleet_lease_reclaims_total",
                                 {"worker": worker.owner},
                                 worker.lease_reclaims))

    family("repro_fleet_campaign_eta_seconds", "gauge",
           "Estimated seconds to campaign completion at current "
           "throughput.")
    for status in stats.campaigns:
        if status.eta_seconds is not None:
            lines.append(prom_sample("repro_fleet_campaign_eta_seconds",
                                     {"campaign": status.campaign_id},
                                     status.eta_seconds))

    family("repro_fleet_campaign_trials_per_second", "gauge",
           "Per-campaign journaled-trial throughput.")
    for status in stats.campaigns:
        lines.append(prom_sample("repro_fleet_campaign_trials_per_second",
                                 {"campaign": status.campaign_id},
                                 status.trials_per_second))

    family("repro_fleet_alerts_total", "counter",
           "Fleet alerts fired per rule since the console started.")
    for rule in DEFAULT_ALERT_RULES:
        total = (alert_totals or {}).get(rule.name, 0)
        lines.append(prom_sample("repro_fleet_alerts_total",
                                 {"rule": rule.name}, total))
    for name in sorted(set(alert_totals or {}) -
                       {rule.name for rule in DEFAULT_ALERT_RULES}):
        lines.append(prom_sample("repro_fleet_alerts_total",
                                 {"rule": name}, alert_totals[name]))
    return "\n".join(lines) + "\n"


def merge_campaign_events(paths: list[str]) -> list[dict]:
    """One-shot merge of a campaign's per-shard telemetry files."""
    fleet = FleetTelemetry(paths)
    fleet.poll()
    return fleet.events


__all__ = [
    "Alert",
    "AlertRule",
    "CampaignFleetStatus",
    "DEFAULT_ALERT_RULES",
    "FleetStats",
    "FleetTelemetry",
    "ShardStatus",
    "WorkerStatus",
    "evaluate_alerts",
    "fleet_prometheus",
    "merge_campaign_events",
]
