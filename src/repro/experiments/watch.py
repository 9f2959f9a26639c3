"""``repro-experiments watch`` — live monitor for campaigns and fleets.

Tails the campaign's JSONL journal (and, optionally, its telemetry stream)
and renders refresh-in-place progress: trials done/failed/in-flight,
classified outcome counts, worker activity, throughput, and an ETA.  With
``--serve PORT`` it additionally exposes the stream over a stdlib
``http.server``: ``/metrics`` (Prometheus text exposition, reusing
:func:`repro.telemetry.prometheus_exposition` plus journal-derived outcome
counters) and ``/health`` (a JSON snapshot) for scraping long campaigns.

``--fleet ROOT`` (or the ``fleet`` subcommand) switches to the **fleet
console** over a :mod:`repro.serve` campaign root: per-campaign progress,
per-worker heartbeat resource samples (RSS/CPU, throughput, current
shard), shard lease ages, and the declarative stall rules from
:mod:`repro.telemetry.fleet` — newly fired alerts are appended to
``<root>/fleet_alerts.jsonl`` and counted in ``repro_fleet_alerts_total``.

Everything here is **stdlib-only and read-only** (the alerts journal is
the one append-only exception): the watcher opens the files the campaign
is appending to, remembers its byte offset between polls, and tolerates
the torn final line an in-flight ``write(2)`` leaves — the same
invariants the journal and ``JsonlSink`` were built around.  It can run
against a live campaign from another terminal, or after the fact
(``--once``) against a finished journal.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading
import time
from dataclasses import dataclass, field
from http.server import ThreadingHTTPServer

from ..durable import JsonlTail
from ..analysis.campaign import CampaignStats
from ..health.outcome import OUTCOMES
from ..serve.httpd import (
    PROMETHEUS_CTYPE,
    Route,
    json_response,
    json_safe as _json_safe,
    text_response,
)
from ..serve.httpd import build_server as _build_http_server
from ..serve.store import CampaignStore
from ..telemetry.export import prom_sample, prometheus_exposition
from ..telemetry.fleet import (
    DEFAULT_ALERT_RULES,
    Alert,
    FleetStats,
    evaluate_alerts,
)

__all__ = [
    "ACTIVE_WINDOW",
    "CampaignWatch",
    "FleetWatch",
    "WatchSnapshot",
    "add_fleet_arguments",
    "add_watch_arguments",
    "build_server",
    "fleet_command",
    "render_fleet_frame",
    "render_frame",
    "watch_command",
    "watch_routes",
]

#: A worker slot counts as active while its newest telemetry event is
#: younger than this (seconds).
ACTIVE_WINDOW = 15.0


@dataclass
class WatchSnapshot:
    """One observation of campaign progress (what a frame renders)."""

    journal: str
    telemetry: str | None
    done: int = 0
    ok: int = 0
    failed: int = 0
    retries: int = 0
    timeouts: int = 0
    outcomes: dict = field(default_factory=dict)
    total: int | None = None
    in_flight: int | None = None
    active_workers: int = 0
    elapsed: float = 0.0
    trials_per_second: float = 0.0
    eta_seconds: float | None = None
    health: dict | None = None  # newest model-wide health summary
    last_epoch: dict | None = None  # newest epoch event attrs

    @property
    def complete(self) -> bool:
        return self.total is not None and self.done >= self.total

    def to_json(self) -> dict:
        payload = {
            "journal": self.journal,
            "telemetry": self.telemetry,
            "done": self.done, "ok": self.ok, "failed": self.failed,
            "retries": self.retries, "timeouts": self.timeouts,
            "outcomes": dict(self.outcomes),
            "total": self.total, "in_flight": self.in_flight,
            "active_workers": self.active_workers,
            "elapsed": round(self.elapsed, 3),
            "trials_per_second": round(self.trials_per_second, 4),
            "eta_seconds": (round(self.eta_seconds, 1)
                            if self.eta_seconds is not None else None),
            "complete": self.complete,
        }
        if self.health is not None:
            payload["health"] = self.health
        return _json_safe(payload)


class CampaignWatch:
    """Accumulating tail over a journal (+ telemetry) file pair.

    Thread-safe: the ``--serve`` HTTP handlers poll/render from server
    threads while the foreground loop polls for frames.
    """

    def __init__(self, journal: str, telemetry: str | None = None,
                 total: int | None = None):
        self.journal_path = journal
        self.telemetry_path = telemetry
        self.explicit_total = total
        self._journal_tail = JsonlTail(journal)
        self._telemetry_tail = JsonlTail(telemetry) if telemetry else None
        self._lock = threading.Lock()
        self._records: list[dict] = []
        self._events: list[dict] = []
        self._started = time.monotonic()
        self._first_record_at: float | None = None

    # -- ingestion ---------------------------------------------------------

    def poll(self) -> WatchSnapshot:
        """Ingest anything newly appended, then snapshot progress."""
        with self._lock:
            fresh = self._journal_tail.poll()
            if fresh and self._first_record_at is None:
                self._first_record_at = time.monotonic()
            self._records.extend(fresh)
            if self._telemetry_tail is not None:
                self._events.extend(self._telemetry_tail.poll())
            return self._snapshot()

    def events(self) -> list[dict]:
        with self._lock:
            return list(self._events)

    # -- aggregation -------------------------------------------------------

    def _total(self) -> int | None:
        if self.explicit_total is not None:
            return self.explicit_total
        # the campaign span (end of run) or its open attrs are not
        # streamed, but every span event carrying total works
        for event in reversed(self._events):
            if event.get("type") == "span" and \
                    event.get("name") == "campaign":
                total = (event.get("attrs") or {}).get("total")
                if total is not None:
                    return int(total)
        return None

    def _snapshot(self) -> WatchSnapshot:
        stats = CampaignStats.from_records(self._records, wall_time=0.0)

        now = time.monotonic()
        wall = time.time()
        # a pool replaces its worker after every failed attempt, and each
        # campaign forks a pool of its own, so raw pid counting
        # over-reports; trial spans carry the pool slot (`worker`), which
        # is bounded by the worker count.  Before the first trial closes,
        # fall back to recently-writing pids.
        active = set()
        fallback = set()
        for event in self._events:
            if not event.get("ts") or \
                    wall - float(event["ts"]) > ACTIVE_WINDOW:
                continue
            if event.get("type") == "span" and event.get("name") == "trial":
                slot = (event.get("attrs") or {}).get("worker")
                if slot is not None:
                    active.add(slot)
            elif event.get("pid") is not None:
                fallback.add(event["pid"])
        if not active:
            active = fallback

        health = last_epoch = None
        for event in reversed(self._events):
            if event.get("type") != "event":
                continue
            name = event.get("name")
            if health is None and name == "health":
                attrs = dict(event.get("attrs") or {})
                attrs.pop("layers", None)  # summary only for the frame
                health = attrs
            elif last_epoch is None and name == "epoch":
                last_epoch = dict(event.get("attrs") or {})
            if health is not None and last_epoch is not None:
                break

        total = self._total()
        done = stats.ok + stats.failed
        observed = (now - self._first_record_at
                    if self._first_record_at is not None else 0.0)
        rate = done / observed if observed > 0 and done else 0.0
        eta = None
        if total is not None:
            remaining = max(0, total - done)
            if remaining == 0:
                eta = 0.0
            elif rate > 0:
                eta = remaining / rate
        return WatchSnapshot(
            journal=self.journal_path, telemetry=self.telemetry_path,
            done=done, ok=stats.ok, failed=stats.failed,
            retries=stats.retries, timeouts=stats.timeouts,
            outcomes={**stats.outcomes, **stats.other_outcomes}, total=total,
            in_flight=(max(0, total - done) if total is not None else None),
            active_workers=len(active),
            elapsed=now - self._started,
            trials_per_second=rate, eta_seconds=eta,
            health=health, last_epoch=last_epoch,
        )

    # -- exports -----------------------------------------------------------

    def observe(self) -> tuple[dict, list[str], bool]:
        """One console observation: ``(JSON snapshot, frame, complete)``."""
        snapshot = self.poll()
        return snapshot.to_json(), render_frame(snapshot), snapshot.complete

    def prometheus(self) -> str:
        """Prometheus exposition of the telemetry stream so far, plus
        journal-derived campaign progress counters."""
        snapshot = self.poll()
        text = prometheus_exposition(self.events())
        lines = [
            "# HELP repro_campaign_trials_done Journaled terminal trials.",
            "# TYPE repro_campaign_trials_done counter",
            prom_sample("repro_campaign_trials_done",
                        {"status": "ok"}, snapshot.ok),
            prom_sample("repro_campaign_trials_done",
                        {"status": "failed"}, snapshot.failed),
            "# HELP repro_campaign_outcomes Classified trial outcomes "
            "from the journal.",
            "# TYPE repro_campaign_outcomes counter",
        ]
        for outcome in sorted(snapshot.outcomes):
            lines.append(prom_sample("repro_campaign_outcomes",
                                     {"outcome": outcome},
                                     snapshot.outcomes[outcome]))
        if snapshot.total is not None:
            lines += [
                "# HELP repro_campaign_trials_total Planned campaign size.",
                "# TYPE repro_campaign_trials_total gauge",
                prom_sample("repro_campaign_trials_total", None,
                            snapshot.total),
            ]
        return text + "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def _fmt_eta(seconds: float | None) -> str:
    if seconds is None:
        return "?"
    if seconds >= 3600:
        return f"{seconds / 3600:.1f}h"
    if seconds >= 60:
        return f"{seconds / 60:.1f}m"
    return f"{seconds:.0f}s"


def render_frame(snapshot: WatchSnapshot) -> list[str]:
    """The progress frame as a list of lines (no trailing newlines)."""
    total = "?" if snapshot.total is None else str(snapshot.total)
    lines = [
        f"watch {snapshot.journal}"
        + (f"  (+ {snapshot.telemetry})" if snapshot.telemetry else ""),
        f"  trials    {snapshot.done}/{total} done — {snapshot.ok} ok, "
        f"{snapshot.failed} failed"
        + (f", {snapshot.in_flight} to go"
           if snapshot.in_flight is not None else ""),
    ]
    order = list(OUTCOMES)
    counts = [f"{name} {snapshot.outcomes[name]}" for name in order
              if name in snapshot.outcomes]
    counts += [f"{name} {count}" for name, count
               in sorted(snapshot.outcomes.items()) if name not in order]
    lines.append("  outcomes  " + (" · ".join(counts) if counts else "—"))
    lines.append(
        f"  rate      {snapshot.trials_per_second:.2f} trials/s — "
        f"elapsed {snapshot.elapsed:.0f}s, eta {_fmt_eta(snapshot.eta_seconds)}"
        f" — retries {snapshot.retries}, timeouts {snapshot.timeouts}"
    )
    if snapshot.telemetry:
        line = f"  workers   {snapshot.active_workers} active"
        if snapshot.last_epoch:
            epoch = snapshot.last_epoch
            acc = epoch.get("test_accuracy")
            line += (f" — last epoch {epoch.get('epoch')}"
                     + (f" acc {acc:.3f}" if isinstance(acc, float) else ""))
        lines.append(line)
        if snapshot.health:
            health = snapshot.health
            lines.append(
                "  health    "
                f"epoch {health.get('epoch')}: "
                f"nan={health.get('nan_count')} "
                f"inf={health.get('inf_count')} "
                f"|w|max={health.get('abs_max'):.3g}"
                if isinstance(health.get("abs_max"), (int, float))
                else f"  health    epoch {health.get('epoch')}"
            )
    if snapshot.complete:
        lines.append("  campaign complete")
    return lines


# ---------------------------------------------------------------------------
# --serve: /metrics and /health over the shared repro.serve router
# ---------------------------------------------------------------------------

def watch_routes(watch) -> list[Route]:
    """The console's route table over a :class:`CampaignWatch` or a
    :class:`FleetWatch` (shared router from :mod:`repro.serve.httpd`, so
    behaviour matches the campaign front door): ``/`` and ``/health``
    serve its JSON snapshot, ``/metrics`` its exposition."""
    def health(request):
        return json_response(watch.observe()[0])

    def metrics(request):
        return text_response(watch.prometheus(),
                             content_type=PROMETHEUS_CTYPE)

    return [
        Route("GET", "/", health),
        Route("GET", "/health", health),
        Route("GET", "/metrics", metrics),
    ]


def build_server(watch, port: int,
                 host: str = "127.0.0.1") -> ThreadingHTTPServer:
    """A threading HTTP server exposing *watch* (not yet serving;
    call ``serve_forever`` — typically on a daemon thread)."""
    return _build_http_server(watch_routes(watch), port, host=host)


# ---------------------------------------------------------------------------
# fleet console: per-campaign / per-worker status over a serve root
# ---------------------------------------------------------------------------

class FleetWatch:
    """Accumulating fleet monitor over a :mod:`repro.serve` campaign root.

    Each :meth:`poll` snapshots :meth:`CampaignStore.fleet_stats`,
    evaluates the stall rules against the previous snapshot, journals
    *newly fired* alerts to ``<root>/fleet_alerts.jsonl`` (one alert per
    continuous violation, keyed by :meth:`Alert.key`), and keeps the
    cumulative per-rule totals ``repro_fleet_alerts_total`` exposes.

    Thread-safe for the same reason :class:`CampaignWatch` is: the
    ``--serve`` HTTP handlers poll from server threads.
    """

    def __init__(self, store: CampaignStore | str,
                 rules: tuple = DEFAULT_ALERT_RULES,
                 alerts_path: str | None = None):
        if isinstance(store, (str, os.PathLike)):
            store = CampaignStore(os.fspath(store))
        self.store = store
        self.rules = tuple(rules)
        self.alerts_path = alerts_path or os.path.join(
            store.root, "fleet_alerts.jsonl")
        self._lock = threading.Lock()
        self._previous: FleetStats | None = None
        self._active_keys: set[tuple] = set()
        #: cumulative fired-alert count per rule name (feeds
        #: ``repro_fleet_alerts_total``)
        self.alert_totals: dict[str, int] = {}

    def poll(self) -> tuple[FleetStats, list[Alert]]:
        """One snapshot; returns ``(stats, currently_firing_alerts)``."""
        with self._lock:
            stats = self.store.fleet_stats()
            firing = evaluate_alerts(stats, self._previous, self.rules)
            new = [alert for alert in firing
                   if alert.key() not in self._active_keys]
            self._active_keys = {alert.key() for alert in firing}
            for alert in new:
                self.alert_totals[alert.rule] = \
                    self.alert_totals.get(alert.rule, 0) + 1
            if new:
                self._journal(new)
            self._previous = stats
            return stats, firing

    def _journal(self, alerts: list[Alert]) -> None:
        # best-effort append: a read-only mount must not kill the console
        try:
            with open(self.alerts_path, "a", encoding="utf-8") as handle:
                for alert in alerts:
                    handle.write(json.dumps(_json_safe(alert.to_json()))
                                 + "\n")
        except OSError:
            pass

    def observe(self) -> tuple[dict, list[str], bool]:
        """One console observation: ``(JSON snapshot with the firing
        alerts, frame, False)`` — a fleet is never complete."""
        stats, alerts = self.poll()
        payload = stats.to_json()
        payload["alerts"] = [alert.to_json() for alert in alerts]
        return _json_safe(payload), render_fleet_frame(stats, alerts), False

    def prometheus(self) -> str:
        """Store counters + ``repro_fleet_*`` rollups + alert totals."""
        stats, _ = self.poll()
        return self.store.exposition(stats, alert_totals=self.alert_totals)


def _fmt_bytes(count: float | None) -> str:
    if count is None:
        return "?"
    if count >= 1 << 30:
        return f"{count / (1 << 30):.1f}GiB"
    if count >= 1 << 20:
        return f"{count / (1 << 20):.0f}MiB"
    return f"{count / 1024:.0f}KiB"


def render_fleet_frame(stats: FleetStats,
                       alerts: list[Alert] | None = None) -> list[str]:
    """The fleet console frame as a list of lines."""
    lines = [
        f"fleet {stats.root} — {len(stats.campaigns)} campaigns, "
        f"{len(stats.workers)} workers, queue depth {stats.queue_depth}",
    ]
    if not stats.campaigns:
        lines.append("  (no campaigns)")
    for status in stats.campaigns:
        total = "?" if status.total is None else str(status.total)
        lines.append(
            f"  {status.campaign_id}  {status.state:<9} "
            f"{status.done}/{total} trials ({status.ok} ok, "
            f"{status.failed} failed) — shards "
            f"{status.shards_done}/{status.shards_total}, "
            f"{status.trials_per_second:.2f} trials/s, "
            f"eta {_fmt_eta(status.eta_seconds)}")
    for worker in stats.workers:
        where = (f"{worker.campaign_id}/{worker.shard_id or '?'}"
                 if worker.campaign_id else "idle")
        host = f"@{worker.host}" if worker.host else ""
        line = (f"  worker {worker.owner}{host}  {where} — "
                f"{worker.trials_done} trials "
                f"({worker.trials_per_second:.2f}/s)")
        if worker.rss_bytes is not None:
            line += f", rss {_fmt_bytes(worker.rss_bytes)}"
        if worker.cpu_seconds is not None:
            line += f", cpu {worker.cpu_seconds:.1f}s"
        lines.append(line)
    for alert in alerts or []:
        lines.append(f"  ALERT [{alert.severity}] {alert.rule}: "
                     f"{alert.message}")
    return lines


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def non_positive(args: argparse.Namespace, *dests: str) -> str | None:
    """The one-line usage error for the first option among *dests* (their
    ``argparse`` destinations) whose value is not positive, else None."""
    for dest in dests:
        value = getattr(args, dest)
        if not value > 0:
            return f"--{dest.replace('_', '-')} must be positive, got {value}"
    return None


def add_watch_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("journal", nargs="?", default=None,
                        help="campaign journal JSONL to tail (omit with "
                             "--fleet)")
    parser.add_argument("--fleet", default=None, metavar="ROOT",
                        help="watch a repro.serve campaign root instead of "
                             "one journal: per-campaign/per-worker status, "
                             "lease ages, stall alerts")
    parser.add_argument("--telemetry", default=None, metavar="PATH",
                        help="also tail this telemetry JSONL stream "
                             "(health/epoch events, worker activity)")
    parser.add_argument("--total", type=int, default=None,
                        help="planned trial count (enables ETA before the "
                             "campaign span closes)")
    parser.add_argument("--interval", type=float, default=2.0,
                        help="poll/refresh period in seconds (default 2)")
    parser.add_argument("--once", action="store_true",
                        help="render a single frame and exit")
    parser.add_argument("--json", action="store_true",
                        help="emit JSON snapshots instead of frames")
    parser.add_argument("--serve", type=int, default=None, metavar="PORT",
                        help="also serve /metrics and /health on this port "
                             "(0 picks a free port)")


def watch_command(args: argparse.Namespace) -> int:
    """The ``watch`` subcommand body."""
    error = non_positive(args, "interval")
    if error:
        print(error, file=sys.stderr)
        return 2
    if getattr(args, "fleet", None):
        return fleet_command(args)
    if args.journal is None:
        print("watch: a journal path is required unless --fleet is given",
              file=sys.stderr)
        return 2
    watch = CampaignWatch(args.journal, args.telemetry, total=args.total)
    return _console(args, watch)


def _console(args: argparse.Namespace, watch) -> int:
    """The console loop of ``watch`` and ``fleet``: redraw *watch*'s frame
    in place (or print its JSON snapshots) every ``--interval`` seconds
    until ``--once``, completion or Ctrl-C, serving ``/metrics`` and
    ``/health`` meanwhile under ``--serve``."""
    server = None
    if args.serve is not None:
        server = build_server(watch, args.serve)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        print(f"serving /metrics and /health on "
              f"http://{server.server_address[0]}:{server.server_address[1]}",
              file=sys.stderr)

    in_place = sys.stdout.isatty() and not args.json
    frame_lines = 0
    try:
        while True:
            payload, frame, complete = watch.observe()
            if args.json:
                print(json.dumps(payload), flush=True)
            else:
                if in_place and frame_lines:
                    # move to the top of the previous frame and clear down
                    sys.stdout.write(f"\x1b[{frame_lines}F\x1b[J")
                sys.stdout.write("\n".join(frame) + "\n")
                sys.stdout.flush()
                frame_lines = len(frame)
            if args.once or complete:
                break
            time.sleep(args.interval)
    except KeyboardInterrupt:
        pass
    finally:
        if server is not None:
            server.shutdown()
            server.server_close()
    return 0


def add_fleet_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("root", help="repro.serve campaign root to watch")
    parser.add_argument("--interval", type=float, default=2.0,
                        help="poll/refresh period in seconds (default 2)")
    parser.add_argument("--once", action="store_true",
                        help="render a single frame and exit")
    parser.add_argument("--json", action="store_true",
                        help="emit JSON snapshots instead of frames")
    parser.add_argument("--serve", type=int, default=None, metavar="PORT",
                        help="also serve /metrics and /health on this port "
                             "(0 picks a free port)")


def fleet_command(args: argparse.Namespace) -> int:
    """The ``fleet`` subcommand body (also ``watch --fleet ROOT``)."""
    error = non_positive(args, "interval")
    if error:
        print(error, file=sys.stderr)
        return 2
    root = getattr(args, "root", None) or getattr(args, "fleet", None)
    return _console(args, FleetWatch(root))
