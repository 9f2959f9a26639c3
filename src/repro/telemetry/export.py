"""Exporters: Prometheus text exposition and Chrome ``trace_event`` JSON.

Both work from a list of raw events (the merged JSONL stream or an
:class:`~repro.telemetry.sinks.InMemorySink`'s buffer), so a finished
campaign can be exported offline without re-running anything.
"""

from __future__ import annotations

import math
import re

from .aggregate import merge_metrics

_NAME_RE = re.compile(r"[^a-zA-Z0-9_]")

#: ``# HELP`` text for the well-known metric names; anything else gets a
#: generic line (the text format wants HELP before TYPE for every family).
_HELP = {
    "inject.attempts": "Injection attempts sampled into campaign plans.",
    "inject.bytes_touched": "Checkpoint bytes rewritten by applied flips.",
    "inject.guard_retries": "Corruption retries forced by NaN/extreme guards.",
    "inject.sequential_fallback":
        "Float attempts routed to the sequential apply path: guard "
        "offenders and the later attempts on their index.",
    "hdf5.bytes_read": "Bytes read through repro.hdf5 datasets.",
    "hdf5.bytes_written": "Bytes written through repro.hdf5 datasets.",
    "hdf5.read_seconds": "Dataset read latency.",
    "hdf5.write_seconds": "Dataset write latency.",
    "runner.trials_ok": "Campaign trials finished ok.",
    "runner.trials_failed": "Campaign trials journaled failed.",
    "runner.retries": "Trial attempt retries.",
    "runner.timeouts": "Trial attempts killed on timeout.",
    "runner.worker_crashes": "Worker processes that died without a result.",
    "runner.busy_seconds": "Summed worker busy wall-time.",
    "runner.worker_utilization": "Busy fraction of the worker pool.",
    "serve.campaigns_submitted": "Campaigns accepted into the store.",
    "serve.campaigns_planned": "Campaigns whose shard plan was built.",
    "serve.campaigns_cancelled": "Campaigns cancelled by request.",
    "serve.plan_failures": "Campaigns whose planning step raised.",
    "serve.shards_planned": "Shard manifests cut at planning time.",
    "serve.shards_claimed": "Shard leases claimed by workers.",
    "serve.shards_completed": "Shards whose journal covers the manifest.",
    "serve.claim_contention":
        "Shard claim attempts that lost the lease race to another worker.",
    "serve.lease_reclaims": "Expired shard leases taken over by a new "
                            "worker.",
}


def _prom_name(name: str) -> str:
    return "repro_" + _NAME_RE.sub("_", name)


def escape_label_value(value: object) -> str:
    """Escape a label value per the Prometheus text-format spec:
    backslash, double-quote, and newline must be backslash-escaped."""
    return (str(value)
            .replace("\\", "\\\\")
            .replace('"', '\\"')
            .replace("\n", "\\n"))


def prom_sample(name: str, labels: dict | None, value: object) -> str:
    """One exposition line: ``name{label="escaped",...} value``."""
    if labels:
        body = ",".join(f'{key}="{escape_label_value(val)}"'
                        for key, val in labels.items())
        return f"{name}{{{body}}} {_prom_value(value)}"
    return f"{name} {_prom_value(value)}"


def _prom_value(value: float) -> str:
    if isinstance(value, float):
        if math.isnan(value):
            return "NaN"
        if math.isinf(value):
            return "+Inf" if value > 0 else "-Inf"
        if value == int(value):
            return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)


def prometheus_exposition(events: list[dict]) -> str:
    """Prometheus text-format exposition of the stream's merged metrics.

    Counters and gauges become single samples; histograms expose the usual
    cumulative ``_bucket{le=...}`` series plus ``_sum`` and ``_count``.
    Span timings are additionally rolled up as
    ``repro_span_seconds_total{...}``-style per-name totals so phase time is
    scrapeable without histogram instrumentation on every span.
    """
    lines: list[str] = []

    def family(prom: str, kind: str, help_text: str) -> None:
        lines.append(f"# HELP {prom} {help_text}")
        lines.append(f"# TYPE {prom} {kind}")

    for name, metric in sorted(merge_metrics(events).items()):
        prom = _prom_name(name)
        kind = metric["kind"]
        help_text = _HELP.get(name, f"Merged {kind} {name!r} from the "
                                    "telemetry stream.")
        if kind == "histogram":
            family(prom, "histogram", help_text)
            cumulative = 0
            for boundary, count in zip(metric["buckets"], metric["counts"]):
                cumulative += count
                lines.append(
                    f'{prom}_bucket{{le="{_prom_value(float(boundary))}"}} '
                    f"{cumulative}"
                )
            lines.append(f'{prom}_bucket{{le="+Inf"}} {metric["count"]}')
            lines.append(f"{prom}_sum {_prom_value(metric['sum'])}")
            lines.append(f"{prom}_count {metric['count']}")
        else:
            family(prom, kind, help_text)
            lines.append(f"{prom} {_prom_value(metric['value'])}")

    totals: dict[str, tuple[int, float]] = {}
    outcomes: dict[str, int] = {}
    for event in events:
        if event.get("type") == "span":
            count, seconds = totals.get(event["name"], (0, 0.0))
            totals[event["name"]] = (count + 1,
                                     seconds + float(event.get("dur", 0.0)))
            if event.get("name") == "trial":
                outcome = (event.get("attrs") or {}).get("outcome")
                if outcome:
                    outcomes[str(outcome)] = outcomes.get(str(outcome), 0) + 1
    if totals:
        family("repro_span_seconds_total", "counter",
               "Total wall time per span name.")
        for name in sorted(totals):
            lines.append(prom_sample("repro_span_seconds_total",
                                     {"span": _NAME_RE.sub("_", name)},
                                     totals[name][1]))
        family("repro_span_count", "counter",
               "Closed spans per span name.")
        for name in sorted(totals):
            lines.append(prom_sample("repro_span_count",
                                     {"span": _NAME_RE.sub("_", name)},
                                     totals[name][0]))
    if outcomes:
        family("repro_trials_total", "counter",
               "Classified trial outcomes (masked/degraded/collapsed/"
               "crashed).")
        for outcome in sorted(outcomes):
            lines.append(prom_sample("repro_trials_total",
                                     {"outcome": outcome},
                                     outcomes[outcome]))

    lines.extend(_health_samples(events))
    return "\n".join(lines) + ("\n" if lines else "")


#: Per-layer health stats exposed as gauges (from the latest ``health``
#: event observed per layer).
_HEALTH_STATS = ("nan_count", "inf_count", "l2", "abs_max")


def _health_samples(events: list[dict]) -> list[str]:
    """Gauge samples from the newest per-layer health snapshot."""
    latest: dict[str, dict] = {}
    epochs: dict[str, int] = {}
    for event in events:
        if event.get("type") != "event" or event.get("name") != "health":
            continue
        attrs = event.get("attrs") or {}
        epoch = int(attrs.get("epoch", 0))
        for layer, stats in (attrs.get("layers") or {}).items():
            if layer not in epochs or epoch >= epochs[layer]:
                epochs[layer] = epoch
                latest[layer] = stats
    lines: list[str] = []
    if not latest:
        return lines
    for stat in _HEALTH_STATS:
        prom = f"repro_health_{stat}"
        lines.append(f"# HELP {prom} Latest per-layer health probe "
                     f"{stat.replace('_', ' ')}.")
        lines.append(f"# TYPE {prom} gauge")
        for layer in sorted(latest):
            value = latest[layer].get(stat)
            if value is None:
                continue
            lines.append(prom_sample(prom, {"layer": layer}, value))
    return lines


def _chrome_tracks(events: list[dict]) -> dict[tuple, int]:
    """Collision-free synthetic Chrome pid per ``(host, pid)`` pair.

    A fleet-merged stream can carry the same OS pid from two hosts;
    Chrome's ``pid`` field is the only track key it has, so each distinct
    ``(host, pid)`` gets its own small synthetic id, assigned in sorted
    order for output stability.
    """
    pairs = {(event.get("host") or "", event.get("pid", 0))
             for event in events if event.get("type") in ("span", "event")}
    return {pair: index + 1 for index, pair in
            enumerate(sorted(pairs, key=lambda p: (str(p[0]), str(p[1]))))}


def chrome_trace(events: list[dict]) -> dict:
    """The stream as a Chrome ``trace_event`` JSON object.

    Load the output in ``chrome://tracing`` / Perfetto for a flamegraph of
    the campaign: one track per ``(host, pid)`` pair — fleet-merged
    streams from different hosts cannot collide even when OS pids repeat —
    spans as complete ("X") events, point events as instants ("i").
    Each track is labelled with ``process_name``/``thread_name`` metadata
    ("M") events carrying the originating host and pid.  Timestamps are
    microseconds as the format requires.
    """
    tracks = _chrome_tracks(events)
    trace_events: list[dict] = []
    for (host, pid), track in sorted(tracks.items(), key=lambda kv: kv[1]):
        label = f"{host}:{pid}" if host else str(pid)
        for meta in ("process_name", "thread_name"):
            trace_events.append({
                "name": meta,
                "cat": "__metadata",
                "ph": "M",
                "ts": 0.0,
                "pid": track,
                "tid": track,
                "args": {"name": label},
            })
    for event in events:
        kind = event.get("type")
        track = tracks.get((event.get("host") or "", event.get("pid", 0)))
        if track is None:
            continue
        if kind == "span":
            trace_events.append({
                "name": event.get("name", "?"),
                "cat": "span",
                "ph": "X",
                "ts": float(event.get("ts", 0.0)) * 1e6,
                "dur": float(event.get("dur", 0.0)) * 1e6,
                "pid": track,
                "tid": track,
                "args": dict(event.get("attrs", {}),
                             status=event.get("status")),
            })
        elif kind == "event":
            trace_events.append({
                "name": event.get("name", "?"),
                "cat": "event",
                "ph": "i",
                "s": "p",  # process-scoped instant
                "ts": float(event.get("ts", 0.0)) * 1e6,
                "pid": track,
                "tid": track,
                "args": dict(event.get("attrs", {})),
            })
    trace_events.sort(key=lambda e: (e["ts"], e["ph"] != "M"))
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}
