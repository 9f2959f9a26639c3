"""``repro.telemetry`` — dependency-free tracing + metrics for campaigns.

The paper's methodology is measurement: tracing one corrupted bit in a
checkpoint through to an accuracy-convergence outcome.  This package gives
the repo a single shared notion of *what happened when*:

* **Spans** (:func:`span` / :func:`start_span`) time operations, nest
  through a context variable, carry attributes, and survive the fork
  boundary into campaign workers via :meth:`Span.context` + :func:`ambient`.
* **Metrics** (:func:`count` / :func:`gauge` / :func:`observe`) accumulate
  per process and are flushed into the event stream as mergeable snapshots.
* **Sinks** receive events: :class:`JsonlSink` writes the merged campaign
  stream next to the trial journal, :class:`InMemorySink` backs the tests,
  :class:`NullSink` measures instrumentation overhead.
* **Flip provenance** travels as one ``flips`` event of columns per
  injection (:func:`emit_flips`, written from the injector's columnar flip
  set).  :func:`read_events` parses a stream as written, columns and all
  (the atlas ingest folds those); :func:`load_events` and
  :func:`decode_events` hand every other reader one ``flip`` event per
  flip.
* **Exporters** turn a finished stream into a Prometheus exposition
  (:func:`prometheus_exposition`) or a Chrome ``trace_event`` flamegraph
  (:func:`chrome_trace`); :class:`CampaignTelemetry` renders the
  human-readable campaign breakdown behind ``repro-experiments telemetry``.

Telemetry is **off unless configured** — every hook is a ``None`` check —
and it is timing-only: enabling it never draws randomness or touches file
bytes, so instrumented campaigns stay bit-identical to bare ones.

Beyond one process tree, :class:`TraceContext` + :func:`trace_scope`
propagate a trace identity across HTTP/process/host boundaries, and
:mod:`repro.telemetry.fleet` merges the per-shard streams fleet workers
write back into one campaign-level view (:class:`FleetTelemetry`,
:class:`FleetStats`, alert rules, fleet Prometheus exposition).

See ``docs/observability.md`` for the event schema and span semantics.
"""

from .aggregate import (
    CampaignTelemetry,
    PhaseStat,
    TrialSummary,
    decode_events,
    emit_flips,
    final_attempt,
    load_events,
    merge_metrics,
    read_events,
)
from .core import (
    NOOP_SPAN,
    Pipeline,
    Span,
    TraceContext,
    ambient,
    configure,
    count,
    current_trace,
    enabled,
    event,
    flush,
    flush_metrics,
    gauge,
    hostname,
    new_trace_id,
    observe,
    pipeline,
    shutdown,
    span,
    start_span,
    tag_scope,
    trace_scope,
)
from .export import (chrome_trace, escape_label_value, prom_sample,
                     prometheus_exposition)
from .logging_setup import LOG_FORMAT, VERBOSITY_LEVELS, setup_logging
from .fleet import (
    Alert,
    AlertRule,
    CampaignFleetStatus,
    DEFAULT_ALERT_RULES,
    FleetStats,
    FleetTelemetry,
    ShardStatus,
    WorkerStatus,
    evaluate_alerts,
    fleet_prometheus,
    merge_campaign_events,
)
from .metrics import DEFAULT_BUCKETS, Histogram, Registry
from .sinks import FanoutSink, InMemorySink, JsonlSink, NullSink, Sink

__all__ = [
    "Alert",
    "AlertRule",
    "CampaignFleetStatus",
    "CampaignTelemetry",
    "DEFAULT_ALERT_RULES",
    "DEFAULT_BUCKETS",
    "FanoutSink",
    "FleetStats",
    "FleetTelemetry",
    "Histogram",
    "InMemorySink",
    "JsonlSink",
    "LOG_FORMAT",
    "NOOP_SPAN",
    "NullSink",
    "PhaseStat",
    "Pipeline",
    "Registry",
    "ShardStatus",
    "Sink",
    "Span",
    "TraceContext",
    "TrialSummary",
    "VERBOSITY_LEVELS",
    "WorkerStatus",
    "ambient",
    "chrome_trace",
    "escape_label_value",
    "configure",
    "count",
    "current_trace",
    "decode_events",
    "emit_flips",
    "enabled",
    "evaluate_alerts",
    "event",
    "final_attempt",
    "fleet_prometheus",
    "flush",
    "flush_metrics",
    "gauge",
    "hostname",
    "load_events",
    "merge_campaign_events",
    "merge_metrics",
    "new_trace_id",
    "observe",
    "pipeline",
    "prom_sample",
    "prometheus_exposition",
    "read_events",
    "setup_logging",
    "shutdown",
    "span",
    "start_span",
    "tag_scope",
    "trace_scope",
]
