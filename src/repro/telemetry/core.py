"""Spans, events, and the process-global telemetry pipeline.

The pipeline is *off by default*: every instrumentation point in the repo
first checks a module-level ``None`` and returns immediately, so code paths
pay one attribute load when telemetry is not configured.  :func:`configure`
installs a pipeline (sink + metrics registry + trace id); forked campaign
workers inherit it through process memory and keep writing to the same
merged stream (see :mod:`repro.telemetry.sinks` for why that is safe).

Span semantics:

* :func:`span` is a context manager that nests through a ``ContextVar`` —
  the span opened inside another becomes its child (``parent_id``).
* :func:`start_span` creates a *detached* span that does not join the
  context stack; the campaign runner uses it to keep one span per in-flight
  trial open concurrently, finishing each by hand.
* :meth:`Span.context` exports the minimal trace context (trace id +
  span id) as a JSON-safe dict; :func:`ambient` installs it as the
  ambient parent for a block, in this process or another, which is how a
  trial span opened in the campaign parent becomes the parent of the
  ``inject``/``train`` spans opened inside a forked worker.

Crossing *process and host* boundaries (not just ``fork``) goes through
the explicit :class:`TraceContext` carrier: the submitting side exports
``current_trace()`` (or mints a fresh one with :func:`TraceContext.new`),
ships it as a dict or W3C-style ``traceparent`` header, and the executing
side restores it with :func:`trace_scope` before opening spans.  Inside a
``trace_scope`` every emitted span carries the restored trace id and
parents under the carrier's span id, so a campaign submitted over HTTP
and drained by N workers on M hosts still reads as **one** trace.

Instrumentation is timing-only: nothing here draws randomness or touches
file bytes, so enabling telemetry cannot perturb an experiment (locked in
by ``tests/telemetry/test_instrumentation.py``).
"""

from __future__ import annotations

import contextlib
import dataclasses
import itertools
import os
import socket
import time
from contextvars import ContextVar

from .metrics import DEFAULT_BUCKETS, Registry
from .sinks import FanoutSink, JsonlSink, Sink

_pipeline: "Pipeline | None" = None
_current: ContextVar["Span | None"] = ContextVar("repro_telemetry_span",
                                                default=None)
_tags: ContextVar["dict | None"] = ContextVar("repro_telemetry_tags",
                                              default=None)
_ids = itertools.count(1)
_trace_ids = itertools.count(1)
_host: str | None = None
_host_pid: int | None = None


def hostname() -> str:
    """This host's name, cached per process (re-read after ``fork`` is
    pointless — forks share the host — but cheap to keep correct)."""
    global _host, _host_pid
    if _host is None or _host_pid != os.getpid():
        _host = socket.gethostname()
        _host_pid = os.getpid()
    return _host


def _new_span_id() -> str:
    # pid-qualified counter: unique across a fork pool without consuming
    # any randomness source an experiment could observe
    return f"{os.getpid():x}.{next(_ids)}"


def new_trace_id() -> str:
    """A 32-hex-digit trace id in the W3C ``trace-id`` shape.

    Built from pid + wall-clock nanoseconds + a process counter — globally
    unique in practice without drawing from any randomness source an
    experiment could observe (the rng-purity lint rule bans RNG here).
    """
    return (f"{os.getpid() & 0xFFFFFFFF:08x}"
            f"{time.time_ns() & 0xFFFFFFFFFFFFFFFF:016x}"
            f"{next(_trace_ids) & 0xFFFFFFFF:08x}")


@dataclasses.dataclass(frozen=True)
class TraceContext:
    """The explicit carrier for a trace identity crossing process or host
    boundaries.

    ``trace_id`` names the whole distributed trace (one campaign == one
    trace); ``span_id`` optionally names the remote parent span that new
    local spans should nest under.  Serializes to a JSON-safe dict and to
    a W3C-traceparent-style header line (``00-<trace id>-<span id>-01``).
    """

    trace_id: str
    span_id: str | None = None

    @classmethod
    def new(cls, span_id: str | None = None) -> "TraceContext":
        return cls(trace_id=new_trace_id(), span_id=span_id)

    def to_dict(self) -> dict:
        return {"trace_id": self.trace_id, "span_id": self.span_id}

    @classmethod
    def from_dict(cls, payload: dict | None) -> "TraceContext | None":
        if not payload or not payload.get("trace_id"):
            return None
        return cls(trace_id=str(payload["trace_id"]),
                   span_id=payload.get("span_id") or None)

    def to_traceparent(self) -> str:
        # span ids here are pid-qualified counters ("1a2b.7"), not 16-hex
        # words, so this is traceparent *shaped* rather than strictly W3C;
        # neither field may contain "-", which keeps the parse unambiguous
        return f"00-{self.trace_id}-{self.span_id or '0' * 16}-01"

    @classmethod
    def from_traceparent(cls, header: str | None) -> "TraceContext | None":
        if not header:
            return None
        parts = header.strip().split("-")
        if len(parts) != 4 or not parts[1]:
            return None
        span_id = parts[2]
        if not span_id or set(span_id) == {"0"}:
            span_id = None
        return cls(trace_id=parts[1], span_id=span_id)


class Span:
    """One timed operation; emitted to the sink on :meth:`finish`.

    Ambient :func:`tag_scope` tags at creation are merged in under the
    span's own attrs, as for events.
    """

    __slots__ = ("name", "span_id", "parent_id", "attrs", "status",
                 "_start_wall", "_start_perf", "_token", "_finished")

    def __init__(self, name: str, parent_id: str | None, attrs: dict):
        self.name = name
        self.span_id = _new_span_id()
        self.parent_id = parent_id
        tags = _tags.get()
        self.attrs = {**tags, **attrs} if tags else attrs
        self.status = "ok"
        self._start_wall = time.time()
        self._start_perf = time.perf_counter()
        self._token = None
        self._finished = False

    def set(self, **attrs) -> "Span":
        """Attach (or overwrite) attributes before the span closes."""
        self.attrs.update(attrs)
        return self

    def finish(self, status: str | None = None) -> None:
        if self._finished:
            return
        self._finished = True
        if status is not None:
            self.status = status
        pipeline = _pipeline
        if pipeline is None:
            return
        pipeline.emit({
            "type": "span",
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "trace_id": pipeline.trace_id,
            "pid": os.getpid(),
            "ts": self._start_wall,
            "dur": time.perf_counter() - self._start_perf,
            "status": self.status,
            "attrs": self.attrs,
        })

    def context(self) -> dict:
        """JSON-safe trace context for crossing a process boundary."""
        trace_id = _pipeline.trace_id if _pipeline is not None else None
        return {"trace_id": trace_id, "span_id": self.span_id}

    # -- context-manager protocol (joins the ambient stack) -----------------
    def __enter__(self) -> "Span":
        self._token = _current.set(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._token is not None:
            _current.reset(self._token)
            self._token = None
        self.finish("error" if exc_type is not None else None)


class _RemoteParent:
    """Stand-in for a span known only by its id (see :func:`ambient`)."""

    __slots__ = ("span_id",)

    def __init__(self, span_id: str):
        self.span_id = span_id


class _NoopSpan:
    """Singleton returned by every entry point while telemetry is off."""

    __slots__ = ()

    def set(self, **attrs) -> "_NoopSpan":
        return self

    def finish(self, status: str | None = None) -> None:
        pass

    def context(self) -> dict:
        return {"trace_id": None, "span_id": None}

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        pass


NOOP_SPAN = _NoopSpan()


class Pipeline:
    """Sink + metrics registry + trace identity for one process tree."""

    def __init__(self, sink: Sink, trace_id: str | None = None):
        self.sink = sink
        self.trace_id = trace_id or new_trace_id()
        self.registry = Registry()

    def emit(self, event: dict) -> None:
        # host-stamp centrally so every producer (spans, events, metric
        # snapshots) is cross-host disambiguable after a fleet merge
        event.setdefault("host", hostname())
        self.sink.emit(event)

    def flush_metrics(self) -> None:
        for event in self.registry.metric_events():
            self.emit(event)
        # a buffered sink (a trace_scope tee) writes out with the snapshot:
        # a forked campaign worker never closes the sink it inherited
        self.sink.flush()


# ---------------------------------------------------------------------------
# module-level API
# ---------------------------------------------------------------------------

def configure(sink: Sink | None = None, *, jsonl: str | None = None,
              trace_id: str | None = None) -> Pipeline:
    """Install the process-global pipeline (replacing any previous one).

    Pass a ready :class:`~repro.telemetry.sinks.Sink`, or ``jsonl=`` as a
    shorthand for :class:`~repro.telemetry.sinks.JsonlSink`.
    """
    global _pipeline
    if sink is None:
        if jsonl is None:
            raise ValueError("configure() needs a sink or a jsonl path")
        sink = JsonlSink(jsonl)
    shutdown()
    _pipeline = Pipeline(sink, trace_id=trace_id)
    return _pipeline


def shutdown() -> None:
    """Flush pending metrics, close the sink, and disable telemetry."""
    global _pipeline
    pipeline, _pipeline = _pipeline, None
    if pipeline is not None:
        pipeline.flush_metrics()
        pipeline.sink.close()


def enabled() -> bool:
    return _pipeline is not None


def pipeline() -> Pipeline | None:
    return _pipeline


def span(name: str, **attrs) -> Span | _NoopSpan:
    """A nesting span: parent is whatever span is ambient on entry."""
    if _pipeline is None:
        return NOOP_SPAN
    parent = _current.get()
    return Span(name, parent.span_id if parent is not None else None, attrs)


def start_span(name: str, parent: "Span | dict | None" = None,
               **attrs) -> Span | _NoopSpan:
    """A detached span: caller owns :meth:`Span.finish`; never ambient.

    ``parent`` may be another span or an exported :meth:`Span.context`
    dict; ``None`` falls back to the ambient span.
    """
    if _pipeline is None:
        return NOOP_SPAN
    if parent is None:
        ambient = _current.get()
        parent_id = ambient.span_id if ambient is not None else None
    elif isinstance(parent, dict):
        parent_id = parent.get("span_id")
    else:
        parent_id = parent.span_id
    return Span(name, parent_id, attrs)


def current_trace() -> TraceContext | None:
    """Export this process's trace identity for shipping elsewhere.

    ``trace_id`` is the pipeline's; ``span_id`` is the ambient span's (so
    remote work parents under whatever the caller is doing right now).
    ``None`` while telemetry is off — callers that must always propagate
    mint a fresh :meth:`TraceContext.new` instead.
    """
    pipeline = _pipeline
    if pipeline is None:
        return None
    ambient = _current.get()
    return TraceContext(trace_id=pipeline.trace_id,
                        span_id=ambient.span_id if ambient is not None
                        else None)


@contextlib.contextmanager
def trace_scope(trace: "TraceContext | dict | None" = None, *,
                jsonl: str | None = None):
    """Adopt a remote trace identity for the duration of a ``with`` block.

    This is the executing-side half of distributed propagation: a worker
    restores the submit-time :class:`TraceContext` before opening its
    ``serve.shard``/``trial`` spans, so everything it (and its forked
    children) emits carries the campaign's trace id and nests under the
    submitter's span.

    * ``trace`` may be a :class:`TraceContext`, an exported dict, or
      ``None`` (mint a fresh trace — still useful for the ``jsonl`` tee).
    * ``jsonl=`` tees every event emitted inside the scope to a private
      JSONL file *in addition to* any globally configured sink.  When
      telemetry is globally off, the scope installs a temporary pipeline
      writing only to that file — which is how serve workers produce
      per-shard telemetry by default without the operator opting in.

    Yields the effective :class:`TraceContext`.  Metrics accumulated
    inside the scope are flushed to the teed sink before it closes, so a
    shard's telemetry file is self-contained.

    The scope swaps *process-global* pipeline state (that is what lets
    forked campaign children inherit it): overlapping scopes from
    concurrent **threads** of one process may mislabel each other's
    events and are unsupported — fleet workers are processes, and the
    thread-pooled test workers only overlap within a single campaign,
    where the identity is shared anyway.
    """
    global _pipeline
    if isinstance(trace, dict):
        trace = TraceContext.from_dict(trace)
    if trace is None:
        trace = TraceContext.new()

    pipeline = _pipeline
    installed = None
    saved_sink = None
    saved_trace_id = None
    # the tee is buffered: one process owns each per-shard file, the
    # scope exit flushes, and a kill -9 loses only events whose shard is
    # re-run (and re-traced) by the next lease holder anyway
    tee: JsonlSink | None = (JsonlSink(jsonl, buffer_bytes=64 * 1024)
                             if jsonl is not None else None)
    if pipeline is None:
        if tee is None:
            # telemetry fully off and nowhere to write: adopt the parent
            # id anyway so context() exports stay coherent, nothing else
            token = _current.set(_RemoteParent(trace.span_id)
                                 if trace.span_id else None)
            try:
                yield trace
            finally:
                _current.reset(token)
            return
        installed = _pipeline = Pipeline(tee, trace_id=trace.trace_id)
        scoped = installed
    else:
        saved_sink, saved_trace_id = pipeline.sink, pipeline.trace_id
        pipeline.trace_id = trace.trace_id
        if tee is not None:
            pipeline.sink = FanoutSink(saved_sink, tee)
        scoped = pipeline
    token = _current.set(_RemoteParent(trace.span_id)
                         if trace.span_id else None)
    try:
        yield trace
    finally:
        _current.reset(token)
        # flush while the tee is still attached so the shard file carries
        # its own metric snapshots
        scoped.flush_metrics()
        if installed is not None:
            if _pipeline is installed:  # tolerate configure() inside
                _pipeline = None
            installed.sink.close()
        else:
            pipeline.sink = saved_sink
            pipeline.trace_id = saved_trace_id
            if tee is not None:
                tee.close()


@contextlib.contextmanager
def ambient(trace: dict | None):
    """Make the span *trace* names the ambient parent inside the block.

    *trace* is a span's exported :meth:`Span.context`, from this process
    or across a fork: the campaign runner runs every chunk attempt under
    its chunk span's context, so each span the trials open nests under
    it.  Leaving the block restores the previous parent and, unlike
    ``with span:``, finishes nothing, so one detached span can parent
    several blocks (a chunk's retries).  ``None`` or a context without a
    span id (telemetry off) clears the ambient parent.
    """
    span_id = (trace or {}).get("span_id")
    token = _current.set(_RemoteParent(span_id) if span_id else None)
    try:
        yield
    finally:
        _current.reset(token)


@contextlib.contextmanager
def tag_scope(**tags):
    """Stamp *tags* onto every event and span emitted inside the ``with``
    block (a span takes the tags ambient when it opens).

    The executing-side half of per-trial attribution: emitters deep in the
    stack (the injector's ``flips`` provenance, a probe's ``health``
    snapshots) have no idea which trial they serve, so the harness wraps
    the trial's work in ``tag_scope(trial_id=...)`` and the tags ride along
    as event attrs.  Batched execution makes this load-bearing — N trials
    share one pid, so pid can no longer stand in for trial identity.  The
    campaign runner wraps each chunk attempt in
    ``tag_scope(attempt_id=...)`` the same way, so a trial it runs again
    (a retry, a batched chunk's fallback) can be told from its earlier
    attempts, its ``inject`` and ``train`` spans included
    (:func:`repro.telemetry.final_attempt`).

    Scopes nest (inner tags shadow outer ones for the inner block);
    ``None``-valued tags are dropped; explicit ``event()`` and ``span()``
    attrs always win over ambient tags.  Contextvar-backed, so concurrent threads do not
    see each other's tags.
    """
    cleaned = {key: value for key, value in tags.items() if value is not None}
    current = _tags.get() or {}
    token = _tags.set({**current, **cleaned} if cleaned else current)
    try:
        yield
    finally:
        _tags.reset(token)


def event(name: str, **attrs) -> None:
    """A point-in-time event attached to the ambient span.

    Ambient :func:`tag_scope` tags are merged in under any explicitly
    passed attrs (explicit attrs win on collision).
    """
    pipeline = _pipeline
    if pipeline is None:
        return
    ambient = _current.get()
    tags = _tags.get()
    if tags:
        attrs = {**tags, **attrs}
    pipeline.emit({
        "type": "event",
        "name": name,
        "pid": os.getpid(),
        "ts": time.time(),
        "span_id": ambient.span_id if ambient is not None else None,
        "trace_id": pipeline.trace_id,
        "attrs": attrs,
    })


def count(name: str, value: float = 1) -> None:
    if _pipeline is not None:
        _pipeline.registry.count(name, value)


def gauge(name: str, value: float) -> None:
    if _pipeline is not None:
        _pipeline.registry.gauge(name, value)


def observe(name: str, value: float,
            buckets: tuple[float, ...] = DEFAULT_BUCKETS) -> None:
    if _pipeline is not None:
        _pipeline.registry.observe(name, value, buckets)


def flush_metrics() -> None:
    """Emit the current metrics snapshot (idempotent; see metrics module)
    and write out any events the sink buffers."""
    if _pipeline is not None:
        _pipeline.flush_metrics()
