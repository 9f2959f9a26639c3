"""Event sinks: where telemetry events go once emitted.

A sink receives finished events — plain JSON-safe dicts — one at a time.
Three implementations cover every consumer in the repo:

* :class:`JsonlSink` appends one JSON line per event to a file.  It is
  **fork-safe and multi-process-safe by construction**: the file is opened
  lazily per process (a forked campaign worker re-opens its own handle on
  first emit) in unbuffered ``O_APPEND`` mode, so each event is a single
  ``write(2)`` of one complete line and concurrent writers from a worker
  pool produce a valid merged stream instead of interleaved fragments.
* :class:`InMemorySink` collects events in a list — the test double.
* :class:`NullSink` discards everything — used to measure the overhead of
  instrumentation itself (event construction without I/O).
* :class:`FanoutSink` broadcasts each event to several child sinks — how
  ``trace_scope(jsonl=...)`` tees a worker's events into a per-shard file
  while the operator's configured sink keeps receiving them too.
"""

from __future__ import annotations

import json
import os


class Sink:
    """Interface: ``emit`` one event dict; ``flush`` writes out anything
    buffered; ``close`` releases resources."""

    def emit(self, event: dict) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def flush(self) -> None:
        pass

    def close(self) -> None:
        pass


class NullSink(Sink):
    """Accepts and discards every event (overhead measurement)."""

    def emit(self, event: dict) -> None:
        pass


class InMemorySink(Sink):
    """Collects events in :attr:`events` (test double)."""

    def __init__(self):
        self.events: list[dict] = []

    def emit(self, event: dict) -> None:
        self.events.append(event)

    def by_type(self, event_type: str) -> list[dict]:
        return [e for e in self.events if e.get("type") == event_type]

    def spans(self, name: str | None = None) -> list[dict]:
        out = self.by_type("span")
        if name is not None:
            out = [e for e in out if e.get("name") == name]
        return out


class FanoutSink(Sink):
    """Broadcasts every event to each child sink, in order.

    ``close()`` closes only the sinks this fanout *owns* (those passed via
    ``own=``); borrowed sinks — e.g. the process-global pipeline's sink a
    ``trace_scope`` tees around — outlive the fanout.
    """

    def __init__(self, *sinks: Sink, own: tuple[Sink, ...] = ()):
        self.sinks = tuple(sinks)
        self._own = tuple(own)

    def emit(self, event: dict) -> None:
        for sink in self.sinks:
            sink.emit(event)

    def flush(self) -> None:
        for sink in self.sinks:
            sink.flush()

    def close(self) -> None:
        for sink in self._own:
            sink.close()


class JsonlSink(Sink):
    """Append-only JSONL event stream, safe for concurrent forked writers.

    With ``buffer_bytes > 0`` encoded lines are batched in the sink (not
    in a stdio buffer — a forked child would flush the parent's bytes
    twice) and written with one ``write(2)`` per batch.  Whole lines are
    still the write unit, so concurrent writers stay torn-line-free; the
    trade is that a ``kill -9`` loses up to one buffer of events — fine
    for the per-shard telemetry tee, whose shard is re-run and re-traced
    by the next lease holder anyway.  Default is unbuffered: one write
    per event, nothing lost on crash.
    """

    def __init__(self, path: str, buffer_bytes: int = 0):
        self.path = os.fspath(path)
        self.buffer_bytes = buffer_bytes
        parent = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(parent, exist_ok=True)
        self._handle = None
        self._pid = -1
        self._buffer: list[bytes] = []
        self._buffered = 0
        self._buffer_pid = os.getpid()

    def _ensure_handle(self):
        # A forked child inherits this sink object; sharing the parent's
        # buffered handle would interleave bytes, so each process opens its
        # own unbuffered append handle on first use.
        if self._handle is None or self._pid != os.getpid():
            self._handle = open(self.path, "ab", buffering=0)
            self._pid = os.getpid()
        return self._handle

    def emit(self, event: dict) -> None:
        line = json.dumps(event, allow_nan=True,
                          sort_keys=True).encode("utf-8") + b"\n"
        if self.buffer_bytes <= 0:
            # one write(2) per event: O_APPEND keeps concurrent lines whole
            self._ensure_handle().write(line)
            return
        if self._buffer_pid != os.getpid():
            # inherited buffer holds the parent's lines; the parent will
            # flush them itself
            self._buffer = []
            self._buffered = 0
            self._buffer_pid = os.getpid()
        self._buffer.append(line)
        self._buffered += len(line)
        if self._buffered >= self.buffer_bytes:
            self.flush()

    def flush(self) -> None:
        if self._buffer and self._buffer_pid == os.getpid():
            self._ensure_handle().write(b"".join(self._buffer))
            self._buffer = []
            self._buffered = 0

    def close(self) -> None:
        self.flush()
        if self._handle is not None and self._pid == os.getpid():
            self._handle.close()
        self._handle = None
