"""Campaign-level aggregation of a telemetry event stream.

Consumes the merged JSONL stream a campaign writes (spans, point events,
metric snapshots from every process) and answers the questions the paper's
methodology makes one ask of a large injection campaign: where does the
wall-clock go, how fast are flips landing, which trials are slow, and what
did each fault do to its training curve.

Flip provenance has a wire format and a decoded form, both owned here.
The injector writes one ``flips`` event per application
(:func:`emit_flips`): its attrs are equal-length columns, one entry per
applied flip, in attempt order, written straight from the injector's
columnar flip set.  :func:`read_events` parses a stream as written;
:func:`decode_events` — and so :func:`load_events`, which is the two in
sequence — turns each ``flips`` event back into one ``flip`` event per
flip, the form the analyses and reports read.  The atlas ingest reads the
columns as written instead (one parsed line per trial, not one event per
flip).  :func:`final_attempt` drops the events of attempts the runner
superseded.

Which trial an event belongs to is decided here, once, for every reader:
by its ``trial_id`` attribute (:func:`trial_of`), which the runner writes
on each ``trial`` span and the flip trial body and the trainer stamp on
each trial's ``inject`` spans, ``flips`` events and ``epoch`` events; an
event without one belongs to no trial.  :class:`TrialJoin` folds a stream
into one running result per trial, its last attempt's, as the stream is
read.  It backs :meth:`CampaignTelemetry.trials`, the atlas ingest's flip
summaries, the per-trial filters of :mod:`repro.analysis.propagation`
(:func:`trial_events`) and the serve ``/trace`` index.

Metric merging rules (the counterpart of the registry's flush semantics):
snapshots are cumulative per process, so the aggregator keeps the **last**
snapshot per ``(host, pid, name)`` and sums across processes.  Counters
and histogram bucket counts add; gauges keep the most recent value.  The
host component matters once a campaign's per-shard streams from workers
on different machines are read as one, where two unrelated processes can
share a pid.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

from . import core


#: The per-flip provenance fields: the columns of a ``flips`` event, in
#: the order a decoded ``flip`` event lists them (``delta`` follows).
FLIP_COLUMNS = ("location", "flat_index", "kind", "precision", "bit_msb",
                "old_value", "new_value")


def emit_flips(flips) -> None:
    """Emit *flips* (a :class:`repro.injector.log.FlipSet`) as one
    ``flips`` event: one list per :data:`FLIP_COLUMNS` name.

    Nothing is emitted for no flips.  Ambient tags ride along as usual.
    """
    if len(flips):
        core.event("flips", **{name: flips.column(name)
                               for name in FLIP_COLUMNS})


def _expand_flips(packed: dict) -> list[dict]:
    attrs = packed.get("attrs") or {}
    tags = {key: value for key, value in attrs.items()
            if key not in FLIP_COLUMNS}
    flips = []
    for row in zip(*(attrs.get(name, ()) for name in FLIP_COLUMNS)):
        flip = dict(zip(FLIP_COLUMNS, row))
        flip["delta"] = flip["new_value"] - flip["old_value"]
        flips.append({**packed, "name": "flip", "attrs": {**tags, **flip}})
    return flips


def decode_events(events) -> list[dict]:
    """*events* with every ``flips`` event replaced by its ``flip`` events.

    Each ``flip`` event keeps the ``flips`` event's envelope (pid, ts,
    span, trace, host) and tags, and recomputes ``delta = new_value -
    old_value``.  Anything else, per-flip ``flip`` events of older streams
    included, passes through unchanged, so decoding is idempotent.
    """
    decoded: list[dict] = []
    for item in events:
        if item.get("name") == "flips" and item.get("type") == "event":
            decoded.extend(_expand_flips(item))
        else:
            decoded.append(item)
    return decoded


def final_attempt(events: list[dict]) -> list[dict]:
    """One trial's *events* without those of its superseded attempts.

    The campaign runner stamps everything a chunk attempt emits with an
    ``attempt_id``; a retried trial, or a batched one re-run alone after
    its chunk failed, emits its provenance again under a new id.  The last
    id in stream order is the attempt the journal recorded; events stamped
    with an earlier one are dropped, unstamped events are kept.
    """
    last = None
    for item in events:
        last = (item.get("attrs") or {}).get("attempt_id", last)
    if last is None:
        return events
    return [item for item in events
            if (item.get("attrs") or {}).get("attempt_id", last) == last]


def read_events(path: str):
    """Iterate the events of a JSONL stream as written, in order, skipping
    unparseable lines; ``flips`` events stay packed.  A missing file
    yields nothing.

    Telemetry is best-effort observability: a line torn by a crash (or by
    an interleaved write from a pathological filesystem) is dropped rather
    than failing the analysis.
    """
    if not os.path.exists(path):
        return
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                parsed = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(parsed, dict):
                yield parsed


def load_events(path: str) -> list[dict]:
    """A JSONL event stream, decoded: :func:`read_events` followed by
    :func:`decode_events`."""
    return decode_events(read_events(path))


def merge_metrics(events: list[dict]) -> dict[str, dict]:
    """Merged metric values by name: see module docstring for the rules.

    Returns ``{name: {"kind": ..., "value": ...}}`` for counters/gauges and
    ``{name: {"kind": "histogram", "buckets": [...], "counts": [...],
    "sum": ..., "count": ...}}`` for histograms.
    """
    # last snapshot per (host, pid, name); events arrive in append order
    last: dict[tuple, dict] = {}
    for event in events:
        if event.get("type") == "metric":
            last[(event.get("host"), event.get("pid"), event["name"])] = event

    merged: dict[str, dict] = {}
    for (_, _, name), event in sorted(last.items(),
                                      key=lambda kv: str(kv[0])):
        kind = event.get("kind", "counter")
        slot = merged.get(name)
        if kind == "histogram":
            if slot is None:
                merged[name] = {
                    "kind": "histogram",
                    "buckets": list(event.get("buckets", [])),
                    "counts": list(event.get("counts", [])),
                    "sum": float(event.get("sum", 0.0)),
                    "count": int(event.get("count", 0)),
                }
            else:
                counts = event.get("counts", [])
                if len(slot["counts"]) < len(counts):
                    slot["counts"] += [0] * (len(counts) - len(slot["counts"]))
                for i, c in enumerate(counts):
                    slot["counts"][i] += c
                slot["sum"] += float(event.get("sum", 0.0))
                slot["count"] += int(event.get("count", 0))
        elif kind == "gauge":
            merged[name] = {"kind": "gauge", "value": event.get("value", 0)}
        else:
            value = event.get("value", 0)
            if slot is None:
                merged[name] = {"kind": "counter", "value": value}
            else:
                slot["value"] += value
    return merged


@dataclass
class PhaseStat:
    """Aggregate timing of all spans sharing a name."""

    name: str
    count: int = 0
    total_seconds: float = 0.0
    max_seconds: float = 0.0

    @property
    def mean_seconds(self) -> float:
        return self.total_seconds / self.count if self.count else 0.0


class FlipSummary:
    """What a trial's flips add up to: how many there were (``len()``)
    and the distinct layers, bits and precisions they hit."""

    __slots__ = ("count", "layers", "bits", "precisions")

    def __init__(self):
        self.count = 0
        self.layers: set[str] = set()
        self.bits: set[int] = set()
        self.precisions: set[int] = set()

    def __len__(self) -> int:
        return self.count

    def add(self, locations, bits, precisions) -> None:
        """Fold in a run of flips given as equal-length columns."""
        self.count += len(locations)
        self.layers.update(str(location or "?") for location in set(locations))
        self.bits.update(int(bit) for bit in set(bits) if bit is not None)
        self.precisions.update(int(precision) for precision in set(precisions)
                               if precision is not None)

    def add_event(self, event: dict) -> None:
        """Fold in a ``flips`` event's columns (never expanded) or one
        decoded ``flip`` event."""
        attrs = event.get("attrs") or {}
        if event.get("name") == "flips":
            width = min(len(attrs.get(column, ())) for column in FLIP_COLUMNS)
            self.add(*(attrs.get(column, ())[:width]
                       for column in ("location", "bit_msb", "precision")))
        else:
            self.add([attrs.get("location")], [attrs.get("bit_msb")],
                     [attrs.get("precision")])

    @classmethod
    def of(cls, flips: list[dict]) -> "FlipSummary":
        """The summary of decoded ``flip`` event attrs."""
        summary = cls()
        summary.add([flip.get("location") for flip in flips],
                    [flip.get("bit_msb") for flip in flips],
                    [flip.get("precision") for flip in flips])
        return summary


def trial_of(event: dict) -> str | None:
    """The trial *event* belongs to: its ``trial_id`` attribute, else
    none."""
    trial_id = (event.get("attrs") or {}).get("trial_id")
    return None if trial_id is None else str(trial_id)


def trial_events(events, trial_id: str) -> list[dict]:
    """The events of *trial_id*'s last attempt, in stream order."""
    return final_attempt([event for event in events
                          if trial_of(event) == trial_id])


@dataclass
class TrialSummary:
    """One trial's row: the span that timed it joined with what its last
    attempt's ``inject`` spans and ``epoch`` events add up to."""

    trial_id: str
    span_id: str
    status: str
    duration: float
    queue_wait: float | None = None
    run_time: float | None = None
    worker: int | None = None
    attempts: int | None = None
    flips: int | None = None  # successful injections (inject span attrs)
    nev_introduced: int | None = None
    final_accuracy: float | None = None
    collapsed: bool | None = None
    epochs: int | None = None


class _Trial:
    """One trial's running result while a stream is read."""

    __slots__ = ("span", "position", "attempt", "parents", "flips",
                 "successes", "nev", "epochs", "collapsed", "accuracy")

    def __init__(self):
        self.span: dict | None = None  # its closed ``trial`` span
        self.position = 0  # where that span closed in the stream
        self.attempt = None
        self._restart()

    def _restart(self) -> None:
        self.parents: set = set()  # spans its stamped spans opened under
        self.flips = FlipSummary()
        self.successes = self.nev = self.epochs = self.collapsed = None
        self.accuracy = None

    def add(self, event: dict, position: int) -> None:
        attrs = event.get("attrs") or {}
        kind, name = event.get("type"), event.get("name")
        if kind == "span" and name == "trial":
            self.span, self.position = event, position
            return
        attempt = attrs.get("attempt_id")
        if attempt is not None and attempt != self.attempt:
            if self.attempt is not None:
                self._restart()  # the runner ran the trial again
            self.attempt = attempt
        if kind == "span":
            if event.get("parent_id") is not None:
                self.parents.add(event["parent_id"])
            if name == "inject":
                self.successes = (self.successes or 0) + int(
                    attrs.get("successes", 0))
                self.nev = (self.nev or 0) + int(
                    attrs.get("nev_introduced", 0))
        elif kind == "event" and name in ("flips", "flip"):
            self.flips.add_event(event)
        elif kind == "event" and name == "epoch":
            self.epochs = (self.epochs or 0) + 1
            self.collapsed = bool(self.collapsed) or bool(
                attrs.get("collapsed"))
            if attrs.get("test_accuracy") is not None:
                self.accuracy = attrs["test_accuracy"]


class TrialJoin:
    """Every trial of a stream, by :func:`trial_of`, folded to its last
    attempt while the stream is read.

    It keeps one running result per trial and each ``trial_batch`` span,
    never the events.  A trial the runner ran again (a retry, or a failed
    chunk's fallback) restarts its result at the first event of each new
    ``attempt_id``.  A trial is *closed* once the span that timed it is
    in the stream: its ``trial`` span, or the ``trial_batch`` span its
    stamped spans opened under, whose wall time it gets an even share of,
    as its journal record does.
    """

    def __init__(self):
        self._trials: dict[str, _Trial] = {}
        self._batches: dict[str, tuple[int, dict]] = {}
        self._position = 0

    def add(self, event: dict) -> None:
        self._position += 1
        if event.get("type") == "span" and event.get("name") == "trial_batch":
            self._batches[event.get("span_id")] = (self._position, event)
            return
        trial_id = trial_of(event)
        if trial_id is not None:
            self._trials.setdefault(trial_id, _Trial()).add(
                event, self._position)

    def read(self, events) -> "TrialJoin":
        for event in events:
            self.add(event)
        return self

    def flips(self) -> dict[str, FlipSummary]:
        """Each trial's flips, for the trials that have any."""
        return {trial_id: trial.flips
                for trial_id, trial in self._trials.items()
                if trial.flips.count}

    def split_span_ids(self) -> set[str]:
        """The ``trial_batch`` spans whose time is split over trials."""
        return set(self._batches)

    def summaries(self) -> list[TrialSummary]:
        """A row per closed trial, in the order their spans closed."""
        rows = []
        for trial_id, trial in self._trials.items():
            if trial.span is not None:
                span, position = trial.span, trial.position
                attrs = span.get("attrs") or {}
                row = TrialSummary(
                    trial_id=trial_id, span_id=span.get("span_id", ""),
                    status=span.get("status", "?"),
                    duration=float(span.get("dur", 0.0)),
                    queue_wait=attrs.get("queue_wait"),
                    run_time=attrs.get("run_time"),
                    worker=attrs.get("worker"),
                    attempts=attrs.get("attempts"))
            else:
                batch = next((self._batches[parent] for parent
                              in sorted(trial.parents, key=str)
                              if parent in self._batches), None)
                if batch is None:
                    continue  # still running, or its chunk span was lost
                position, span = batch
                size = max(1, int((span.get("attrs") or {}).get("size") or 1))
                row = TrialSummary(
                    trial_id=trial_id, span_id=span.get("span_id", ""),
                    status=span.get("status", "?"),
                    duration=float(span.get("dur", 0.0)) / size)
            row.flips, row.nev_introduced = trial.successes, trial.nev
            row.final_accuracy, row.collapsed = trial.accuracy, trial.collapsed
            row.epochs = trial.epochs
            rows.append((position, row))
        rows.sort(key=lambda pair: pair[0])
        return [row for _, row in rows]

    def index(self) -> dict[str, str]:
        """``{trial_id: span_id}`` of every closed trial's timing span."""
        return {row.trial_id: row.span_id for row in self.summaries()}


@dataclass
class CampaignTelemetry:
    """Everything the ``telemetry`` CLI renders, built from raw events."""

    events: list[dict]
    spans: list[dict] = field(init=False)
    metrics: dict[str, dict] = field(init=False)

    def __post_init__(self):
        self.spans = [e for e in self.events if e.get("type") == "span"]
        self.metrics = merge_metrics(self.events)

    @classmethod
    def from_file(cls, path: str) -> "CampaignTelemetry":
        return cls(load_events(path))

    # -- phase breakdown -----------------------------------------------------
    def phases(self) -> list[PhaseStat]:
        stats: dict[str, PhaseStat] = {}
        for span in self.spans:
            stat = stats.setdefault(span["name"], PhaseStat(span["name"]))
            dur = float(span.get("dur", 0.0))
            stat.count += 1
            stat.total_seconds += dur
            stat.max_seconds = max(stat.max_seconds, dur)
        return sorted(stats.values(), key=lambda s: s.total_seconds,
                      reverse=True)

    # -- trial correlation ---------------------------------------------------
    def trials(self) -> list[TrialSummary]:
        """Every closed trial of the stream (:class:`TrialJoin`)."""
        return TrialJoin().read(self.events).summaries()

    def closed_trial_ids(self) -> set[str]:
        return {t.trial_id for t in self.trials()}

    # -- throughput ----------------------------------------------------------
    def injection_throughput(self) -> tuple[int, float, float]:
        """(total flips, total inject seconds, flips/s) over inject spans."""
        flips = 0
        seconds = 0.0
        for span in self.spans:
            if span.get("name") == "inject":
                flips += int(span.get("attrs", {}).get("successes", 0))
                seconds += float(span.get("dur", 0.0))
        return flips, seconds, (flips / seconds if seconds > 0 else 0.0)

    # -- rendering -----------------------------------------------------------
    def render(self, top: int = 5) -> str:
        lines: list[str] = []
        phases = self.phases()
        lines.append("== time by phase (span totals) ==")
        if phases:
            lines.append(f"{'phase':16s} {'count':>7} {'total s':>10} "
                         f"{'mean s':>9} {'max s':>9}")
            for stat in phases:
                lines.append(
                    f"{stat.name:16s} {stat.count:7d} "
                    f"{stat.total_seconds:10.3f} {stat.mean_seconds:9.3f} "
                    f"{stat.max_seconds:9.3f}"
                )
        else:
            lines.append("(no spans recorded)")

        flips, seconds, rate = self.injection_throughput()
        lines.append("")
        lines.append("== injection throughput ==")
        lines.append(f"{flips} flips in {seconds:.3f}s of inject spans "
                     f"({rate:.1f} flips/s)")

        join = TrialJoin().read(self.events)
        trials, batches = join.summaries(), join.split_span_ids()
        lines.append("")
        lines.append(f"== slowest trials (top {top}) ==")
        for trial in sorted(trials, key=lambda t: t.duration,
                            reverse=True)[:top]:
            wait = (f" wait={trial.queue_wait:.3f}s"
                    if trial.queue_wait is not None else "")
            split = (" (split of trial_batch)" if trial.span_id in batches
                     else "")
            lines.append(f"{trial.duration:9.3f}s  {trial.status:6s} "
                         f"{trial.trial_id}{wait}{split}")
        if not trials:
            lines.append("(no trial spans recorded)")

        lines.append("")
        lines.append("== flip -> outcome (per trial) ==")
        lines.append(f"{'trial':44s} {'flips':>5} {'N-EV':>5} "
                     f"{'final acc':>9} {'collapsed':>9} {'status':>7}")
        for trial in trials:
            accuracy = ("" if trial.final_accuracy is None
                        else f"{trial.final_accuracy:.4f}")
            lines.append(
                f"{trial.trial_id:44s} "
                f"{'' if trial.flips is None else trial.flips:>5} "
                f"{'' if trial.nev_introduced is None else trial.nev_introduced:>5} "
                f"{accuracy:>9} "
                f"{'' if trial.collapsed is None else str(trial.collapsed):>9} "
                f"{trial.status:>7}"
            )

        counters = {name: m["value"] for name, m in self.metrics.items()
                    if m["kind"] == "counter"}
        if counters:
            lines.append("")
            lines.append("== counters (merged across processes) ==")
            for name in sorted(counters):
                value = counters[name]
                rendered = (f"{value:.3f}" if isinstance(value, float)
                            and value != int(value) else f"{int(value)}")
                lines.append(f"{name:36s} {rendered}")
        return "\n".join(lines)
