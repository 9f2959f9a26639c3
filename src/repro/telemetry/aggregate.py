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

Metric merging rules (the counterpart of the registry's flush semantics):
snapshots are cumulative per process, so the aggregator keeps the **last**
snapshot per ``(host, pid, name)`` and sums across processes.  Counters
and histogram bucket counts add; gauges keep the most recent value.  The
host component matters once fleet merging (:mod:`repro.telemetry.fleet`)
concatenates streams from workers on different machines, where two
unrelated processes can share a pid.
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


@dataclass
class TrialSummary:
    """One trial span joined with its nested inject/train children."""

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
    def _descendants(self) -> dict[str, list[dict]]:
        children: dict[str, list[dict]] = {}
        for span in self.spans:
            parent = span.get("parent_id")
            if parent:
                children.setdefault(parent, []).append(span)
        return children

    def trials(self) -> list[TrialSummary]:
        """Trial spans joined to their nested inject and train spans.

        The join walks the span tree (not just direct children), so a
        harness that wraps injection in intermediate spans still correlates.
        A retried trial keeps one ``trial`` span across its attempts; only
        its last attempt's spans count (:func:`final_attempt`), so its
        flips are counted once.
        """
        children = self._descendants()
        position = {span.get("span_id"): pos
                    for pos, span in enumerate(self.spans)}
        out: list[TrialSummary] = []
        for span in self.spans:
            if span.get("name") != "trial":
                continue
            attrs = span.get("attrs", {})
            summary = TrialSummary(
                trial_id=attrs.get("trial_id", "?"),
                span_id=span.get("span_id", ""),
                status=span.get("status", "?"),
                duration=float(span.get("dur", 0.0)),
                queue_wait=attrs.get("queue_wait"),
                run_time=attrs.get("run_time"),
                worker=attrs.get("worker"),
                attempts=attrs.get("attempts"),
            )
            below, stack = [], list(children.get(summary.span_id, ()))
            while stack:
                child = stack.pop()
                below.append(child)
                stack.extend(children.get(child.get("span_id", ""), ()))
            below.sort(key=lambda child: position[child.get("span_id")])
            for child in final_attempt(below):
                cattrs = child.get("attrs", {})
                if child.get("name") == "inject":
                    summary.flips = (summary.flips or 0) + int(
                        cattrs.get("successes", 0))
                    summary.nev_introduced = (summary.nev_introduced or 0) \
                        + int(cattrs.get("nev_introduced", 0))
                elif child.get("name") == "train":
                    summary.final_accuracy = cattrs.get("final_accuracy")
                    summary.collapsed = cattrs.get("collapsed")
                    summary.epochs = cattrs.get("epochs_run",
                                                cattrs.get("epochs"))
            out.append(summary)
        return out

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

        trials = self.trials()
        lines.append("")
        lines.append(f"== slowest trials (top {top}) ==")
        for trial in sorted(trials, key=lambda t: t.duration,
                            reverse=True)[:top]:
            wait = (f" wait={trial.queue_wait:.3f}s"
                    if trial.queue_wait is not None else "")
            lines.append(f"{trial.duration:9.3f}s  {trial.status:6s} "
                         f"{trial.trial_id}{wait}")
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
