"""Error-propagation join: flipped layer → where the health stats move.

The injector records every applied corruption (layer path, bit, value
delta) in one ``flips`` telemetry event per injection, which
:func:`repro.telemetry.decode_events` expands into one ``flip`` event per
flip, and :class:`repro.health.ModelHealthProbe` emits one ``health``
event per epoch (per-layer numerical stats).  This module joins the two
streams: given the events of a corrupted run and its error-free baseline,
it reports — per layer — the first epoch at which any health statistic
diverges from the baseline, generalizing the hand-rolled weight-diff
analysis of ``fig6_error_propagation`` to any probed campaign.

Works on plain event dicts — a loaded JSONL stream or an
``InMemorySink.events`` buffer, whose ``flips`` events the flip filters
decode first; stdlib-only, like the rest of the offline aggregation
layer.

**Per-trial attribution.**  Early revisions of this join assumed one trial
per process, so a pid implicitly identified a trial.  Batched execution
(``--batch-trials N``) broke that: all N trials of a chunk share one pid
and interleave their ``flip``/``health`` events in one stream.  Both
emitters now stamp ``trial_id`` into their event attrs (the injector via
``telemetry.tag_scope``, the probe via ``ModelHealthProbe(trial_id=...)``)
and every stream filter here takes a ``trial_id=`` keyword that keys the
join on that stamp — the only correct per-trial key under batching —
through the trial join every telemetry reader shares
(:func:`repro.telemetry.aggregate.trial_events`): an unstamped event
belongs to no trial, and a trial the runner re-ran (a retry, or a failed
batched chunk's fallback) keeps only its last attempt's events.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..telemetry.aggregate import decode_events, trial_events, trial_of

#: Health stats compared when looking for divergence, in the order they
#: are reported as the divergence reason.  ``min``/``max`` are implied by
#: ``abs_max`` and skipped to keep reasons short.
COMPARED_STATS = ("nan_count", "inf_count", "l2", "abs_max",
                  "zero_fraction", "update_l2")


#: The ``trial_id`` an event was stamped with, if any: the trial join's
#: attribution rule (:func:`repro.telemetry.aggregate.trial_of`).
event_trial_id = trial_of


def _for_trial(events: list[dict], trial_id: str | None) -> list[dict]:
    """*events*, or only *trial_id*'s last-attempt ones when it is given
    (:func:`repro.telemetry.aggregate.trial_events`: an unstamped event
    belongs to no trial)."""
    return events if trial_id is None else trial_events(events, str(trial_id))


def health_events(events: list[dict], *,
                  trial_id: str | None = None) -> list[dict]:
    """The ``health`` point events of a stream, in order."""
    return _for_trial(
        [e for e in events
         if e.get("type") == "event" and e.get("name") == "health"],
        trial_id)


def flip_events(events: list[dict], *,
                trial_id: str | None = None) -> list[dict]:
    """The injector's provenance as decoded ``flip`` events, in order."""
    return _for_trial(
        [e for e in decode_events(events)
         if e.get("type") == "event" and e.get("name") == "flip"],
        trial_id)


def health_series(events: list[dict], *, trial_id: str | None = None
                  ) -> dict[str, list[tuple[int, dict]]]:
    """Per-layer ``[(epoch, stats), ...]`` series from a stream's health
    events, in emission order."""
    series: dict[str, list[tuple[int, dict]]] = {}
    for event in health_events(events, trial_id=trial_id):
        attrs = event.get("attrs", {})
        epoch = int(attrs.get("epoch", 0))
        for layer, stats in (attrs.get("layers") or {}).items():
            series.setdefault(layer, []).append((epoch, stats))
    return series


def flipped_layers(events: list[dict], *,
                   trial_id: str | None = None) -> dict[str, int]:
    """Flip counts per corrupted layer path, from ``flip`` events."""
    counts: dict[str, int] = {}
    for event in flip_events(events, trial_id=trial_id):
        location = event.get("attrs", {}).get("location") or "?"
        counts[location] = counts.get(location, 0) + 1
    return counts


def stream_trial_ids(events: list[dict]) -> list[str]:
    """Distinct ``trial_id`` stamps across a stream's flip/health events,
    in first-seen order — the iteration key for per-trial reports over a
    batched chunk's shared stream."""
    seen: list[str] = []
    for event in decode_events(events):
        if event.get("type") != "event" or \
                event.get("name") not in ("flip", "health"):
            continue
        trial_id = event_trial_id(event)
        if trial_id is not None and trial_id not in seen:
            seen.append(trial_id)
    return seen


def match_layer(flip_location: str, health_layers) -> str | None:
    """Map a checkpoint dataset path onto a probe layer key.

    Flip locations are checkpoint paths (``predictor/conv1/W``) while the
    probe keys layers as ``<layer>/<param>`` (``conv1/W``) — the checkpoint
    path carries an extra framework-root prefix.  The probe key whose
    ``/``-separated parts form a suffix of the location's parts wins
    (longest match first).
    """
    flip_parts = flip_location.split("/")
    best: str | None = None
    best_len = 0
    for key in health_layers:
        parts = key.split("/")
        if len(parts) <= len(flip_parts) and \
                flip_parts[-len(parts):] == parts and len(parts) > best_len:
            best, best_len = key, len(parts)
    return best


def _stats_differ(a: dict, b: dict, *, rtol: float, atol: float) -> str | None:
    """The first compared stat where *a* and *b* disagree, else None."""
    for key in COMPARED_STATS:
        left, right = a.get(key), b.get(key)
        if left is None and right is None:
            continue
        if left is None or right is None:
            return key
        left, right = float(left), float(right)
        left_nan, right_nan = math.isnan(left), math.isnan(right)
        if left_nan or right_nan:
            if left_nan != right_nan:
                return key
            continue
        if not math.isclose(left, right, rel_tol=rtol, abs_tol=atol):
            return key
    return None


def first_divergence(corrupted_events: list[dict],
                     baseline_events: list[dict],
                     *, rtol: float = 1e-9, atol: float = 0.0,
                     trial_id: str | None = None,
                     baseline_trial_id: str | None = None
                     ) -> dict[str, tuple[int, str] | None]:
    """Per layer: the first ``(epoch, stat)`` where the corrupted run's
    health stats leave the baseline's, or ``None`` if they never do.

    Epochs present in only one stream (e.g. the corrupted run collapsed
    and stopped early) are compared as far as both streams reach.
    *trial_id* / *baseline_trial_id* select one trial's events from shared
    (batched) streams.
    """
    corrupted = health_series(corrupted_events, trial_id=trial_id)
    baseline = health_series(baseline_events, trial_id=baseline_trial_id)
    result: dict[str, tuple[int, str] | None] = {}
    for layer in corrupted:
        result[layer] = None
        base = dict(baseline.get(layer, ()))
        for epoch, stats in corrupted[layer]:
            reference = base.get(epoch)
            if reference is None:
                continue
            stat = _stats_differ(stats, reference, rtol=rtol, atol=atol)
            if stat is not None:
                result[layer] = (epoch, stat)
                break
    return result


@dataclass
class PropagationReport:
    """The flip → first-health-movement join of one corrupted run."""

    flipped: dict[str, int]  # flip location -> flip count
    first_moved: dict[str, tuple[int, str] | None]  # layer -> (epoch, stat)
    injected_layers: list[str] = field(default_factory=list)  # probe keys

    def moved(self) -> list[tuple[str, int, str]]:
        """``(layer, epoch, stat)`` for every layer that diverged, ordered
        by divergence epoch (injected layers first within an epoch)."""
        rows = [(layer, epoch, stat)
                for layer, hit in self.first_moved.items()
                if hit is not None
                for epoch, stat in [hit]]
        return sorted(rows, key=lambda row: (
            row[1], row[0] not in self.injected_layers, row[0]))

    def rows(self) -> list[list[object]]:
        out: list[list[object]] = []
        for layer, epoch, stat in self.moved():
            out.append([layer, epoch, stat,
                        "injected" if layer in self.injected_layers
                        else "propagated"])
        return out

    def render(self) -> str:
        lines = ["flipped: " + (", ".join(
            f"{location} x{count}"
            for location, count in sorted(self.flipped.items()))
            or "(none)")]
        rows = self.rows()
        if not rows:
            lines.append("no layer diverged from the baseline")
        for layer, epoch, stat, origin in rows:
            lines.append(f"  epoch {epoch:>3}  {layer:<32} {stat:<13} "
                         f"[{origin}]")
        return "\n".join(lines)


def propagation_report(corrupted_events: list[dict],
                       baseline_events: list[dict],
                       *, rtol: float = 1e-9,
                       atol: float = 0.0,
                       trial_id: str | None = None,
                       baseline_trial_id: str | None = None
                       ) -> PropagationReport:
    """Join a corrupted run's flip provenance with its health divergence.

    *corrupted_events* must hold the run's flip provenance (``flips`` or
    decoded ``flip`` events) and ``health`` events;
    *baseline_events* the error-free run's ``health`` events (its probe
    must have observed the same epochs).  When the streams come from a
    batched chunk (N trials, one pid), pass *trial_id* — the join is then
    keyed on the ``trial_id`` stamped into both event streams instead of
    mis-attributing sibling trials' events to one report.
    """
    divergence = first_divergence(corrupted_events, baseline_events,
                                  rtol=rtol, atol=atol, trial_id=trial_id,
                                  baseline_trial_id=baseline_trial_id)
    flips = flipped_layers(corrupted_events, trial_id=trial_id)
    injected = []
    for location in flips:
        key = match_layer(location, divergence)
        if key is not None and key not in injected:
            injected.append(key)
    return PropagationReport(flipped=flips, first_moved=divergence,
                             injected_layers=injected)
