"""Offset-resumable ingestion of campaign journals into the atlas.

The ingester walks two kinds of inputs:

* a **campaign store root** (the ``serve`` layout): every campaign under
  ``<root>/campaigns/<cid>/`` contributes its ``journals/*.jsonl`` shard
  journals, joined against the campaign's ``telemetry/*.jsonl`` streams;
* a **bare journal** file (a local ``run_campaign`` artifact), optionally
  with explicit telemetry streams.

Each journal is tailed through the torn-line-tolerant, offset-resumable
:class:`~repro.durable.JsonlTail` — never raw file reads (the
``durable-io`` lint rule pins this) — from the byte offset the catalog
recorded last time.  Telemetry streams are read as written
through :func:`repro.telemetry.read_events`, one event at a time, and
never decoded: each injector ``flips`` line's columns (and each per-flip
``flip`` event of a stream older than that format) fold straight into its
trial's :class:`FlipSummary` — the flip count and the distinct layers,
bits and precisions, all a row needs — so the ingest holds memory per
trial, not per flip.  Flips are keyed on the ``trial_id`` stamp by the
shared trial join (:class:`repro.telemetry.aggregate.TrialJoin`), and
only the last attempt's count when the runner re-ran the trial.  Every trial
record is joined with its summary into one atlas row; rows land in the
store's deterministic segments (see :mod:`repro.atlas.store` for why
re-ingest is always byte-identical, including after a mid-ingest
``kill -9``).
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass

from .. import telemetry
from ..durable import JsonlTail
from ..analysis.campaign import outcome_label
from ..telemetry.aggregate import FlipSummary, TrialJoin
from .store import CHUNK_ROWS, MULTI, UNKNOWN, AtlasStore, segment_name


@dataclass(frozen=True)
class JournalSource:
    """One journal file registered for ingestion."""

    key: str  # stable identity; names the source's segments
    path: str
    campaign: str
    telemetry_paths: tuple[str, ...] = ()


_NO_FLIPS = FlipSummary()


def flips_by_trial(events) -> dict[str, FlipSummary]:
    """Each trial's flips, folded into a :class:`FlipSummary` by the
    shared trial join (:class:`repro.telemetry.aggregate.TrialJoin`).

    *events* are a stream as written (:func:`repro.telemetry.read_events`):
    a ``flips`` event folds column by column, never expanded, and the
    per-flip ``flip`` events of older streams (or decoded ones) fold one
    by one, so either form of the same flips gives the same summaries.
    A flip belongs to the trial its ``trial_id`` stamp names, and to no
    trial without one; a trial the runner re-ran keeps only its last
    attempt's flips.
    """
    return TrialJoin().read(events).flips()


def _unique(distinct: set, *, multi, empty):
    if not distinct:
        return empty
    if len(distinct) > 1:
        return multi
    return next(iter(distinct))


def derive_row(record: dict, campaign: str, flips: FlipSummary) -> dict:
    """Fold one journal record + its trial's flip summary into an atlas
    row."""
    payload = record.get("payload") or {}
    if flips.count:
        mode = "single" if flips.count == 1 else "multi"
    else:
        declared = payload.get("flips")
        if declared is None:
            mode = "?"
        else:
            declared = int(declared)
            mode = ("none" if declared == 0
                    else "single" if declared == 1 else "multi")
    outcome = outcome_label(record)
    return {
        "campaign": campaign,
        "trial_id": str(record.get("trial_id") or "?"),
        "model": str(payload.get("model") or "?"),
        "framework": str(payload.get("framework") or "?"),
        "precision": _unique(flips.precisions, multi=MULTI, empty=UNKNOWN),
        "layer": _unique(flips.layers, multi="(multi)", empty="?"),
        "bit": _unique(flips.bits, multi=MULTI, empty=UNKNOWN),
        "mode": mode,
        "outcome": str(outcome),
        "status": str(record.get("status") or "?"),
        "duration": float(record.get("duration") or 0.0),
    }


class AtlasIngester:
    """Folds registered journal sources into an :class:`AtlasStore`."""

    def __init__(self, store: AtlasStore):
        self.store = store
        self.sources: dict[str, JournalSource] = {}
        self._flip_cache: dict[tuple[str, ...], dict[str, FlipSummary]] = {}

    # -- registration ------------------------------------------------------

    def add_journal(self, path: str, *, campaign: str | None = None,
                    telemetry_paths: tuple[str, ...] = ()) -> str:
        """Register one bare journal; returns its source key."""
        if campaign is None:
            campaign = os.path.splitext(os.path.basename(path))[0]
        key = f"{campaign}/{os.path.basename(path)}"
        self.sources[key] = JournalSource(
            key=key, path=path, campaign=campaign,
            telemetry_paths=tuple(telemetry_paths))
        return key

    def add_campaign_root(self, root: str) -> list[str]:
        """Register every shard journal under a campaign store root."""
        keys: list[str] = []
        campaigns_dir = os.path.join(root, "campaigns")
        try:
            campaign_ids = sorted(os.listdir(campaigns_dir))
        except FileNotFoundError:
            return keys
        for cid in campaign_ids:
            campaign_dir = os.path.join(campaigns_dir, cid)
            if not os.path.isfile(os.path.join(campaign_dir, "spec.json")):
                continue
            telemetry_dir = os.path.join(campaign_dir, "telemetry")
            try:
                streams = tuple(
                    os.path.join(telemetry_dir, name)
                    for name in sorted(os.listdir(telemetry_dir))
                    if name.endswith(".jsonl"))
            except FileNotFoundError:
                streams = ()
            journals_dir = os.path.join(campaign_dir, "journals")
            try:
                journal_names = sorted(os.listdir(journals_dir))
            except FileNotFoundError:
                continue
            for name in journal_names:
                if not name.endswith(".jsonl"):
                    continue
                key = f"{cid}/{name}"
                self.sources[key] = JournalSource(
                    key=key, path=os.path.join(journals_dir, name),
                    campaign=cid, telemetry_paths=streams)
                keys.append(key)
        return keys

    # -- ingestion ---------------------------------------------------------

    def _flips(self, source: JournalSource) -> dict[str, FlipSummary]:
        """Per-trial flip summaries of *source*'s telemetry streams, read
        once per ingest for every journal that shares them."""
        cached = self._flip_cache.get(source.telemetry_paths)
        if cached is None:
            cached = flips_by_trial(itertools.chain.from_iterable(
                map(telemetry.read_events, source.telemetry_paths)))
            self._flip_cache[source.telemetry_paths] = cached
        return cached

    def ingest(self) -> dict:
        """Fold all new journal bytes into the store; returns counters.

        Resumable and idempotent: each source restarts from the catalog's
        recorded offset of its last *full* chunk, re-derives the mutable
        tail chunk, and commits byte-identical segments for anything that
        did not change.  Safe to kill at any point — the next run
        converges on the same final bytes.
        """
        stats = {"sources": 0, "rows": 0, "segments": 0}
        with telemetry.span("atlas.ingest", sources=len(self.sources)):
            self.store.clean_tmp()
            catalog = self.store.catalog()
            catalog.setdefault("sources", {})
            for key in sorted(self.sources):
                source = self.sources[key]
                entry = catalog["sources"].get(key) or {
                    "path": source.path, "full_rows": 0, "full_offset": 0,
                    "consumed": 0, "rows": 0, "segments": [],
                }
                tail = JsonlTail(source.path,
                                 offset=int(entry["full_offset"]))
                pairs = tail.poll_with_offsets()
                if not pairs or tail.consumed == entry.get("consumed"):
                    continue  # nothing new past the last complete line
                stats["sources"] += 1
                flips = self._flips(source)
                rows = [derive_row(record, source.campaign,
                                   flips.get(str(record.get("trial_id")),
                                             _NO_FLIPS))
                        for record, _ in pairs]
                fresh = len(rows) - (int(entry["rows"]) -
                                     int(entry["full_rows"]))
                stats["rows"] += max(0, fresh)
                full_rows = int(entry["full_rows"])
                full_offset = int(entry["full_offset"])
                segments = list(entry["segments"])
                chunk = full_rows // CHUNK_ROWS
                while len(rows) >= CHUNK_ROWS:
                    name = self.store.commit_segment(key, chunk,
                                                     rows[:CHUNK_ROWS])
                    if name not in segments:
                        segments.append(name)
                    stats["segments"] += 1
                    full_rows += CHUNK_ROWS
                    full_offset = pairs[CHUNK_ROWS - 1][1]
                    rows = rows[CHUNK_ROWS:]
                    pairs = pairs[CHUNK_ROWS:]
                    chunk += 1
                if rows:
                    # the mutable tail chunk: same name as its eventual
                    # full version, atomically replaced as it grows
                    name = self.store.commit_segment(key, chunk, rows)
                    if name not in segments:
                        segments.append(name)
                    stats["segments"] += 1
                elif segment_name(key, chunk) in segments:
                    # journal ended exactly on a chunk boundary and the
                    # final full commit above already replaced the tail
                    pass
                catalog["sources"][key] = {
                    "path": source.path,
                    "full_rows": full_rows,
                    "full_offset": full_offset,
                    "consumed": tail.consumed,
                    "rows": full_rows + len(rows),
                    "segments": segments,
                }
                # catalog after segments: a crash between the two leaves
                # orphaned-but-correct segments the next run re-creates
                self.store.write_catalog(catalog)
            telemetry.count("atlas.rows_ingested", stats["rows"])
            telemetry.count("atlas.segments_committed", stats["segments"])
        return stats
