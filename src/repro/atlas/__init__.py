"""The sensitivity atlas: a cross-campaign analytics warehouse.

Campaign journals answer "what happened in *this* run"; the atlas answers
"where is this stack sensitive, across *every* run we have".  It folds any
number of campaign stores and bare journals into one compact, append-only
columnar store — one row per trial, joined with the trial's flip
provenance and health/outcome stamps — and serves sensitivity surfaces
(degraded-rate per ``(layer, bit)``, ``(model, precision)``, any dimension
pair) with Wilson confidence intervals per cell.

Layers, all stdlib + numpy:

* :mod:`repro.atlas.store` — :class:`AtlasStore`, the deterministic
  segment + catalog layout (atomic commits, kill-9-safe, byte-identical
  under re-ingest);
* :mod:`repro.atlas.ingest` — :class:`AtlasIngester`, the offset-resumable
  walk over campaign roots and journals via the torn-line-tolerant
  :class:`~repro.durable.JsonlTail`, joining each trial with a
  summary of its flips folded straight from the injector's one ``flips``
  line of columns per injection (:func:`repro.telemetry.read_events`, no
  per-flip decoding; per-flip ``flip`` lines of older streams fold the
  same way);
* :mod:`repro.atlas.query` — :func:`surface`, :func:`rank_vulnerability`,
  :func:`diff_surfaces`, the rollup engine;
* :mod:`repro.atlas.render` — terminal heatmaps, standalone HTML (inline
  SVG), CSV;
* :mod:`repro.atlas.service` — the lock-guarded live view the serve front
  door mounts at ``GET /atlas``;
* :mod:`repro.atlas.cli` — the ``repro-experiments atlas`` subcommand.
"""

from .ingest import AtlasIngester
from .query import (
    DIMENSIONS,
    Surface,
    SurfaceCell,
    diff_surfaces,
    rank_vulnerability,
    resolve_dimension,
    surface,
)
from .render import surface_csv, surface_html, surface_text
from .store import AtlasStore

__all__ = [
    "AtlasIngester",
    "AtlasStore",
    "DIMENSIONS",
    "Surface",
    "SurfaceCell",
    "diff_surfaces",
    "rank_vulnerability",
    "resolve_dimension",
    "surface",
    "surface_csv",
    "surface_html",
    "surface_text",
]
