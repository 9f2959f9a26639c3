"""Per-layer numerical health probes for a training model.

``ModelHealthProbe`` snapshots every weight array (and optionally the
optimizer's slot arrays) once per epoch: NaN/Inf counts, min/max/abs-max,
L2 norm, zero fraction, and the update magnitude against the previous
epoch's snapshot.  The point is to see a corruption *move through* the
network between injection and verdict — which layers go non-finite first,
where the update norms spike — instead of only observing the final
accuracy (the "graceless degradation" coarse checks miss).

Invariants, shared with the rest of the instrumentation stack:

* **read-only** — stats are computed from copies/reductions; no weight or
  optimizer byte changes;
* **no RNG** — nothing here draws randomness, so probed campaigns are
  bit-identical to unprobed ones (locked in by
  ``tests/health/test_probe.py`` and the fig3 identity test);
* **bounded cost** — one float64 reduction pass plus one retained copy per
  array; the regression bench (``benchmarks/bench_health_probe.py``) keeps
  the per-epoch overhead under 5 %.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .. import telemetry

#: Stat keys every layer entry carries (update_l2 is NaN on the first
#: observation — there is no previous snapshot to diff against).
STAT_KEYS = ("nan_count", "inf_count", "min", "max", "abs_max", "l2",
             "zero_fraction", "update_l2")


def array_stats(array: np.ndarray,
                previous: np.ndarray | None = None) -> dict[str, float]:
    """Numerical health stats of one array, reduced in float64.

    Order statistics (min/max/abs-max) and the L2 norm are taken over the
    *finite* elements so one NaN doesn't blank the rest of the signal; the
    NaN/Inf counts report the non-finite population separately.
    """
    with np.errstate(invalid="ignore"):  # a signaling NaN quiets in the cast
        flat = np.asarray(array, dtype=np.float64).reshape(-1)
    finite_mask = np.isfinite(flat)
    nan_count = int(np.isnan(flat).sum())
    inf_count = int(np.isinf(flat).sum())
    stats: dict[str, float] = {
        "size": int(flat.size),
        "nan_count": nan_count,
        "inf_count": inf_count,
        # exact-zero count is intentional: a flipped mantissa bit turns
        # 0.0 into a subnormal, which must NOT count as zero
        "zero_fraction": float(
            (flat == 0.0).sum() / flat.size  # repro-lint: disable=float-eq
        ) if flat.size else 0.0,
    }
    if finite_mask.all():
        finite = flat
    else:
        finite = flat[finite_mask]
    if finite.size:
        stats["min"] = float(finite.min())
        stats["max"] = float(finite.max())
        stats["abs_max"] = float(np.abs(finite).max())
        stats["l2"] = float(np.sqrt(np.square(finite).sum()))
    else:
        stats["min"] = stats["max"] = stats["abs_max"] = float("nan")
        stats["l2"] = float("nan")
    if previous is not None and previous.shape == flat.shape:
        diff = flat - previous
        diff_finite = diff[np.isfinite(diff)]
        stats["update_l2"] = (float(np.sqrt(np.square(diff_finite).sum()))
                              if diff_finite.size else float("nan"))
    else:
        stats["update_l2"] = float("nan")
    return stats


@dataclass
class HealthSnapshot:
    """All per-array stats of one observation."""

    epoch: int
    layers: dict[str, dict[str, float]]
    summary: dict[str, float] = field(default_factory=dict)

    def nonfinite_layers(self) -> list[str]:
        return [name for name, stats in self.layers.items()
                if stats["nan_count"] or stats["inf_count"]]


def summarize(layers: dict[str, dict[str, float]]) -> dict[str, float]:
    """Model-wide rollup of per-layer stats (what the `health` event and
    the watcher's one-line display lead with)."""
    nan_count = sum(s["nan_count"] for s in layers.values())
    inf_count = sum(s["inf_count"] for s in layers.values())
    size = sum(s["size"] for s in layers.values())
    abs_maxes = [s["abs_max"] for s in layers.values()
                 if np.isfinite(s["abs_max"])]
    l2s = [s["l2"] for s in layers.values() if np.isfinite(s["l2"])]
    updates = [s["update_l2"] for s in layers.values()
               if np.isfinite(s["update_l2"])]
    return {
        "params": size,
        "nan_count": nan_count,
        "inf_count": inf_count,
        "nonfinite_layers": sum(
            1 for s in layers.values() if s["nan_count"] or s["inf_count"]),
        "abs_max": max(abs_maxes) if abs_maxes else float("nan"),
        "l2": float(np.sqrt(np.square(l2s).sum())) if l2s else float("nan"),
        "update_l2": (float(np.sqrt(np.square(updates).sum()))
                      if updates else float("nan")),
    }


class ModelHealthProbe:
    """Per-epoch numerical health snapshots of a model (+ optimizer).

    Duck-typed against :class:`repro.nn.model.Model`
    (``named_parameters()``/``named_state()``) and
    :class:`repro.nn.optim.Optimizer` (``state_arrays()``), so ``nn`` needs
    no import of this package — the trainer just calls
    ``probe.observe(model, optimizer, epoch)`` when one is attached.
    """

    def __init__(self, *, include_optimizer: bool = True,
                 include_state: bool = True, track_updates: bool = True,
                 emit: bool = True, keep_history: bool = True,
                 trial_id: str | None = None):
        self.include_optimizer = include_optimizer
        self.include_state = include_state
        self.track_updates = track_updates
        self.emit = emit
        self.keep_history = keep_history
        #: stamped onto every emitted ``health`` event so per-trial
        #: attribution survives batched execution, where N trials' probes
        #: interleave their events in one process stream
        self.trial_id = trial_id
        self.history: list[HealthSnapshot] = []
        self._previous: dict[str, np.ndarray] = {}

    def _arrays(self, model, optimizer) -> dict[str, np.ndarray]:
        arrays: dict[str, np.ndarray] = {}
        for (layer, key), value in model.named_parameters().items():
            arrays[f"{layer}/{key}"] = value
        if self.include_state:
            for (layer, key), value in model.named_state().items():
                arrays[f"{layer}/{key}"] = value
        if self.include_optimizer and optimizer is not None:
            for key, value in optimizer.state_arrays().items():
                arrays[f"optimizer/{key}"] = value
        return arrays

    def observe(self, model, optimizer=None,
                epoch: int = 0) -> HealthSnapshot:
        """Snapshot *model* (and *optimizer*) health; emit a ``health``
        telemetry event when a pipeline is configured."""
        layers: dict[str, dict[str, float]] = {}
        fresh: dict[str, np.ndarray] = {}
        for name, array in self._arrays(model, optimizer).items():
            with np.errstate(invalid="ignore"):  # quiets a signaling NaN
                flat = np.asarray(array, dtype=np.float64).reshape(-1).copy()
            layers[name] = array_stats(flat, self._previous.get(name))
            if self.track_updates:
                fresh[name] = flat
        self._previous = fresh
        snapshot = HealthSnapshot(epoch=epoch, layers=layers,
                                  summary=summarize(layers))
        if self.keep_history:
            self.history.append(snapshot)
        if self.emit and telemetry.enabled():
            extra = ({"trial_id": self.trial_id}
                     if self.trial_id is not None else {})
            telemetry.event("health", epoch=epoch, layers=layers,
                            **extra, **snapshot.summary)
        return snapshot

    def reset(self) -> None:
        self.history.clear()
        self._previous.clear()
