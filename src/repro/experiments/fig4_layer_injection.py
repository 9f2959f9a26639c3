"""Figure 4 — Fault injection into specific layers of AlexNet (Chainer).

1000 bit-flips are confined to the first, a middle, or the last layer via
``locations_to_corrupt``.  Paper shape: first-layer injection causes the
largest (transient) degradation and then recovers; middle- and last-layer
injections barely register.

This experiment also produces the per-layer injection logs that Figure 5
replays on the other frameworks (equivalent injection).
"""

from __future__ import annotations

import math
import os
import tempfile

import numpy as np

from ..analysis import render_curves
from ..injector import CheckpointCorrupter, InjectorConfig
from ..models import INJECTION_LAYERS
from ..frameworks import get_facade
from .common import (
    DEFAULT_CACHE,
    SAFE_FIRST_BIT,
    ExperimentResult,
    SessionSpec,
    build_session_model,
    corrupted_copy,
    get_scale,
    resume_training,
)

EXPERIMENT_ID = "fig4"
TITLE = "Fig 4: 1000 bit-flips injected into specific AlexNet layers"

DEFAULT_FRAMEWORK = "chainer_like"
DEFAULT_MODEL = "alexnet"
BITFLIPS = 1000


def layer_injection_curve(
    spec: SessionSpec, baseline, layer_path: str, workdir: str,
    trainings: int, save_log_to: str | None = None,
    bitflips: int = BITFLIPS, first_bit: int = SAFE_FIRST_BIT,
) -> list[float]:
    """Average resumed accuracy with flips confined to *layer_path*."""
    epochs = spec.scale.resume_epochs
    curves = []
    for trial in range(trainings):
        path = corrupted_copy(
            baseline.checkpoint_path, workdir,
            f"{spec.framework}_{layer_path.replace('/', '-')}_{trial}",
        )
        config = InjectorConfig(
            hdf5_file=path,
            injection_attempts=bitflips,
            corruption_mode="bit_range",
            first_bit=first_bit,
            float_precision=32,
            locations_to_corrupt=[layer_path],
            use_random_locations=False,
            seed=spec.seed * 4_000 + trial,
        )
        result = CheckpointCorrupter(config).corrupt()
        if save_log_to and trial == 0:
            result.log.save(save_log_to)
        outcome = resume_training(spec, path, epochs=epochs)
        curves.append([a if a is not None else np.nan
                       for a in outcome.accuracy_curve])
    width = max(len(c) for c in curves)
    padded = np.full((len(curves), width), np.nan)
    for i, curve in enumerate(curves):
        padded[i, :len(curve)] = curve
    return [float(v) for v in np.nanmean(padded, axis=0)]


def run(scale="tiny", seed: int = 42, framework: str = DEFAULT_FRAMEWORK,
        model: str = DEFAULT_MODEL, cache=None,
        log_dir: str | None = None) -> ExperimentResult:
    """Regenerate Fig 4 (per-layer injection curves)."""
    scale = get_scale(scale)
    cache = cache or DEFAULT_CACHE
    trainings = scale.curve_trainings
    spec = SessionSpec(framework, model, scale, seed=seed)
    baseline = cache.get(spec)
    facade = get_facade(framework)
    locations = facade.layer_location_table(build_session_model(spec))
    first, middle, last = INJECTION_LAYERS[model]

    series: dict[str, list[float]] = {
        "baseline": baseline.resumed_curve[: scale.resume_epochs],
    }
    logs: dict[str, str] = {}
    rows = []
    with tempfile.TemporaryDirectory() as workdir:
        for label, layer in (("first layer", first),
                             ("middle layer", middle),
                             ("last layer", last)):
            log_path = None
            if log_dir:
                log_path = os.path.join(log_dir, f"fig4_{layer}.json")
                logs[layer] = log_path
            series[label] = layer_injection_curve(
                spec, baseline, locations[layer], workdir, trainings,
                save_log_to=log_path,
            )
            finite = [v for v in series[label] if not math.isnan(v)]
            rows.append([label, layer,
                         round(finite[-1], 4) if finite else float("nan")])

    return ExperimentResult(
        experiment_id=EXPERIMENT_ID, title=TITLE,
        headers=["series", "layer", "final accuracy"], rows=rows,
        rendered=render_curves(series, title=TITLE),
        extra={"scale": scale.name, "curves": series, "logs": logs,
               "layers": {"first": first, "middle": middle, "last": last}},
    )
