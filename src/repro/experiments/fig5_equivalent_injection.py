"""Figure 5 — Equivalent injection replayed across frameworks.

The bit-flip sequences recorded while injecting Chainer/AlexNet layers
(Figure 4) are remapped to the PyTorch- and TensorFlow-style checkpoints of
the *same* model and replayed: same number of flips, same bit positions,
same order, inside the equivalent layer.  Paper shape: the other frameworks
absorb the equivalent injections with no visible degradation.
"""

from __future__ import annotations

import math
import os
import tempfile

import numpy as np

from ..analysis import render_curves
from ..frameworks import get_facade
from ..health import classify_curve, last_finite
from ..injector import (
    CheckpointCorrupter,
    InjectorConfig,
    build_location_map,
    replay_log,
)
from ..models import INJECTION_LAYERS
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

EXPERIMENT_ID = "fig5"
TITLE = "Fig 5: Equivalent injection in torch_like and tf_like"

SOURCE_FRAMEWORK = "chainer_like"
TARGET_FRAMEWORKS = ("torch_like", "tf_like")
DEFAULT_MODEL = "alexnet"
BITFLIPS = 1000


def record_source_logs(scale, seed, model, cache, workdir):
    """Corrupt the Chainer checkpoint per layer, saving each injection log."""
    spec = SessionSpec(SOURCE_FRAMEWORK, model, scale, seed=seed)
    baseline = cache.get(spec)
    facade = get_facade(SOURCE_FRAMEWORK)
    locations = facade.layer_location_table(build_session_model(spec))
    logs = {}
    for layer in INJECTION_LAYERS[model]:
        path = corrupted_copy(baseline.checkpoint_path, workdir,
                              f"src_{layer}")
        config = InjectorConfig(
            hdf5_file=path,
            injection_attempts=BITFLIPS,
            corruption_mode="bit_range",
            first_bit=SAFE_FIRST_BIT,
            float_precision=32,
            locations_to_corrupt=[locations[layer]],
            use_random_locations=False,
            seed=seed * 4_000,  # matches fig4's trial-0 campaign
        )
        result = CheckpointCorrupter(config).corrupt()
        log_path = os.path.join(workdir, f"log_{layer}.json")
        result.log.save(log_path)
        logs[layer] = (log_path, result.log)
    return spec, logs


def run(scale="tiny", seed: int = 42, model: str = DEFAULT_MODEL,
        targets=TARGET_FRAMEWORKS, cache=None) -> ExperimentResult:
    """Regenerate Fig 5 (equivalent injection replayed cross-framework)."""
    scale = get_scale(scale)
    cache = cache or DEFAULT_CACHE
    trainings = scale.curve_trainings

    panels: dict[str, dict[str, list[float]]] = {}
    rows = []
    with tempfile.TemporaryDirectory() as workdir:
        source_spec, logs = record_source_logs(scale, seed, model, cache,
                                               workdir)
        source_facade = get_facade(SOURCE_FRAMEWORK)
        source_table = source_facade.layer_location_table(
            build_session_model(source_spec)
        )

        for framework in targets:
            spec = SessionSpec(framework, model, scale, seed=seed)
            baseline = cache.get(spec)
            facade = get_facade(framework)
            target_table = facade.layer_location_table(
                build_session_model(spec)
            )
            location_map = build_location_map(source_table, target_table)
            series: dict[str, list[float]] = {
                "baseline": baseline.resumed_curve[: scale.resume_epochs],
            }
            for layer, (_, log) in logs.items():
                curves = []
                for trial in range(trainings):
                    path = corrupted_copy(
                        baseline.checkpoint_path, workdir,
                        f"{framework}_{layer}_{trial}",
                    )
                    replay = replay_log(path, log,
                                        location_map=location_map,
                                        seed=seed * 9_000 + trial)
                    assert replay.replayed == len(log), (
                        framework, layer, replay.skipped_records,
                    )
                    outcome = resume_training(
                        spec, path, epochs=scale.resume_epochs
                    )
                    curves.append([
                        a if a is not None else np.nan
                        for a in outcome.accuracy_curve
                    ])
                width = max(len(c) for c in curves)
                padded = np.full((len(curves), width), np.nan)
                for i, curve in enumerate(curves):
                    padded[i, :len(curve)] = curve
                series[layer] = [float(v)
                                 for v in np.nanmean(padded, axis=0)]
                verdict = classify_curve(series[layer], series["baseline"])
                final = last_finite(series[layer])
                rows.append([
                    framework, layer,
                    round(final, 4) if not math.isnan(final)
                    else float("nan"),
                    verdict.outcome,
                ])
            panels[framework] = series

    rendered = "\n\n".join(
        render_curves(series, title=f"{TITLE} — {framework}")
        for framework, series in panels.items()
    )
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID, title=TITLE,
        headers=["framework", "injected layer", "final accuracy", "outcome"],
        rows=rows,
        rendered=rendered,
        extra={"scale": scale.name, "curves": panels,
               "source": SOURCE_FRAMEWORK, "bitflips": BITFLIPS},
    )
