"""Figure 6 — Propagation of injected errors through training.

TensorFlow + AlexNet: 1000 flips are injected into the first/middle/last
layer of the epoch-20 checkpoint; training resumes for 10 epochs (to "epoch
30"); the resulting weights are compared element-wise against the clean
epoch-30 weights.  The box plots summarize the non-zero differences.  Paper
shape: first-layer injection leaves the widest difference range; the middle
layer absorbs flips almost completely; the last layer sits in between.
"""

from __future__ import annotations

import tempfile

from ..analysis import BoxplotStats, render_boxplots, weight_differences
from ..frameworks import get_facade
from ..injector import CheckpointCorrupter, InjectorConfig
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

EXPERIMENT_ID = "fig6"
TITLE = "Fig 6: Propagation of errors (weight diffs at epoch ckpt+resume)"

DEFAULT_FRAMEWORK = "tf_like"
DEFAULT_MODEL = "alexnet"
BITFLIPS = 1000


def run(scale="tiny", seed: int = 42, framework: str = DEFAULT_FRAMEWORK,
        model: str = DEFAULT_MODEL, cache=None) -> ExperimentResult:
    """Regenerate Fig 6 (weight-difference box plots)."""
    scale = get_scale(scale)
    cache = cache or DEFAULT_CACHE
    spec = SessionSpec(framework, model, scale, seed=seed)
    baseline = cache.get(spec)
    facade = get_facade(framework)
    locations = facade.layer_location_table(build_session_model(spec))
    epochs = scale.resume_epochs

    # Clean continuation to the comparison epoch.
    clean = resume_training(spec, baseline.checkpoint_path, epochs=epochs,
                            keep_model=True)

    stats_by_layer: dict[str, BoxplotStats] = {}
    per_layer_rows = []
    first, middle, last = INJECTION_LAYERS[model]
    with tempfile.TemporaryDirectory() as workdir:
        for label, layer in (("first", first), ("middle", middle),
                             ("last", last)):
            path = corrupted_copy(baseline.checkpoint_path, workdir,
                                  f"prop_{layer}")
            config = InjectorConfig(
                hdf5_file=path,
                injection_attempts=BITFLIPS,
                corruption_mode="bit_range",
                first_bit=SAFE_FIRST_BIT,
                float_precision=32,
                locations_to_corrupt=[locations[layer]],
                use_random_locations=False,
                seed=seed * 6_000,
            )
            CheckpointCorrupter(config).corrupt()
            corrupted = resume_training(spec, path, epochs=epochs,
                                        keep_model=True)
            diffs = weight_differences(clean.model, corrupted.model)
            all_diffs = [d for values in diffs.values() for d in values]
            import numpy as np
            stats = BoxplotStats.from_values(np.asarray(all_diffs))
            stats_by_layer[f"injected@{label} ({layer})"] = stats
            per_layer_rows.append([
                label, layer, stats.count, round(stats.median, 6),
                round(stats.spread, 6), stats.outliers,
            ])

    headers = ["injection point", "layer", "changed weights", "median diff",
               "whisker spread", "outliers"]
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID, title=TITLE, headers=headers,
        rows=per_layer_rows,
        rendered=render_boxplots(stats_by_layer, title=TITLE),
        extra={"scale": scale.name, "stats": stats_by_layer,
               "bitflips": BITFLIPS},
    )
