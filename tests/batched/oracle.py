"""Shared oracle helpers for the batched-execution test battery.

The battery's single invariant: every per-trial observable of a stack of N
— final weights, per-epoch health-probe stats, accuracy curve, collapse
verdict, outcome label — is *bytewise* equal to the same corrupted
checkpoint trained alone, as a stack of one (``resume_training``).  Plain ``==`` is the wrong tool for half of
those: NaN never equals itself, and every first probe snapshot carries an
``update_l2`` of NaN, so the comparisons here are NaN-aware (two NaNs in
the same slot count as equal) and arrays compare via ``tobytes()``.
"""

from __future__ import annotations

import math

import numpy as np

from repro.experiments.common import corrupted_copy, weights_root
from repro.injector import CheckpointCorrupter, InjectorConfig
from repro.nn import POLICIES

#: MSB-order bit 1 (exponent MSB) with many attempts and the NaN guard off:
#: reliably produces a collapsing trial for mid-batch NaN/Inf coverage.
COLLAPSE_RECIPE = dict(injection_attempts=80, first_bit=1, last_bit=1)


def feq(a, b) -> bool:
    """NaN-aware scalar/sequence equality (None equals only None)."""
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(feq(x, y) for x, y in zip(a, b))
    if isinstance(a, float) and isinstance(b, float):
        return (math.isnan(a) and math.isnan(b)) or a == b
    return a is b or a == b


def stats_equal(a: dict, b: dict) -> bool:
    """NaN-aware equality of two flat stat dicts (``array_stats`` output)."""
    return list(a) == list(b) and all(feq(a[k], b[k]) for k in a)


def snapshots_equal(sa, sb) -> bool:
    """NaN-aware equality of two :class:`~repro.health.HealthSnapshot`\\ s."""
    return (sa.epoch == sb.epoch
            and list(sa.layers) == list(sb.layers)
            and all(stats_equal(sa.layers[k], sb.layers[k])
                    for k in sa.layers)
            and stats_equal(sa.summary, sb.summary))


def assert_histories_equal(ha, hb, label: str = "") -> None:
    assert len(ha) == len(hb), f"{label}: {len(ha)} vs {len(hb)} snapshots"
    for sa, sb in zip(ha, hb):
        assert snapshots_equal(sa, sb), \
            f"{label}: probe snapshot at epoch {sa.epoch} differs"


def model_arrays(model) -> dict[tuple[str, str], np.ndarray]:
    """Every (layer, key) -> array of a model, params and state together."""
    arrays: dict[tuple[str, str], np.ndarray] = {}
    for layer in model.layers():
        for key, value in layer.params.items():
            arrays[(layer.name, key)] = value
        for key, value in layer.state.items():
            arrays[(layer.name, key)] = value
    return arrays


def assert_models_bitwise_equal(ma, mb, label: str = "") -> None:
    arrays_a, arrays_b = model_arrays(ma), model_arrays(mb)
    assert list(arrays_a) == list(arrays_b)
    for key, value in arrays_a.items():
        other = arrays_b[key]
        assert value.dtype == other.dtype and value.shape == other.shape, \
            f"{label}: {key} shape/dtype differs"
        assert value.tobytes() == other.tobytes(), \
            f"{label}: {key} bytes differ"


def corrupt_trial_copy(spec, checkpoint: str, workdir: str, index: int,
                       seed: int, *, injection_attempts: int = 1,
                       first_bit: int = 2,
                       last_bit: int | None = None) -> str:
    """One trial's corrupted checkpoint copy, fig3-style bit-range flips.

    ``allow_NaN_values=True`` so exponent-MSB recipes may inject NaN/Inf —
    the collapse coverage the oracle battery needs.
    """
    path = corrupted_copy(checkpoint, workdir, f"trial-{index}")
    config = InjectorConfig(
        hdf5_file=path,
        injection_attempts=injection_attempts,
        corruption_mode="bit_range",
        first_bit=first_bit,
        last_bit=last_bit,
        float_precision=POLICIES[spec.policy].precision,
        locations_to_corrupt=[weights_root(spec.framework)],
        use_random_locations=False,
        allow_NaN_values=True,
        seed=seed,
    )
    CheckpointCorrupter(config).corrupt()
    return path
