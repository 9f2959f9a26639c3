"""A flip that leaves a signaling NaN raises no warning downstream.

Casting a float32 signaling NaN to float64 quiets it, which numpy reports
as ``RuntimeWarning: invalid value encountered in cast``.  The value is
right; the warning was noise on every collapse trial's stream.  Each call
site that reads a flipped array is fed such a NaN here with
RuntimeWarnings turned into errors (``pyproject.toml`` ignores this
message suite-wide, so the filter has to be local).
"""

from __future__ import annotations

import contextlib
import math
import warnings

import numpy as np
import pytest

from repro import hdf5
from repro.batched import stack_models, stack_optimizers
from repro.health import ModelHealthProbe
from repro.hdf5.inspect import format_dataset
from repro.health.probe import array_stats
from repro.injector import CheckpointCorrupter, InjectorConfig
from repro.nn import (
    SGD,
    BatchedTrainer,
    Dense,
    Flatten,
    Model,
    Sequential,
    rng,
)

#: a float32 signaling NaN: exponent all ones, quiet bit clear
SNAN_BITS = 0x7FA00000


def snan(count: int = 1) -> np.ndarray:
    return np.full(count, SNAN_BITS, dtype=np.uint32).view(np.float32)


@contextlib.contextmanager
def runtime_warnings_raise():
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        yield


def tiny_model() -> Model:
    rng.seed_all(5)
    net = Sequential("net", [Flatten("flat"), Dense("fc", 12, 3)])
    return Model("net", net, num_classes=3)


def poisoned_model() -> Model:
    model = tiny_model()
    model.get_layer("fc").params["W"].reshape(-1)[0] = snan()[0]
    return model


def test_the_bare_cast_warns():
    """Without this the tests below would pass for want of a warning."""
    with runtime_warnings_raise(), pytest.raises(RuntimeWarning):
        snan().astype(np.float64)


def test_injector_records_signaling_nans(tmp_path):
    path = str(tmp_path / "snan.h5")
    with hdf5.File(path, "w") as f:
        f.create_dataset("model/fc/W", data=snan(8))
    # flipping the last mantissa bit keeps both values signaling NaNs
    config = InjectorConfig(hdf5_file=path, float_precision=32, seed=1,
                            corruption_mode="bit_range", first_bit=31,
                            last_bit=31, injection_attempts=4,
                            allow_NaN_values=True)
    with runtime_warnings_raise():
        records = CheckpointCorrupter(config,
                                      engine="vectorized").corrupt().log.records
    assert len(records) == 4
    assert all(math.isnan(r.old_value) and math.isnan(r.new_value)
               for r in records)


def test_inspect_counts_signaling_nans(tmp_path):
    path = str(tmp_path / "snan.h5")
    with hdf5.File(path, "w") as f:
        f.create_dataset("model/fc/W", data=snan(8))
    with runtime_warnings_raise(), hdf5.File(path, "r") as f:
        line = format_dataset(f["model/fc/W"], stats=True)
    assert line.endswith("!N-EV=8")


def test_health_probe_observes_a_signaling_nan():
    with runtime_warnings_raise():
        snapshot = ModelHealthProbe(emit=False).observe(poisoned_model())
        stats = array_stats(snan(3))
    assert snapshot.layers["fc/W"]["nan_count"] == 1
    assert stats["nan_count"] == 3


def test_finiteness_checks_see_a_signaling_nan():
    models = [tiny_model(), poisoned_model()]
    with runtime_warnings_raise():
        assert not models[0].has_nonfinite_parameters()
        assert models[1].has_nonfinite_parameters()
        trainer = BatchedTrainer(stack_models(models),
                                 stack_optimizers([SGD(), SGD()]))
        assert trainer._nonfinite_trials().tolist() == [False, True]

