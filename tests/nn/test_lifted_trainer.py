"""A lone model trains as a stack of one.

A :class:`Trainer` over an unstacked model and a one-trial
:class:`BatchedTrainer` over a stacked copy of it must agree on every
observable bit: each epoch's metrics, the final parameters and state, the
health-probe snapshots, and the epochs handed to the epoch callback.  A
model that collapses must collapse in the same epoch on both paths, get no
test metrics, and stop training; and a three-trial stack whose middle trial
collapses must equal three lone fits.  The batched oracle battery compares
stacks of N with stacks of one, so this file is where the unstacked path
stays pinned.
"""

from __future__ import annotations

import dataclasses
import struct

import numpy as np
import pytest

from repro.batched import stack_models, stack_optimizers
from repro.health import ModelHealthProbe
from repro.nn import (
    SGD,
    BatchedTrainer,
    BatchNorm2D,
    Conv2D,
    Dense,
    Dropout,
    Flatten,
    Model,
    ReLU,
    Sequential,
    Trainer,
    rng,
)

SAMPLES, TEST_SAMPLES, BATCH, EPOCHS = 20, 12, 8, 3


def tiny_cnn(policy: str, scale: float = 1.0,
             poison: bool = False) -> Model:
    """The same initial weights on every call; *scale* multiplies the conv
    weights (to tell trials apart) and *poison* plants an infinity."""
    rng.seed_all(23)
    net = Sequential("cnn", [
        Conv2D("conv", 3, 4, kernel=3, pad=1, policy=policy),
        BatchNorm2D("bn", 4, policy=policy), ReLU("relu"),
        Dropout("drop", 0.25), Flatten("flat"),
        Dense("fc", 4 * 6 * 6, 5, policy=policy),
    ])
    model = Model("cnn", net, num_classes=5, policy=policy)
    weight = model.get_layer("conv").params["W"]
    weight *= np.asarray(scale, dtype=weight.dtype)
    if poison:
        weight[0, 0, 0, 0] = np.inf
    return model


def data():
    gen = np.random.default_rng(5)
    x = gen.standard_normal((SAMPLES + TEST_SAMPLES, 3, 6, 6))
    labels = gen.integers(0, 5, SAMPLES + TEST_SAMPLES)
    x = x.astype(np.float32)
    return (x[:SAMPLES], labels[:SAMPLES],
            x[SAMPLES:], labels[SAMPLES:])


def canon(value):
    """*value* with every float replaced by its IEEE-754 bytes, so ``==``
    compares bits (NaN equals NaN, -0.0 differs from 0.0)."""
    if dataclasses.is_dataclass(value):
        return (type(value).__name__, canon(dataclasses.asdict(value)))
    if isinstance(value, dict):
        return {key: canon(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [canon(item) for item in value]
    if isinstance(value, float):
        return ("float", struct.pack("<d", value))
    return (type(value).__name__, value)


def arrays_of(model: Model) -> dict:
    return {(layer.name, key): value.copy()
            for layer in model.layers()
            for group in (layer.params, layer.state)
            for key, value in group.items()}


def assert_arrays_equal(a: dict, b: dict) -> None:
    assert list(a) == list(b)
    for key, value in a.items():
        other = b[key]
        assert (value.dtype, value.shape) == (other.dtype, other.shape), key
        assert value.tobytes() == other.tobytes(), key


def lone_fit(model: Model):
    """One :class:`Trainer` fit with a probe, a callback and a test set."""
    x, labels, x_test, labels_test = data()
    probe = ModelHealthProbe()
    seen: list[int] = []
    trainer = Trainer(model, SGD(lr=0.05, momentum=0.9), batch_size=BATCH,
                      epoch_callback=lambda epoch, _: seen.append(epoch),
                      health_probe=probe)
    history = trainer.fit(x, labels, EPOCHS, x_test=x_test,
                          labels_test=labels_test)
    return history, probe.history, seen, arrays_of(model)


def stacked_fit(models: list[Model]):
    """One :class:`BatchedTrainer` fit of *models* stacked."""
    x, labels, x_test, labels_test = data()
    probes = [ModelHealthProbe() for _ in models]
    trainer = BatchedTrainer(
        stack_models(models),
        stack_optimizers([SGD(lr=0.05, momentum=0.9) for _ in models]),
        batch_size=BATCH, probes=probes)
    histories = trainer.fit(x, labels, EPOCHS, x_test=x_test,
                            labels_test=labels_test)
    return (histories, [probe.history for probe in probes],
            [trainer.trial_arrays(trial) for trial in range(len(models))])


def assert_same_trial(lone, histories, snapshots, arrays, trial: int):
    history, probe_history, seen, lone_arrays = lone
    assert canon(history.epochs) == canon(histories[trial].epochs)
    assert canon(probe_history) == canon(snapshots[trial])
    assert seen == [m.epoch for m in histories[trial].epochs]
    assert_arrays_equal(lone_arrays, arrays[trial])


@pytest.mark.parametrize("policy", ["float32", "float16"])
def test_lone_fit_equals_a_one_trial_stack(policy):
    lone = lone_fit(tiny_cnn(policy))
    assert lone[2] == list(range(1, EPOCHS + 1))
    assert not lone[0].collapsed
    assert all(m.test_accuracy is not None for m in lone[0].epochs)
    assert_same_trial(lone, *stacked_fit([tiny_cnn(policy)]), trial=0)


def test_a_collapsing_lone_fit_stops_after_its_first_epoch():
    lone = lone_fit(tiny_cnn("float32", poison=True))
    history = lone[0]
    assert history.collapsed
    [metrics] = history.epochs
    assert metrics.epoch == 1 and metrics.collapsed
    assert metrics.test_loss is None and metrics.test_accuracy is None
    assert lone[2] == [1]
    assert len(lone[1]) == 1
    assert_same_trial(lone, *stacked_fit([tiny_cnn("float32",
                                                   poison=True)]), trial=0)


def test_a_stack_with_a_collapsing_middle_trial_equals_lone_fits():
    recipes = [dict(scale=0.5), dict(scale=1.0, poison=True),
               dict(scale=1.5)]
    lone = [lone_fit(tiny_cnn("float32", **recipe)) for recipe in recipes]
    stacked = stacked_fit([tiny_cnn("float32", **recipe)
                           for recipe in recipes])
    assert [len(fit[0].epochs) for fit in lone] == [EPOCHS, 1, EPOCHS]
    for trial, fit in enumerate(lone):
        assert_same_trial(fit, *stacked, trial=trial)
