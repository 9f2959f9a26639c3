"""A test-set evaluation equals one forward per eval batch, bit for bit.

:meth:`BatchedTrainer._evaluate` and the test metrics of a full
:meth:`~BatchedTrainer.fit` are compared with a reference written out here:
``model.forward`` on one eval batch at a time, then softmax, cross-entropy
and accuracy over the concatenated logits.  The cases cover the paper's
three models (tiny widths), batch sizes 1, 3 and 32 over a test set with a
ragged last batch, a lone model (``Trainer``) and stacks of 2 and 5 trials,
the float16, float32 and float64 policies, and a stack that prunes a
collapsed trial between two evaluations.
"""

from __future__ import annotations

import struct

import numpy as np
import pytest

from repro.batched import stack_models, stack_optimizers
from repro.models import build_model
from repro.nn import SGD, BatchedTrainer, Trainer, functional as F, rng

#: 37 test images: 12 batches of 3 and a ragged one, one of 32 and a
#: ragged one of 5
TEST_SAMPLES, TRAIN_SAMPLES = 37, 6
BUILDS = {
    "alexnet": dict(width_mult=0.0625, image_size=8),
    "vgg16": dict(width_mult=0.0625, image_size=16),
    "resnet50": dict(width_mult=0.03125, image_size=8),
}


def tiny(name: str, policy: str, seed: int, poison: bool = False):
    """A tiny model with its own weights per *seed*, random running
    statistics (so eval-mode batch norm is no identity), and with *poison*
    an infinity in its first weight."""
    rng.seed_all(seed)
    model = build_model(name, num_classes=10, policy=policy, **BUILDS[name])
    gen = np.random.default_rng(seed)
    for layer in model.layers():
        for key, value in layer.state.items():
            draw = gen.uniform(0.5, 1.5, value.shape) if key.endswith(
                "var") else gen.normal(0.0, 0.1, value.shape)
            layer.state[key] = draw.astype(value.dtype)
    if poison:
        first = model.parameter_layers()[0]
        first.params["W"].reshape(-1)[0] = np.inf
    return model


def data(name: str):
    size = BUILDS[name]["image_size"]
    gen = np.random.default_rng(7)
    count = TRAIN_SAMPLES + TEST_SAMPLES
    x = gen.standard_normal((count, 3, size, size)).astype(np.float32)
    labels = gen.integers(0, 10, count)
    return (x[:TRAIN_SAMPLES], labels[:TRAIN_SAMPLES],
            x[TRAIN_SAMPLES:], labels[TRAIN_SAMPLES:])


def trainer_for(name: str, policy: str, trials: int, batch: int,
                poisoned: int | None = None):
    """``Trainer`` for one trial, else a ``BatchedTrainer`` over a stack."""
    models = [tiny(name, policy, seed=11 + t, poison=t == poisoned)
              for t in range(trials)]
    if trials == 1:
        return Trainer(models[0], SGD(lr=0.01, momentum=0.9),
                       batch_size=batch)
    return BatchedTrainer(
        stack_models(models),
        stack_optimizers([SGD(lr=0.01, momentum=0.9) for _ in models]),
        batch_size=batch)


def reference(trainer, x: np.ndarray, labels: np.ndarray):
    """Per-trial (loss, accuracy): one forward per eval batch, nothing
    folded, then the loss helpers over the concatenated logits."""
    outputs = []
    for start in range(0, x.shape[0], trainer.batch_size):
        batch = x[start:start + trainer.batch_size]
        if trainer.stacked:
            batch = np.broadcast_to(batch, (len(trainer.active),)
                                    + batch.shape)
            outputs.append(trainer.model.forward(batch, training=False))
        else:
            outputs.append(trainer.model.forward(batch,
                                                 training=False)[None])
    logits = np.concatenate(outputs, axis=1)
    probs = F.softmax(logits)
    return F.cross_entropy(probs, labels), F.accuracy(logits, labels)


def bits(value) -> bytes:
    return struct.pack("<d", float(value))


def assert_evaluate_matches(trainer, x_test, labels_test) -> None:
    with np.errstate(all="ignore"):
        losses, accs = trainer._evaluate(x_test, labels_test)
        ref_losses, ref_accs = reference(trainer, x_test, labels_test)
    assert losses.shape == ref_losses.shape == (len(trainer.active),)
    assert losses.dtype == ref_losses.dtype
    assert losses.tobytes() == ref_losses.tobytes()
    assert accs.tobytes() == ref_accs.tobytes()


@pytest.mark.parametrize("name", sorted(BUILDS))
@pytest.mark.parametrize("batch", [1, 3, 32])
@pytest.mark.parametrize("trials", [1, 2, 5])
def test_evaluate_equals_per_batch_forwards(name, batch, trials):
    _, _, x_test, labels_test = data(name)
    trainer = trainer_for(name, "float32", trials, batch)
    assert_evaluate_matches(trainer, x_test, labels_test)


@pytest.mark.parametrize("name", sorted(BUILDS))
@pytest.mark.parametrize("policy", ["float16", "float64"])
@pytest.mark.parametrize("batch,trials", [(1, 1), (1, 2), (3, 5)])
def test_evaluate_equals_per_batch_forwards_per_policy(name, policy, batch,
                                                       trials):
    _, _, x_test, labels_test = data(name)
    trainer = trainer_for(name, policy, trials, batch)
    assert_evaluate_matches(trainer, x_test, labels_test)


def fit_checked(trainer, name: str, epochs: int = 2) -> list[int]:
    """Fit with a test set; after every epoch compare each live trial's
    test metrics with the reference on the weights it was evaluated with.
    Returns the number of live trials each check saw."""
    x, labels, x_test, labels_test = data(name)
    seen: list[int] = []

    def check(epoch, trainer):
        with np.errstate(all="ignore"):
            ref_losses, ref_accs = reference(trainer, x_test, labels_test)
        seen.append(len(trainer.active))
        for pos, trial in enumerate(trainer.active):
            metrics = trainer.histories[trial].epochs[-1]
            assert metrics.epoch == epoch
            if metrics.collapsed:
                assert metrics.test_loss is None
                continue
            assert bits(metrics.test_loss) == bits(ref_losses[pos])
            assert bits(metrics.test_accuracy) == bits(ref_accs[pos])

    trainer.epoch_callback = check
    trainer.fit(x, labels, epochs, x_test=x_test, labels_test=labels_test)
    return seen


@pytest.mark.parametrize("name", sorted(BUILDS))
@pytest.mark.parametrize("batch,trials", [(1, 1), (1, 5), (3, 2),
                                          (32, 2)])
def test_fit_test_metrics_equal_per_batch_forwards(name, batch, trials):
    trainer = trainer_for(name, "float32", trials, batch)
    assert fit_checked(trainer, name) == [trials, trials]
    assert all(h.epochs[-1].test_accuracy is not None
               for h in trainer.histories)


@pytest.mark.parametrize("name", ["alexnet", "resnet50"])
def test_fit_after_a_prune_equals_per_batch_forwards(name):
    trainer = trainer_for(name, "float32", trials=3, batch=1, poisoned=1)
    assert fit_checked(trainer, name) == [3, 2]
    assert trainer.active == [0, 2]
    assert trainer.histories[1].collapsed
    assert_evaluate_matches(trainer, *data(name)[2:])
