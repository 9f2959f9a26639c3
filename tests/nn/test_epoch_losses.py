"""An epoch's loss is a float64 mean of per-batch Python floats.

Each trainer turns every batch's loss into a Python float before it does
any arithmetic on it, so ``train_loss`` is a float64 mean whatever the
compute dtype.  That keeps a single-trial :class:`Trainer` epoch and a
one-trial :class:`BatchedTrainer` stack on the same bits, and keeps the
data-parallel trainer's shard-weighted sum out of float32.
"""

from __future__ import annotations

import struct

import numpy as np
import pytest

from repro.batched import stack_models, stack_optimizers
from repro.distributed import DataParallelTrainer
from repro.nn import (
    SGD,
    BatchedTrainer,
    Conv2D,
    Dense,
    Flatten,
    Model,
    ReLU,
    Sequential,
    Trainer,
    rng,
)
from repro.nn import functional as F

SAMPLES, BATCH = 20, 8


@pytest.fixture(autouse=True)
def _seed():
    rng.seed_all(17)


def tiny_cnn() -> Model:
    net = Sequential("cnn", [
        Conv2D("conv", 3, 4, kernel=3, pad=1), ReLU("relu"),
        Flatten("flat"), Dense("fc", 4 * 6 * 6, 5),
    ])
    return Model("cnn", net, num_classes=5)


def toy_data():
    gen = np.random.default_rng(0)
    x = gen.standard_normal((SAMPLES, 3, 6, 6)).astype(np.float32)
    return x, gen.integers(0, 5, SAMPLES)


def bits(value) -> bytes:
    assert type(value) is float
    return struct.pack("<d", value)


def test_trainer_and_a_one_trial_stack_report_the_same_epoch_bits():
    x, labels = toy_data()
    single = Trainer(tiny_cnn(), SGD(lr=0.05, momentum=0.9),
                     batch_size=BATCH).run_epoch(x, labels)
    stacked = BatchedTrainer(stack_models([tiny_cnn()]),
                             stack_optimizers([SGD(lr=0.05, momentum=0.9)]),
                             batch_size=BATCH)
    (batched,) = stacked.run_epoch(x, labels)
    assert bits(single.train_loss) == bits(batched.train_loss)
    assert bits(single.train_accuracy) == bits(batched.train_accuracy)


def test_data_parallel_loss_is_a_float64_mean_of_shard_losses(monkeypatch):
    shards: list[tuple[float, int]] = []
    real = F.softmax_cross_entropy_with_grad

    def recording(logits, labels):
        loss, grad = real(logits, labels)
        shards.append((float(loss), len(labels)))
        return loss, grad

    monkeypatch.setattr(F, "softmax_cross_entropy_with_grad", recording)
    x, labels = toy_data()
    trainer = DataParallelTrainer(tiny_cnn(), SGD(lr=0.05), num_workers=2,
                                  batch_size=BATCH)
    metrics = trainer.run_epoch(x, labels)
    batch_losses = []
    pending = iter(shards)
    for start in range(0, SAMPLES, BATCH):
        size = min(BATCH, SAMPLES - start)
        total, seen = 0.0, 0
        while seen < size:
            loss, count = next(pending)
            total += loss * count
            seen += count
        batch_losses.append(total / size)
    assert next(pending, None) is None
    assert bits(metrics.train_loss) == bits(float(np.mean(batch_losses)))
