"""Inference passes: which passes an evaluation runs, and that a pass
leaves no backward state behind.

``tests/nn/test_eval_passes.py`` checks the logits bit for bit; this file
checks the plan (whole eval batches up to ``EVAL_PASS_IMAGES``
trial-images, at least one batch, a ragged last batch alone) and that a
backward after a pass fails loudly while one after a plain eval-mode
forward still works.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.batched import stack_models, stack_optimizers
from repro.models import build_model
from repro.nn import SGD, BatchedTrainer, Trainer, layers, rng
from repro.nn import functional as F

IMAGES = 37


def tiny_resnet(seed: int = 0):
    rng.seed_all(seed)
    return build_model("resnet50", width_mult=0.03125, image_size=8)


def trainer_for(trials: int, batch: int):
    if trials == 1:
        return Trainer(tiny_resnet(), SGD(lr=0.01), batch_size=batch)
    models = [tiny_resnet(seed) for seed in range(trials)]
    return BatchedTrainer(stack_models(models),
                          stack_optimizers([SGD(lr=0.01) for _ in models]),
                          batch_size=batch)


@pytest.mark.parametrize("trials, batch, passes", [
    (1, 1, [(32, 32), (5, 5)]),
    (2, 1, [(16, 16), (16, 16), (5, 5)]),
    (2, 3, [(15, 5), (15, 5), (6, 2), (1, 1)]),
    (1, 16, [(32, 2), (5, 1)]),
    (3, 8, [(8, 1), (8, 1), (8, 1), (8, 1), (5, 1)]),
    (1, 32, [(32, 1), (5, 1)]),
    (2, 64, [(37, 1)]),
])
def test_passes_hold_whole_batches(monkeypatch, trials, batch, passes):
    """(images, batches) of every pass, in order, at
    ``EVAL_PASS_IMAGES = 32``."""
    under_test = trainer_for(trials, batch)
    seen = []
    forward = under_test._forward

    def spy(images, training):
        seen.append((images.shape[0], layers._pass_batches))
        return forward(images, training)

    monkeypatch.setattr(under_test, "_forward", spy)
    gen = np.random.default_rng(1)
    x = gen.standard_normal((IMAGES, 3, 8, 8)).astype(np.float32)
    under_test._evaluate(x, gen.integers(0, 10, IMAGES))
    assert seen == passes
    assert layers._pass_batches is None


def test_a_backward_after_a_pass_raises():
    under_test = trainer_for(1, 1)
    model = under_test.model
    gen = np.random.default_rng(2)
    x = gen.standard_normal((4, 3, 8, 8)).astype(np.float32)
    under_test._evaluate(x, gen.integers(0, 10, 4))
    assert not any(isinstance(layer._cache, (np.ndarray, tuple))
                   for layer in model.layers())
    with pytest.raises(RuntimeError, match="inference-pass forward"):
        model.backward(np.ones((1, 10), dtype=np.float32))


def test_a_backward_after_a_plain_eval_forward_still_runs():
    """Outside a pass an eval-mode forward keeps its backward state, the
    residual joins' masks included."""
    model = tiny_resnet()
    gen = np.random.default_rng(3)
    x = gen.standard_normal((2, 3, 8, 8)).astype(np.float32)
    with np.errstate(all="ignore"):  # untrained: eval activations blow up
        logits = model.forward(x, training=False)
        _, grad = F.softmax_cross_entropy_with_grad(logits,
                                                    np.array([1, 2]))
        model.backward(grad)
    assert all(isinstance(layer._cache, (np.ndarray, tuple, type(None)))
               for layer in model.layers())


def test_training_after_an_evaluation_equals_training_alone():
    gen = np.random.default_rng(4)
    x = gen.standard_normal((6, 3, 8, 8)).astype(np.float32)
    labels = gen.integers(0, 10, 6)
    params = []
    for evaluate_first in (False, True):
        under_test = trainer_for(2, 1)
        if evaluate_first:
            under_test._evaluate(x, labels)
        under_test._step(x[:1], labels[:1])
        params.append([value.tobytes() for value
                       in under_test.model.named_parameters().values()])
    assert params[0] == params[1]
