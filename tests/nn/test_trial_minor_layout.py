"""Stacked conv outputs are laid out trial-minor, and nothing downstream
sees the difference.

A stacked :class:`~repro.nn.layers.Conv2D` returns its ``(T, N, C, H, W)``
output as a view of ``(N, H, W, T, C)`` memory: in each pixel the T
trials' channels sit side by side ("trial-minor").  A lone conv and a
stack of one return a view of ``(N, H, W, C)`` memory ("channels-last").
This file pins:

* the strides of a stacked conv's output, in training and inside an
  inference pass, and that each trial's slice has the bytes of that
  trial's conv alone (the GEMM only writes with a longer row stride);
* the strides of a lone conv and a stack of one, which stay channels-last;
* that batch norm and global average pooling, which reduce over (image,
  row, column) per (trial, channel), give the same bytes on a trial-minor
  input as on a channels-last copy of the same values: every array the
  layer produces, with -0.0, NaN, infinities and subnormals in the input;
* that 16 smoke ResNet-50 trials trained as one stack at batch size 1
  equal 16 lone trainings in every parameter, gradient and state byte.
"""

from __future__ import annotations

import contextlib

import numpy as np
import pytest

from repro.batched import stack_models, stack_optimizers
from repro.models import build_model
from repro.nn import POLICIES, SGD, BatchedTrainer, Trainer, rng
from repro.nn.layers import (
    BatchNorm2D,
    Conv2D,
    GlobalAvgPool2D,
    inference_pass,
)

TRIALS, CHANNELS, HEIGHT, WIDTH = 3, 4, 5, 6
#: the stacked conv's output channels and input planes (3 x 6 x 6, pad 1)
C_OUT, IN_CHW = 5, (3, 6, 6)


def trial_minor(x: np.ndarray) -> np.ndarray:
    """*x*'s values in ``(N, H, W, T, C)`` memory."""
    t, n, c, h, w = x.shape
    out = np.empty((n, h, w, t, c), dtype=x.dtype).transpose(3, 0, 4, 1, 2)
    np.copyto(out, x)
    return out


def channels_last(x: np.ndarray) -> np.ndarray:
    """*x*'s values in ``(T, N, H, W, C)`` memory."""
    t, n, c, h, w = x.shape
    out = np.empty((t, n, h, w, c), dtype=x.dtype).transpose(0, 1, 4, 2, 3)
    np.copyto(out, x)
    return out


def activations(shape, dtype, seed: int) -> np.ndarray:
    """Seeded normal values in C order with -0.0 sprinkled throughout,
    subnormals in channel 1, and NaN and both infinities in trial 0's
    channel 0 only (so the other channels keep finite statistics)."""
    gen = np.random.default_rng(seed)
    x = gen.standard_normal(shape).astype(dtype)
    x.reshape(-1)[::7] = -0.0
    tiny = np.finfo(dtype).smallest_subnormal
    x[:, :, 1] = tiny * gen.integers(-8, 9, x[:, :, 1].shape).astype(dtype)
    corner = x[0, 0, 0, ...].reshape(-1)
    corner[:4] = np.array([np.nan, np.inf, -np.inf, -0.0],
                          dtype=dtype)[:corner.size]
    return x


def stacked_bn(policy) -> BatchNorm2D:
    """A T-trial batch norm with seeded parameters and running stats."""
    layer = BatchNorm2D("bn", CHANNELS, policy=policy)
    gen = np.random.default_rng(3)
    for group in (layer.params, layer.state):
        for key, value in group.items():
            draw = gen.normal(0.0, 0.5, (TRIALS,) + value.shape)
            if key == "running_var":
                draw = np.abs(draw) + 0.25
            group[key] = draw.astype(value.dtype)
    layer.grads = {key: np.zeros_like(value, dtype=policy.compute_dtype)
                   for key, value in layer.params.items()}
    layer.trials = TRIALS
    return layer


def run(layer, x: np.ndarray, grad_seed: int, training: bool) -> dict:
    """Every array one forward and backward of *layer* produces."""
    out = layer.forward(x, training=training)
    grad = activations(out.shape, out.dtype, grad_seed)
    arrays = {"out": out, "dx": layer.backward(grad)}
    for group in ("grads", "state"):
        for key, value in getattr(layer, group).items():
            arrays[f"{group}/{key}"] = value
    return arrays


def assert_same_bytes(a: dict, b: dict) -> None:
    assert list(a) == list(b)
    for key, value in a.items():
        other = b[key]
        assert (value.dtype, value.shape) == (other.dtype, other.shape), key
        assert value.tobytes() == other.tobytes(), key


CASES = [(policy, images, training)
         for policy in POLICIES
         for images in (1, 4)
         for training in (True, False)]


@pytest.mark.parametrize("policy,images,training", CASES)
def test_batch_norm_bytes_do_not_depend_on_layout(policy, images, training):
    policy = POLICIES[policy]
    x = activations((TRIALS, images, CHANNELS, HEIGHT, WIDTH),
                    policy.compute_dtype, seed=images)
    with np.errstate(all="ignore"):
        minor = run(stacked_bn(policy), trial_minor(x), 10, training)
        last = run(stacked_bn(policy), channels_last(x), 10, training)
    assert_same_bytes(minor, last)


@pytest.mark.parametrize("policy,images", [(p, n) for p in POLICIES
                                           for n in (1, 4)])
def test_global_average_pool_bytes_do_not_depend_on_layout(policy, images):
    dtype = POLICIES[policy].compute_dtype
    x = activations((TRIALS, images, CHANNELS, HEIGHT, WIDTH), dtype,
                    seed=20 + images)
    results = []
    for layout in (trial_minor, channels_last):
        layer = GlobalAvgPool2D("gap")
        layer.trials = TRIALS
        with np.errstate(all="ignore"):
            results.append(run(layer, layout(x), 30, training=True))
    assert_same_bytes(*results)


# ---------------------------------------------------------------------------
# Conv2D's output memory order
# ---------------------------------------------------------------------------

def conv(params: dict | None = None, trials: int | None = None) -> Conv2D:
    """A 3x3 conv with *params* (default: its init values), stacked when
    *trials* is given."""
    layer = Conv2D("conv", IN_CHW[0], C_OUT, kernel=3, pad=1)
    if params is not None:
        layer.params = dict(params)
        layer.grads = {key: np.zeros_like(value)
                       for key, value in params.items()}
    layer.trials = trials
    return layer


def stacked_params(trials: int) -> dict:
    gen = np.random.default_rng(trials)
    return {"W": gen.normal(0.0, 0.5, (trials, C_OUT, IN_CHW[0], 3, 3)),
            "b": gen.normal(0.0, 0.5, (trials, C_OUT))}


def images(count: int) -> np.ndarray:
    gen = np.random.default_rng(count)
    return gen.standard_normal((count,) + IN_CHW).astype(np.float32)


def pass_or_training(mode: str):
    """The context a forward of *mode* ("train" or "pass") runs in."""
    return inference_pass(2) if mode == "pass" else contextlib.nullcontext()


@pytest.mark.parametrize("trials", [2, 3, 16])
@pytest.mark.parametrize("count", [1, 4])
@pytest.mark.parametrize("mode", ["train", "pass"])
def test_stacked_conv_output_is_trial_minor(trials, count, mode):
    params = {key: value.astype(np.float32)
              for key, value in stacked_params(trials).items()}
    x = images(2 * count if mode == "pass" else count)
    with pass_or_training(mode):
        out = conv(params, trials).forward(
            np.broadcast_to(x, (trials,) + x.shape), training=mode == "train")
        alone = [conv({key: value[t] for key, value in params.items()})
                 .forward(x, training=mode == "train")
                 for t in range(trials)]
    _, h, w = IN_CHW
    pixel = trials * C_OUT * 4
    assert out.shape == (trials, x.shape[0], C_OUT, h, w)
    assert out.strides == (C_OUT * 4, h * w * pixel, 4, w * pixel, pixel)
    for t in range(trials):
        assert out[t].tobytes() == alone[t].tobytes(), f"trial {t}"


@pytest.mark.parametrize("mode", ["train", "pass"])
def test_lone_conv_and_stack_of_one_keep_channels_last(mode):
    count = 4
    x = images(count)
    one = conv(trials=1)
    one.params = {key: value[None] for key, value in one.params.items()}
    with pass_or_training(mode):
        lone = conv().forward(x, training=mode == "train")
        stacked = one.forward(x[None], training=mode == "train")
    _, h, w = IN_CHW
    assert lone.strides == (h * w * C_OUT * 4, 4, w * C_OUT * 4, C_OUT * 4)
    assert stacked.strides == (count * h * w * C_OUT * 4,) + lone.strides
    assert stacked[0].tobytes() == lone.tobytes()


# ---------------------------------------------------------------------------
# a 16-trial stack of smoke ResNet-50 against 16 lone trainings
# ---------------------------------------------------------------------------

STACK, STEPS = 16, 3


def smoke_resnet(trial: int):
    """Smoke-scale ResNet-50 with its own initial weights per *trial*."""
    rng.seed_all(100 + trial)
    return build_model("resnet50", num_classes=10, width_mult=0.03125,
                       image_size=16)


def layer_arrays(model, trial: int | None = None) -> dict:
    """Every param, grad and state array, trial *trial*'s slice if given."""
    return {(layer.name, group, key): (value if trial is None
                                       else value[trial]).copy()
            for layer in model.layers()
            for group in ("params", "grads", "state")
            for key, value in getattr(layer, group).items()}


def test_sixteen_trial_resnet_stack_equals_sixteen_lone_trainings():
    gen = np.random.default_rng(4)
    x = gen.standard_normal((STEPS, 3, 16, 16)).astype(np.float32)
    labels = gen.integers(0, 10, STEPS)
    lone = []
    for trial in range(STACK):
        model = smoke_resnet(trial)
        rng.seed_all(0)
        Trainer(model, SGD(lr=0.05, momentum=0.9),
                batch_size=1).fit(x, labels, epochs=1)
        lone.append(layer_arrays(model))
    models = [smoke_resnet(trial) for trial in range(STACK)]
    rng.seed_all(0)
    trainer = BatchedTrainer(
        stack_models(models),
        stack_optimizers([SGD(lr=0.05, momentum=0.9) for _ in models]),
        batch_size=1)
    trainer.fit(x, labels, epochs=1)
    assert trainer.active == list(range(STACK))
    for trial in range(STACK):
        assert_same_bytes(lone[trial], layer_arrays(trainer.model, trial))
