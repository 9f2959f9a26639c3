"""Trial-axis regression tests for the nn kernels.

The batched multi-fault engine feeds every kernel arrays with a new leading
trial axis; these tests pin the two properties that make that safe:

* functional reductions act on the *last* axis (not a hard-coded axis 1),
  so 2-D behaviour is unchanged and 3-D stacked logits reduce per trial;
* every layer's stacked forward/backward is, slice for slice, bitwise the
  kernel it would have run unstacked — weights, outputs, input grads, and
  parameter grads alike.

They fail on the pre-trial-axis kernels (axis=1 softmax/argmax, 4-D-only
pool/LRN shapes), which is the point: any future axis assumption sneaking
back in breaks them before it breaks the oracle battery.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import functional as F
from repro.nn.layers import (
    AvgPool2D,
    BatchNorm2D,
    Conv2D,
    Dense,
    Dropout,
    Flatten,
    GlobalAvgPool2D,
    LocalResponseNorm,
    MaxPool2D,
)

TRIALS, N, C, H, W = 3, 4, 3, 8, 8


def stacked_logits():
    rng = np.random.default_rng(7)
    return rng.normal(size=(TRIALS, N, 10)).astype(np.float32)


class TestFunctionalAxes:
    def test_softmax_3d_reduces_last_axis(self):
        logits = stacked_logits()
        probs = F.softmax(logits)
        np.testing.assert_allclose(probs.sum(axis=-1), 1.0, atol=1e-6)
        for t in range(TRIALS):
            assert probs[t].tobytes() == F.softmax(logits[t]).tobytes()

    def test_softmax_2d_unchanged(self):
        logits = stacked_logits()[0]
        by_hand = np.exp(logits - logits.max(axis=1, keepdims=True))
        by_hand /= by_hand.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(F.softmax(logits), by_hand, atol=1e-6)

    def test_accuracy_stacked_per_trial(self):
        logits = stacked_logits()
        labels = np.arange(N) % 10
        stacked = F.accuracy_stacked(logits, labels)
        assert stacked.shape == (TRIALS,)
        for t in range(TRIALS):
            assert stacked[t] == F.accuracy(logits[t], labels)

    def test_cross_entropy_stacked_per_trial(self):
        logits = stacked_logits()
        labels = np.arange(N) % 10
        losses, grads = F.softmax_cross_entropy_with_grad_stacked(
            logits, labels)
        assert losses.shape == (TRIALS,)
        for t in range(TRIALS):
            loss_t, grad_t = F.softmax_cross_entropy_with_grad(
                logits[t], labels)
            assert losses[t] == loss_t
            assert grads[t].tobytes() == grad_t.tobytes()

    @pytest.mark.parametrize("images", [1, N])
    def test_im2col_per_trial_keeps_sequential_memory_order(self, images):
        """The strides pick the GEMM variant BLAS runs, so each trial's
        matrix must have the strides its own im2col has (for one image a
        Fortran-ordered view), not those of one folded C-order copy."""
        rng = np.random.default_rng(11)
        x = rng.normal(size=(TRIALS * images, C, H, W)).astype(np.float32)
        cols = F.im2col(x, 3, 1, 1, trials=TRIALS)
        for t in range(TRIALS):
            alone = F.im2col(x[t * images:(t + 1) * images], 3, 1, 1)
            assert cols[t].strides == alone.strides
            assert cols[t].tobytes() == alone.tobytes()


def stack_replicas(replicas):
    """Stack per-trial layer replicas onto the first, mirroring
    :func:`repro.batched.stack_models` at single-layer granularity."""
    target = replicas[0]
    for key in list(target.params):
        target.params[key] = np.stack([r.params[key] for r in replicas])
    for key in list(target.state):
        target.state[key] = np.stack([r.state[key] for r in replicas])
    target.grads = {key: np.zeros_like(value)
                    for key, value in target.params.items()}
    target.trials = len(replicas)
    return target


def perturbed_replicas(build, trials=TRIALS):
    """*trials* structurally identical layers with diverged weights."""
    replicas = [build() for _ in range(trials)]
    for index, layer in enumerate(replicas):
        rng = np.random.default_rng(100 + index)
        for key, value in layer.params.items():
            layer.params[key] = (
                value + rng.normal(scale=0.05, size=value.shape)
            ).astype(value.dtype)
    return replicas


def assert_layer_stacked_equivalent(build, x, training=False,
                                    grad_shape=None):
    """Stacked forward/backward == per-slice sequential, bitwise."""
    sequential = perturbed_replicas(build)
    stacked_layer = stack_replicas(perturbed_replicas(build))
    stacked_x = np.broadcast_to(x, (TRIALS,) + x.shape)

    out = stacked_layer.forward(stacked_x, training=training)
    seq_outs = [replica.forward(x, training=training)
                for replica in sequential]
    for t, seq_out in enumerate(seq_outs):
        assert out[t].tobytes() == seq_out.tobytes(), f"forward slice {t}"

    rng = np.random.default_rng(9)
    grad = rng.normal(size=out.shape).astype(out.dtype)
    dx = stacked_layer.backward(grad)
    for t, replica in enumerate(sequential):
        dx_t = replica.backward(grad[t])
        assert dx[t].tobytes() == dx_t.tobytes(), f"input grad slice {t}"
        for key in replica.grads:
            assert stacked_layer.grads[key][t].tobytes() == \
                replica.grads[key].tobytes(), f"grads[{key}] slice {t}"
    return stacked_layer, sequential


@pytest.fixture
def image():
    rng = np.random.default_rng(3)
    return rng.normal(size=(N, C, H, W)).astype(np.float32)


class TestLayerTrialAxis:
    def test_dense(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(N, 32)).astype(np.float32)
        assert_layer_stacked_equivalent(lambda: Dense("fc", 32, 10), x)

    def test_conv2d_stride_and_pad(self, image):
        assert_layer_stacked_equivalent(
            lambda: Conv2D("conv", C, 8, kernel=3, stride=2, pad=1), image)

    def test_conv2d_single_image(self, image):
        assert_layer_stacked_equivalent(
            lambda: Conv2D("conv", C, 8, kernel=3, stride=1, pad=1),
            image[:1])

    def test_maxpool(self, image):
        assert_layer_stacked_equivalent(
            lambda: MaxPool2D("pool", kernel=2), image)

    def test_avgpool(self, image):
        assert_layer_stacked_equivalent(
            lambda: AvgPool2D("pool", kernel=2), image)

    def test_global_avgpool(self, image):
        assert_layer_stacked_equivalent(lambda: GlobalAvgPool2D("gap"),
                                        image)

    def test_flatten(self, image):
        assert_layer_stacked_equivalent(lambda: Flatten("flat"), image)

    def test_local_response_norm(self, image):
        assert_layer_stacked_equivalent(
            lambda: LocalResponseNorm("lrn", size=3), image)

    def test_batchnorm_training_updates_stacked_stats(self, image):
        stacked_layer, sequential = assert_layer_stacked_equivalent(
            lambda: BatchNorm2D("bn", C), image, training=True)
        for t, replica in enumerate(sequential):
            for key in ("running_mean", "running_var"):
                assert stacked_layer.state[key][t].tobytes() == \
                    replica.state[key].tobytes(), f"{key} slice {t}"

    def test_batchnorm_eval_uses_per_trial_stats(self, image):
        def build():
            layer = BatchNorm2D("bn", C)
            layer.forward(image, training=True)  # diverge running stats
            return layer
        assert_layer_stacked_equivalent(build, image, training=False)

    def test_dropout_mask_broadcasts_across_trials(self, image):
        """Stacked dropout draws ONE per-sample mask and broadcasts it: the
        mask is a pure function of seed and epoch, so each sequential trial
        would have drawn exactly those values."""
        def fresh(epoch):
            layer = Dropout("drop", 0.5)
            layer.on_epoch_start(epoch)
            return layer

        sequential = [fresh(epoch=1) for _ in range(TRIALS)]
        stacked_layer = fresh(epoch=1)
        stacked_layer.trials = TRIALS
        stacked_x = np.broadcast_to(image, (TRIALS,) + image.shape).copy()
        out = stacked_layer.forward(stacked_x, training=True)
        for t, replica in enumerate(sequential):
            seq_out = replica.forward(image, training=True)
            assert out[t].tobytes() == seq_out.tobytes(), f"slice {t}"

    def test_dropout_inference_passthrough(self, image):
        layer = Dropout("drop", 0.5)
        layer.trials = TRIALS
        stacked_x = np.broadcast_to(image, (TRIALS,) + image.shape)
        assert layer.forward(stacked_x, training=False) is stacked_x
