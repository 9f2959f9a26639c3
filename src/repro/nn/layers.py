"""Neural-network layers with explicit forward/backward passes.

Every layer owns its parameters (``params``), their gradients (``grads``),
and any persistent non-trained state (``state``; e.g. batch-norm running
statistics).  Parameters are stored at the policy's *parameter dtype* (what
the checkpoint — and therefore the fault injector — sees) and cast to the
*compute dtype* during arithmetic.

Tensors are NCHW.  Convolution weights are OIHW; dense weights are
``(out_features, in_features)``.  Framework facades convert these layouts to
each framework's checkpoint convention at serialization time.
"""

from __future__ import annotations

import numpy as np

from . import functional as F
from . import init
from .dtypes import DTypePolicy, get_policy
from .rng import StreamRNG, stream


class Layer:
    """Base class: named, with parameters, gradients, and persistent state."""

    def __init__(self, name: str, policy: DTypePolicy | str = "float32"):
        self.name = name
        self.policy = get_policy(policy)
        self.params: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}
        self.state: dict[str, np.ndarray] = {}
        #: trial-axis width when this layer is part of a stacked multi-trial
        #: replica (see :mod:`repro.batched`): every param/grad/state array
        #: carries a leading axis of this length and forward/backward expect
        #: activations shaped ``(trials, batch, ...)``.  ``None`` (the
        #: default) keeps the ordinary single-trial kernels.
        self.trials: int | None = None
        #: whether :meth:`backward` forms the gradient w.r.t. its input.
        #: :class:`~repro.nn.model.Model` clears it on the layer fed the
        #: data batch, whose input gradient nobody reads; a layer that
        #: honours it (Conv2D, Dense) then returns ``None``.
        self.needs_input_grad = True

    # -- interface ----------------------------------------------------------
    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    # -- helpers ------------------------------------------------------------
    def _param(self, key: str) -> np.ndarray:
        """Parameter cast to compute dtype."""
        return self.params[key].astype(self.policy.compute_dtype, copy=False)

    def add_param(self, key: str, value: np.ndarray) -> None:
        self.params[key] = value.astype(self.policy.param_dtype)
        self.grads[key] = np.zeros_like(
            value, dtype=self.policy.compute_dtype
        )

    @property
    def num_params(self) -> int:
        return int(sum(p.size for p in self.params.values()))

    def sublayers(self) -> list["Layer"]:
        """Flattened list of concrete layers (composites override)."""
        return [self]

    def on_epoch_start(self, epoch: int) -> None:
        """Hook called by the trainer at the start of each epoch.

        Stochastic layers use it to pin their random streams to the epoch
        number, making a training resumed from an epoch-k checkpoint replay
        exactly the draws an uninterrupted run would make — the property the
        paper's restart-comparison methodology requires.
        """

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"


class Conv2D(Layer):
    """2-D convolution lowered to GEMM via im2col."""

    def __init__(self, name: str, in_channels: int, out_channels: int,
                 kernel: int, stride: int = 1, pad: int = 0,
                 policy="float32", seed_name: str | None = None):
        super().__init__(name, policy)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel = kernel
        self.stride = stride
        self.pad = pad
        rng = stream(seed_name or f"init/{name}")
        fan_in = in_channels * kernel * kernel
        self.add_param("W", init.he_normal(
            rng, (out_channels, in_channels, kernel, kernel), fan_in,
            dtype=self.policy.compute_dtype,
        ))
        self.add_param("b", init.zeros((out_channels,),
                                       dtype=self.policy.compute_dtype))
        self._cache = None

    def forward(self, x, training=False):
        if self.trials is not None:
            return self._forward_stacked(x)
        n, c, h, w = x.shape
        if c != self.in_channels:
            raise ValueError(
                f"{self.name}: expected {self.in_channels} channels, got {c}"
            )
        out_h = F.conv_output_size(h, self.kernel, self.stride, self.pad)
        out_w = F.conv_output_size(w, self.kernel, self.stride, self.pad)
        cols = F.im2col(x, self.kernel, self.stride, self.pad)
        weight = self._param("W").reshape(self.out_channels, -1)
        out = cols @ weight.T
        np.add(out, self._param("b"), out=out)
        out = out.reshape(n, out_h, out_w, self.out_channels)
        self._cache = (x.shape, cols)
        return out.transpose(0, 3, 1, 2)

    def _forward_stacked(self, x):
        # (T, N, C, H, W): one im2col over the folded T*N batch, split
        # back per trial with the sequential memory order, then a batched
        # GEMM against the per-trial weight stack.  Slice t of every
        # intermediate is bitwise the sequential forward on replica t.
        t, n, c, h, w = x.shape
        if c != self.in_channels:
            raise ValueError(
                f"{self.name}: expected {self.in_channels} channels, got {c}"
            )
        out_h = F.conv_output_size(h, self.kernel, self.stride, self.pad)
        out_w = F.conv_output_size(w, self.kernel, self.stride, self.pad)
        cols = F.im2col(x.reshape(t * n, c, h, w),
                        self.kernel, self.stride, self.pad, trials=t)
        weight = self._param("W").reshape(t, self.out_channels, -1)
        out = cols @ weight.transpose(0, 2, 1)
        np.add(out, self._param("b")[:, None, :], out=out)
        out = out.reshape(t, n, out_h, out_w, self.out_channels)
        self._cache = (x.shape, cols)
        return out.transpose(0, 1, 4, 2, 3)

    def backward(self, grad):
        if self.trials is not None:
            return self._backward_stacked(grad)
        x_shape, cols = self._cache
        n = x_shape[0]
        grad_mat = grad.transpose(0, 2, 3, 1).reshape(-1, self.out_channels)
        self.grads["W"] = (grad_mat.T @ cols).reshape(self.params["W"].shape)
        self.grads["b"] = grad_mat.sum(axis=0)
        if not self.needs_input_grad:
            return None
        weight = self._param("W").reshape(self.out_channels, -1)
        grad_cols = grad_mat @ weight
        return F.col2im(grad_cols, x_shape, self.kernel, self.stride, self.pad)

    def _backward_stacked(self, grad):
        x_shape, cols = self._cache
        t, n = x_shape[0], x_shape[1]
        grad_mat = grad.transpose(0, 1, 3, 4, 2).reshape(
            t, -1, self.out_channels
        )
        self.grads["W"] = np.matmul(
            grad_mat.transpose(0, 2, 1), cols
        ).reshape(self.params["W"].shape)
        self.grads["b"] = grad_mat.sum(axis=1)
        if not self.needs_input_grad:
            return None
        weight = self._param("W").reshape(t, self.out_channels, -1)
        grad_cols = grad_mat @ weight
        dx = F.col2im(grad_cols.reshape(-1, grad_cols.shape[-1]),
                      (t * n,) + x_shape[2:],
                      self.kernel, self.stride, self.pad)
        return dx.reshape(x_shape)


class Dense(Layer):
    """Fully connected layer: ``y = x W^T + b``."""

    def __init__(self, name: str, in_features: int, out_features: int,
                 policy="float32", seed_name: str | None = None):
        super().__init__(name, policy)
        self.in_features = in_features
        self.out_features = out_features
        rng = stream(seed_name or f"init/{name}")
        self.add_param("W", init.he_normal(
            rng, (out_features, in_features), in_features,
            dtype=self.policy.compute_dtype,
        ))
        self.add_param("b", init.zeros((out_features,),
                                       dtype=self.policy.compute_dtype))
        self._cache = None

    def forward(self, x, training=False):
        self._cache = x
        if self.trials is not None:
            weight = self._param("W")
            out = np.matmul(x, weight.transpose(0, 2, 1))
            np.add(out, self._param("b")[:, None, :], out=out)
            return out
        out = x @ self._param("W").T
        np.add(out, self._param("b"), out=out)
        return out

    def backward(self, grad):
        x = self._cache
        if self.trials is not None:
            self.grads["W"] = np.matmul(grad.transpose(0, 2, 1), x)
            self.grads["b"] = grad.sum(axis=1)
        else:
            self.grads["W"] = grad.T @ x
            self.grads["b"] = grad.sum(axis=0)
        if not self.needs_input_grad:
            return None
        return np.matmul(grad, self._param("W"))


class ReLU(Layer):
    """Rectified linear activation with cached mask for the backward pass."""

    def __init__(self, name: str = "relu"):
        super().__init__(name)
        self._mask = None

    def forward(self, x, training=False):
        self._mask = x > 0
        return x * self._mask

    def backward(self, grad):
        return grad * self._mask


class Flatten(Layer):
    """Reshape NCHW activations to (N, C*H*W), remembering the input shape."""

    def __init__(self, name: str = "flatten"):
        super().__init__(name)
        self._shape = None

    def forward(self, x, training=False):
        self._shape = x.shape
        if self.trials is not None:
            return x.reshape(x.shape[0], x.shape[1], -1)
        return x.reshape(x.shape[0], -1)

    def backward(self, grad):
        return grad.reshape(self._shape)


class MaxPool2D(Layer):
    """Max pooling; the backward pass routes gradients to the argmax cells."""

    def __init__(self, name: str, kernel: int, stride: int | None = None):
        super().__init__(name)
        self.kernel = kernel
        self.stride = stride or kernel
        self._cache = None

    def forward(self, x, training=False):
        orig = x.shape
        if self.trials is not None:
            # fold the trial axis into the batch: pooling has no parameters,
            # so per-(trial, sample) window math is unchanged bit for bit
            x = x.reshape(orig[0] * orig[1], *orig[2:])
        n, c, h, w = x.shape
        k, s = self.kernel, self.stride
        out_h = F.conv_output_size(h, k, s, 0)
        out_w = F.conv_output_size(w, k, s, 0)
        cols = F.im2col(x.reshape(n * c, 1, h, w), k, s, 0)
        arg = np.argmax(cols, axis=1)
        out = cols[np.arange(cols.shape[0]), arg]
        self._cache = (orig, x.shape, cols.shape, arg)
        return out.reshape(orig[:-2] + (out_h, out_w))

    def backward(self, grad):
        orig, x_shape, cols_shape, arg = self._cache
        n, c, h, w = x_shape
        grad_cols = np.zeros(cols_shape, dtype=grad.dtype)
        grad_cols[np.arange(cols_shape[0]), arg] = grad.reshape(-1)
        dx = F.col2im(grad_cols, (n * c, 1, h, w), self.kernel, self.stride, 0)
        return dx.reshape(orig)


class GlobalAvgPool2D(Layer):
    """Global average pooling: NCHW -> (N, C)."""

    def __init__(self, name: str = "gap"):
        super().__init__(name)
        self._shape = None

    def forward(self, x, training=False):
        # reduce the trailing spatial axes rather than hard-coded (2, 3):
        # the same kernel serves NCHW and trial-stacked TNCHW activations
        self._shape = x.shape
        return x.mean(axis=(-2, -1))

    def backward(self, grad):
        h, w = self._shape[-2:]
        return np.broadcast_to(
            grad[..., None, None] / (h * w), self._shape
        ).astype(grad.dtype)


class AvgPool2D(Layer):
    """Average pooling over non-overlapping (or strided) windows."""

    def __init__(self, name: str, kernel: int, stride: int | None = None):
        super().__init__(name)
        self.kernel = kernel
        self.stride = stride or kernel
        self._cache = None

    def forward(self, x, training=False):
        orig = x.shape
        if self.trials is not None:
            x = x.reshape(orig[0] * orig[1], *orig[2:])
        n, c, h, w = x.shape
        k, s = self.kernel, self.stride
        out_h = F.conv_output_size(h, k, s, 0)
        out_w = F.conv_output_size(w, k, s, 0)
        cols = F.im2col(x.reshape(n * c, 1, h, w), k, s, 0)
        out = cols.mean(axis=1)
        self._cache = (orig, x.shape, cols.shape)
        return out.reshape(orig[:-2] + (out_h, out_w))

    def backward(self, grad):
        orig, x_shape, cols_shape = self._cache
        n, c, h, w = x_shape
        grad_cols = np.broadcast_to(
            grad.reshape(-1, 1) / (self.kernel * self.kernel), cols_shape
        ).astype(grad.dtype)
        dx = F.col2im(grad_cols, (n * c, 1, h, w), self.kernel, self.stride,
                      0)
        return dx.reshape(orig)


class LocalResponseNorm(Layer):
    """AlexNet's local response normalization across channels.

    ``b[c] = a[c] / (k + alpha/n * sum_{c'} a[c']^2) ** beta`` with the sum
    over the ``n`` channels nearest ``c`` (Krizhevsky 2012 §3.3).  Present
    for topology fidelity with the original AlexNet; CIFAR ports usually
    omit it, so the builders leave it optional.
    """

    def __init__(self, name: str, size: int = 5, alpha: float = 1e-4,
                 beta: float = 0.75, k: float = 2.0):
        super().__init__(name)
        if size < 1 or size % 2 == 0:
            raise ValueError("size must be a positive odd integer")
        self.size = size
        self.alpha = alpha
        self.beta = beta
        self.k = k
        self._cache = None

    def _window_sum(self, squares: np.ndarray) -> np.ndarray:
        half = self.size // 2
        channels = squares.shape[1]
        padded = np.pad(squares, ((0, 0), (half, half), (0, 0), (0, 0)))
        out = np.zeros_like(squares)
        for offset in range(self.size):
            out += padded[:, offset:offset + channels]
        return out

    def forward(self, x, training=False):
        orig = x.shape
        if self.trials is not None:
            # channel-window sums index axis 1; fold trials into the batch so
            # the 4-D kernel applies unchanged, then unfold the result
            x = x.reshape(orig[0] * orig[1], *orig[2:])
        squares = x * x
        norm = self.k + (self.alpha / self.size) * self._window_sum(squares)
        scale = norm ** (-self.beta)
        self._cache = (orig, x, norm, scale)
        return (x * scale).reshape(orig)

    def backward(self, grad):
        orig, x, norm, scale = self._cache
        grad = grad.reshape(x.shape)
        # d(out_c')/d(x_c) has a direct term and a cross-channel term
        direct = grad * scale
        cross_coeff = (grad * x * (norm ** (-self.beta - 1.0)))
        summed = self._window_sum(cross_coeff)
        cross = (-2.0 * self.beta * self.alpha / self.size) * x * summed
        return (direct + cross).reshape(orig)


class BatchNorm2D(Layer):
    """Batch normalization over NCHW channels with running statistics.

    ``gamma``/``beta`` are trained parameters; ``running_mean``/
    ``running_var`` are persistent state saved in checkpoints (and therefore
    corruptible by the injector, just as in real frameworks).
    """

    def __init__(self, name: str, channels: int, momentum: float = 0.9,
                 eps: float = 1e-5, policy="float32"):
        super().__init__(name, policy)
        self.channels = channels
        self.momentum = momentum
        self.eps = eps
        compute = self.policy.compute_dtype
        self.add_param("gamma", init.ones((channels,), dtype=compute))
        self.add_param("beta", init.zeros((channels,), dtype=compute))
        self.state["running_mean"] = np.zeros(
            channels, dtype=self.policy.param_dtype
        )
        self.state["running_var"] = np.ones(
            channels, dtype=self.policy.param_dtype
        )
        self._cache = None

    def forward(self, x, training=False):
        if self.trials is not None:
            return self._forward_stacked(x, training)
        compute = self.policy.compute_dtype
        if training:
            # one explicit centering pass shared by the variance and x_hat;
            # bitwise it is exactly ``x.var`` (same subtract, same pairwise
            # sum over the same layout), minus two redundant passes over x
            mean = x.mean(axis=(0, 2, 3))
            delta = x - mean[None, :, None, None]
            var = (delta * delta).mean(axis=(0, 2, 3))
            self.state["running_mean"] = (
                self.momentum * self.state["running_mean"].astype(compute, copy=False)
                + (1 - self.momentum) * mean
            ).astype(self.policy.param_dtype, copy=False)
            self.state["running_var"] = (
                self.momentum * self.state["running_var"].astype(compute, copy=False)
                + (1 - self.momentum) * var
            ).astype(self.policy.param_dtype, copy=False)
        else:
            mean = self.state["running_mean"].astype(compute, copy=False)
            var = self.state["running_var"].astype(compute, copy=False)
            delta = x - mean[None, :, None, None]
        std = np.sqrt(var + self.eps)
        # in-place where the operand is dead afterwards: same ops in the
        # same order, just without the intermediate allocations
        x_hat = np.divide(delta, std[None, :, None, None], out=delta)
        out = self._param("gamma")[None, :, None, None] * x_hat
        np.add(out, self._param("beta")[None, :, None, None], out=out)
        self._cache = (x_hat, std)
        return out

    def _forward_stacked(self, x, training):
        # (T, N, C, H, W): batch statistics reduce over (N, H, W) per trial,
        # running stats and gamma/beta are stacked (T, C)
        compute = self.policy.compute_dtype
        if training:
            # same single centering pass as the sequential branch; per-trial
            # slices reduce over the same (N, H, W) layout, so slice t stays
            # bitwise the sequential forward on replica t
            mean = x.mean(axis=(1, 3, 4))
            delta = x - mean[:, None, :, None, None]
            var = (delta * delta).mean(axis=(1, 3, 4))
            self.state["running_mean"] = (
                self.momentum * self.state["running_mean"].astype(compute, copy=False)
                + (1 - self.momentum) * mean
            ).astype(self.policy.param_dtype, copy=False)
            self.state["running_var"] = (
                self.momentum * self.state["running_var"].astype(compute, copy=False)
                + (1 - self.momentum) * var
            ).astype(self.policy.param_dtype, copy=False)
        else:
            mean = self.state["running_mean"].astype(compute, copy=False)
            var = self.state["running_var"].astype(compute, copy=False)
            delta = x - mean[:, None, :, None, None]
        std = np.sqrt(var + self.eps)
        x_hat = np.divide(delta, std[:, None, :, None, None], out=delta)
        out = self._param("gamma")[:, None, :, None, None] * x_hat
        np.add(out, self._param("beta")[:, None, :, None, None], out=out)
        self._cache = (x_hat, std)
        return out

    def backward(self, grad):
        x_hat, std = self._cache
        if self.trials is not None:
            scratch = grad * x_hat
            self.grads["gamma"] = scratch.sum(axis=(1, 3, 4))
            self.grads["beta"] = grad.sum(axis=(1, 3, 4))
            gamma = self._param("gamma")[:, None, :, None, None]
            dx_hat = grad * gamma
            term2 = dx_hat.mean(axis=(1, 3, 4), keepdims=True)
            cross = np.multiply(dx_hat, x_hat, out=scratch)
            term3 = np.multiply(
                x_hat, cross.mean(axis=(1, 3, 4), keepdims=True), out=scratch
            )
            # same subtract/subtract/divide chain, reusing the dead dx_hat
            out = np.subtract(dx_hat, term2, out=dx_hat)
            np.subtract(out, term3, out=out)
            return np.divide(out, std[:, None, :, None, None], out=out)
        scratch = grad * x_hat
        self.grads["gamma"] = scratch.sum(axis=(0, 2, 3))
        self.grads["beta"] = grad.sum(axis=(0, 2, 3))
        gamma = self._param("gamma")[None, :, None, None]
        dx_hat = grad * gamma
        # standard batch-norm backward (training-mode statistics)
        term2 = dx_hat.mean(axis=(0, 2, 3), keepdims=True)
        cross = np.multiply(dx_hat, x_hat, out=scratch)
        term3 = np.multiply(
            x_hat, cross.mean(axis=(0, 2, 3), keepdims=True), out=scratch
        )
        out = np.subtract(dx_hat, term2, out=dx_hat)
        np.subtract(out, term3, out=out)
        return np.divide(out, std[None, :, None, None], out=out)


class Dropout(Layer):
    """Inverted dropout driven by a deterministic named RNG stream."""

    def __init__(self, name: str, rate: float):
        super().__init__(name)
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1): {rate}")
        self.rate = rate
        self._stream = StreamRNG(f"dropout/{name}")
        self._mask = None

    #: draws-per-epoch stride: any realistic epoch makes far fewer forward
    #: passes than this, so per-epoch stream windows never overlap.
    EPOCH_STRIDE = 1_000_003

    def on_epoch_start(self, epoch: int) -> None:
        self._stream.reset(epoch * self.EPOCH_STRIDE)

    def forward(self, x, training=False):
        if not training or self.rate == 0.0:
            self._mask = None
            return x
        rng = self._stream.next()
        keep = 1.0 - self.rate
        # stacked mode: every sequential trial of a spec draws the same mask
        # (masks are a pure function of seed and epoch, not of the weights),
        # so one per-sample mask drawn at the unstacked shape and broadcast
        # across the trial axis reproduces each trial's draws exactly
        shape = x.shape[1:] if self.trials is not None else x.shape
        self._mask = (rng.random(shape) < keep).astype(x.dtype) / keep
        return x * self._mask

    def backward(self, grad):
        if self._mask is None:
            return grad
        return grad * self._mask


class Sequential(Layer):
    """A chain of layers behaving as one composite layer."""

    def __init__(self, name: str, layers: list[Layer]):
        super().__init__(name)
        self.layers = layers

    def forward(self, x, training=False):
        for layer in self.layers:
            x = layer.forward(x, training)
        return x

    def backward(self, grad):
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad

    def sublayers(self) -> list[Layer]:
        out: list[Layer] = []
        for layer in self.layers:
            out.extend(layer.sublayers())
        return out


class Add(Layer):
    """Residual join: ``out = relu(main(x) + shortcut(x))``.

    Implements the skip connection of ResNet bottleneck blocks with an
    explicit backward pass that routes the gradient down both branches.
    """

    def __init__(self, name: str, main: Sequential,
                 shortcut: Sequential | None):
        super().__init__(name)
        self.main = main
        self.shortcut = shortcut  # None => identity
        self._relu_mask = None

    def forward(self, x, training=False):
        main_out = self.main.forward(x, training)
        short_out = (self.shortcut.forward(x, training)
                     if self.shortcut is not None else x)
        out = main_out + short_out
        self._relu_mask = out > 0
        return out * self._relu_mask

    def backward(self, grad):
        grad = grad * self._relu_mask
        dx_main = self.main.backward(grad)
        if self.shortcut is not None:
            dx_short = self.shortcut.backward(grad)
        else:
            dx_short = grad
        return dx_main + dx_short

    def sublayers(self) -> list[Layer]:
        out = self.main.sublayers()
        if self.shortcut is not None:
            out.extend(self.shortcut.sublayers())
        return out
