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

import contextlib

import numpy as np

from . import functional as F
from . import init
from .dtypes import DTypePolicy, get_policy
from .rng import StreamRNG, stream

#: Eval batches the running inference pass holds back to back on each
#: activation's batch axis (see :func:`inference_pass`); None outside one.
_pass_batches: int | None = None

#: A layer's ``_cache`` after a forward inside an inference pass.
_NO_BACKWARD_STATE = object()


@contextlib.contextmanager
def inference_pass(batches: int):
    """Run the eval-mode forwards in the block as one inference pass of
    *batches* equal eval batches.

    Inside the block each activation's batch axis holds the batches back
    to back.  Conv2D and Dense run one GEMM per batch, at the shape and
    memory order that batch's GEMM has alone, and every other layer works
    element by element or within one image, so each batch's outputs are
    bitwise those of its own forward.  No layer keeps backward state from a
    forward in the block: a backward after it raises.
    """
    global _pass_batches
    outer, _pass_batches = _pass_batches, batches
    try:
        yield
    finally:
        _pass_batches = outer


def _backward_state(layer: "Layer"):
    """*layer*'s ``_cache``; an error if its last forward was in a pass."""
    if layer._cache is _NO_BACKWARD_STATE:
        raise RuntimeError(
            f"{layer.name}: backward after an inference-pass forward, "
            "which keeps no backward state"
        )
    return layer._cache


class Layer:
    """Base class: named, with parameters, gradients, and persistent state.

    A concrete layer writes its kernel once, as :meth:`_forward` and
    :meth:`_backward` over activations with a leading trial axis,
    ``(trials, batch, ...)``.  A layer outside a stack (``trials is None``)
    runs that kernel as a stack of one: :meth:`forward` and
    :meth:`backward` add a unit trial axis on the way in and drop it on the
    way out, :meth:`_lift` views parameters and state with it, and
    :meth:`_store` writes state back at its own shape, and :meth:`_grad`
    views a gradient with the axis for a kernel to write into.  The lift
    adds no copy: each of these is a view.

    Whatever a layer keeps from a forward for its backward lives in
    ``_cache``; a forward inside an :func:`inference_pass` drops it.
    """

    def __init__(self, name: str, policy: DTypePolicy | str = "float32"):
        self.name = name
        self.policy = get_policy(policy)
        self.params: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}
        self.state: dict[str, np.ndarray] = {}
        #: trial-axis width when this layer is part of a stacked multi-trial
        #: replica (see :mod:`repro.batched`): every param/grad/state array
        #: carries a leading axis of this length and forward/backward take
        #: activations shaped ``(trials, batch, ...)``.  ``None`` (the
        #: default) is one trial at the plain shapes, run through the same
        #: kernels as a stack of one.
        self.trials: int | None = None
        #: whether :meth:`backward` forms the gradient w.r.t. its input.
        #: :class:`~repro.nn.model.Model` clears it on the layer fed the
        #: data batch, whose input gradient nobody reads; a layer that
        #: honours it (Conv2D, Dense) then returns ``None``.
        self.needs_input_grad = True
        self._cache = None

    # -- interface ----------------------------------------------------------
    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if self.trials is not None:
            out = self._forward(x, training)
        else:
            out = self._forward(x[None], training)[0]
        if _pass_batches is not None:
            self._cache = _NO_BACKWARD_STATE
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray | None:
        _backward_state(self)
        if self.trials is not None:
            return self._backward(grad)
        dx = self._backward(grad[None])
        return None if dx is None else dx[0]

    def _forward(self, x: np.ndarray, training: bool) -> np.ndarray:
        raise NotImplementedError

    def _backward(self, grad: np.ndarray) -> np.ndarray | None:
        raise NotImplementedError

    # -- helpers ------------------------------------------------------------
    def _lift(self, array: np.ndarray) -> np.ndarray:
        """One of this layer's params or state arrays, with the trial axis."""
        return array if self.trials is not None else array[None]

    def _param(self, key: str) -> np.ndarray:
        """Parameter cast to compute dtype, with the trial axis."""
        return self._lift(self.params[key]).astype(
            self.policy.compute_dtype, copy=False)

    def _grad(self, key: str) -> np.ndarray:
        """Gradient entry *key* with the trial axis, for a kernel to write
        into (``out=``): the bytes land in the array ``grads`` holds, which
        an optimizer's flat buffer may own."""
        return self._lift(self.grads[key])

    @staticmethod
    def _store(group: dict[str, np.ndarray], key: str,
               value: np.ndarray) -> None:
        """Put a kernel's ``(trials, ...)`` result in ``state`` at the
        shape its entry has (a stack of one drops the unit axis)."""
        group[key] = value.reshape(group[key].shape)

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
    """2-D convolution lowered to GEMM via im2col.

    The NCHW output is a view of channels-last ``(N, H, W, C)`` memory.
    Stacked, the ``(T, N, C, H, W)`` output is a view of ``(N, H, W, T,
    C)`` memory: each pixel holds every trial's channels side by side, so
    a per-(trial, channel) reduction over (image, row, column) runs one
    inner loop over all of them.  A stack of one has the lone layout.
    """

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

    def _forward(self, x, training):
        # one im2col over the folded T*N batch, split back per trial and
        # eval batch with the memory order one batch's matrix has alone,
        # then a GEMM per batch against its trial's weights, written with
        # a row stride of T*C_out so the trials sit side by side per pixel
        t, n, c, h, w = x.shape
        if c != self.in_channels:
            raise ValueError(
                f"{self.name}: expected {self.in_channels} channels, got {c}"
            )
        out_h = F.conv_output_size(h, self.kernel, self.stride, self.pad)
        out_w = F.conv_output_size(w, self.kernel, self.stride, self.pad)
        batches = _pass_batches or 1
        cols = F.im2col(x.reshape(t * n, c, h, w), self.kernel,
                        self.stride, self.pad, trials=t * batches)
        weight = self._param("W").reshape(t, self.out_channels, -1)
        rows = n // batches * out_h * out_w
        out = np.empty((batches, rows, t, self.out_channels),
                       dtype=np.result_type(cols, weight)).transpose(2, 0, 1, 3)
        np.matmul(cols.reshape(t, batches, rows, cols.shape[-1]),
                  weight.transpose(0, 2, 1)[:, None], out=out)
        np.add(out, self._param("b")[:, None, None, :], out=out)
        out = out.reshape(t, n, out_h, out_w, self.out_channels)
        self._cache = (x.shape, cols)
        return out.transpose(0, 1, 4, 2, 3)

    def _backward(self, grad):
        x_shape, cols = self._cache
        t, n = x_shape[0], x_shape[1]
        grad_mat = grad.transpose(0, 1, 3, 4, 2).reshape(
            t, -1, self.out_channels
        )
        np.matmul(grad_mat.transpose(0, 2, 1), cols,
                  out=self._grad("W").reshape(t, self.out_channels, -1))
        np.add.reduce(grad_mat, axis=1, out=self._grad("b"))
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

    def _forward(self, x, training):
        # a GEMM per trial and eval batch: a one-image batch stays a
        # vector-matrix product, as it is alone
        self._cache = x
        t, n, features = x.shape
        batches = _pass_batches or 1
        out = np.matmul(x.reshape(t, batches, -1, features),
                        self._param("W").transpose(0, 2, 1)[:, None])
        np.add(out, self._param("b")[:, None, None, :], out=out)
        return out.reshape(t, n, -1)

    def _backward(self, grad):
        x = self._cache
        np.matmul(grad.transpose(0, 2, 1), x, out=self._grad("W"))
        np.add.reduce(grad, axis=1, out=self._grad("b"))
        if not self.needs_input_grad:
            return None
        return np.matmul(grad, self._param("W"))


class ReLU(Layer):
    """Rectified linear activation with cached mask for the backward pass."""

    def __init__(self, name: str = "relu"):
        super().__init__(name)

    def _forward(self, x, training):
        self._cache = x > 0
        return x * self._cache

    def _backward(self, grad):
        return grad * self._cache


class Flatten(Layer):
    """Reshape NCHW activations to (N, C*H*W), remembering the input shape."""

    def __init__(self, name: str = "flatten"):
        super().__init__(name)

    def _forward(self, x, training):
        self._cache = x.shape
        return x.reshape(x.shape[0], x.shape[1], -1)

    def _backward(self, grad):
        return grad.reshape(self._cache)


class MaxPool2D(Layer):
    """Max pooling; the backward pass routes gradients to the argmax cells."""

    def __init__(self, name: str, kernel: int, stride: int | None = None):
        super().__init__(name)
        self.kernel = kernel
        self.stride = stride or kernel

    def _forward(self, x, training):
        # pooling has no parameters: every (trial, image, channel) plane
        # pools alone, so the planes fold into one batch
        h, w = x.shape[-2:]
        k, s = self.kernel, self.stride
        out_h = F.conv_output_size(h, k, s, 0)
        out_w = F.conv_output_size(w, k, s, 0)
        planes = x.reshape(-1, 1, h, w)
        cols = F.im2col(planes, k, s, 0)
        arg = np.argmax(cols, axis=1)
        out = cols[np.arange(cols.shape[0]), arg]
        self._cache = (x.shape, planes.shape, cols.shape, arg)
        return out.reshape(x.shape[:-2] + (out_h, out_w))

    def _backward(self, grad):
        x_shape, planes_shape, cols_shape, arg = self._cache
        grad_cols = np.zeros(cols_shape, dtype=grad.dtype)
        grad_cols[np.arange(cols_shape[0]), arg] = grad.reshape(-1)
        dx = F.col2im(grad_cols, planes_shape, self.kernel, self.stride, 0)
        return dx.reshape(x_shape)


class GlobalAvgPool2D(Layer):
    """Global average pooling: NCHW -> (N, C)."""

    def __init__(self, name: str = "gap"):
        super().__init__(name)

    def _forward(self, x, training):
        self._cache = x.shape
        return x.mean(axis=(-2, -1))

    def _backward(self, grad):
        h, w = self._cache[-2:]
        return np.broadcast_to(
            grad[..., None, None] / (h * w), self._cache
        ).astype(grad.dtype)


class AvgPool2D(Layer):
    """Average pooling over non-overlapping (or strided) windows."""

    def __init__(self, name: str, kernel: int, stride: int | None = None):
        super().__init__(name)
        self.kernel = kernel
        self.stride = stride or kernel

    def _forward(self, x, training):
        # planes fold into one batch, as in MaxPool2D
        h, w = x.shape[-2:]
        k, s = self.kernel, self.stride
        out_h = F.conv_output_size(h, k, s, 0)
        out_w = F.conv_output_size(w, k, s, 0)
        planes = x.reshape(-1, 1, h, w)
        cols = F.im2col(planes, k, s, 0)
        out = cols.mean(axis=1)
        self._cache = (x.shape, planes.shape, cols.shape)
        return out.reshape(x.shape[:-2] + (out_h, out_w))

    def _backward(self, grad):
        x_shape, planes_shape, cols_shape = self._cache
        grad_cols = np.broadcast_to(
            grad.reshape(-1, 1) / (self.kernel * self.kernel), cols_shape
        ).astype(grad.dtype)
        dx = F.col2im(grad_cols, planes_shape, self.kernel, self.stride, 0)
        return dx.reshape(x_shape)


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

    def _window_sum(self, squares: np.ndarray) -> np.ndarray:
        half = self.size // 2
        channels = squares.shape[1]
        padded = np.pad(squares, ((0, 0), (half, half), (0, 0), (0, 0)))
        out = np.zeros_like(squares)
        for offset in range(self.size):
            out += padded[:, offset:offset + channels]
        return out

    def _forward(self, x, training):
        # channel-window sums index axis 1: fold the trials into the batch
        orig = x.shape
        x = x.reshape(-1, *orig[2:])
        squares = x * x
        norm = self.k + (self.alpha / self.size) * self._window_sum(squares)
        scale = norm ** (-self.beta)
        self._cache = (orig, x, norm, scale)
        return (x * scale).reshape(orig)

    def _backward(self, grad):
        orig, x, norm, scale = self._cache
        grad = grad.reshape(x.shape)
        # d(out_c')/d(x_c) has a direct term and a cross-channel term
        direct = grad * scale
        cross_coeff = (grad * x * (norm ** (-self.beta - 1.0)))
        summed = self._window_sum(cross_coeff)
        cross = (-2.0 * self.beta * self.alpha / self.size) * x * summed
        return (direct + cross).reshape(orig)


def _channel_mean(x: np.ndarray, keepdims: bool = False) -> np.ndarray:
    """``x.mean(axis=(1, 3, 4), keepdims=keepdims)`` without numpy's Python
    wrapper: ``numpy._core._methods._mean``'s own steps, bit for bit — the
    sum (in float32 for float16 input), an in-place divide by the item
    count, and for float16 a cast back.  ``_mean`` divides by an ``intp``,
    which runs the divide in float64 and rounds back; a Python ``int``
    keeps it in the sum's dtype, and a float32 quotient rounded once from
    float64 is the correctly rounded float32 quotient (53 >= 2 * 24 + 2),
    so the bytes are the same."""
    half = x.dtype.type is np.float16
    total = np.add.reduce(x, axis=(1, 3, 4), dtype=np.float32 if half else None,
                          keepdims=keepdims)
    np.true_divide(total, x.shape[1] * x.shape[3] * x.shape[4], out=total)
    return total.astype(np.float16) if half else total


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

    def _forward(self, x, training):
        # (T, N, C, H, W): batch statistics reduce over (N, H, W) per
        # trial; gamma, beta and the running stats are (T, C)
        compute = self.policy.compute_dtype
        if training:
            # one explicit centering pass shared by the variance and x_hat;
            # bitwise it is exactly ``x.var`` (same subtract, same sums in
            # the same memory order), minus two redundant passes over x
            mean = _channel_mean(x)
            delta = x - mean[:, None, :, None, None]
            var = _channel_mean(delta * delta)
            for key, batch in (("running_mean", mean), ("running_var", var)):
                running = self._lift(self.state[key]).astype(compute,
                                                             copy=False)
                self._store(self.state, key, (
                    self.momentum * running + (1 - self.momentum) * batch
                ).astype(self.policy.param_dtype, copy=False))
        else:
            mean = self._lift(self.state["running_mean"]).astype(
                compute, copy=False)
            var = self._lift(self.state["running_var"]).astype(
                compute, copy=False)
            delta = x - mean[:, None, :, None, None]
        std = np.sqrt(var + self.eps)
        # in-place where the operand is dead afterwards: same ops in the
        # same order, just without the intermediate allocations
        x_hat = np.divide(delta, std[:, None, :, None, None], out=delta)
        out = self._param("gamma")[:, None, :, None, None] * x_hat
        np.add(out, self._param("beta")[:, None, :, None, None], out=out)
        self._cache = (x_hat, std)
        return out

    def _backward(self, grad):
        # standard batch-norm backward (training-mode statistics), with
        # x_hat copied into the gradient's memory order first: x_hat
        # follows the conv output, the gradient col2im's C order, and
        # products over one order run faster than over the two mixed
        x_hat, std = self._cache
        ordered = np.empty_like(grad, dtype=x_hat.dtype)
        np.copyto(ordered, x_hat)
        x_hat = ordered
        scratch = grad * x_hat
        np.add.reduce(scratch, axis=(1, 3, 4), out=self._grad("gamma"))
        np.add.reduce(grad, axis=(1, 3, 4), out=self._grad("beta"))
        dx_hat = grad * self._param("gamma")[:, None, :, None, None]
        term2 = _channel_mean(dx_hat, keepdims=True)
        cross = np.multiply(dx_hat, x_hat, out=scratch)
        term3 = np.multiply(
            x_hat, _channel_mean(cross, keepdims=True), out=scratch
        )
        out = np.subtract(dx_hat, term2, out=dx_hat)
        np.subtract(out, term3, out=out)
        return np.divide(out, std[:, None, :, None, None], out=out)


class Dropout(Layer):
    """Inverted dropout driven by a deterministic named RNG stream."""

    def __init__(self, name: str, rate: float):
        super().__init__(name)
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1): {rate}")
        self.rate = rate
        self._stream = StreamRNG(f"dropout/{name}")

    #: draws-per-epoch stride: any realistic epoch makes far fewer forward
    #: passes than this, so per-epoch stream windows never overlap.
    EPOCH_STRIDE = 1_000_003

    def on_epoch_start(self, epoch: int) -> None:
        self._stream.reset(epoch * self.EPOCH_STRIDE)

    def _forward(self, x, training):
        if not training or self.rate == 0.0:
            self._cache = None  # no mask: the backward passes grad through
            return x
        rng = self._stream.next()
        keep = 1.0 - self.rate
        # masks are a pure function of seed and epoch, not of the weights,
        # so every trial draws the same one: draw it once at one trial's
        # shape and broadcast it across the trial axis
        self._cache = (rng.random(x.shape[1:]) < keep).astype(x.dtype) / keep
        return x * self._cache

    def _backward(self, grad):
        if self._cache is None:
            return grad
        return grad * self._cache


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

    def forward(self, x, training=False):
        main_out = self.main.forward(x, training)
        short_out = (self.shortcut.forward(x, training)
                     if self.shortcut is not None else x)
        out = main_out + short_out
        mask = out > 0
        # the join's own ReLU mask is its backward state
        self._cache = mask if _pass_batches is None else _NO_BACKWARD_STATE
        return out * mask

    def backward(self, grad):
        grad = grad * _backward_state(self)
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
