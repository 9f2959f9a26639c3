"""Model container: a named stack of layers plus parameter bookkeeping."""

from __future__ import annotations

import numpy as np

from . import functional as F
from .dtypes import DTypePolicy, get_policy
from .layers import Layer, Sequential


class Model:
    """A classification model: a composite layer stack with utilities.

    ``named_parameters``/``named_state`` expose every trainable array and
    every persistent buffer keyed by ``(layer_name, key)`` — the exact set of
    arrays a checkpoint contains, in a deterministic order.
    """

    def __init__(self, name: str, net: Sequential, num_classes: int,
                 policy: DTypePolicy | str = "float32"):
        self.name = name
        self.net = net
        self.num_classes = num_classes
        self.policy = get_policy(policy)
        # the layer tree is fixed from here on: list it once
        self._layers = net.sublayers()
        self._parameter_layers = [layer for layer in self._layers
                                  if layer.params]
        names = [layer.name for layer in self._parameter_layers]
        duplicates = {n for n in names if names.count(n) > 1}
        if duplicates:
            raise ValueError(f"duplicate layer names: {sorted(duplicates)}")
        # the layer fed the data batch: see backward
        stem = net
        while isinstance(stem, Sequential) and stem.layers:
            stem = stem.layers[0]
        stem.needs_input_grad = False

    # -- compute ----------------------------------------------------------
    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        return self.net.forward(
            x.astype(self.policy.compute_dtype, copy=False), training
        )

    def backward(self, grad: np.ndarray) -> None:
        """Backpropagate the loss gradient *grad* w.r.t. the logits,
        filling every layer's ``grads``.

        The first layer's input gradient, w.r.t. the data batch, is not
        formed: no caller reads it, and for a conv stem it would cost a GEMM
        and a col2im per step.  Nothing is returned.
        """
        self.net.backward(grad)

    def predict(self, x: np.ndarray, batch_size: int = 64) -> np.ndarray:
        """Inference logits, batched to bound memory."""
        outputs = []
        for start in range(0, x.shape[0], batch_size):
            outputs.append(self.forward(x[start:start + batch_size],
                                        training=False))
        return np.concatenate(outputs, axis=0)

    def evaluate(self, x: np.ndarray, labels: np.ndarray,
                 batch_size: int = 64) -> tuple[float, float]:
        """Return (mean loss, accuracy) on a labelled set."""
        logits = self.predict(x, batch_size)
        probs = F.softmax(logits)
        return (float(F.cross_entropy(probs, labels)),
                float(F.accuracy(logits, labels)))

    # -- parameters ----------------------------------------------------------
    def layers(self) -> list[Layer]:
        return self._layers

    def parameter_layers(self) -> list[Layer]:
        return self._parameter_layers

    def named_parameters(self) -> dict[tuple[str, str], np.ndarray]:
        out: dict[tuple[str, str], np.ndarray] = {}
        for layer in self.parameter_layers():
            for key, value in layer.params.items():
                out[(layer.name, key)] = value
        return out

    def named_state(self) -> dict[tuple[str, str], np.ndarray]:
        out: dict[tuple[str, str], np.ndarray] = {}
        for layer in self.layers():
            for key, value in layer.state.items():
                out[(layer.name, key)] = value
        return out

    def get_layer(self, name: str) -> Layer:
        for layer in self.layers():
            if layer.name == name:
                return layer
        raise KeyError(name)

    def set_parameter(self, layer_name: str, key: str,
                      value: np.ndarray) -> None:
        layer = self.get_layer(layer_name)
        target = layer.params if key in layer.params else layer.state
        if key not in target:
            raise KeyError(f"{layer_name} has no parameter/state {key!r}")
        if target[key].shape != value.shape:
            raise ValueError(
                f"{layer_name}/{key}: shape mismatch "
                f"{target[key].shape} vs {value.shape}"
            )
        target[key] = value.astype(target[key].dtype)

    @property
    def num_params(self) -> int:
        return int(sum(p.size for p in self.named_parameters().values()))

    def has_nonfinite_parameters(self) -> bool:
        """True when any weight or persistent buffer is NaN/Inf — the
        paper's signature of a collapsed network."""
        # no float64 cast: it would flag a flipped-in signaling NaN as an
        # invalid operation, and isfinite reads every float width as is
        for value in self.named_parameters().values():
            if not np.all(np.isfinite(value)):
                return True
        for value in self.named_state().values():
            if not np.all(np.isfinite(value)):
                return True
        return False

    def __repr__(self) -> str:
        return (f"<Model {self.name!r} params={self.num_params} "
                f"policy={self.policy.name}>")
