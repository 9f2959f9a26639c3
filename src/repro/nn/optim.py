"""Optimizers: SGD (with momentum/weight decay), Adam and RMSProp.

Updates are computed at the policy's compute dtype and stored back at the
parameter dtype, so fp16 runs keep fp16 checkpoints while updating stably.
Optimizer slots (momentum buffers, Adam moments, step counter) are exposed
through ``state_arrays`` so facades can include them in checkpoints — the
paper notes (Fig. 3b) that *not* checkpointing optimizer state changes
post-restart behaviour.

A step is one update per flat buffer, not per parameter: the model's
parameters and gradients, and the slots, live in one buffer each per
(param dtype, compute dtype) pair (:class:`_FlatBuffers`), and every
array a layer or a checkpoint sees is a view into one.  Every update is
element by element, so the flat update gives each element the bits the
per-parameter one gave it.
"""

from __future__ import annotations

import numpy as np

from .model import Model


class _FlatGroup:
    """The parameters of one (param dtype, compute dtype) pair, flat."""

    def __init__(self, index: int, size: int, param_dtype: np.dtype,
                 compute_dtype: np.dtype):
        #: position among its layout's groups (and their slot buffers)
        self.index = index
        self.compute = compute_dtype
        #: parameters at the param dtype: the step writes its result here
        self.params = np.empty(size, dtype=param_dtype)
        #: gradients at the compute dtype, written by the layers' backward
        self.grads = np.empty(size, dtype=compute_dtype)


class _FlatBuffers:
    """A model's parameters and gradients, and an optimizer's slots, in one
    flat buffer per (param dtype, compute dtype) pair.

    Building it copies every array into its buffer and puts a view of it
    back where the array was (``layer.params[key]``, ``layer.grads[key]``,
    a slot dict's entry), so each parameter's bytes, shape and checkpoint
    name stay as they were.  Code that replaces one of those arrays
    (stacking, pruning, ``load_state_arrays``, ``set_parameter``) leaves
    the buffers stale: :meth:`intact` sees that, and the optimizer builds
    them anew.
    """

    def __init__(self, model: Model):
        self.model = model
        # one entry per parameter, in model order
        self.layers = [layer for layer in model.parameter_layers()
                       for _ in layer.params]
        self.keys = [key for layer in model.parameter_layers()
                     for key in layer.params]
        self.names = [f"{layer.name}/{key}"
                      for layer, key in zip(self.layers, self.keys)]
        # (param dtype, compute dtype) -> [group index, size so far]
        pairs: dict[tuple[np.dtype, np.dtype], list[int]] = {}
        #: (group index, start, stop, shape) of each entry
        self._places = []
        for layer, key in zip(self.layers, self.keys):
            group = pairs.setdefault(
                (layer.policy.param_dtype, layer.policy.compute_dtype),
                [len(pairs), 0])
            param = layer.params[key]
            self._places.append((group[0], group[1], group[1] + param.size,
                                 param.shape))
            group[1] += param.size
        self.groups = [_FlatGroup(index, size, *pair)
                       for pair, (index, size) in pairs.items()]
        self.params = self._install([group.params for group in self.groups],
                                    [layer.params for layer in self.layers],
                                    self.keys)
        self.grads = self._install([group.grads for group in self.groups],
                                   [layer.grads for layer in self.layers],
                                   self.keys)
        #: id of each slot dict -> (the dict, its views, its flat buffers)
        self._slots: dict[int, tuple[dict, list, list]] = {}

    def _install(self, flats: list[np.ndarray], dicts: list[dict],
                 keys: list[str]) -> list[np.ndarray]:
        """Copy each ``dicts[i][keys[i]]`` (zeros where it is missing) into
        its place in *flats* and put the view back in the dict, in entry
        order; returns the views."""
        views = []
        for (index, start, stop, shape), target, key in zip(
                self._places, dicts, keys):
            view = flats[index][start:stop].reshape(shape)
            view[...] = target.get(key, 0)
            target[key] = view
            views.append(view)
        return views

    def slot(self, slots: dict[str, np.ndarray]) -> list[np.ndarray]:
        """Per-group flat buffers of the slot dict *slots*, keyed like the
        parameters (``layer/key``): built on first use from the entries it
        holds, and zeros for those it lacks, which it gains in model
        order."""
        known = self._slots.get(id(slots))
        if known is None:
            flats = [np.empty_like(group.grads) for group in self.groups]
            views = self._install(flats, [slots] * len(self.names),
                                  self.names)
            known = self._slots[id(slots)] = (slots, views, flats)
        return known[2]

    def intact(self, model: Model) -> bool:
        """Whether every array of *model* and of the slots built so far is
        still the view this layout put there."""
        if model is not self.model:
            return False
        for layer, key, param, grad in zip(self.layers, self.keys,
                                           self.params, self.grads):
            if (layer.params.get(key) is not param
                    or layer.grads.get(key) is not grad):
                return False
        for slots, views, _ in self._slots.values():
            for name, view in zip(self.names, views):
                if slots.get(name) is not view:
                    return False
        return True


class Optimizer:
    """Base optimizer over a model's parameter layers."""

    def __init__(self, lr: float):
        if lr <= 0:
            raise ValueError(f"learning rate must be positive: {lr}")
        self.lr = lr
        self.step_count = 0
        self._flat: _FlatBuffers | None = None

    def step(self, model: Model) -> None:
        """One update of every parameter of *model*: one :meth:`_update`
        per flat buffer, built anew when an array was replaced."""
        self.step_count += 1
        flat = self._flat
        if flat is None or not flat.intact(model):
            flat = self._flat = _FlatBuffers(model)
        for group in flat.groups:
            # copy=False: at a matching dtype (fp32, fp64 policies) the
            # parameters update in place
            self._update(group, group.params.astype(group.compute,
                                                    copy=False))

    def _update(self, group: _FlatGroup, param: np.ndarray) -> None:
        """Write *group*'s updated parameters into ``group.params``.

        *param* is ``group.params`` at the compute dtype (the same array
        when the dtypes match), ``group.grads`` the gradients; slot
        buffers come from :meth:`_slot`.  The update runs the
        per-parameter arithmetic, operand for operand.
        """
        raise NotImplementedError

    def _slot(self, group: _FlatGroup,
              slots: dict[str, np.ndarray]) -> np.ndarray:
        """*group*'s flat buffer of the slot dict *slots*."""
        return self._flat.slot(slots)[group.index]

    def state_arrays(self) -> dict[str, np.ndarray]:
        """Persistent optimizer state for checkpointing."""
        return {"step_count": np.int64(self.step_count)}

    def slot_dicts(self) -> list[dict[str, np.ndarray]]:
        """The per-parameter slot buffers, as mutable dicts.

        :mod:`repro.batched` stacks these along a leading trial axis and
        prunes collapsed trials out of them; the base optimizer has none.
        """
        return []

    def load_state_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        if "step_count" in arrays:
            self.step_count = int(np.asarray(arrays["step_count"])[()])


class SGD(Optimizer):
    """Stochastic gradient descent with classical momentum."""

    def __init__(self, lr: float = 0.01, momentum: float = 0.0,
                 weight_decay: float = 0.0):
        super().__init__(lr)
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.velocity: dict[str, np.ndarray] = {}

    def _update(self, group, param):
        grad = group.grads
        if self.weight_decay:
            grad = grad + self.weight_decay * param
        if self.momentum:
            vel = self._slot(group, self.velocity)
            np.multiply(self.momentum, vel, out=vel)
            np.subtract(vel, self.lr * grad, out=vel)
            np.add(param, vel, out=group.params)
        else:
            np.subtract(param, self.lr * grad, out=group.params)

    def state_arrays(self):
        out = super().state_arrays()
        for slot, vel in self.velocity.items():
            out[f"velocity/{slot}"] = vel
        return out

    def slot_dicts(self):
        return [self.velocity]

    def load_state_arrays(self, arrays):
        super().load_state_arrays(arrays)
        for key, value in arrays.items():
            if key.startswith("velocity/"):
                self.velocity[key[len("velocity/"):]] = np.asarray(value)


class Adam(Optimizer):
    """Adam with bias correction."""

    def __init__(self, lr: float = 0.001, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        super().__init__(lr)
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}

    def _update(self, group, param):
        grad = group.grads
        m, v = self._slot(group, self.m), self._slot(group, self.v)
        np.multiply(self.beta1, m, out=m)
        np.add(m, (1 - self.beta1) * grad, out=m)
        np.multiply(self.beta2, v, out=v)
        np.add(v, (1 - self.beta2) * grad * grad, out=v)
        t = self.step_count
        m_hat = m / (1 - self.beta1 ** t)
        v_hat = v / (1 - self.beta2 ** t)
        np.subtract(param, self.lr * m_hat / (np.sqrt(v_hat) + self.eps),
                    out=group.params)

    def state_arrays(self):
        out = super().state_arrays()
        for slot, value in self.m.items():
            out[f"m/{slot}"] = value
        for slot, value in self.v.items():
            out[f"v/{slot}"] = value
        return out

    def slot_dicts(self):
        return [self.m, self.v]

    def load_state_arrays(self, arrays):
        super().load_state_arrays(arrays)
        for key, value in arrays.items():
            if key.startswith("m/"):
                self.m[key[2:]] = np.asarray(value)
            elif key.startswith("v/"):
                self.v[key[2:]] = np.asarray(value)


class RMSProp(Optimizer):
    """RMSProp with exponentially averaged squared gradients."""

    def __init__(self, lr: float = 0.001, decay: float = 0.9,
                 eps: float = 1e-8):
        super().__init__(lr)
        if not 0.0 < decay < 1.0:
            raise ValueError("decay must be in (0, 1)")
        self.decay = decay
        self.eps = eps
        self.mean_square: dict[str, np.ndarray] = {}

    def _update(self, group, param):
        grad = group.grads
        ms = self._slot(group, self.mean_square)
        np.multiply(self.decay, ms, out=ms)
        np.add(ms, (1 - self.decay) * grad * grad, out=ms)
        np.subtract(param, self.lr * grad / (np.sqrt(ms) + self.eps),
                    out=group.params)

    def state_arrays(self):
        out = super().state_arrays()
        for slot, value in self.mean_square.items():
            out[f"ms/{slot}"] = value
        return out

    def slot_dicts(self):
        return [self.mean_square]

    def load_state_arrays(self, arrays):
        super().load_state_arrays(arrays)
        for key, value in arrays.items():
            if key.startswith("ms/"):
                self.mean_square[key[3:]] = np.asarray(value)
