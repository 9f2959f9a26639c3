"""An optimizer step equals a per-parameter update, bit for bit.

Each case trains a tiny model (lone, or a stack of three trials) for a few
steps twice: once with the library optimizer, once with :class:`Reference`,
which writes the update out one parameter at a time (cast to the compute
dtype, update, cast back; slots created as zeros on first use).  The
parameters, the state and ``state_arrays()`` (keys, dtypes, shapes and
bytes) must agree after every case: SGD with momentum 0 and 0.9 and weight
decay 0 and 1e-4, Adam and RMSProp, under the float16, float32 and float64
policies; a prune between steps; ``load_state_arrays`` and
``set_parameter`` between steps; and two ``DataParallelTrainer`` epochs.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.batched import stack_models, stack_optimizers
from repro.distributed import DataParallelTrainer
from repro.nn import (
    SGD,
    Adam,
    BatchedTrainer,
    BatchNorm2D,
    Conv2D,
    Dense,
    Flatten,
    Model,
    ReLU,
    RMSProp,
    Sequential,
    Trainer,
    functional as F,
    rng,
)

BATCH, STEPS, TRIALS = 4, 4, 3
POLICIES = ["float16", "float32", "float64"]
CASES = {
    "sgd": ("sgd", dict(lr=0.05, momentum=0.0, weight_decay=0.0)),
    "sgd-momentum": ("sgd", dict(lr=0.05, momentum=0.9, weight_decay=0.0)),
    "sgd-decay": ("sgd", dict(lr=0.05, momentum=0.0, weight_decay=1e-4)),
    "sgd-momentum-decay": ("sgd", dict(lr=0.05, momentum=0.9,
                                       weight_decay=1e-4)),
    "adam": ("adam", dict(lr=0.01, beta1=0.9, beta2=0.999, eps=1e-8)),
    "rmsprop": ("rmsprop", dict(lr=0.01, decay=0.9, eps=1e-8)),
}
LIBRARY = {"sgd": SGD, "adam": Adam, "rmsprop": RMSProp}
SLOTS = {"sgd": ("velocity",), "adam": ("m", "v"), "rmsprop": ("ms",)}


class Reference:
    """The optimizer step written out one parameter at a time."""

    def __init__(self, kind: str, **hyper):
        self.kind = kind
        self.hyper = hyper
        self.step_count = 0
        self.slots: dict[str, dict[str, np.ndarray]] = {
            name: {} for name in SLOTS[kind]}

    def step(self, model) -> None:
        self.step_count += 1
        update = getattr(self, f"_{self.kind}")
        for layer in model.parameter_layers():
            compute = layer.policy.compute_dtype
            for key in layer.params:
                param = layer.params[key].astype(compute, copy=False)
                grad = layer.grads[key].astype(compute, copy=False)
                new = update(f"{layer.name}/{key}", param, grad)
                layer.params[key] = new.astype(layer.policy.param_dtype,
                                               copy=False)

    def _slot(self, name: str, slot: str, like: np.ndarray) -> np.ndarray:
        value = self.slots[name].get(slot)
        return np.zeros_like(like) if value is None else value

    def _sgd(self, slot, param, grad):
        lr, momentum = self.hyper["lr"], self.hyper["momentum"]
        if self.hyper["weight_decay"]:
            grad = grad + self.hyper["weight_decay"] * param
        if momentum:
            vel = momentum * self._slot("velocity", slot, param)
            np.subtract(vel, lr * grad, out=vel)
            self.slots["velocity"][slot] = vel
            return param + vel
        return param - lr * grad

    def _adam(self, slot, param, grad):
        h = self.hyper
        m = h["beta1"] * self._slot("m", slot, param) \
            + (1 - h["beta1"]) * grad
        v = h["beta2"] * self._slot("v", slot, param) \
            + (1 - h["beta2"]) * grad * grad
        self.slots["m"][slot], self.slots["v"][slot] = m, v
        m_hat = m / (1 - h["beta1"] ** self.step_count)
        v_hat = v / (1 - h["beta2"] ** self.step_count)
        return param - h["lr"] * m_hat / (np.sqrt(v_hat) + h["eps"])

    def _rmsprop(self, slot, param, grad):
        h = self.hyper
        ms = h["decay"] * self._slot("ms", slot, param) \
            + (1 - h["decay"]) * grad * grad
        self.slots["ms"][slot] = ms
        return param - h["lr"] * grad / (np.sqrt(ms) + h["eps"])

    def state_arrays(self) -> dict[str, np.ndarray]:
        out = {"step_count": np.int64(self.step_count)}
        for name, slots in self.slots.items():
            for slot, value in slots.items():
                out[f"{name}/{slot}"] = value
        return out

    def slot_dicts(self):
        return list(self.slots.values())

    def load_state_arrays(self, arrays) -> None:
        self.step_count = int(np.asarray(arrays["step_count"])[()])
        for key, value in arrays.items():
            name, _, slot = key.partition("/")
            if name in self.slots:
                self.slots[name][slot] = np.asarray(value)


def optimizers(case: str):
    """(library optimizer, reference) for one entry of ``CASES``."""
    kind, hyper = CASES[case]
    return LIBRARY[kind](**hyper), Reference(kind, **hyper)


def tiny_cnn(policy: str, seed: int) -> Model:
    rng.seed_all(seed)
    net = Sequential("cnn", [
        Conv2D("conv", 3, 4, kernel=3, pad=1, policy=policy),
        BatchNorm2D("bn", 4, policy=policy), ReLU("relu"),
        Conv2D("conv2", 4, 3, kernel=3, stride=2, policy=policy),
        ReLU("relu2"), Flatten("flat"),
        Dense("fc", 3 * 3 * 3, 5, policy=policy),
    ])
    return Model("cnn", net, num_classes=5, policy=policy)


def batches(count: int = 2 * STEPS):
    gen = np.random.default_rng(3)
    return [(gen.standard_normal((BATCH, 3, 7, 7)).astype(np.float32),
             gen.integers(0, 5, BATCH)) for _ in range(count)]


def pair(policy: str, case: str, stacked: bool):
    """Two trainers over equal models: library and reference optimizer."""
    out = []
    for opt in optimizers(case):
        if not stacked:
            out.append(Trainer(tiny_cnn(policy, 5), opt, batch_size=BATCH))
            continue
        models = [tiny_cnn(policy, 5 + t) for t in range(TRIALS)]
        out.append(BatchedTrainer(stack_models(models),
                                  stack_optimizers([opt]),
                                  batch_size=BATCH))
    return out


def steps(trainers, data) -> None:
    with np.errstate(all="ignore"):
        for x, labels in data:
            for trainer in trainers:
                trainer._step(x, labels)


def assert_same(trainer, ref) -> None:
    arrays = [{(layer.name, key): value
               for layer in t.model.layers()
               for group in (layer.params, layer.state)
               for key, value in group.items()} for t in (trainer, ref)]
    states = [t.optimizer.state_arrays() for t in (trainer, ref)]
    for got, want in (arrays, states):
        assert list(got) == list(want)
        for key, value in got.items():
            value, other = np.asarray(value), np.asarray(want[key])
            assert (value.dtype, value.shape) == (other.dtype, other.shape)
            assert value.tobytes() == other.tobytes(), key


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("stacked", [False, True])
def test_steps_equal_per_parameter_updates(case, policy, stacked):
    trainer, ref = pair(policy, case, stacked)
    steps((trainer, ref), batches(STEPS))
    assert trainer.optimizer.step_count == STEPS
    assert_same(trainer, ref)


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("policy", ["float16", "float32"])
def test_a_prune_between_steps(case, policy):
    trainer, ref = pair(policy, case, stacked=True)
    data = batches()
    steps((trainer, ref), data[:STEPS])
    keep = np.array([True, False, True])
    for t in (trainer, ref):
        t._prune(keep)
    assert trainer.active == [0, 2]
    steps((trainer, ref), data[STEPS:])
    assert_same(trainer, ref)
    assert_arrays_match(trainer.snapshots[1], ref.snapshots[1])


def assert_arrays_match(got: dict, want: dict) -> None:
    assert list(got) == list(want)
    for key, value in got.items():
        assert value.tobytes() == want[key].tobytes(), key


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("stacked", [False, True])
def test_load_state_arrays_and_set_parameter_between_steps(case, stacked):
    """Replaced slot and parameter arrays, with new values, are what the
    next step reads."""
    trainer, ref = pair("float32", case, stacked)
    data = batches()
    steps((trainer, ref), data[:STEPS])
    for t in (trainer, ref):
        arrays = {key: np.asarray(value) * np.asarray(0.5, value.dtype)
                  if key != "step_count" else value
                  for key, value in t.optimizer.state_arrays().items()}
        t.optimizer.load_state_arrays(arrays)
        weight = t.model.get_layer("fc").params["W"]
        t.model.set_parameter("fc", "W", weight[..., ::-1].copy())
    steps((trainer, ref), data[STEPS:])
    assert_same(trainer, ref)


@pytest.mark.parametrize("case", sorted(CASES))
def test_a_fresh_optimizer_loaded_after_a_step(case):
    trainer, ref = pair("float32", case, stacked=False)
    data = batches()
    steps((trainer, ref), data[:STEPS])
    for t, fresh in zip((trainer, ref), optimizers(case)):
        fresh.load_state_arrays({key: np.array(value) for key, value
                                 in t.optimizer.state_arrays().items()})
        t.optimizer = fresh
    steps((trainer, ref), data[STEPS:])
    assert_same(trainer, ref)


class ReferenceDataParallel(DataParallelTrainer):
    """The data-parallel step written out: all-reduced gradients put in
    ``grads`` as new arrays, then the optimizer's step."""

    def _step(self, batch, labels):
        shards = np.array_split(np.arange(len(labels)), self.num_workers)
        per_worker = []
        loss, correct = 0.0, 0
        for shard in shards:
            if shard.size == 0:
                continue
            logits = self.model.forward(batch[shard], training=True)
            shard_loss, grad = F.softmax_cross_entropy_with_grad(
                logits, labels[shard])
            loss += float(shard_loss) * shard.size
            correct += int(np.sum(np.argmax(logits, axis=1)
                                  == labels[shard]))
            self.model.backward(grad)
            per_worker.append({
                f"{layer.name}/{key}": layer.grads[key].copy()
                for layer in self.model.parameter_layers()
                for key in layer.grads})
        while len(per_worker) < self.num_workers:
            per_worker.append(per_worker[-1])
        averaged, _ = self.horovod.allreduce(per_worker)
        for layer in self.model.parameter_layers():
            for key in layer.grads:
                layer.grads[key] = averaged[f"{layer.name}/{key}"]
        self.optimizer.step(self.model)
        return [loss / len(labels)], [correct]


@pytest.mark.parametrize("case", ["sgd-momentum-decay", "adam"])
@pytest.mark.parametrize("policy", ["float16", "float32"])
def test_two_data_parallel_epochs(case, policy):
    gen = np.random.default_rng(4)
    x = gen.standard_normal((18, 3, 7, 7)).astype(np.float32)
    labels = gen.integers(0, 5, 18)
    metrics = []
    trainers = []
    for cls, opt in zip((DataParallelTrainer, ReferenceDataParallel),
                        optimizers(case)):
        trainer = cls(tiny_cnn(policy, 5), opt, num_workers=3,
                      batch_size=8, fusion_threshold=0)
        metrics.append([trainer.run_epoch(x, labels) for _ in range(2)])
        trainers.append(trainer)
    assert metrics[0] == metrics[1]
    assert_same(*trainers)
