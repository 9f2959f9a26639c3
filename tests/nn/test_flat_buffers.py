"""An optimizer step runs one update per flat buffer.

After a step, a model's parameters and gradients and the optimizer's slots
are views into one buffer per (param dtype, compute dtype) pair, under
their old names and shapes; a backward writes its gradients into those
views; and a model whose layers mix policies gets one buffer, and one
update, per pair, with the slot keys still in model order.
``tests/nn/test_optimizer_step.py`` checks the bits against a
per-parameter update.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import (
    SGD,
    Adam,
    BatchNorm2D,
    Conv2D,
    Dense,
    Flatten,
    Model,
    ReLU,
    Sequential,
    Trainer,
    rng,
)

from .test_optimizer_step import Reference


def tiny_cnn(policies=("float32",) * 3) -> Model:
    conv, bn, fc = policies
    rng.seed_all(9)
    net = Sequential("cnn", [
        Conv2D("conv", 3, 4, kernel=3, pad=1, policy=conv),
        BatchNorm2D("bn", 4, policy=bn), ReLU("relu"), Flatten("flat"),
        Dense("fc", 4 * 5 * 5, 3, policy=fc),
    ])
    return Model("cnn", net, num_classes=3, policy=conv)


def batch():
    gen = np.random.default_rng(8)
    return (gen.standard_normal((4, 3, 5, 5)).astype(np.float32),
            gen.integers(0, 3, 4))


def owners(arrays) -> set[int]:
    return {id(array.base) for array in arrays}


def test_params_grads_and_slots_share_one_buffer_each():
    model = tiny_cnn()
    optimizer = SGD(lr=0.1, momentum=0.9)
    Trainer(model, optimizer, batch_size=4)._step(*batch())
    layers = model.parameter_layers()
    params = [layer.params[key] for layer in layers for key in layer.params]
    grads = [layer.grads[key] for layer in layers for key in layer.grads]
    assert len(owners(params)) == len(owners(grads)) == 1
    assert len(owners(optimizer.velocity.values())) == 1
    assert list(optimizer.state_arrays()) == ["step_count"] + [
        f"velocity/{layer.name}/{key}"
        for layer in layers for key in layer.params]
    assert [p.shape for p in params] == [v.shape for v in
                                         optimizer.velocity.values()]


def test_a_backward_writes_into_the_gradient_views():
    model = tiny_cnn()
    trainer = Trainer(model, Adam(lr=0.01), batch_size=4)
    trainer._step(*batch())
    views = {(layer.name, key): value
             for layer in model.parameter_layers()
             for key, value in layer.grads.items()}
    before = {key: value.copy() for key, value in views.items()}
    trainer._step(*batch())
    for (name, key), view in views.items():
        assert model.get_layer(name).grads[key] is view
    assert any(not np.array_equal(before[key], view)
               for key, view in views.items())


@pytest.mark.parametrize("optimizer", [SGD, Adam])
def test_one_update_per_dtype_pair(monkeypatch, optimizer):
    policies = ("float16", "float32", "float16")
    model = tiny_cnn(policies)
    under_test = optimizer(lr=0.01)
    calls = []
    update = type(under_test)._update

    def counted(self, group, param):
        calls.append((group.params.dtype, group.compute))
        return update(self, group, param)

    monkeypatch.setattr(type(under_test), "_update", counted)
    trainer = Trainer(model, under_test, batch_size=4)
    for _ in range(3):
        trainer._step(*batch())
    pairs = [(np.dtype(np.float16), np.dtype(np.float32)),
             (np.dtype(np.float32), np.dtype(np.float32))]
    assert calls == pairs * 3
    layers = model.parameter_layers()
    assert [p.dtype for layer in layers for p in layer.params.values()] == \
        [np.float16] * 2 + [np.float32] * 2 + [np.float16] * 2

    kind = optimizer.__name__.lower()
    hyper = dict(lr=0.01, momentum=0.0, weight_decay=0.0) \
        if kind == "sgd" else dict(lr=0.01, beta1=0.9, beta2=0.999,
                                   eps=1e-8)
    reference = Trainer(tiny_cnn(policies), Reference(kind, **hyper),
                        batch_size=4)
    for _ in range(3):
        reference._step(*batch())
    got, want = under_test.state_arrays(), reference.optimizer.state_arrays()
    assert list(got) == list(want)
    assert all(np.asarray(got[key]).tobytes() ==
               np.asarray(want[key]).tobytes() for key in got)
    for name, value in model.named_parameters().items():
        assert value.tobytes() == \
            reference.model.named_parameters()[name].tobytes()
