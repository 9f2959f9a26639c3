"""Tests for optimizers, the Model container, and the deterministic trainer."""

import numpy as np
import pytest

from repro.data import synthetic_cifar10
from repro.nn import (
    Adam,
    Dense,
    Model,
    ReLU,
    SGD,
    Sequential,
    Trainer,
    get_policy,
    rng,
)


@pytest.fixture(autouse=True)
def _seed():
    rng.seed_all(321)


def tiny_mlp(policy="float32"):
    net = Sequential("mlp", [
        Dense("fc1", 8, 16, policy=policy), ReLU("r1"),
        Dense("fc2", 16, 3, policy=policy),
    ])
    return Model("mlp", net, num_classes=3, policy=policy)


def toy_problem(n=90, seed=0):
    gen = np.random.default_rng(seed)
    x = gen.standard_normal((n, 8)).astype(np.float32)
    labels = (np.abs(x[:, 0]) + np.abs(x[:, 1]) > 1.4).astype(np.int64)
    labels += (x[:, 2] > 1.0).astype(np.int64)
    return x, np.clip(labels, 0, 2)


class TestSGD:
    def test_plain_sgd_descends(self):
        model = tiny_mlp()
        x, y = toy_problem()
        trainer = Trainer(model, SGD(lr=0.1), batch_size=16)
        history = trainer.fit(x, y, epochs=15)
        assert history.epochs[-1].train_loss < history.epochs[0].train_loss

    def test_momentum_state_roundtrip(self):
        model = tiny_mlp()
        x, y = toy_problem()
        opt = SGD(lr=0.05, momentum=0.9)
        Trainer(model, opt, batch_size=16).fit(x, y, epochs=2)
        arrays = opt.state_arrays()
        assert any(k.startswith("velocity/") for k in arrays)
        clone = SGD(lr=0.05, momentum=0.9)
        clone.load_state_arrays(arrays)
        assert clone.step_count == opt.step_count
        for slot, value in opt.velocity.items():
            np.testing.assert_array_equal(clone.velocity[slot], value)

    def test_weight_decay_shrinks_weights(self):
        model = tiny_mlp()
        w0 = model.get_layer("fc1").params["W"].copy()
        opt = SGD(lr=0.1, weight_decay=0.5)
        for layer in model.parameter_layers():
            for key in layer.grads:
                layer.grads[key] = np.zeros_like(layer.grads[key])
        opt.step(model)
        w1 = model.get_layer("fc1").params["W"]
        assert np.all(np.abs(w1) <= np.abs(w0) + 1e-12)

    def test_invalid_lr(self):
        with pytest.raises(ValueError):
            SGD(lr=0.0)


class TestAdam:
    def test_adam_descends(self):
        model = tiny_mlp()
        x, y = toy_problem()
        trainer = Trainer(model, Adam(lr=0.01), batch_size=16)
        history = trainer.fit(x, y, epochs=15)
        assert history.epochs[-1].train_loss < history.epochs[0].train_loss

    def test_state_roundtrip(self):
        model = tiny_mlp()
        x, y = toy_problem()
        opt = Adam(lr=0.01)
        Trainer(model, opt, batch_size=16).fit(x, y, epochs=1)
        arrays = opt.state_arrays()
        clone = Adam(lr=0.01)
        clone.load_state_arrays(arrays)
        assert clone.step_count == opt.step_count
        for slot in opt.m:
            np.testing.assert_array_equal(clone.m[slot], opt.m[slot])
            np.testing.assert_array_equal(clone.v[slot], opt.v[slot])


class TestModel:
    def test_named_parameters_ordered(self):
        model = tiny_mlp()
        keys = list(model.named_parameters())
        assert keys == [("fc1", "W"), ("fc1", "b"), ("fc2", "W"),
                        ("fc2", "b")]

    def test_duplicate_layer_names_rejected(self):
        net = Sequential("bad", [Dense("fc", 4, 4), Dense("fc", 4, 4)])
        with pytest.raises(ValueError):
            Model("bad", net, 4)

    def test_set_parameter_shape_check(self):
        model = tiny_mlp()
        with pytest.raises(ValueError):
            model.set_parameter("fc1", "W", np.zeros((2, 2)))
        with pytest.raises(KeyError):
            model.set_parameter("fc1", "gamma", np.zeros(1))

    def test_nonfinite_detection(self):
        model = tiny_mlp()
        assert not model.has_nonfinite_parameters()
        weights = model.get_layer("fc2").params["W"]
        weights.reshape(-1)[0] = np.nan
        assert model.has_nonfinite_parameters()

    def test_evaluate_returns_loss_and_accuracy(self):
        model = tiny_mlp()
        x, y = toy_problem(30)
        loss, acc = model.evaluate(x, y)
        assert np.isfinite(loss)
        assert 0.0 <= acc <= 1.0


class TestTrainerDeterminism:
    def test_identical_runs_are_bit_identical(self):
        x, y = toy_problem()
        results = []
        for _ in range(2):
            rng.seed_all(99)
            model = tiny_mlp()
            trainer = Trainer(model, SGD(lr=0.05, momentum=0.9),
                              batch_size=16)
            trainer.fit(x, y, epochs=3)
            results.append({k: v.copy()
                            for k, v in model.named_parameters().items()})
        for key in results[0]:
            np.testing.assert_array_equal(results[0][key], results[1][key])

    def test_different_seed_differs(self):
        x, y = toy_problem()
        rng.seed_all(1)
        m1 = tiny_mlp()
        Trainer(m1, SGD(lr=0.05), batch_size=16).fit(x, y, epochs=1)
        rng.seed_all(2)
        m2 = tiny_mlp()
        Trainer(m2, SGD(lr=0.05), batch_size=16).fit(x, y, epochs=1)
        assert not np.array_equal(m1.get_layer("fc1").params["W"],
                                  m2.get_layer("fc1").params["W"])

    def test_shuffle_depends_on_epoch_not_call_order(self):
        """Epoch 5's batch order is a pure function of (seed, 5): resuming at
        epoch 4 must replay the same epoch-5 shuffle as a full run."""
        x, y = toy_problem()
        rng.seed_all(42)
        full_model = tiny_mlp()
        full = Trainer(full_model, SGD(lr=0.05), batch_size=16)
        full.fit(x, y, epochs=5)

        rng.seed_all(42)
        resumed_model = tiny_mlp()
        resumed = Trainer(resumed_model, SGD(lr=0.05), batch_size=16)
        resumed.fit(x, y, epochs=3)
        resumed.fit(x, y, epochs=2)  # continues from epoch 4
        for key, value in full_model.named_parameters().items():
            np.testing.assert_array_equal(
                value, resumed_model.named_parameters()[key]
            )

    def test_collapse_detection_stops_training(self):
        x, y = toy_problem()
        model = tiny_mlp()
        model.get_layer("fc1").params["W"][0, 0] = np.inf
        trainer = Trainer(model, SGD(lr=0.05), batch_size=16)
        history = trainer.fit(x, y, epochs=5)
        assert history.collapsed
        assert len(history.epochs) == 1

    def test_epoch_callback_invoked(self):
        x, y = toy_problem()
        seen = []
        trainer = Trainer(tiny_mlp(), SGD(lr=0.05), batch_size=16,
                          epoch_callback=lambda e, t: seen.append(e))
        trainer.fit(x, y, epochs=3)
        assert seen == [1, 2, 3]


class TestPolicies:
    def test_policy_lookup(self):
        assert get_policy(16).param_dtype == np.float16
        assert get_policy("float64").compute_dtype == np.float64
        with pytest.raises(ValueError):
            get_policy("float128")

    @pytest.mark.parametrize("policy", ["float16", "float32", "float64"])
    def test_param_storage_dtype(self, policy):
        model = tiny_mlp(policy)
        expected = get_policy(policy).param_dtype
        for value in model.named_parameters().values():
            assert value.dtype == expected

    def test_fp16_training_is_stable(self):
        x, y = toy_problem()
        model = tiny_mlp("float16")
        trainer = Trainer(model, SGD(lr=0.05), batch_size=16)
        history = trainer.fit(x, y, epochs=5)
        assert not history.collapsed
        assert history.epochs[-1].train_loss < history.epochs[0].train_loss
