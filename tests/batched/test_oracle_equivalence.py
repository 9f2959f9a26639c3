"""The bit-identity oracle battery for batched multi-fault execution.

Every test corrupts N private checkpoint copies (same injector seeds for
both paths, so the corrupted bytes entering each path are identical by
construction), resumes them once sequentially and once stacked, and asserts
the per-trial observables are bytewise equal: final weights *and* optimizer
/ batch-norm state, per-epoch health-probe stats, accuracy curves, collapse
verdicts, and outcome labels.

The hypothesis property sweeps model family x precision x bit position x
batch size (1, 2, 7, 16); the explicit cases pin the collapse coverage —
a NaN/Inf trial mid-batch must be pruned without perturbing the survivors.
"""

from __future__ import annotations

import dataclasses
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.experiments.common import (
    SCALES,
    BaselineCache,
    SessionSpec,
    resume_training,
    resume_training_batched,
)
from repro.health import classify_curve

from .oracle import (
    COLLAPSE_RECIPE,
    assert_histories_equal,
    assert_models_bitwise_equal,
    corrupt_trial_copy,
    feq,
)

SMOKE = SCALES["smoke"]
#: smoke with one image per training step: every conv then lowers a single
#: image, whose im2col matrix is a Fortran-ordered view, not a C-order copy
SMOKE_BS1 = dataclasses.replace(SMOKE, name="smoke_bs1", batch_size=1)

PAIRS = (
    ("chainer_like", "alexnet"),
    ("torch_like", "vgg16"),
    ("tf_like", "resnet50"),
)


@pytest.fixture(scope="session")
def oracle_cache(tmp_path_factory):
    return BaselineCache(str(tmp_path_factory.mktemp("oracle-cache")))


def run_both_paths(spec, cache, trials: int,
                   recipes: dict[int, dict] | None = None):
    """Corrupt *trials* copies once, resume them sequentially and batched.

    *recipes* overrides the per-trial injection recipe by index (default: a
    single safe-range flip, seed varied per trial).  Returns the two outcome
    lists plus the baseline the outcome labels compare against.
    """
    baseline = cache.get(spec)
    epochs = spec.scale.resume_epochs
    with tempfile.TemporaryDirectory() as workdir:
        paths = []
        for index in range(trials):
            recipe = dict((recipes or {}).get(index, {}))
            paths.append(corrupt_trial_copy(
                spec, baseline.checkpoint_path, workdir, index,
                seed=spec.seed * 1_000 + 17 * index, **recipe))
        sequential = [
            resume_training(spec, path, epochs=epochs, keep_model=True,
                            health_probe=True)
            for path in paths
        ]
        batched = resume_training_batched(
            spec, paths, epochs=epochs, keep_models=True, health_probe=True)
    return sequential, batched, baseline


def assert_oracle(spec, cache, trials: int,
                  recipes: dict[int, dict] | None = None) -> list:
    sequential, batched, baseline = run_both_paths(spec, cache, trials,
                                                   recipes)
    assert len(batched) == len(sequential) == trials
    reference = baseline.resumed_curve[:spec.scale.resume_epochs]
    for index, (seq, bat) in enumerate(zip(sequential, batched)):
        label = f"trial {index}"
        assert feq(seq.accuracy_curve, bat.accuracy_curve), \
            f"{label}: curves differ"
        assert seq.collapsed == bat.collapsed, f"{label}: collapse verdict"
        assert feq(seq.final_accuracy, bat.final_accuracy), label
        seq_label = classify_curve(seq.accuracy_curve, reference,
                                   collapsed=seq.collapsed).outcome
        bat_label = classify_curve(bat.accuracy_curve, reference,
                                   collapsed=bat.collapsed).outcome
        assert seq_label == bat_label, f"{label}: outcome label"
        assert_histories_equal(seq.health, bat.health, label)
        assert_models_bitwise_equal(seq.model, bat.model, label)
    return sequential


class TestExplicitOracle:
    """Deterministic anchor cases (the hypothesis sweep samples around
    them)."""

    def test_fp32_batch_of_four_bit_identical(self, oracle_cache):
        spec = SessionSpec("chainer_like", "alexnet", SMOKE)
        assert_oracle(spec, oracle_cache, trials=4)

    def test_collapse_mid_batch_prunes_without_perturbing(self, oracle_cache):
        """One exponent-MSB-bombed trial between healthy neighbours: it must
        collapse in both paths, and the survivors must stay bytewise equal —
        the prune-on-collapse path may not touch their arrays."""
        spec = SessionSpec("chainer_like", "alexnet", SMOKE)
        sequential = assert_oracle(spec, oracle_cache, trials=4,
                                   recipes={1: COLLAPSE_RECIPE})
        assert sequential[1].collapsed, (
            "collapse recipe failed to collapse; the mid-batch NaN coverage "
            "is not exercising the prune path"
        )
        assert not sequential[0].collapsed

    def test_fp16_batch_bit_identical(self, oracle_cache):
        spec = SessionSpec("torch_like", "vgg16", SMOKE, policy="float16")
        assert_oracle(spec, oracle_cache, trials=3)

    def test_batch_of_one_matches_sequential(self, oracle_cache):
        spec = SessionSpec("tf_like", "resnet50", SMOKE)
        assert_oracle(spec, oracle_cache, trials=1)

    def test_training_batch_size_one_bit_identical(self, oracle_cache):
        """Training at ``batch_size=1``: a stacked conv must hand BLAS each
        trial's single-image patch matrix in the memory order the
        sequential conv does, or the GEMMs round differently and every
        weight drifts from the first step on."""
        spec = SessionSpec("tf_like", "resnet50", SMOKE_BS1)
        assert_oracle(spec, oracle_cache, trials=3)


@settings(max_examples=5, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    pair=st.sampled_from(PAIRS),
    policy=st.sampled_from(["float32", "float16"]),
    first_bit=st.integers(min_value=1, max_value=12),
    trials=st.sampled_from([1, 2, 7, 16]),
)
def test_oracle_property(oracle_cache, pair, policy, first_bit, trials):
    """Property: any (family, precision, bit position, batch size) point is
    bit-identical between the sequential and batched paths.

    ``first_bit`` pins the flipped bit (MSB order, bit 1 = exponent MSB, so
    low draws include collapse-inducing flips); every trial in the batch
    flips that bit at a different, seed-determined location.
    """
    framework, model = pair
    spec = SessionSpec(framework, model, SMOKE, policy=policy)
    recipes = {index: {"first_bit": first_bit, "last_bit": first_bit}
               for index in range(trials)}
    assert_oracle(spec, oracle_cache, trials, recipes)
