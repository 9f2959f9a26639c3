"""Tests for the shared experiment infrastructure."""

import os

import numpy as np
import pytest

from repro import hdf5
from repro.data import synthetic_cifar10
from repro.experiments.common import (
    BaselineCache,
    SCALES,
    SessionSpec,
    baseline_structure,
    corrupted_copy,
    get_scale,
    make_dataset,
    resume_training,
    weights_root,
)
from repro.frameworks import set_global_determinism
from repro.nn import rng


@pytest.fixture(scope="module")
def cache(tmp_path_factory):
    return BaselineCache(str(tmp_path_factory.mktemp("baselines")))


@pytest.fixture(scope="module")
def spec():
    return SessionSpec("chainer_like", "alexnet", SCALES["smoke"], seed=7)


@pytest.fixture(scope="module")
def baseline(cache, spec):
    return cache.get(spec)


class TestScales:
    def test_all_scales_present(self):
        assert set(SCALES) == {"smoke", "tiny", "small", "paper"}

    def test_paper_scale_matches_paper(self):
        paper = SCALES["paper"]
        assert paper.checkpoint_epoch == 20
        assert paper.total_epochs == 100
        assert paper.trainings == 250
        assert paper.prediction_images == 1000
        assert paper.width_mult["alexnet"] == 1.0

    def test_get_scale(self):
        assert get_scale("tiny").name == "tiny"
        assert get_scale(SCALES["tiny"]).name == "tiny"
        with pytest.raises(ValueError):
            get_scale("huge")


class TestBaselineCache:
    def test_artifacts_exist(self, baseline, spec):
        assert os.path.exists(baseline.checkpoint_path)
        assert os.path.exists(baseline.final_path)
        assert len(baseline.accuracy_curve) == spec.scale.total_epochs
        assert len(baseline.resumed_curve) == (
            spec.scale.total_epochs - spec.scale.checkpoint_epoch
        )

    def test_checkpoint_epoch_attr(self, baseline, spec):
        with hdf5.File(baseline.checkpoint_path, "r") as f:
            assert f.attrs["epoch"] == spec.scale.checkpoint_epoch
        with hdf5.File(baseline.final_path, "r") as f:
            assert f.attrs["epoch"] == spec.scale.total_epochs

    def test_cache_hit_returns_same_curve(self, cache, spec, baseline):
        again = cache.get(spec)
        assert again.accuracy_curve == baseline.accuracy_curve

    def test_different_seed_different_key(self, spec):
        other = SessionSpec("chainer_like", "alexnet", SCALES["smoke"],
                            seed=8)
        assert other.cache_key() != spec.cache_key()

    def test_policy_in_key(self, spec):
        other = SessionSpec("chainer_like", "alexnet", SCALES["smoke"],
                            seed=7, policy="float16")
        assert other.cache_key() != spec.cache_key()


class TestResume:
    def test_clean_resume_matches_baseline(self, baseline, spec):
        """Core invariant: the error-free restart replays the baseline."""
        outcome = resume_training(spec, baseline.checkpoint_path)
        assert not outcome.collapsed
        np.testing.assert_allclose(outcome.accuracy_curve,
                                   baseline.resumed_curve)

    def test_resume_partial_epochs(self, baseline, spec):
        outcome = resume_training(spec, baseline.checkpoint_path, epochs=1)
        assert len(outcome.accuracy_curve) == 1
        assert outcome.accuracy_curve[0] == pytest.approx(
            baseline.resumed_curve[0]
        )

    def test_keep_model(self, baseline, spec):
        outcome = resume_training(spec, baseline.checkpoint_path, epochs=1,
                                  keep_model=True)
        assert outcome.model is not None
        assert outcome.model.name == "alexnet"

    def test_corrupted_copy_is_independent(self, baseline, tmp_path):
        copy_path = corrupted_copy(baseline.checkpoint_path, str(tmp_path),
                                   "trial")
        with hdf5.File(copy_path, "r+") as f:
            f.datasets()[0].write_flat(0, 999.0)
        with hdf5.File(baseline.checkpoint_path, "r") as f:
            assert f.datasets()[0].read_flat(0) != 999.0


def test_weights_root_known_frameworks():
    assert weights_root("chainer_like") == "predictor"
    assert weights_root("torch_like") == "state_dict"
    assert weights_root("tf_like") == "model_weights"
    with pytest.raises(KeyError):
        weights_root("unknown")


class TestFinalAccuracy:
    """Regression for the curve[-1] vs last-finite inconsistency: both the
    baseline builder and every resume path now share `last_finite`."""

    def test_baseline_final_skips_nan_tail(self, spec):
        from repro.experiments.common import Baseline, baseline_from_history

        class _Epoch:
            def __init__(self, acc):
                self.test_accuracy = acc

        class _History:
            epochs = [_Epoch(0.3), _Epoch(0.5), _Epoch(float("nan"))]

        built = baseline_from_history(spec, "ckpt.h5", "final.h5",
                                      _History())
        assert isinstance(built, Baseline)
        assert built.final_accuracy == 0.5  # not the NaN tail

    def test_resume_final_accuracy_is_last_finite(self, baseline, spec):
        outcome = resume_training(spec, baseline.checkpoint_path, epochs=1)
        assert outcome.final_accuracy == outcome.accuracy_curve[-1]


class TestResumeHealthProbe:
    def test_probe_disabled_by_default(self, baseline, spec):
        outcome = resume_training(spec, baseline.checkpoint_path, epochs=1)
        assert outcome.health == []

    def test_probe_snapshots_restart_state_plus_epochs(self, baseline, spec):
        outcome = resume_training(spec, baseline.checkpoint_path, epochs=2,
                                  health_probe=True)
        # epoch-0 snapshot of the (possibly corrupted) checkpoint, then one
        # per trained epoch
        assert len(outcome.health) == 3
        assert outcome.health[0].epoch == spec.scale.checkpoint_epoch
        assert all(s.summary["nan_count"] == 0 for s in outcome.health)

    def test_probe_does_not_perturb_training(self, baseline, spec):
        plain = resume_training(spec, baseline.checkpoint_path, epochs=2)
        probed = resume_training(spec, baseline.checkpoint_path, epochs=2,
                                 health_probe=True)
        assert plain.accuracy_curve == probed.accuracy_curve


class TestProcessMemos:
    """A process builds each dataset and parses each baseline's structure
    once; what it hands out must equal a fresh build or parse."""

    def test_make_dataset_equals_a_fresh_read_only_build(self, spec):
        saved = rng.current_seed()
        try:
            set_global_determinism(spec.framework, spec.seed)
            train, test = make_dataset(spec)
            fresh = synthetic_cifar10(
                train_size=spec.scale.train_size,
                test_size=spec.scale.test_size,
                image_size=spec.scale.model_image_size(spec.model))
            for got, want in zip((train, test), fresh):
                np.testing.assert_array_equal(got.images, want.images)
                np.testing.assert_array_equal(got.labels, want.labels)
                for array in (got.images, got.labels):
                    with pytest.raises(ValueError, match="read-only"):
                        array[0] = 0
            again, _ = make_dataset(spec)
            assert again is not train and again.images is train.images
            set_global_determinism(spec.framework, spec.seed + 1)
            other, _ = make_dataset(spec)
            assert not np.array_equal(other.images, train.images)
        finally:
            rng.seed_all(saved)

    def test_rewritten_baseline_is_parsed_again(self, tmp_path):
        path = str(tmp_path / "ckpt.h5")

        def write(epoch: int) -> None:
            with hdf5.File(path, "w") as f:
                f.attrs["epoch"] = epoch
                f.create_dataset("w", data=np.arange(4, dtype=np.float32))

        write(1)
        first = baseline_structure(path)
        assert baseline_structure(path) is first
        size = os.path.getsize(path)
        write(2)  # same size and inode, new metadata
        assert os.path.getsize(path) == size
        # a clock too coarse to tell the two writes apart would hide the
        # rewrite; move the mtime on explicitly
        stat = os.stat(path)
        os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns + 10**9))
        second = baseline_structure(path)
        assert second is not first
        with hdf5.File(path, "r", template=second) as f:
            assert f._info is second.info
            assert f.attrs["epoch"] == 2

    def test_copy_of_another_size_ignores_the_structure(self, baseline,
                                                        tmp_path):
        structure = baseline_structure(baseline.checkpoint_path)
        other = str(tmp_path / "other.h5")
        with hdf5.File(other, "w") as f:
            f.create_dataset("w", data=np.ones(3))
        with hdf5.File(other, "r+", template=structure) as f:
            assert f._info is not structure.info
            assert list(f.keys()) == ["w"]
            np.testing.assert_array_equal(f["w"][...], np.ones(3))
