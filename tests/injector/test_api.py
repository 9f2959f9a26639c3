"""Tests of the unified injector API surface: ``replace()`` overrides,
the config-plus-override mixes that raise, the result protocol, and the
``expand_locations`` dedup fix."""

import pathlib

import numpy as np
import pytest

from repro import hdf5
from repro.analysis.campaign import CampaignStats
from repro.injector import (
    CheckpointCorrupter,
    InjectorConfig,
    ReplayConfig,
    corrupt_checkpoint,
    expand_locations,
    replay_log,
)


@pytest.fixture()
def ckpt(tmp_path):
    path = str(tmp_path / "api.h5")
    gen = np.random.default_rng(0)
    with hdf5.File(path, "w") as f:
        f.create_dataset("model/conv/W", data=gen.standard_normal((4, 4)))
        f.create_dataset("model/conv/b", data=gen.standard_normal(4))
        f.create_dataset("model/fc/W", data=gen.standard_normal((2, 8)))
    return path


class TestInjectorConfigReplace:
    def test_returns_validated_copy(self):
        config = InjectorConfig(seed=1, injection_attempts=5)
        derived = config.replace(seed=2, float_precision=32)
        assert derived.seed == 2
        assert derived.float_precision == 32
        assert derived.injection_attempts == 5
        assert config.seed == 1  # original untouched

    def test_unknown_field_raises(self):
        config = InjectorConfig()
        with pytest.raises(TypeError, match="unknown InjectorConfig field"):
            config.replace(sede=3)  # typo must not corrupt nothing silently

    def test_revalidates(self):
        config = InjectorConfig()
        with pytest.raises(ValueError):
            config.replace(injection_probability=1.5)


class TestReplayConfigReplace:
    def test_copy_and_unknown(self):
        config = ReplayConfig(seed=7)
        assert config.replace(reuse_indices=True).seed == 7
        with pytest.raises(TypeError, match="unknown ReplayConfig field"):
            config.replace(sed=1)


class TestDeprecatedOverridePaths:
    def test_corrupt_checkpoint_overrides_without_config(self, ckpt):
        result = corrupt_checkpoint(ckpt, injection_attempts=3, seed=1)
        assert result.attempts == 3

    def test_corrupt_checkpoint_config_plus_overrides_warns(self, ckpt):
        config = InjectorConfig(injection_attempts=2, seed=1)
        before = pathlib.Path(ckpt).read_bytes()
        with pytest.raises(TypeError, match=r"config\.replace"):
            corrupt_checkpoint(ckpt, config=config, seed=9)
        assert pathlib.Path(ckpt).read_bytes() == before
        assert config.seed == 1

    def test_replay_config_plus_legacy_kwargs_warns(self, ckpt):
        log = corrupt_checkpoint(ckpt, injection_attempts=2, seed=1).log
        with pytest.raises(TypeError, match=r"config\.replace"):
            replay_log(ckpt, log, seed=3, config=ReplayConfig())

    def test_replay_config_positional_rejected(self, ckpt):
        log = corrupt_checkpoint(ckpt, injection_attempts=2, seed=1).log
        with pytest.raises(TypeError, match="config= keyword"):
            replay_log(ckpt, log, ReplayConfig())


class TestResultProtocol:
    def test_corruption_result(self, ckpt):
        result = corrupt_checkpoint(ckpt, injection_attempts=4, seed=2)
        payload = result.to_dict()
        for key in ("attempts", "successes", "skipped_probability",
                    "skipped_retries", "nev_introduced", "locations",
                    "success_rate"):
            assert key in payload
        assert payload["attempts"] == 4
        assert f"{result.successes}/{result.attempts}" in result.summary()

    def test_replay_result(self, ckpt):
        log = corrupt_checkpoint(ckpt, injection_attempts=2, seed=1).log
        result = replay_log(ckpt, log, config=ReplayConfig(seed=2))
        payload = result.to_dict()
        assert payload["replayed"] == result.replayed
        assert "replayed" in result.summary()

    def test_campaign_stats_roundtrip(self):
        stats = CampaignStats(total=8, ok=7, failed=1, retries=2, timeouts=0,
                              executed=8, skipped=0, workers=2, wall_time=4.0)
        rebuilt = CampaignStats.from_dict(stats.to_dict())
        assert rebuilt == stats
        assert "trials/s" in rebuilt.summary()

    def test_campaign_stats_tolerates_partial_payload(self):
        stats = CampaignStats.from_dict({"total": 3, "ok": 3,
                                         "unknown_key": "ignored"})
        assert stats.total == 3
        assert stats.workers == 1
        assert stats.wall_time == 0.0


class TestExpandLocationsDedup:
    def test_group_plus_child_listed_once(self, ckpt):
        with hdf5.File(ckpt, "r") as f:
            expanded = expand_locations(f, ["model/conv", "model/conv/W"])
        assert expanded == ["/model/conv/W", "/model/conv/b"]

    def test_overlapping_groups_listed_once(self, ckpt):
        with hdf5.File(ckpt, "r") as f:
            expanded = expand_locations(f, ["model", "model/fc"])
        assert len(expanded) == len(set(expanded)) == 3

    def test_duplicate_free_draw_not_skewed(self, ckpt):
        """Double-listing a dataset must not double its draw weight."""
        config = InjectorConfig(
            hdf5_file=ckpt, injection_attempts=50, seed=3,
            locations_to_corrupt=["model/fc", "model/fc/W"],
            use_random_locations=False,
        )
        result = CheckpointCorrupter(config).corrupt()
        assert result.locations == ["/model/fc/W"]
