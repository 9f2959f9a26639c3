"""Scalar vs vectorized engine: bit-identical files, logs, and counters.

The vectorized engine is only admissible because the scalar path stays
available as an oracle.  These tests drive both engines from the same seed
over the same checkpoint and require the *entire observable outcome* to
match: every byte of the corrupted file, every column of the applied flips
and every log record field built from them, and every summary counter —
across all corruption modes, precisions, probability skips, guard retries,
duplicate-prone tiny datasets, and integer datasets.
"""

import gc
import itertools
import os
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import hdf5, telemetry
from repro.injector import (
    CheckpointCorrupter,
    CorruptionError,
    InjectionRecord,
    InjectorConfig,
    ReplayConfig,
    replay_log,
)
from repro.injector.log import FLIP_ARRAYS

MODES = ["bit_range", "bit_mask", "scaling_factor", "stuck_at", "zero_value"]

#: 3-element datasets, one per float width, small enough to force
#: duplicate index draws
TINY = {16: "tiny16", 32: "tiny", 64: "tiny64"}


def make_checkpoint(path: str, seed: int = 7) -> None:
    """Mixed-precision layout: fp16/32/64, an integer counter, and
    3-element datasets small enough to force duplicate index draws."""
    gen = np.random.default_rng(seed)
    with hdf5.File(path, "w") as f:
        f.create_dataset("w16", data=gen.standard_normal((4, 5))
                         .astype(np.float16))
        f.create_dataset("w32", data=gen.standard_normal((3, 7))
                         .astype(np.float32))
        f.create_dataset("deep/w64", data=gen.standard_normal((2, 3, 4)))
        f.create_dataset("tiny", data=gen.standard_normal(3)
                         .astype(np.float32))
        f.create_dataset("tiny16", data=gen.standard_normal(3)
                         .astype(np.float16))
        f.create_dataset("tiny64", data=gen.standard_normal(3))
        f.create_dataset("step", data=np.arange(6, dtype=np.int32))


def run_engine(workdir: str, engine: str, **config_kwargs):
    path = os.path.join(workdir, f"{engine}.h5")
    make_checkpoint(path)
    config = InjectorConfig(hdf5_file=path, **config_kwargs)
    result = CheckpointCorrupter(config, engine=engine).corrupt()
    with open(path, "rb") as fh:
        payload = fh.read()
    return result, payload


def assert_engines_identical(**config_kwargs) -> int:
    """Run both engines; return the vectorized run's
    ``inject.sequential_fallback`` count."""
    sink = telemetry.InMemorySink()
    with tempfile.TemporaryDirectory() as workdir:
        scalar, scalar_bytes = run_engine(workdir, "scalar", **config_kwargs)
        telemetry.configure(sink)
        try:
            vector, vector_bytes = run_engine(workdir, "vectorized",
                                              **config_kwargs)
        finally:
            telemetry.shutdown()
    assert scalar_bytes == vector_bytes
    # the flips as both engines hand them over: columns in attempt order
    # (``ordinal``), byte for byte, and the per-target record templates
    assert scalar.log.flips.templates == vector.log.flips.templates
    for name, _ in FLIP_ARRAYS:
        assert getattr(scalar.log.flips, name).tobytes() == \
            getattr(vector.log.flips, name).tobytes(), name
    # repr-compare: exact for floats, and NaN == NaN textually
    assert list(map(repr, scalar.log.records)) == \
        list(map(repr, vector.log.records))
    assert scalar.to_dict() == vector.to_dict()
    merged = telemetry.merge_metrics(sink.events)
    # an empty plan applies nothing and counts nothing
    return merged.get("inject.sequential_fallback", {}).get("value", 0)


class TestEveryMode:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("seed", [0, 1, 99])
    def test_mode_bit_identical(self, mode, seed):
        assert_engines_identical(
            corruption_mode=mode, injection_attempts=40, seed=seed,
            bit_mask="101", scaling_factor=3.0, stuck_bit=1,
        )

    @pytest.mark.parametrize("mode", MODES)
    def test_mode_with_guards(self, mode):
        """NaN retry + extreme guard: offender redraws must line up."""
        assert_engines_identical(
            corruption_mode=mode, injection_attempts=60, seed=5,
            allow_NaN_values=False, extreme_guard=10.0, max_retries=50,
            bit_mask="1111", scaling_factor=1e30, stuck_bit=1,
        )

    @pytest.mark.parametrize("precision", [16, 32, 64])
    def test_precisions(self, precision):
        assert_engines_identical(
            corruption_mode="bit_range", injection_attempts=50,
            float_precision=precision, seed=3,
        )

    def test_probability_and_target_slice(self):
        assert_engines_identical(
            corruption_mode="bit_range", injection_attempts=50,
            injection_probability=0.5, target_slice=0, seed=11,
        )

    def test_restricted_locations_hit_tiny_duplicates(self):
        """All draws inside a 3-element dataset: duplicate-index chains
        hundreds of attempts long, in every mode and precision.
        Guard-free, the vectorized engine applies them in array rounds,
        none sequentially; guarded (NaN retry from the exponent MSB on,
        plus an extreme guard), offenders fire mid-chain and their chains
        finish sequentially."""
        for mode, precision, guarded in itertools.product(
                MODES, sorted(TINY), (False, True)):
            guards = dict(allow_NaN_values=False, first_bit=1,
                          extreme_guard=1e3) if guarded else {}
            fallback = assert_engines_identical(
                corruption_mode=mode, injection_attempts=1000, seed=2,
                float_precision=precision,
                locations_to_corrupt=[TINY[precision]],
                use_random_locations=False, bit_mask="101",
                scaling_factor=3.0, stuck_bit=1, **guards,
            )
            assert (fallback > 0) == (guarded and mode != "zero_value"), \
                (mode, precision, guarded, fallback)

    def test_strict_mismatch_raises_before_mutation(self):
        with tempfile.TemporaryDirectory() as workdir:
            for engine in ("scalar", "vectorized"):
                path = os.path.join(workdir, f"{engine}.h5")
                make_checkpoint(path)
                with open(path, "rb") as fh:
                    before = fh.read()
                config = InjectorConfig(
                    hdf5_file=path, injection_attempts=40, seed=1,
                    float_precision=32, precision_mismatch="strict",
                )
                with pytest.raises(CorruptionError):
                    CheckpointCorrupter(config, engine=engine).corrupt()
                with open(path, "rb") as fh:
                    assert fh.read() == before


def live_records() -> int:
    gc.collect()
    return sum(isinstance(obj, InjectionRecord) for obj in gc.get_objects())


class TestColumnarFlips:
    def test_records_are_built_only_when_read(self, tmp_path):
        """A 1000-flip campaign holds its flips as columns: no
        ``InjectionRecord`` exists until a caller reads the records, and
        those are then exactly the scalar engine's."""
        config = dict(corruption_mode="bit_range", injection_attempts=1000,
                      seed=6)
        assert not telemetry.enabled()
        before = live_records()
        vector, _ = run_engine(str(tmp_path), "vectorized", **config)
        assert vector.successes == len(vector.log) == 1000
        assert live_records() == before
        scalar, _ = run_engine(str(tmp_path), "scalar", **config)
        assert list(map(repr, vector.log.records)) == \
            list(map(repr, scalar.log.records))
        assert live_records() == before + 2000
        assert vector.log.flips is None  # the records are the log now


class TestIntegerWrap:
    def test_flip_of_int64_min_wraps_on_both_engines(self, tmp_path):
        """``np.arange(4) * 2**62`` holds INT64_MIN third; flipping a low
        bit of it gives -(2**63 + 2**k), which the dataset stores as
        2**63 - 2**k instead of crashing the campaign."""
        stored, files, logs = {}, {}, {}
        for engine in ("scalar", "vectorized"):
            path = str(tmp_path / f"{engine}.h5")
            with hdf5.File(path, "w") as f:
                f.create_dataset("step",
                                 data=np.arange(4, dtype=np.int64) * 2**62)
            config = InjectorConfig(
                hdf5_file=path, injection_attempts=1, seed=4,
                locations_to_corrupt=["step"], use_random_locations=False)
            result = CheckpointCorrupter(config, engine=engine).corrupt()
            [record] = result.log.records
            assert (record.flat_index, record.old_bits) == \
                (2, "8000000000000000")
            with hdf5.File(path, "r") as f:
                stored[engine] = int(f["step"].read()[2])
            with open(path, "rb") as handle:
                files[engine] = handle.read()
            logs[engine] = repr(record)
            assert int(record.new_bits, 16) == stored[engine]
        lost = 2**63 - stored["scalar"]
        assert 0 < lost < 2**63 and lost & (lost - 1) == 0  # one 2**k
        assert stored["scalar"] == stored["vectorized"]
        assert files["scalar"] == files["vectorized"]
        assert logs["scalar"] == logs["vectorized"]


class TestReplayEquivalence:
    def test_replay_engines_identical(self):
        with tempfile.TemporaryDirectory() as workdir:
            source = os.path.join(workdir, "source.h5")
            make_checkpoint(source)
            config = InjectorConfig(hdf5_file=source, injection_attempts=25,
                                    corruption_mode="bit_range", seed=4)
            log = CheckpointCorrupter(config).corrupt().log

            payloads, results = [], []
            for engine in ("scalar", "vectorized"):
                target = os.path.join(workdir, f"replay-{engine}.h5")
                make_checkpoint(target)
                result = replay_log(target, log,
                                    config=ReplayConfig(seed=9),
                                    engine=engine)
                with open(target, "rb") as fh:
                    payloads.append(fh.read())
                results.append(result)
        assert payloads[0] == payloads[1]
        assert list(map(repr, results[0].log.records)) == \
            list(map(repr, results[1].log.records))
        assert results[0].to_dict() == results[1].to_dict()


class TestPropertyEquivalence:
    @given(
        mode=st.sampled_from(MODES),
        seed=st.integers(0, 2**31),
        attempts=st.integers(0, 60),
        probability=st.sampled_from([1.0, 0.5]),
        precision=st.sampled_from([16, 32, 64]),
        allow_nan=st.booleans(),
        guard=st.sampled_from([None, 10.0]),
        target_slice=st.sampled_from([None, 0]),
    )
    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_any_config_bit_identical(self, mode, seed, attempts,
                                      probability, precision, allow_nan,
                                      guard, target_slice):
        assert_engines_identical(
            corruption_mode=mode, injection_attempts=attempts, seed=seed,
            injection_probability=probability, float_precision=precision,
            allow_NaN_values=allow_nan, extreme_guard=guard,
            target_slice=target_slice, max_retries=50,
            bit_mask="1101", scaling_factor=4.0, stuck_bit=2,
        )
