"""The injector's flip provenance: one ``flips`` event of columns per
application, decoded back into one ``flip`` event per applied flip.

Every corruption mode under both engines, plus an integer target: an
``apply_plan`` call that applies at least one flip emits exactly one
``flips`` event, whose decoded rows are the returned records field for
field; a call that applies nothing emits none; and telemetry changes no
byte of the corrupted checkpoint.
"""

import numpy as np
import pytest

from repro import hdf5, telemetry
from repro.injector import CheckpointCorrupter, InjectorConfig
from repro.telemetry.aggregate import FLIP_COLUMNS

MODES = ["bit_range", "bit_mask", "scaling_factor", "stuck_at", "zero_value"]
ENGINES = ["scalar", "vectorized"]


def make_checkpoint(path: str) -> None:
    """fp32 weights, a 3-element bias that forces duplicate draws, and an
    integer counter."""
    gen = np.random.default_rng(3)
    with hdf5.File(path, "w") as f:
        f.create_dataset("model/conv/W", data=gen.standard_normal((4, 6))
                         .astype(np.float32))
        f.create_dataset("model/conv/b", data=gen.standard_normal(3)
                         .astype(np.float32))
        f.create_dataset("model/step", data=np.arange(5, dtype=np.int32))


def corrupt(path: str, engine: str, **config):
    make_checkpoint(path)
    config = InjectorConfig(hdf5_file=path, float_precision=32, seed=9,
                            bit_mask="101", scaling_factor=3.0, stuck_bit=1,
                            **config)
    result = CheckpointCorrupter(config, engine=engine).corrupt()
    with open(path, "rb") as handle:
        return result.log.records, handle.read()


def recorded(path: str, engine: str, **config):
    sink = telemetry.InMemorySink()
    telemetry.configure(sink)
    try:
        records, data = corrupt(path, engine, **config)
    finally:
        telemetry.shutdown()
    return records, data, sink


def events_named(events: list[dict], name: str) -> list[dict]:
    return [e for e in events
            if e.get("type") == "event" and e.get("name") == name]


def assert_rows_match(flips: list[dict], records) -> None:
    assert len(flips) == len(records)
    for flip, record in zip(flips, records):
        expected = {name: getattr(record, name) for name in FLIP_COLUMNS}
        expected["delta"] = record.new_value - record.old_value
        # repr: exact for floats, and NaN equals NaN
        assert repr({key: flip["attrs"][key] for key in expected}) == \
            repr(expected)


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("mode", MODES)
def test_one_flips_event_decodes_to_the_records(tmp_path, mode, engine):
    records, _, sink = recorded(str(tmp_path / "c.h5"), engine,
                                corruption_mode=mode, injection_attempts=40)
    assert records
    [packed] = events_named(sink.events, "flips")
    assert len(sink.spans("inject.apply")) == 1
    assert not events_named(sink.events, "flip")
    assert sorted(packed["attrs"]) == sorted(FLIP_COLUMNS)
    assert all(len(packed["attrs"][name]) == len(records)
               for name in FLIP_COLUMNS)
    decoded = events_named(telemetry.decode_events(sink.events), "flip")
    assert_rows_match(decoded, records)
    for flip in decoded:
        assert {key: flip[key] for key in ("pid", "ts", "span_id")} == \
            {key: packed[key] for key in ("pid", "ts", "span_id")}


@pytest.mark.parametrize("engine", ENGINES)
def test_integer_target(tmp_path, engine):
    records, _, sink = recorded(
        str(tmp_path / "c.h5"), engine, corruption_mode="bit_range",
        injection_attempts=12, locations_to_corrupt=["model/step"],
        use_random_locations=False)
    assert {record.kind for record in records} == {"integer"}
    assert len(events_named(sink.events, "flips")) == 1
    assert_rows_match(
        events_named(telemetry.decode_events(sink.events), "flip"), records)


@pytest.mark.parametrize("engine", ENGINES)
def test_nothing_applied_emits_nothing(tmp_path, engine):
    records, _, sink = recorded(str(tmp_path / "c.h5"), engine,
                                corruption_mode="bit_range",
                                injection_attempts=20,
                                injection_probability=0.0)
    assert records == []
    assert len(sink.spans("inject.apply")) == 1
    assert not events_named(sink.events, "flips")
    assert not events_named(sink.events, "flip")


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("mode", MODES)
def test_telemetry_off_emits_nothing_and_keeps_bytes(tmp_path, mode,
                                                     engine):
    config = {"corruption_mode": mode, "injection_attempts": 40}
    traced, traced_bytes, sink = recorded(str(tmp_path / "on.h5"), engine,
                                          **config)
    seen = len(sink.events)
    bare, bare_bytes = corrupt(str(tmp_path / "off.h5"), engine, **config)
    assert not telemetry.enabled()
    assert len(sink.events) == seen
    assert bare_bytes == traced_bytes
    assert list(map(repr, bare)) == list(map(repr, traced))
