"""Instrumentation invariants: telemetry never changes results, and the
campaign -> trial -> inject/train event pipeline survives the fork boundary."""

import json
import os
import shutil
import time

import numpy as np
import pytest

from repro import hdf5, telemetry
from repro.experiments import fig3_bitflip_rates as fig3
from repro.experiments.common import BaselineCache
from repro.experiments.runner import (
    TrialTask,
    batch_trial_kind,
    run_campaign,
    trial_kind,
)
from repro.injector import CheckpointCorrupter, InjectorConfig


def _build_checkpoint(path):
    gen = np.random.default_rng(3)
    with hdf5.File(str(path), "w") as f:
        for i in range(4):
            f.create_dataset(f"layer_{i}/W",
                             data=gen.standard_normal((32, 32))
                             .astype(np.float32))


def _corrupt_copy(source, workdir, engine):
    target = os.path.join(str(workdir), f"target_{engine}.h5")
    shutil.copy(str(source), target)
    config = InjectorConfig(injection_attempts=200,
                            corruption_mode="bit_range", first_bit=2,
                            float_precision=32, seed=11)
    result = CheckpointCorrupter(config, engine=engine).corrupt(target)
    with open(target, "rb") as handle:
        return handle.read(), result.to_dict()


@pytest.mark.parametrize("engine", ["scalar", "vectorized"])
def test_telemetry_does_not_perturb_injection(tmp_path, engine):
    """Instrumented campaigns are bit-identical to bare ones (no RNG use)."""
    source = tmp_path / "source.h5"
    _build_checkpoint(source)
    (tmp_path / "a").mkdir()
    bare_bytes, bare_result = _corrupt_copy(source, tmp_path / "a", engine)

    telemetry.configure(telemetry.InMemorySink())
    (tmp_path / "b").mkdir()
    instrumented_bytes, instrumented_result = \
        _corrupt_copy(source, tmp_path / "b", engine)

    assert instrumented_bytes == bare_bytes
    assert instrumented_result == bare_result


def test_injection_spans_and_counters(tmp_path):
    source = tmp_path / "source.h5"
    _build_checkpoint(source)
    sink = telemetry.InMemorySink()
    telemetry.configure(sink)
    _, result = _corrupt_copy(source, tmp_path, "vectorized")
    telemetry.flush_metrics()

    (inject,) = sink.spans("inject")
    assert inject["attrs"]["successes"] == result["successes"]
    assert inject["attrs"]["attempts"] == result["attempts"]
    (plan,) = sink.spans("inject.plan")
    assert plan["parent_id"] == inject["span_id"]
    (apply_span,) = sink.spans("inject.apply")
    assert apply_span["attrs"]["engine"] == "vectorized"
    assert apply_span["attrs"]["bytes_touched"] == result["successes"] * 4

    metrics = telemetry.merge_metrics(sink.events)
    assert metrics["inject.attempts"]["value"] == result["attempts"]
    assert metrics["inject.bytes_touched"]["value"] \
        == result["successes"] * 4


def test_hdf5_open_read_write_instrumented(tmp_path):
    path = tmp_path / "data.h5"
    sink = telemetry.InMemorySink()
    telemetry.configure(sink)
    data = np.arange(64, dtype=np.float32).reshape(8, 8)
    with hdf5.File(str(path), "w") as f:
        f.create_dataset("d", data=data)
    with hdf5.File(str(path), "r+") as f:
        read = f["d"].read()
        f["d"].write(read * 2)
    telemetry.flush_metrics()

    modes = [s["attrs"]["mode"] for s in sink.spans("hdf5.open")]
    assert modes == ["w", "r+"]
    assert sink.spans("hdf5.open")[1]["attrs"]["bytes"] == \
        os.path.getsize(path)
    metrics = telemetry.merge_metrics(sink.events)
    assert metrics["hdf5.bytes_read"]["value"] >= data.nbytes
    assert metrics["hdf5.bytes_written"]["value"] >= data.nbytes
    assert metrics["hdf5.read_seconds"]["count"] == 1
    assert metrics["hdf5.write_seconds"]["count"] == 1


def test_trainer_emits_train_span_and_epoch_events():
    from repro.data import synthetic_cifar10
    from repro.models import build_model
    from repro.nn import SGD, Trainer, rng

    rng.seed_all(5)
    train, test = synthetic_cifar10(train_size=40, test_size=20)
    model = build_model("alexnet", width_mult=0.0625)
    sink = telemetry.InMemorySink()
    telemetry.configure(sink)
    history = Trainer(model, SGD(lr=0.01), batch_size=20).fit(
        train.images, train.labels, epochs=2,
        x_test=test.images, labels_test=test.labels,
    )
    (span,) = sink.spans("train")
    assert span["attrs"]["epochs_run"] == len(history.epochs) == 2
    assert span["attrs"]["final_accuracy"] == history.final_accuracy()
    epochs = [e for e in sink.by_type("event") if e["name"] == "epoch"]
    assert [e["attrs"]["epoch"] for e in epochs] == [1, 2]
    for event in epochs:
        assert event["span_id"] == span["span_id"]
        assert event["attrs"]["duration"] > 0.0
        assert "train_loss" in event["attrs"]


def test_profiler_reemits_layer_timings():
    from repro.data import synthetic_cifar10
    from repro.models import build_model
    from repro.nn import rng
    from repro.nn.profiler import profile_step

    rng.seed_all(5)
    train, _ = synthetic_cifar10(train_size=10, test_size=10)
    model = build_model("alexnet", width_mult=0.0625)
    sink = telemetry.InMemorySink()
    telemetry.configure(sink)
    report = profile_step(model, train.images, train.labels)
    timings = [e for e in sink.by_type("event")
               if e["name"] == "layer_timing"]
    assert len(timings) == len(report.timings)
    assert {t["attrs"]["layer"] for t in timings} == set(report.timings)
    assert all(t["attrs"]["forward_calls"] >= 1 for t in timings)


def test_parallel_campaign_single_merged_stream(tmp_path):
    """The tentpole acceptance: a --workers campaign writes one JSONL
    stream where every journaled trial has a closed ``trial`` span with
    nested ``inject`` and ``train`` spans from the worker processes."""
    stream = tmp_path / "telemetry.jsonl"
    journal = tmp_path / "journal.jsonl"
    telemetry.configure(jsonl=str(stream))
    try:
        fig3.run(scale="smoke", pairs=(("chainer_like", "alexnet"),),
                 bitflips=(1, 10), cache=BaselineCache(str(tmp_path / "c")),
                 workers=2, journal=str(journal))
    finally:
        telemetry.shutdown()

    with open(journal, encoding="utf-8") as handle:
        journal_ids = {json.loads(line)["trial_id"] for line in handle}
    assert journal_ids

    summary = telemetry.CampaignTelemetry.from_file(str(stream))
    assert journal_ids <= summary.closed_trial_ids()

    children: dict = {}
    for span in summary.spans:
        children.setdefault(span.get("parent_id"), []).append(span)
    for trial in summary.trials():
        names = set()
        stack = list(children.get(trial.span_id, ()))
        while stack:
            child = stack.pop()
            names.add(child.get("name"))
            stack.extend(children.get(child.get("span_id", ""), ()))
        assert {"inject", "train"} <= names, \
            f"{trial.trial_id} missing nested spans: {names}"
        assert trial.flips is not None
        assert trial.status == "ok"

    # the stream really is multi-process: worker pids joined the parent's
    pids = {event.get("pid") for event in summary.events}
    assert len(pids) > 1
    # and exactly one campaign span closed over everything
    (campaign,) = [s for s in summary.spans if s["name"] == "campaign"]
    assert campaign["attrs"]["workers"] == 2


@trial_kind("test_telemetry_shape")
def _shape_trial(payload):
    time.sleep(0.2)  # an in-process campaign's next trial queues this long
    with telemetry.span("train"):
        return {"value": payload["value"]}


@batch_trial_kind("test_telemetry_shape", group_key=lambda payload: "all")
def _shape_batch(payloads):
    with telemetry.span("train"):
        return [{"value": payload["value"]} for payload in payloads]


def _record_campaign(path, **kwargs):
    tasks = [TrialTask(f"shape/{i}", "test_telemetry_shape", {"value": i})
             for i in range(2)]
    telemetry.configure(jsonl=str(path))
    try:
        run_campaign(tasks, **kwargs)
    finally:
        telemetry.shutdown()
    spans = {}
    for event in telemetry.load_events(str(path)):
        if event["type"] == "span":
            spans.setdefault(event["name"], []).append(event)
    return spans


def test_trial_span_shape_is_the_same_in_process_and_forked(tmp_path):
    """`telemetry`, perfbench's tracing and the CI gate read these keys:
    an in-process ``trial`` span carries the forked one's, both time
    ``queue_wait`` from the campaign start to the trial's first start,
    and both parent the spans their trial opens."""
    keys = {}
    for workers in (1, 2):
        spans = _record_campaign(tmp_path / f"w{workers}.jsonl",
                                 workers=workers)
        (campaign,) = spans["campaign"]
        keys[workers] = {frozenset(span["attrs"]) for span in spans["trial"]}
        for span in spans["trial"]:
            assert span["attrs"]["queue_wait"] == pytest.approx(
                span["ts"] - campaign["ts"], abs=0.05)
        assert sorted(train["parent_id"] for train in spans["train"]) == \
            sorted(span["span_id"] for span in spans["trial"])
    assert keys[1] == keys[2]
    assert len(keys[1]) == 1


def test_trace_scope_tee_keeps_pool_worker_events(tmp_path):
    """A serve shard tees into a buffered file; with a trial timeout its
    trials run on a pool worker, whose spans must reach that file too."""
    tee = tmp_path / "shard.jsonl"
    tasks = [TrialTask(f"shape/{i}", "test_telemetry_shape", {"value": i})
             for i in range(3)]
    with telemetry.trace_scope(None, jsonl=str(tee)):
        run_campaign(tasks, workers=1, trial_timeout=60.0)
    spans = [event for event in telemetry.load_events(str(tee))
             if event["type"] == "span"]
    trains = [span for span in spans if span["name"] == "train"]
    assert len(trains) == 3
    assert os.getpid() not in {span["pid"] for span in trains}


def test_forked_batched_chunk_parents_its_train_span(tmp_path):
    """perfbench's ``batched.*`` metrics read ``train`` spans under
    ``trial_batch``: a forked chunk must ship that span's context."""
    spans = _record_campaign(tmp_path / "batched.jsonl", workers=2,
                             batch_trials=2)
    (batch,) = spans["trial_batch"]
    assert batch["attrs"]["size"] == 2
    assert batch["attrs"]["fallback"] is False
    (train,) = spans["train"]
    assert train["parent_id"] == batch["span_id"]
    assert train["pid"] != batch["pid"]
