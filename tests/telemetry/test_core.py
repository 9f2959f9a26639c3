"""Span semantics: nesting, detachment, fork-context adoption, noop mode."""

import os

import pytest

from repro import telemetry
from repro.telemetry.core import _RemoteParent


def test_disabled_by_default():
    assert not telemetry.enabled()
    # bare span() call asserts the disabled-state singleton, not a span
    assert telemetry.span("x") is telemetry.NOOP_SPAN  # repro-lint: disable=span-discipline
    assert telemetry.start_span("x") is telemetry.NOOP_SPAN
    # metric and event hooks are silent no-ops
    telemetry.count("c")
    telemetry.gauge("g", 1.0)
    telemetry.observe("h", 0.5)
    telemetry.event("e", key="value")
    telemetry.flush_metrics()


def test_noop_span_protocol():
    span = telemetry.NOOP_SPAN
    with span as entered:
        assert entered is span
    assert span.set(a=1) is span
    span.finish("ok")
    assert span.context() == {"trace_id": None, "span_id": None}


def test_span_emits_on_close():
    sink = telemetry.InMemorySink()
    telemetry.configure(sink)
    with telemetry.span("work", attempts=3) as span:
        span.set(extra="yes")
    (event,) = sink.spans("work")
    assert event["type"] == "span"
    assert event["status"] == "ok"
    assert event["attrs"] == {"attempts": 3, "extra": "yes"}
    assert event["pid"] == os.getpid()
    assert event["dur"] >= 0.0
    assert event["parent_id"] is None


def test_span_nesting_sets_parent_id():
    sink = telemetry.InMemorySink()
    telemetry.configure(sink)
    with telemetry.span("outer") as outer:
        with telemetry.span("inner"):
            pass
    (inner_event,) = sink.spans("inner")
    (outer_event,) = sink.spans("outer")
    assert inner_event["parent_id"] == outer.span_id
    assert outer_event["parent_id"] is None
    assert inner_event["trace_id"] == outer_event["trace_id"]


def test_exception_marks_span_error():
    sink = telemetry.InMemorySink()
    telemetry.configure(sink)
    with pytest.raises(RuntimeError):
        with telemetry.span("doomed"):
            raise RuntimeError("boom")
    (event,) = sink.spans("doomed")
    assert event["status"] == "error"


def test_finish_is_idempotent():
    sink = telemetry.InMemorySink()
    telemetry.configure(sink)
    with telemetry.span("once") as span:
        span.finish("custom")
    span.finish("ignored")
    (event,) = sink.spans("once")
    assert event["status"] == "custom"


def test_start_span_is_detached():
    sink = telemetry.InMemorySink()
    telemetry.configure(sink)
    detached = telemetry.start_span("trial", trial_id="t/0")
    with telemetry.span("unrelated"):
        pass
    (unrelated,) = sink.spans("unrelated")
    assert unrelated["parent_id"] is None  # detached span is never ambient
    detached.finish("ok")
    (trial,) = sink.spans("trial")
    assert trial["attrs"]["trial_id"] == "t/0"


def test_start_span_accepts_context_dict_parent():
    sink = telemetry.InMemorySink()
    telemetry.configure(sink)
    parent = telemetry.start_span("parent")
    child = telemetry.start_span("child", parent=parent.context())
    child.finish()
    parent.finish()
    (child_event,) = sink.spans("child")
    assert child_event["parent_id"] == parent.span_id


def test_ambient_installs_remote_parent():
    sink = telemetry.InMemorySink()
    telemetry.configure(sink)
    with telemetry.span("outer") as outer:
        with telemetry.ambient({"trace_id": "tr", "span_id": "dead.1"}):
            with telemetry.span("child"):
                pass
            with telemetry.ambient(None):  # telemetry off upstream
                with telemetry.span("orphan"):
                    pass
        with telemetry.span("after"):  # the block's parent is restored
            pass
    (event,) = sink.spans("child")
    assert event["parent_id"] == "dead.1"
    (orphan,) = sink.spans("orphan")
    assert orphan["parent_id"] is None
    (after,) = sink.spans("after")
    assert after["parent_id"] == outer.span_id


def test_remote_parent_carries_span_id():
    remote = _RemoteParent("abc.7")
    assert remote.span_id == "abc.7"


def test_event_attaches_to_ambient_span():
    sink = telemetry.InMemorySink()
    telemetry.configure(sink)
    with telemetry.span("epoch_loop") as span:
        telemetry.event("epoch", epoch=1, loss=0.5)
    (event,) = sink.by_type("event")
    assert event["name"] == "epoch"
    assert event["span_id"] == span.span_id
    assert event["attrs"] == {"epoch": 1, "loss": 0.5}


def test_span_ids_unique_and_pid_tagged():
    telemetry.configure(telemetry.InMemorySink())
    ids = {telemetry.start_span("s").span_id for _ in range(100)}
    assert len(ids) == 100
    assert all(i.startswith(f"{os.getpid():x}.") for i in ids)


def test_configure_jsonl_shorthand(tmp_path):
    path = tmp_path / "stream.jsonl"
    telemetry.configure(jsonl=str(path))
    with telemetry.span("one"):
        pass
    telemetry.count("c", 2)
    telemetry.shutdown()  # flushes metrics and closes the sink
    events = telemetry.load_events(str(path))
    assert [e["type"] for e in events] == ["span", "metric"]
    assert not telemetry.enabled()


def test_configure_requires_a_sink():
    with pytest.raises(ValueError):
        telemetry.configure()


def test_shutdown_flushes_pending_metrics():
    sink = telemetry.InMemorySink()
    telemetry.configure(sink)
    telemetry.count("pending", 5)
    telemetry.shutdown()
    (metric,) = sink.by_type("metric")
    assert metric["name"] == "pending"
    assert metric["value"] == 5


class TestTagScope:
    """Ambient event tags: the executing-side half of per-trial
    attribution under batched execution."""

    def test_tags_ride_along_on_events(self):
        sink = telemetry.InMemorySink()
        telemetry.configure(sink)
        with telemetry.tag_scope(trial_id="fig3/7"):
            telemetry.event("flip", location="a/W")
        (event,) = sink.by_type("event")
        assert event["attrs"]["trial_id"] == "fig3/7"
        assert event["attrs"]["location"] == "a/W"

    def test_tags_ride_along_on_spans_opened_in_scope(self):
        sink = telemetry.InMemorySink()
        telemetry.configure(sink)
        outer = telemetry.start_span("trial")
        with telemetry.tag_scope(attempt_id="a.1", trial_id="fig3/7"):
            with telemetry.span("inject", trial_id="explicit"):
                pass
        outer.finish()
        inject, trial = sink.spans()
        assert inject["attrs"] == {"attempt_id": "a.1",
                                   "trial_id": "explicit"}
        assert trial["attrs"] == {}

    def test_scope_is_bounded(self):
        sink = telemetry.InMemorySink()
        telemetry.configure(sink)
        with telemetry.tag_scope(trial_id="x"):
            pass
        telemetry.event("after")
        (event,) = sink.by_type("event")
        assert "trial_id" not in event["attrs"]

    def test_scopes_nest_inner_shadows_outer(self):
        sink = telemetry.InMemorySink()
        telemetry.configure(sink)
        with telemetry.tag_scope(trial_id="outer", campaign="c"):
            with telemetry.tag_scope(trial_id="inner"):
                telemetry.event("deep")
            telemetry.event("shallow")
        deep, shallow = sink.by_type("event")
        assert deep["attrs"]["trial_id"] == "inner"
        assert deep["attrs"]["campaign"] == "c"
        assert shallow["attrs"]["trial_id"] == "outer"

    def test_none_valued_tags_are_dropped(self):
        sink = telemetry.InMemorySink()
        telemetry.configure(sink)
        with telemetry.tag_scope(trial_id=None):
            telemetry.event("flip")
        (event,) = sink.by_type("event")
        assert "trial_id" not in event["attrs"]

    def test_explicit_event_attrs_win(self):
        sink = telemetry.InMemorySink()
        telemetry.configure(sink)
        with telemetry.tag_scope(trial_id="ambient"):
            telemetry.event("flip", trial_id="explicit")
        (event,) = sink.by_type("event")
        assert event["attrs"]["trial_id"] == "explicit"
