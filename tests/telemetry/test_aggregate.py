"""Aggregation: metric merging rules and the campaign-wide trial join."""

import json

from repro import telemetry
from repro.telemetry.aggregate import CampaignTelemetry, load_events, \
    merge_metrics


def _span(name, span_id, parent_id=None, dur=1.0, status="ok", **attrs):
    return {"type": "span", "name": name, "span_id": span_id,
            "parent_id": parent_id, "trace_id": "t", "pid": 1,
            "ts": 0.0, "dur": dur, "status": status, "attrs": attrs}


def _metric(name, value, pid=1, kind="counter"):
    return {"type": "metric", "kind": kind, "name": name, "value": value,
            "pid": pid, "ts": 0.0}


# -- load_events -------------------------------------------------------------

def test_load_events_skips_torn_lines(tmp_path):
    path = tmp_path / "events.jsonl"
    path.write_text(json.dumps({"type": "span", "name": "a"}) + "\n"
                    + '{"type": "span", "na\n'            # torn mid-stream
                    + json.dumps({"type": "event", "name": "b"}) + "\n"
                    + '{"truncated": ')                    # torn tail
    events = load_events(str(path))
    assert [e["name"] for e in events] == ["a", "b"]


def test_load_events_missing_file(tmp_path):
    assert load_events(str(tmp_path / "absent.jsonl")) == []


# -- flip provenance ---------------------------------------------------------

def _flip(attrs):
    return {"type": "event", "name": "flip", "pid": 1, "ts": 0.0,
            "attrs": attrs}


def test_load_events_decodes_flips_and_keeps_old_flip_lines(tmp_path):
    packed = {"type": "event", "name": "flips", "pid": 2, "ts": 5.0,
              "span_id": "s", "attrs": {
                  "trial_id": "t/1", "location": ["a/W", "b/b"],
                  "flat_index": [3, 0], "kind": ["bit_range", "integer"],
                  "precision": [32, 64], "bit_msb": [4, None],
                  "old_value": [0.5, 7.0], "new_value": [-0.5, 6.0]}}
    legacy = _flip({"trial_id": "t/0", "location": "c/W", "delta": 1.0})
    path = tmp_path / "events.jsonl"
    path.write_text("".join(json.dumps(e, sort_keys=True) + "\n"
                            for e in (legacy, packed)))
    events = load_events(str(path))
    assert events[0] == legacy
    assert [e["name"] for e in events] == ["flip"] * 3
    assert all(e["pid"] == 2 and e["span_id"] == "s" for e in events[1:])
    assert [e["attrs"] for e in events[1:]] == [
        {"trial_id": "t/1", "location": "a/W", "flat_index": 3,
         "kind": "bit_range", "precision": 32, "bit_msb": 4,
         "old_value": 0.5, "new_value": -0.5, "delta": -1.0},
        {"trial_id": "t/1", "location": "b/b", "flat_index": 0,
         "kind": "integer", "precision": 64, "bit_msb": None,
         "old_value": 7.0, "new_value": 6.0, "delta": -1.0}]
    assert telemetry.decode_events(events) == events


def test_load_events_is_read_events_then_decode_events(tmp_path):
    packed = {"type": "event", "name": "flips", "pid": 2, "ts": 5.0,
              "attrs": {"trial_id": "t/1", "location": ["a/W", "b/b"],
                        "flat_index": [3, 0], "kind": ["bit_range"] * 2,
                        "precision": [32, 32], "bit_msb": [4, 9],
                        "old_value": [0.5, 7.0], "new_value": [-0.5, 6.0]}}
    path = tmp_path / "events.jsonl"
    path.write_text(json.dumps({"type": "span", "name": "a"}) + "\n"
                    + json.dumps(packed) + "\n" + '{"torn": ')
    raw = list(telemetry.read_events(str(path)))
    assert raw == [{"type": "span", "name": "a"}, packed]
    assert telemetry.decode_events(telemetry.read_events(str(path))) == \
        load_events(str(path))
    assert len(load_events(str(path))) == 3
    assert list(telemetry.read_events(str(tmp_path / "absent.jsonl"))) == []


def test_final_attempt_keeps_the_last_stamp_and_unstamped_events():
    first = _flip({"attempt_id": "a.1", "location": "x"})
    unstamped = _flip({"location": "y"})
    last = _flip({"attempt_id": "a.2", "location": "z"})
    assert telemetry.final_attempt([first, unstamped, last]) == \
        [unstamped, last]
    assert telemetry.final_attempt([unstamped]) == [unstamped]


# -- merge_metrics -----------------------------------------------------------

def test_counters_keep_last_per_pid_and_sum_across_pids():
    events = [
        _metric("flips", 3, pid=1),
        _metric("flips", 7, pid=1),   # later snapshot supersedes
        _metric("flips", 5, pid=2),
    ]
    assert merge_metrics(events)["flips"] == {"kind": "counter", "value": 12}


def test_gauges_keep_latest_value():
    events = [_metric("util", 0.5, pid=1, kind="gauge"),
              _metric("util", 0.8, pid=2, kind="gauge")]
    assert merge_metrics(events)["util"]["value"] in (0.5, 0.8)


def test_histograms_sum_counts_across_pids():
    def histogram(pid, counts, total, count):
        return {"type": "metric", "kind": "histogram", "name": "h",
                "pid": pid, "ts": 0.0, "buckets": [1.0, 2.0],
                "counts": counts, "sum": total, "count": count}

    merged = merge_metrics([histogram(1, [1, 0, 2], 5.0, 3),
                            histogram(2, [0, 1, 1], 4.0, 2)])["h"]
    assert merged["counts"] == [1, 1, 3]
    assert merged["sum"] == 9.0
    assert merged["count"] == 5


# -- CampaignTelemetry -------------------------------------------------------

def _campaign_events():
    return [
        _span("campaign", "p.1", dur=10.0),
        _span("trial", "p.2", parent_id="p.1", dur=4.0,
              trial_id="t/0", queue_wait=0.5),
        # worker-side spans adopt the trial span as remote parent
        _span("inject", "c.1", parent_id="p.2", dur=1.0,
              successes=10, nev_introduced=2, trial_id="t/0"),
        *(_epoch("t/0", epoch, accuracy) for epoch, accuracy
          in ((1, 0.4), (2, 0.61), (3, None))),
        _span("train", "c.2", parent_id="p.2", dur=2.5,
              final_accuracy=0.61, collapsed=False, epochs_run=3),
        _span("trial", "p.3", parent_id="p.1", dur=6.0, trial_id="t/1"),
        _span("inject", "c.3", parent_id="p.3", dur=2.0, successes=100,
              trial_id="t/1"),
        _epoch("t/1", 1, None, collapsed=True),
        _span("train", "c.4", parent_id="p.3", dur=3.0,
              final_accuracy=float("nan"), collapsed=True, epochs_run=1),
        _metric("runner.trials_ok", 2),
    ]


def _epoch(trial_id, epoch, accuracy, collapsed=False):
    return {"type": "event", "name": "epoch", "pid": 1, "ts": 0.0,
            "attrs": {"trial_id": trial_id, "epoch": epoch,
                      "test_accuracy": accuracy, "collapsed": collapsed}}


def test_trials_join_nested_inject_and_train():
    summary = CampaignTelemetry(_campaign_events())
    trials = {t.trial_id: t for t in summary.trials()}
    assert set(trials) == {"t/0", "t/1"}
    assert trials["t/0"].flips == 10
    assert trials["t/0"].nev_introduced == 2
    assert trials["t/0"].final_accuracy == 0.61
    assert trials["t/0"].epochs == 3
    assert trials["t/0"].queue_wait == 0.5
    assert trials["t/1"].flips == 100
    assert trials["t/1"].collapsed is True
    assert summary.closed_trial_ids() == {"t/0", "t/1"}


def test_trials_join_keys_on_trial_id_not_span_nesting():
    events = [
        _span("trial", "p.2", dur=4.0, trial_id="t/0"),
        _span("wrapper", "w.1", parent_id="p.2", dur=3.0),
        _span("inject", "c.1", parent_id="w.1", dur=1.0, successes=7,
              trial_id="t/0"),
        # nested in t/0's span, but stamped with no trial: counts for none
        _span("inject", "c.2", parent_id="p.2", dur=1.0, successes=5),
    ]
    (trial,) = CampaignTelemetry(events).trials()
    assert trial.flips == 7


def test_batched_trials_split_their_chunk_span():
    events = [
        _span("inject", "c.1", parent_id="b.1", successes=1, trial_id="t/0",
              attempt_id="a.1"),
        _span("inject", "c.2", parent_id="b.1", successes=2, trial_id="t/1",
              attempt_id="a.1"),
        _epoch("t/0", 1, 0.5),
        _epoch("t/1", 1, 0.25),
        _span("trial_batch", "b.1", dur=3.0, size=2),
    ]
    summary = CampaignTelemetry(events)
    rows = {t.trial_id: t for t in summary.trials()}
    assert set(rows) == {"t/0", "t/1"}
    assert rows["t/1"].duration == 1.5 and rows["t/1"].span_id == "b.1"
    assert (rows["t/1"].flips, rows["t/1"].final_accuracy,
            rows["t/1"].epochs, rows["t/1"].status) == (2, 0.25, 1, "ok")
    assert "t/0 (split of trial_batch)" in summary.render()


def test_retried_trial_counts_its_last_attempt():
    events = [
        _span("inject", "c.1", parent_id="p.1", successes=4, trial_id="t/0",
              attempt_id="a.1"),
        _epoch("t/0", 1, 0.1),
        _span("inject", "c.2", parent_id="p.1", successes=1, trial_id="t/0",
              attempt_id="a.2"),
        _span("trial", "p.1", dur=2.0, trial_id="t/0", attempts=2),
    ]
    (trial,) = CampaignTelemetry(events).trials()
    assert (trial.flips, trial.epochs, trial.attempts) == (1, None, 2)


def test_phases_sorted_by_total_time():
    phases = CampaignTelemetry(_campaign_events()).phases()
    totals = [p.total_seconds for p in phases]
    assert totals == sorted(totals, reverse=True)
    trial = next(p for p in phases if p.name == "trial")
    assert trial.count == 2
    assert trial.total_seconds == 10.0
    assert trial.max_seconds == 6.0
    assert trial.mean_seconds == 5.0


def test_injection_throughput():
    flips, seconds, rate = \
        CampaignTelemetry(_campaign_events()).injection_throughput()
    assert flips == 110
    assert seconds == 3.0
    assert rate == 110 / 3.0


def test_render_contains_every_section():
    rendered = CampaignTelemetry(_campaign_events()).render(top=1)
    assert "== time by phase" in rendered
    assert "== injection throughput ==" in rendered
    assert "== slowest trials (top 1) ==" in rendered
    assert "== flip -> outcome (per trial) ==" in rendered
    assert "== counters" in rendered
    assert "t/1" in rendered
    assert "runner.trials_ok" in rendered


def test_render_empty_stream():
    rendered = CampaignTelemetry([]).render()
    assert "(no spans recorded)" in rendered
    assert "(no trial spans recorded)" in rendered


def test_from_file_round_trip(tmp_path):
    path = tmp_path / "events.jsonl"
    telemetry.configure(jsonl=str(path))
    with telemetry.span("trial", trial_id="t/9"), \
            telemetry.tag_scope(trial_id="t/9"):
        with telemetry.span("inject", successes=1):
            pass
    telemetry.shutdown()
    summary = CampaignTelemetry.from_file(str(path))
    assert summary.closed_trial_ids() == {"t/9"}
    (trial,) = summary.trials()
    assert trial.flips == 1
