"""Exporters: Prometheus text exposition and Chrome trace_event JSON."""

import json
import re

from repro.telemetry.export import (
    chrome_trace,
    escape_label_value,
    prom_sample,
    prometheus_exposition,
)


def _span(name, dur, pid=1, ts=1.0, **attrs):
    return {"type": "span", "name": name, "span_id": "s", "parent_id": None,
            "trace_id": "t", "pid": pid, "ts": ts, "dur": dur,
            "status": "ok", "attrs": attrs}


def _events():
    return [
        {"type": "metric", "kind": "counter", "name": "inject.attempts",
         "value": 100, "pid": 1, "ts": 0.0},
        {"type": "metric", "kind": "gauge",
         "name": "runner.worker_utilization", "value": 0.75, "pid": 1,
         "ts": 0.0},
        {"type": "metric", "kind": "histogram", "name": "hdf5.read_seconds",
         "pid": 1, "ts": 0.0, "buckets": [0.01, 0.1], "counts": [2, 1, 1],
         "sum": 0.3, "count": 4},
        _span("trial", 2.0),
        _span("trial", 3.0),
        _span("inject", 0.5),
        {"type": "event", "name": "epoch", "pid": 1, "ts": 1.5,
         "span_id": "s", "trace_id": "t", "attrs": {"epoch": 1}},
    ]


# -- Prometheus --------------------------------------------------------------

def test_prometheus_counter_and_gauge_samples():
    text = prometheus_exposition(_events())
    assert "# TYPE repro_inject_attempts counter" in text
    assert "repro_inject_attempts 100" in text
    assert "# TYPE repro_runner_worker_utilization gauge" in text
    assert "repro_runner_worker_utilization 0.75" in text


def test_prometheus_histogram_is_cumulative():
    lines = prometheus_exposition(_events()).splitlines()
    buckets = [l for l in lines if l.startswith("repro_hdf5_read_seconds_bucket")]
    assert buckets == [
        'repro_hdf5_read_seconds_bucket{le="0.01"} 2',
        'repro_hdf5_read_seconds_bucket{le="0.1"} 3',
        'repro_hdf5_read_seconds_bucket{le="+Inf"} 4',
    ]
    assert "repro_hdf5_read_seconds_sum 0.3" in lines
    assert "repro_hdf5_read_seconds_count 4" in lines


def test_prometheus_span_rollups():
    text = prometheus_exposition(_events())
    assert 'repro_span_seconds_total{span="trial"} 5' in text
    assert 'repro_span_count{span="trial"} 2' in text
    assert 'repro_span_count{span="inject"} 1' in text


def test_prometheus_type_lines_appear_once_per_metric():
    lines = prometheus_exposition(_events()).splitlines()
    type_lines = [l for l in lines if l.startswith("# TYPE")]
    assert len(type_lines) == len(set(type_lines))


def test_prometheus_empty_stream():
    assert prometheus_exposition([]) == ""


def test_prometheus_help_precedes_every_type_line():
    lines = prometheus_exposition(_events()).splitlines()
    for index, line in enumerate(lines):
        if line.startswith("# TYPE"):
            family = line.split()[2]
            assert lines[index - 1].startswith(f"# HELP {family} "), line


def test_prometheus_known_metrics_get_specific_help():
    text = prometheus_exposition(_events())
    assert ("# HELP repro_inject_attempts Injection attempts sampled into "
            "campaign plans.") in text


def _serve_events():
    names = ["serve.campaigns_submitted", "serve.campaigns_planned",
             "serve.shards_planned", "serve.shards_claimed",
             "serve.shards_completed", "serve.claim_contention",
             "serve.lease_reclaims"]
    return [{"type": "metric", "kind": "counter", "name": name,
             "value": 3, "pid": 1, "ts": 0.0} for name in names]


def test_prometheus_serve_families_have_specific_help():
    text = prometheus_exposition(_serve_events())
    for prom in ("repro_serve_campaigns_submitted",
                 "repro_serve_shards_claimed",
                 "repro_serve_claim_contention",
                 "repro_serve_lease_reclaims"):
        assert f"# TYPE {prom} counter" in text
        help_lines = [l for l in text.splitlines()
                      if l.startswith(f"# HELP {prom} ")]
        assert len(help_lines) == 1, prom
        # specific prose, not the generic "Merged counter ..." fallback
        assert "Merged counter" not in help_lines[0], help_lines[0]


_SAMPLE_RE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? -?[0-9.eE+\-]+$"
    r"|^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? (\+|-)?(Inf|NaN)$")


def test_prometheus_exposition_is_format_valid():
    """Every line is a comment or a well-formed sample, and every sample's
    family was introduced by a HELP+TYPE pair earlier in the text."""
    text = prometheus_exposition(_events() + _serve_events())
    declared: set[str] = set()
    helped: set[str] = set()
    for line in text.splitlines():
        if line.startswith("# HELP "):
            helped.add(line.split()[2])
            continue
        if line.startswith("# TYPE "):
            family = line.split()[2]
            assert family in helped, f"TYPE before HELP: {line}"
            declared.add(family)
            continue
        assert _SAMPLE_RE.match(line), f"malformed sample: {line!r}"
        name = line.split("{")[0].split()[0]
        base = name
        for suffix in ("_bucket", "_sum", "_count"):
            if name.endswith(suffix) and name[:-len(suffix)] in declared:
                base = name[:-len(suffix)]
        assert base in declared, f"undeclared family: {line!r}"
    assert text.endswith("\n")


def _outcome(label, value):
    return {"type": "metric", "kind": "counter",
            "name": f"runner.outcome_{label}", "value": value, "pid": 1,
            "ts": 0.0}


def test_prometheus_trial_outcomes_rolled_up():
    # the runner's outcome counters count every trial; a pooled trial's
    # span also names its outcome, and must not count it twice
    events = _events() + [
        _span("trial", 1.0, outcome="masked"),
        _span("trial", 1.0, outcome="masked"),
        _span("trial", 1.0, outcome="collapsed"),
        _outcome("masked", 1), _outcome("masked", 2),  # cumulative
        _outcome("collapsed", 1),
    ]
    text = prometheus_exposition(events)
    assert '# TYPE repro_trials_total counter' in text
    assert 'repro_trials_total{outcome="masked"} 2' in text
    assert 'repro_trials_total{outcome="collapsed"} 1' in text


def test_prometheus_health_gauges_use_latest_epoch():
    events = _events() + [
        {"type": "event", "name": "health", "pid": 2, "ts": 2.0,
         "attrs": {"epoch": 1,
                   "layers": {"conv1/W": {"nan_count": 0, "l2": 3.0}}}},
        {"type": "event", "name": "health", "pid": 2, "ts": 3.0,
         "attrs": {"epoch": 2,
                   "layers": {"conv1/W": {"nan_count": 4, "l2": 9.0}}}},
    ]
    text = prometheus_exposition(events)
    assert 'repro_health_nan_count{layer="conv1/W"} 4' in text
    assert 'repro_health_l2{layer="conv1/W"} 9' in text
    assert 'repro_health_l2{layer="conv1/W"} 3' not in text


# -- label escaping ----------------------------------------------------------

def test_escape_label_value_specials():
    assert escape_label_value('a"b') == 'a\\"b'
    assert escape_label_value("a\\b") == "a\\\\b"
    assert escape_label_value("a\nb") == "a\\nb"
    # backslash escapes first, so an escaped quote stays parseable
    assert escape_label_value('\\"') == '\\\\\\"'


def test_prom_sample_escapes_labels():
    line = prom_sample("m", {"layer": 'fc"1\n'}, 2)
    assert line == 'm{layer="fc\\"1\\n"} 2'


def test_prom_sample_without_labels():
    assert prom_sample("m", None, 1.5) == "m 1.5"


def test_exposition_escapes_hostile_outcome_labels():
    events = [_outcome('bad"label\n', 1)]
    text = prometheus_exposition(events)
    assert 'repro_trials_total{outcome="bad\\"label\\n"} 1' in text
    assert "\n\n" not in text  # no raw newline leaked into a label


# -- Chrome trace ------------------------------------------------------------

def test_chrome_trace_spans_are_complete_events():
    trace = chrome_trace(_events())
    spans = [e for e in trace["traceEvents"] if e["ph"] == "X"]
    assert len(spans) == 3
    trial = spans[0]
    assert trial["name"] == "trial"
    assert trial["ts"] == 1.0 * 1e6   # microseconds
    assert trial["dur"] == 2.0 * 1e6
    assert trial["args"]["status"] == "ok"


def test_chrome_trace_point_events_are_instants():
    trace = chrome_trace(_events())
    (instant,) = [e for e in trace["traceEvents"] if e["ph"] == "i"]
    assert instant["name"] == "epoch"
    assert instant["args"] == {"epoch": 1}


def test_chrome_trace_sorted_and_serializable():
    trace = chrome_trace(_events())
    stamps = [e["ts"] for e in trace["traceEvents"]]
    assert stamps == sorted(stamps)
    json.dumps(trace)  # must be JSON-clean for chrome://tracing
    assert trace["displayTimeUnit"] == "ms"


# -- Chrome trace: fleet merges (multi-pid, multi-host) ----------------------

def _fleet_events():
    # same OS pid on two hosts plus a second pid on one of them — the
    # shape a fleet merge produces when workers run on several machines
    return [
        dict(_span("serve.shard", 1.0, pid=4242), host="alpha"),
        dict(_span("trial", 0.5, pid=4242, ts=2.0), host="beta"),
        dict(_span("trial", 0.5, pid=9, ts=3.0), host="beta"),
    ]


def test_chrome_trace_same_pid_on_two_hosts_gets_distinct_tracks():
    trace = chrome_trace(_fleet_events())
    spans = [e for e in trace["traceEvents"] if e["ph"] == "X"]
    by_name = {e["name"]: e["pid"] for e in spans}
    tracks = {e["pid"] for e in spans}
    assert len(tracks) == 3  # (alpha,4242), (beta,4242), (beta,9)
    assert by_name["serve.shard"] != spans[1]["pid"]


def test_chrome_trace_track_labels_carry_host_and_pid():
    trace = chrome_trace(_fleet_events())
    labels = {e["pid"]: e["args"]["name"]
              for e in trace["traceEvents"]
              if e["ph"] == "M" and e["name"] == "process_name"}
    assert sorted(labels.values()) == ["alpha:4242", "beta:4242", "beta:9"]
    # every span's track has a label
    for event in trace["traceEvents"]:
        if event["ph"] == "X":
            assert event["pid"] in labels


def test_chrome_trace_track_assignment_is_stable():
    events = _fleet_events()
    first = chrome_trace(events)
    second = chrome_trace(list(reversed(events)))
    def label_map(trace):
        return {e["args"]["name"]: e["pid"] for e in trace["traceEvents"]
                if e["ph"] == "M" and e["name"] == "process_name"}
    assert label_map(first) == label_map(second)


def test_chrome_trace_hostless_events_fall_back_to_pid_label():
    trace = chrome_trace([_span("trial", 1.0, pid=7)])
    (label,) = {e["args"]["name"] for e in trace["traceEvents"]
                if e["ph"] == "M" and e["name"] == "process_name"}
    assert label == "7"
