"""Fleet telemetry: alert rules and the fleet exposition."""

import json

from repro.telemetry.fleet import (
    Alert,
    CampaignFleetStatus,
    DEFAULT_ALERT_RULES,
    FleetStats,
    ShardStatus,
    WorkerStatus,
    evaluate_alerts,
    fleet_prometheus,
)


def _write(path, events):
    with open(path, "w", encoding="utf-8") as handle:
        for event in events:
            handle.write(json.dumps(event) + "\n")


def _span(name, trace_id="t" * 32, **extra):
    return dict({"type": "span", "name": name, "span_id": "1.1",
                 "parent_id": None, "trace_id": trace_id, "pid": 1,
                 "ts": 1.0, "dur": 0.5, "status": "ok", "attrs": {}},
                **extra)


# -- alert rules -------------------------------------------------------------

def _stats(**overrides):
    base = dict(root="/fleet", generated_at=1000.0,
                campaigns=[], workers=[], shards=[])
    base.update(overrides)
    return FleetStats(**base)


class TestAlertRules:
    def test_lease_expired_fires_per_expired_shard(self):
        stats = _stats(shards=[
            ShardStatus("c1", "shard-0", "claimed", lease_owner="w1",
                        lease_age=99.0, lease_ttl=30.0, expired=True),
            ShardStatus("c1", "shard-1", "claimed", lease_owner="w2",
                        lease_age=1.0, lease_ttl=30.0, expired=False),
            ShardStatus("c1", "shard-2", "done"),
        ])
        alerts = evaluate_alerts(stats)
        assert [a.rule for a in alerts] == ["lease-expired"]
        assert alerts[0].shard_id == "shard-0"
        assert alerts[0].worker == "w1"

    def test_worker_silent_ignores_idle_workers(self):
        stats = _stats(generated_at=1000.0, workers=[
            WorkerStatus("busy", campaign_id="c1", shard_id="s0",
                         last_seen=1000.0 - 120.0),
            WorkerStatus("idle", campaign_id=None,
                         last_seen=1000.0 - 120.0),
            WorkerStatus("fresh", campaign_id="c1", last_seen=999.0),
        ])
        alerts = evaluate_alerts(stats)
        assert [(a.rule, a.worker) for a in alerts] == \
            [("worker-silent", "busy")]

    def test_eta_regression_needs_previous_snapshot(self):
        current = _stats(campaigns=[CampaignFleetStatus(
            "c1", "running", eta_seconds=500.0)])
        assert evaluate_alerts(current, previous=None) == []
        previous = _stats(campaigns=[CampaignFleetStatus(
            "c1", "running", eta_seconds=100.0)])
        alerts = evaluate_alerts(current, previous)
        assert [a.rule for a in alerts] == ["eta-regression"]

    def test_eta_shrinking_is_fine(self):
        previous = _stats(campaigns=[CampaignFleetStatus(
            "c1", "running", eta_seconds=100.0)])
        current = _stats(campaigns=[CampaignFleetStatus(
            "c1", "running", eta_seconds=60.0)])
        assert evaluate_alerts(current, previous) == []

    def test_collapsed_spike_waits_for_min_done(self):
        few = _stats(campaigns=[CampaignFleetStatus(
            "c1", "running", done=4, outcomes={"collapsed": 4})])
        assert evaluate_alerts(few) == []
        many = _stats(campaigns=[CampaignFleetStatus(
            "c1", "running", done=20, outcomes={"collapsed": 15})])
        alerts = evaluate_alerts(many)
        assert [a.rule for a in alerts] == ["collapsed-spike"]

    def test_with_params_tunes_thresholds(self):
        rules = tuple(rule.with_params(silent_after=5.0)
                      if rule.name == "worker-silent" else rule
                      for rule in DEFAULT_ALERT_RULES)
        stats = _stats(generated_at=1000.0, workers=[
            WorkerStatus("w", campaign_id="c1", last_seen=990.0)])
        assert evaluate_alerts(stats, rules=rules)[0].rule == \
            "worker-silent"
        assert evaluate_alerts(stats) == []  # default 60s not reached

    def test_alert_key_dedups_per_subject(self):
        first = Alert("lease-expired", "warning", "msg", campaign_id="c1",
                      shard_id="s0", worker="w1", ts=1.0)
        later = Alert("lease-expired", "warning", "other", campaign_id="c1",
                      shard_id="s0", worker="w1", ts=9.0)
        other = Alert("lease-expired", "warning", "msg", campaign_id="c1",
                      shard_id="s1", worker="w1", ts=1.0)
        assert first.key() == later.key()
        assert first.key() != other.key()

    def test_alert_to_json_round_trips(self):
        alert = Alert("lease-expired", "warning", "msg", campaign_id="c1",
                      shard_id="s0", worker="w1", ts=2.0)
        payload = json.loads(json.dumps(alert.to_json()))
        assert payload["type"] == "alert"
        assert payload["rule"] == "lease-expired"
        assert payload["shard_id"] == "s0"


# -- exposition --------------------------------------------------------------

class TestFleetPrometheus:
    def test_core_gauges_and_alert_totals(self):
        stats = _stats(
            campaigns=[CampaignFleetStatus("c1", "running", done=2,
                                           trials_per_second=4.0,
                                           eta_seconds=30.0)],
            workers=[WorkerStatus("w1", rss_bytes=1024.0, cpu_seconds=2.5,
                                  trials_done=8, started=990.0,
                                  last_seen=1000.0)],
            shards=[ShardStatus("c1", "s0", "claimed", lease_owner="w1",
                                lease_age=3.0, lease_ttl=30.0)],
        )
        text = fleet_prometheus(stats, alert_totals={"lease-expired": 2})
        assert "repro_fleet_queue_depth 1" in text
        assert "repro_fleet_workers 1" in text
        assert ('repro_fleet_shard_lease_age_seconds'
                '{campaign="c1",shard="s0"} 3') in text
        assert 'repro_fleet_worker_rss_bytes{worker="w1"} 1024' in text
        assert ('repro_fleet_worker_cpu_seconds_total{worker="w1"} 2.5'
                in text)
        assert 'repro_fleet_campaign_eta_seconds{campaign="c1"} 30' in text
        assert 'repro_fleet_alerts_total{rule="lease-expired"} 2' in text
        # every default rule is pre-seeded at zero so dashboards see the
        # series before the first alert fires
        assert 'repro_fleet_alerts_total{rule="worker-silent"} 0' in text

    def test_exposition_help_precedes_type(self):
        lines = fleet_prometheus(_stats()).splitlines()
        for index, line in enumerate(lines):
            if line.startswith("# TYPE"):
                family = line.split()[2]
                assert lines[index - 1].startswith(f"# HELP {family} ")
