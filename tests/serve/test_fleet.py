"""Fleet observability end to end: one campaign = one trace across
workers and hosts, the /trace endpoint, heartbeat resource samples, and
the fleet console with its stall alerts."""

import argparse
import json
import multiprocessing
import os
import signal
import threading
import time

import pytest

from repro.experiments.runner import Journal
from repro.experiments.watch import (
    FleetWatch,
    add_fleet_arguments,
    add_watch_arguments,
    fleet_command,
    render_fleet_frame,
    watch_command,
)
from repro.serve.app import build_app_server
from repro.serve.client import ServeClient
from repro.serve.scheduler import ServeWorker, run_worker
from repro.serve.spec import CampaignSpec
from repro.serve.store import CampaignStore
from repro.telemetry import TraceContext, TrialJoin, read_events

from . import kinds  # noqa: F401  (registers the serve_* kinds)


def campaign_events(store, cid):
    """Every event of the campaign's per-shard telemetry streams."""
    return [event for path in store.telemetry_paths(cid)
            for event in read_events(path)]


def trace_ids(store, cid):
    return {event["trace_id"] for event in campaign_events(store, cid)
            if event.get("trace_id") is not None}


def wait_for(predicate, timeout=60.0, interval=0.02):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never became true"
        time.sleep(interval)


@pytest.fixture
def service(tmp_path):
    store = CampaignStore(str(tmp_path / "root"), shard_size=2)
    server = build_app_server(store, 0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    client = ServeClient(f"http://{host}:{port}")
    yield store, client
    server.shutdown()
    server.server_close()


def fork_workers(root, count, **kwargs):
    context = multiprocessing.get_context("fork")
    pool = []
    for index in range(count):
        settings = {"owner": f"fleet-{index}", "poll": 0.01,
                    "shard_size": 2, "drain": True}
        settings.update(kwargs)
        pool.append(context.Process(target=run_worker, args=(root,),
                                    kwargs=settings))
    for process in pool:
        process.start()
    return pool


class TestDistributedTrace:
    def test_two_workers_one_merged_trace(self, service):
        """The acceptance scenario: a campaign submitted through the
        client and drained by two separate worker processes yields one
        merged trace whose every span carries the submit-time trace id."""
        store, client = service
        trace = TraceContext.new()
        submitted = client.submit(
            CampaignSpec(kind="serve_echo", seed=3, params={"count": 8}),
            trace=trace)
        assert submitted["trace_id"] == trace.trace_id
        cid = submitted["campaign_id"]

        pool = fork_workers(store.root, 2)
        client.wait(cid, timeout=60)
        for process in pool:
            process.join(timeout=30)

        summary = client.trace(cid, format="summary")
        assert summary["trace_id"] == trace.trace_id
        assert summary["trace_ids_observed"] == [trace.trace_id]
        assert sorted(summary["trials"]) == \
            [f"serve_echo/3/{i}" for i in range(8)]
        assert len(summary["sources"]) >= 2  # plan + at least one shard

    def test_submit_without_traceparent_still_one_trace(self, tmp_path):
        store = CampaignStore(str(tmp_path / "root"), shard_size=2)
        cid = store.submit(CampaignSpec(kind="serve_echo", seed=1,
                                        params={"count": 4}))
        stamped = store.trace(cid)
        assert stamped is not None  # store mints when the client didn't
        ServeWorker(store, owner="w", poll=0.01).run(drain=True)
        assert trace_ids(store, cid) == {stamped.trace_id}

    def test_kill_nine_survivor_joins_same_trace(self, tmp_path):
        """A worker SIGKILLed mid-shard must not fork the trace: the
        rescuer restores the same submit-time context for the re-run."""
        root = str(tmp_path / "root")
        hold = tmp_path / "hold"
        hold.touch()
        store = CampaignStore(root, shard_size=4, lease_ttl=600.0)
        trace = TraceContext.new()
        cid = store.submit(CampaignSpec(
            kind="serve_hold", seed=1,
            params={"count": 4, "hold_file": str(hold),
                    "hold_values": [1]}), trace=trace)

        (victim,) = fork_workers(root, 1, shard_size=4, drain=False,
                                 lease_ttl=600.0)
        journal_path = store.shard_journal_path(cid, "shard-0000")
        wait_for(lambda: os.path.exists(journal_path)
                 and len(Journal(journal_path).load()) >= 1)
        os.kill(victim.pid, signal.SIGKILL)
        victim.join()
        hold.unlink()

        rescuer = ServeWorker(store, owner="rescuer", poll=0.01)
        deadline = time.monotonic() + 60
        while store.status(cid)["state"] != "done":
            assert time.monotonic() < deadline
            rescuer.run(drain=True)
            time.sleep(0.05)

        assert trace_ids(store, cid) == {trace.trace_id}
        trial_ids = set(TrialJoin().read(campaign_events(store, cid)).index())
        # the rescuer's shard re-run re-traced every trial it executed
        assert {f"serve_hold/1/{i}" for i in range(1, 4)} <= trial_ids


class TestTraceEndpoint:
    def _served(self, service, count=4):
        store, client = service
        cid = client.submit(CampaignSpec(kind="serve_echo", seed=2,
                                         params={"count": count}))\
            ["campaign_id"]
        ServeWorker(store, owner="w", poll=0.01).run(drain=True)
        return store, client, cid

    def test_chrome_format_default(self, service):
        _, client, cid = self._served(service)
        trace = client.trace(cid)
        names = {e["name"] for e in trace["traceEvents"]}
        assert "serve.shard" in names
        assert "trial" in names
        json.dumps(trace)  # chrome://tracing needs clean JSON

    def test_events_format_is_raw_stream(self, service):
        _, client, cid = self._served(service)
        events = client.trace(cid, format="events")["events"]
        assert all("type" in e for e in events)
        assert any(e.get("name") == "serve.shards_claimed"
                   for e in events if e["type"] == "metric")

    def test_unknown_campaign_404(self, service):
        _, client = service
        from repro.serve.client import ServeError
        with pytest.raises(ServeError) as err:
            client.trace("serve_echo-999999")
        assert err.value.status == 404


class TestWorkerSamples:
    def test_heartbeat_publishes_resources_and_counters(self, tmp_path):
        store = CampaignStore(str(tmp_path / "root"), shard_size=2)
        store.submit(CampaignSpec(kind="serve_echo", seed=4,
                                  params={"count": 4}))
        ServeWorker(store, owner="sampled", poll=0.01).run(drain=True)
        (sample,) = [s for s in store.worker_samples()
                     if s["owner"] == "sampled"]
        assert sample["rss_bytes"] > 0
        assert sample["cpu_seconds"] >= 0.0
        assert sample["host"]
        assert sample["pid"] == os.getpid()
        stats = store.fleet_stats()
        (worker,) = [w for w in stats.workers if w.owner == "sampled"]
        assert worker.rss_bytes == sample["rss_bytes"]


class TestFleetWatch:
    def _expired_lease_store(self, tmp_path):
        """A store whose one claimed shard's lease is past its TTL."""
        store = CampaignStore(str(tmp_path / "root"), shard_size=2,
                              lease_ttl=5.0)
        cid = store.submit(CampaignSpec(kind="serve_echo", seed=9,
                                        params={"count": 4}))
        store.build_plan(cid)
        shard_id = store.shard_ids(cid)[0]
        lease = store.claim_shard(cid, shard_id, "zombie")
        assert lease is not None
        # a lease whose pid is alive but whose heartbeat stopped: only
        # the mtime TTL can expire it, exactly the stall the rule hunts
        old = time.time() - 120.0
        os.utime(lease.path, (old, old))
        return store, cid, shard_id

    def test_expired_lease_alert_fires_once_per_violation(self, tmp_path):
        store, cid, shard_id = self._expired_lease_store(tmp_path)
        watch = FleetWatch(store)
        stats, firing = watch.poll()
        assert [a.rule for a in firing] == ["lease-expired"]
        assert firing[0].campaign_id == cid
        assert firing[0].shard_id == shard_id
        # still firing on the next poll, but journaled only once
        _, again = watch.poll()
        assert [a.rule for a in again] == ["lease-expired"]
        journaled = [json.loads(line) for line in
                     open(watch.alerts_path, encoding="utf-8")]
        assert len(journaled) == 1
        assert journaled[0]["rule"] == "lease-expired"
        assert watch.alert_totals == {"lease-expired": 1}

    def test_prometheus_counts_fired_alerts(self, tmp_path):
        store, _, _ = self._expired_lease_store(tmp_path)
        watch = FleetWatch(store)
        text = watch.prometheus()
        assert 'repro_fleet_alerts_total{rule="lease-expired"} 1' in text
        assert "repro_fleet_queue_depth" in text
        assert "repro_serve_campaigns" in text  # store half prepended

    def test_one_scrape_reads_each_shard_journal_once(self, tmp_path,
                                                       monkeypatch):
        """A drained campaign and a planned one, two shards each: the
        store's ``/metrics`` document and the fleet console's both build
        their progress and fleet rollups from one read per journal."""
        store = CampaignStore(str(tmp_path / "root"), shard_size=2)
        drained = store.submit(CampaignSpec(kind="serve_echo", seed=3,
                                            params={"count": 4}))
        ServeWorker(store, owner="w", poll=0.01).run(drain=True)
        planned = store.submit(CampaignSpec(kind="serve_echo", seed=4,
                                            params={"count": 4}))
        store.build_plan(planned)
        journals = sorted(store.shard_journal_path(cid, sid)
                          for cid in (drained, planned)
                          for sid in store.shard_ids(cid))
        assert len(journals) == 4
        loads = []
        load = Journal.load
        monkeypatch.setattr(Journal, "load",
                            lambda self: loads.append(self.path)
                            or load(self))
        for scrape in (store.fleet_prometheus, FleetWatch(store).prometheus):
            loads.clear()
            text = scrape()
            assert sorted(loads) == journals
            assert f'repro_serve_trials{{campaign="{drained}",' \
                   f'status="ok"}} 4' in text

    def test_accepts_root_path(self, tmp_path):
        store, _, _ = self._expired_lease_store(tmp_path)
        watch = FleetWatch(store.root)
        _, firing = watch.poll()
        assert firing


class TestFleetConsole:
    def _drained_root(self, tmp_path):
        store = CampaignStore(str(tmp_path / "root"), shard_size=2)
        client_trace = TraceContext.new()
        cid = store.submit(CampaignSpec(kind="serve_echo", seed=6,
                                        params={"count": 6}),
                           trace=client_trace)
        ServeWorker(store, owner="console-w", poll=0.01).run(drain=True)
        return store, cid

    def test_frame_reports_campaign_and_worker_throughput(self, tmp_path):
        store, cid = self._drained_root(tmp_path)
        stats = store.fleet_stats()
        frame = "\n".join(render_fleet_frame(stats))
        assert cid in frame
        assert "worker console-w" in frame
        (worker,) = stats.workers
        assert f"({worker.trials_per_second:.2f}/s)" in frame
        assert "rss " in frame and "cpu " in frame

    def test_frame_shows_alert_lines(self, tmp_path):
        store, _ = self._drained_root(tmp_path)
        watch = FleetWatch(store)
        stats, _ = watch.poll()
        from repro.telemetry.fleet import Alert
        frame = "\n".join(render_fleet_frame(stats, alerts=[
            Alert("lease-expired", "warning", "shard s0 is stuck")]))
        assert "ALERT [warning] lease-expired: shard s0 is stuck" in frame

    def test_fleet_once_cli(self, tmp_path, capsys):
        store, cid = self._drained_root(tmp_path)
        parser = argparse.ArgumentParser()
        add_fleet_arguments(parser)
        args = parser.parse_args([store.root, "--once"])
        assert fleet_command(args) == 0
        out = capsys.readouterr().out
        assert cid in out
        assert "console-w" in out

    def test_fleet_once_json(self, tmp_path, capsys):
        store, cid = self._drained_root(tmp_path)
        parser = argparse.ArgumentParser()
        add_fleet_arguments(parser)
        args = parser.parse_args([store.root, "--once", "--json"])
        assert fleet_command(args) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["root"] == store.root
        assert [c["campaign_id"] for c in payload["campaigns"]] == [cid]
        assert payload["workers"][0]["owner"] == "console-w"

    def test_watch_fleet_flag_routes_to_fleet(self, tmp_path, capsys):
        store, cid = self._drained_root(tmp_path)
        parser = argparse.ArgumentParser()
        add_watch_arguments(parser)
        args = parser.parse_args(["--fleet", store.root, "--once",
                                  "--json"])
        assert watch_command(args) == 0
        assert cid in capsys.readouterr().out

    def test_watch_without_journal_or_fleet_errors(self, capsys):
        parser = argparse.ArgumentParser()
        add_watch_arguments(parser)
        args = parser.parse_args([])
        assert watch_command(args) == 2
        assert "journal path is required" in capsys.readouterr().err

    def test_fleet_once_reports_expired_lease_alert(self, tmp_path,
                                                    capsys):
        """The acceptance scenario: the console's one-shot frame carries
        the stall alert for a lease past its TTL."""
        store = CampaignStore(str(tmp_path / "root"), shard_size=2,
                              lease_ttl=5.0)
        cid = store.submit(CampaignSpec(kind="serve_echo", seed=8,
                                        params={"count": 4}))
        store.build_plan(cid)
        shard_id = store.shard_ids(cid)[0]
        lease = store.claim_shard(cid, shard_id, "zombie")
        old = time.time() - 120.0
        os.utime(lease.path, (old, old))

        parser = argparse.ArgumentParser()
        add_fleet_arguments(parser)
        assert fleet_command(parser.parse_args([store.root, "--once"])) == 0
        out = capsys.readouterr().out
        assert "ALERT [warning] lease-expired" in out
        assert shard_id in out
