"""Store lifecycle and worker scheduling: claim order, fair share,
backpressure, and crash recovery (kill -9 mid-shard)."""

import multiprocessing
import os
import signal
import threading
import time

import pytest

from repro.experiments.runner import Journal
from repro.serve.scheduler import FairScheduler, ServeWorker, run_worker
from repro.serve.spec import CampaignSpec
from repro.serve.store import BacklogFull, CampaignStore, UnknownCampaign

from . import kinds  # noqa: F401  (registers the serve_* kinds)


def echo_spec(count=4, seed=1, **overrides):
    return CampaignSpec(kind="serve_echo", params={"count": count},
                        seed=seed, **overrides)


def drain(store, owner="w"):
    worker = ServeWorker(store, owner=owner, poll=0.01)
    worker.run(drain=True)
    return worker


def wait_for(predicate, timeout=60.0, interval=0.02):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never became true"
        time.sleep(interval)


class TestStoreLifecycle:
    def test_submit_allocates_ordered_ids(self, tmp_path):
        store = CampaignStore(str(tmp_path))
        first = store.submit(echo_spec())
        second = store.submit(echo_spec())
        assert first == "00001-serve_echo"
        assert second == "00002-serve_echo"
        assert store.list_campaigns() == [first, second]

    def test_submit_rejects_unregistered_kind(self, tmp_path):
        store = CampaignStore(str(tmp_path))
        with pytest.raises(ValueError, match="no plan builder"):
            store.submit(CampaignSpec(kind="never_registered"))

    def test_unknown_campaign_raises(self, tmp_path):
        store = CampaignStore(str(tmp_path))
        with pytest.raises(UnknownCampaign):
            store.status("00099-ghost")

    def test_drain_worker_completes_campaign(self, tmp_path):
        store = CampaignStore(str(tmp_path), shard_size=2)
        cid = store.submit(echo_spec(count=5, seed=3))
        worker = drain(store)
        # one planning unit + ceil(5/2) shards
        assert len(worker.served) == 4
        status = store.status(cid)
        assert status["state"] == "done"
        assert (status["total"], status["ok"], status["failed"]) == (5, 5, 0)
        assert status["shards"] == {"total": 3, "done": 3}

    def test_results_are_plan_ordered_and_unique(self, tmp_path):
        import json

        store = CampaignStore(str(tmp_path), shard_size=2)
        cid = store.submit(echo_spec(count=5, seed=3))
        drain(store)
        rows = [json.loads(line) for line in store.results(cid)]
        assert [row["trial_id"] for row in rows] == \
            [f"serve_echo/3/{i}" for i in range(5)]
        assert [row["outcome"]["value"] for row in rows] == \
            [i * 2 for i in range(5)]

    def test_backpressure_rejects_past_max_active(self, tmp_path):
        store = CampaignStore(str(tmp_path), max_active=1)
        store.submit(echo_spec())
        with pytest.raises(BacklogFull):
            store.submit(echo_spec())
        drain(store)  # completes the first campaign
        store.submit(echo_spec())  # slot freed

    def test_cancel_stops_future_claims(self, tmp_path):
        store = CampaignStore(str(tmp_path), shard_size=1)
        cid = store.submit(echo_spec(count=3))
        store.cancel(cid)
        worker = drain(store)
        assert worker.served == []
        assert store.status(cid)["state"] == "cancelled"

    @pytest.mark.parametrize("bounds, message", [
        (dict(shard_size=0), "shard_size must be a positive integer"),
        (dict(max_active=0), "max_active must be a positive integer"),
        (dict(lease_ttl=0.0), "lease_ttl must be positive"),
        (dict(lease_ttl=-5.0), "lease_ttl must be positive"),
    ])
    def test_non_positive_bounds_are_refused(self, tmp_path, bounds,
                                             message):
        root = tmp_path / "root"
        with pytest.raises(ValueError, match=message):
            CampaignStore(str(root), **bounds)
        assert not root.exists()

    @pytest.mark.parametrize("poll", [0.0, -1.0])
    def test_non_positive_poll_is_refused(self, tmp_path, poll):
        store = CampaignStore(str(tmp_path))
        with pytest.raises(ValueError, match="poll must be positive"):
            ServeWorker(store, owner="w", poll=poll)
        with pytest.raises(ValueError, match="poll must be positive"):
            run_worker(str(tmp_path), poll=poll, drain=True)


class TestFairScheduling:
    def test_round_robin_within_a_priority_tier(self, tmp_path):
        store = CampaignStore(str(tmp_path), shard_size=1)
        first = store.submit(echo_spec(count=3, seed=1))
        second = store.submit(echo_spec(count=3, seed=2))
        worker = drain(store)
        shard_claims = [cid for cid, unit in worker.served
                        if unit.startswith("shard")]
        # strict alternation: the cursor rotates off the last-served
        # campaign, so neither campaign is drained first
        assert shard_claims == [first, second] * 3

    def test_higher_priority_campaign_served_first(self, tmp_path):
        store = CampaignStore(str(tmp_path), shard_size=1)
        low = store.submit(echo_spec(count=2, seed=1))
        high = store.submit(echo_spec(count=2, seed=2, priority=5))
        worker = drain(store)
        served = [cid for cid, _ in worker.served]
        assert served == [high] * 3 + [low] * 3  # plan + 2 shards each

    def test_scheduler_returns_none_when_everything_is_claimed(self,
                                                               tmp_path):
        store = CampaignStore(str(tmp_path), shard_size=4)
        cid = store.submit(echo_spec(count=2))
        scheduler = FairScheduler(store, owner="probe")
        work = scheduler.next_work()
        assert work[0] == "plan" and work[1] == cid
        # the planning lease is held: nothing else is claimable
        assert FairScheduler(store, owner="other").next_work() is None
        work[2].release()

    def test_two_workers_share_one_campaign_without_duplication(
            self, tmp_path):
        store = CampaignStore(str(tmp_path), shard_size=1)
        hold = tmp_path / "hold"
        hold.touch()
        marker = tmp_path / "marker"
        cid = store.submit(CampaignSpec(
            kind="serve_hold", seed=1,
            params={"count": 6, "hold_file": str(hold),
                    "hold_values": [0], "marker": str(marker)}))
        stop = str(tmp_path / "stop")
        first = ServeWorker(store, owner="w1", poll=0.01)
        second = ServeWorker(store, owner="w2", poll=0.01)
        threads = [
            threading.Thread(target=first.run,
                             kwargs={"stop_file": stop}),
            threading.Thread(target=second.run,
                             kwargs={"stop_file": stop}),
        ]
        threads[0].start()
        # let the first worker claim and build the plan
        wait_for(lambda: store.status(cid)["planned"])
        threads[1].start()
        # one worker blocks on held shard 0; the other drains trials 1-5
        wait_for(lambda: marker.exists()
                 and len(marker.read_text().splitlines()) == 5)
        hold.unlink()
        wait_for(lambda: store.status(cid)["state"] == "done")
        with open(stop, "w", encoding="utf-8"):
            pass
        for thread in threads:
            thread.join(timeout=30)
        executed = sorted(int(v) for v in marker.read_text().split())
        assert executed == list(range(6))  # exactly once each
        # lease exclusivity: the workers' units are disjoint and complete,
        # and the shard-0 blockage forced both workers to participate
        assert not (set(first.served) & set(second.served))
        units = {unit for _, unit in first.served + second.served}
        assert units == {"plan"} | {f"shard-{i:04d}" for i in range(6)}
        assert first.served and second.served


class TestCrashRecovery:
    def test_kill_nine_mid_shard_reclaims_and_loses_nothing(self, tmp_path):
        """The acceptance scenario: a worker is SIGKILLed mid-shard; its
        lease expires (dead pid), another worker reclaims the shard and
        resumes from the shard journal — no trial lost or duplicated."""
        root = str(tmp_path / "root")
        hold = tmp_path / "hold"
        hold.touch()
        marker = tmp_path / "marker"
        store = CampaignStore(root, shard_size=4, lease_ttl=600.0)
        cid = store.submit(CampaignSpec(
            kind="serve_hold", seed=1,
            params={"count": 4, "hold_file": str(hold),
                    "hold_values": [1], "marker": str(marker)}))

        context = multiprocessing.get_context("fork")
        victim = context.Process(
            target=run_worker, args=(root,),
            kwargs={"owner": "victim", "poll": 0.01, "lease_ttl": 600.0,
                    "shard_size": 4})
        victim.start()
        # trial 0 journals, then the worker blocks on held trial 1
        journal_path = store.shard_journal_path(cid, "shard-0000")
        wait_for(lambda: os.path.exists(journal_path)
                 and len(Journal(journal_path).load()) >= 1)
        os.kill(victim.pid, signal.SIGKILL)
        victim.join()

        survived = Journal(journal_path).load()
        assert [r.trial_id for r in survived] == ["serve_hold/1/0"]
        hold.unlink()

        # the dead worker's lease must expire (dead-pid path, since the
        # ttl is 10 minutes) and be reclaimed by exactly one new worker
        rescuer = ServeWorker(store, owner="rescuer", poll=0.01)
        deadline = time.monotonic() + 60
        while store.status(cid)["state"] != "done":
            assert time.monotonic() < deadline
            rescuer.run(drain=True)
            time.sleep(0.05)

        status = store.status(cid)
        assert (status["total"], status["ok"], status["failed"]) == (4, 4, 0)
        # journal holds each trial exactly once: trial 0 was resumed
        # (skipped), not re-executed
        final = Journal(journal_path).load()
        assert sorted(r.trial_id for r in final) == \
            [f"serve_hold/1/{i}" for i in range(4)]
        executed = sorted(int(v) for v in marker.read_text().split())
        assert executed == list(range(4))  # trial 0 ran exactly once
