"""Shard manifests and the leases workers claim them with: atomic JSON
commits, expiry/reclaim, and the racy-directory-creation regression."""

import multiprocessing
import os
import threading
import time

import pytest

from repro.durable import Lease, read_json, write_json
from repro.experiments.runner import TrialTask
from repro.serve.shards import (
    Heartbeat,
    cut_shards,
    ensure_dir,
    manifest_payload,
    manifest_tasks,
    resource_sample,
    shard_name,
)


def tasks_of(n):
    return [TrialTask(trial_id=f"t/{i}", kind="serve_echo",
                      payload={"value": i}) for i in range(n)]


class TestAtomicJson:
    def test_write_then_read(self, tmp_path):
        path = str(tmp_path / "deep" / "doc.json")
        write_json(path, {"a": 1})
        assert read_json(path) == {"a": 1}

    def test_no_temp_files_left(self, tmp_path):
        path = str(tmp_path / "doc.json")
        write_json(path, {"a": 1})
        write_json(path, {"a": 2})
        assert sorted(os.listdir(tmp_path)) == ["doc.json"]
        assert read_json(path) == {"a": 2}

    def test_missing_reads_none(self, tmp_path):
        assert read_json(str(tmp_path / "nope.json")) is None


class TestShardCutting:
    def test_consecutive_cuts(self):
        shards = cut_shards(tasks_of(8), 3)
        assert [len(s) for s in shards] == [3, 3, 2]
        flat = [t.trial_id for shard in shards for t in shard]
        assert flat == [t.trial_id for t in tasks_of(8)]

    def test_bad_shard_size(self):
        with pytest.raises(ValueError):
            cut_shards(tasks_of(2), 0)

    def test_shard_names_sort_in_order(self):
        names = [shard_name(i) for i in range(11)]
        assert names == sorted(names)

    def test_manifest_round_trip(self):
        tasks = tasks_of(3)
        manifest = manifest_payload("c1", shard_name(0), tasks)
        assert manifest["trial_ids"] == [t.trial_id for t in tasks]
        again = manifest_tasks(manifest)
        assert [(t.trial_id, t.kind, t.payload) for t in again] == \
            [(t.trial_id, t.kind, t.payload) for t in tasks]


class TestLease:
    def test_claim_is_exclusive(self, tmp_path):
        path = str(tmp_path / "lease")
        first = Lease(path, owner="a")
        second = Lease(path, owner="b")
        assert first.try_claim()
        assert not second.try_claim()
        first.release()
        assert second.try_claim()

    def test_context_manager_raises_when_held(self, tmp_path):
        path = str(tmp_path / "lease")
        with Lease(path, owner="a"):
            with pytest.raises(TimeoutError, match="held"):
                with Lease(path, owner="b"):
                    pass
        # released on exit
        assert Lease(path, owner="c").try_claim()

    def test_ttl_expiry_allows_reclaim(self, tmp_path):
        path = str(tmp_path / "lease")
        stale = Lease(path, owner="dead", ttl=0.15)
        assert stale.try_claim()
        time.sleep(0.3)
        fresh = Lease(path, owner="alive", ttl=0.15)
        assert fresh.try_claim()
        assert fresh.held

    def test_heartbeat_keeps_lease_fresh(self, tmp_path):
        path = str(tmp_path / "lease")
        lease = Lease(path, owner="busy", ttl=0.4)
        assert lease.try_claim()
        rival = Lease(path, owner="rival", ttl=0.4)
        with Heartbeat(lease, interval=0.05):
            time.sleep(0.8)  # two ttls: without renewal this would expire
            assert not rival.try_claim()
        lease.release()
        assert rival.try_claim()

    def test_dead_pid_expires_before_ttl(self, tmp_path):
        path = str(tmp_path / "lease")
        context = multiprocessing.get_context("fork")
        victim = context.Process(target=_claim_and_die, args=(path,))
        victim.start()
        victim.join()
        assert os.path.exists(path)  # died holding the lease
        reclaimer = Lease(path, owner="next", ttl=3600.0)
        deadline = time.monotonic() + 10
        while not reclaimer.try_claim():
            assert time.monotonic() < deadline
            time.sleep(0.05)
        assert reclaimer.held

    def test_reclaim_elects_exactly_one_winner(self, tmp_path):
        path = str(tmp_path / "lease")
        stale = Lease(path, owner="dead", ttl=60.0)
        assert stale.try_claim()
        # backdate far past the ttl: every racer sees an expired lease,
        # while the winner's freshly-created one stays unmistakably live
        # even if a loser's check is delayed by scheduling
        past = time.time() - 300
        os.utime(path, (past, past))

        leases = [Lease(path, owner=f"w{i}", ttl=60.0)
                  for i in range(16)]
        barrier = threading.Barrier(len(leases))

        def race(lease):
            barrier.wait()
            lease.try_claim()

        threads = [threading.Thread(target=race, args=(lease,))
                   for lease in leases]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert sum(1 for lease in leases if lease.held) == 1

    def test_renew_survives_force_release(self, tmp_path):
        path = str(tmp_path / "lease")
        lease = Lease(path, owner="a")
        assert lease.try_claim()
        os.unlink(path)
        lease.renew()  # must not raise


def _claim_and_die(path):
    lease = Lease(path, owner="victim", ttl=3600.0)
    assert lease.try_claim()
    os._exit(0)  # no release: simulates kill -9 holding the lease


def _racy_startup(root, index, results):
    """Child-process entry: racing makedirs + manifest writes on one tree."""
    try:
        shard_dir = os.path.join(root, "campaigns", "c1", "shards")
        ensure_dir(shard_dir)
        write_json(os.path.join(shard_dir, "shared.json"),
                          {"writer": index})
        write_json(os.path.join(shard_dir, f"own-{index}.json"),
                          {"writer": index})
        results.put((index, None))
    except Exception as exc:  # pragma: no cover - failure reporting
        results.put((index, repr(exc)))


def _burn(seconds):
    end = time.process_time() + seconds
    while time.process_time() < end:
        pass


def test_resource_sample_counts_reaped_children():
    """A pooled worker's trials run in its children: once they are
    reaped, their CPU seconds are in the worker's samples."""
    before = resource_sample()
    child = multiprocessing.get_context("fork").Process(target=_burn,
                                                        args=(0.3,))
    child.start()
    child.join()
    after = resource_sample()
    assert after["cpu_seconds"] - before["cpu_seconds"] >= 0.3
    assert after["rss_bytes"] >= before["rss_bytes"]


def test_simultaneous_workers_create_directories_safely(tmp_path):
    """Regression: N workers starting against a fresh campaign root must
    not trip over each other creating the lease/journal directory tree
    (`makedirs(exist_ok=True)` + atomic temp-rename manifests)."""
    root = str(tmp_path / "root")
    context = multiprocessing.get_context("fork")
    results = context.Queue()
    workers = [context.Process(target=_racy_startup,
                               args=(root, index, results))
               for index in range(8)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    failures = [results.get() for _ in workers]
    assert [error for _, error in failures if error] == []
    shard_dir = os.path.join(root, "campaigns", "c1", "shards")
    shared = read_json(os.path.join(shard_dir, "shared.json"))
    assert shared["writer"] in range(8)  # last writer won, intact JSON
    # every private manifest landed, and no temp files survived
    names = sorted(os.listdir(shard_dir))
    assert [n for n in names if ".tmp." in n] == []
    assert len([n for n in names if n.startswith("own-")]) == 8
