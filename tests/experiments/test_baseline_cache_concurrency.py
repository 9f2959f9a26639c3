"""Crash-consistency and concurrency tests for BaselineCache and its lock.

The regression this file locks in: before the campaign engine, `meta.json`
was written non-atomically with an unclosed read handle and no locking, so
a crash mid-write poisoned the cache for every subsequent run, and two
workers racing on a cold cache trained the same baseline twice (torn files
included).
"""

import json
import multiprocessing
import os
import socket
import time

import pytest

from repro.durable import Lease
from repro.experiments.common import (
    SCALES,
    BaselineCache,
    SessionSpec,
    spec_from_payload,
    spec_to_payload,
)


def smoke_spec(seed=7):
    return SessionSpec("chainer_like", "alexnet", SCALES["smoke"], seed=seed)


class CountingCache(BaselineCache):
    """BaselineCache that logs every real training to a shared file —
    usable across processes (module-level class + append-mode writes)."""

    def __init__(self, root, train_log):
        super().__init__(root)
        self.train_log = train_log

    def _train(self, spec, ckpt, final):
        with open(self.train_log, "a") as handle:
            handle.write(f"{os.getpid()}\n")
        return super()._train(spec, ckpt, final)


def train_count(train_log):
    if not os.path.exists(train_log):
        return 0
    with open(train_log) as handle:
        return len(handle.readlines())


# ---------------------------------------------------------------------------
# Truncated / torn meta.json regression
# ---------------------------------------------------------------------------


class TestMetaCrashConsistency:
    def test_truncated_meta_is_retrained_not_fatal(self, tmp_path):
        """A truncated meta.json (crash mid-write) must trigger a retrain,
        not crash every subsequent run."""
        train_log = str(tmp_path / "trains")
        cache = CountingCache(str(tmp_path / "cache"), train_log)
        spec = smoke_spec()
        first = cache.get(spec)
        assert train_count(train_log) == 1

        meta_path = os.path.join(cache.root, spec.cache_key(), "meta.json")
        full = open(meta_path).read()
        with open(meta_path, "w") as handle:
            handle.write(full[: len(full) // 2])  # torn write

        recovered = cache.get(spec)  # must not raise
        assert train_count(train_log) == 2  # retrained
        assert recovered.accuracy_curve == first.accuracy_curve
        # the retrain rewrote a complete, parseable meta.json
        with open(meta_path) as handle:
            assert json.load(handle)["accuracy_curve"] == \
                first.accuracy_curve
        # and the cache is warm again
        cache.get(spec)
        assert train_count(train_log) == 2

    def test_meta_missing_required_key_is_retrained(self, tmp_path):
        train_log = str(tmp_path / "trains")
        cache = CountingCache(str(tmp_path / "cache"), train_log)
        spec = smoke_spec()
        cache.get(spec)
        meta_path = os.path.join(cache.root, spec.cache_key(), "meta.json")
        with open(meta_path, "w") as handle:
            json.dump({"accuracy_curve": [0.1]}, handle)  # incomplete
        cache.get(spec)
        assert train_count(train_log) == 2

    def test_missing_checkpoint_invalidates_entry(self, tmp_path):
        """meta.json alone is not a commit: the checkpoints must exist."""
        train_log = str(tmp_path / "trains")
        cache = CountingCache(str(tmp_path / "cache"), train_log)
        spec = smoke_spec()
        baseline = cache.get(spec)
        os.unlink(baseline.checkpoint_path)
        again = cache.get(spec)
        assert train_count(train_log) == 2
        assert os.path.exists(again.checkpoint_path)

    def test_no_temp_files_left_behind(self, tmp_path):
        cache = BaselineCache(str(tmp_path / "cache"))
        spec = smoke_spec()
        cache.get(spec)
        directory = os.path.join(cache.root, spec.cache_key())
        leftovers = [n for n in os.listdir(directory) if ".tmp" in n
                     or n.endswith(".lock")]
        assert leftovers == []


# ---------------------------------------------------------------------------
# Cold-cache race: exactly one trainer
# ---------------------------------------------------------------------------


def _racer(root, train_log, done_dir, index):
    cache = CountingCache(root, train_log)
    baseline = cache.get(smoke_spec())
    # record that this process got a complete, readable baseline
    assert os.path.exists(baseline.checkpoint_path)
    assert len(baseline.accuracy_curve) == SCALES["smoke"].total_epochs
    with open(os.path.join(done_dir, str(index)), "w") as handle:
        handle.write(repr(baseline.accuracy_curve))


class TestColdCacheRace:
    def test_two_processes_train_exactly_once(self, tmp_path):
        root = str(tmp_path / "cache")
        train_log = str(tmp_path / "trains")
        done_dir = str(tmp_path / "done")
        os.makedirs(done_dir)
        ctx = multiprocessing.get_context("fork")
        racers = [ctx.Process(target=_racer,
                              args=(root, train_log, done_dir, i))
                  for i in range(2)]
        for proc in racers:
            proc.start()
        for proc in racers:
            proc.join(timeout=300)
            assert proc.exitcode == 0
        # exactly one process trained; both read back the same curve
        assert train_count(train_log) == 1
        curves = {open(os.path.join(done_dir, name)).read()
                  for name in os.listdir(done_dir)}
        assert len(curves) == 1


# ---------------------------------------------------------------------------
# The cache lock: a Lease without a ttl
# ---------------------------------------------------------------------------


def _holder_file(path, pid):
    with open(path, "w") as handle:
        json.dump({"pid": pid, "host": socket.gethostname(),
                   "owner": "other"}, handle)
    old = time.time() - 60
    os.utime(path, (old, old))


class TestFileLock:
    def test_mutual_exclusion(self, tmp_path):
        path = str(tmp_path / "x.lock")
        with Lease(path).acquire(timeout=0.2) as lock:
            assert lock.held
            with pytest.raises(TimeoutError):
                Lease(path).acquire(timeout=0.2)
        # released: immediately acquirable again
        with Lease(path).acquire(timeout=0.2):
            pass

    def test_release_is_idempotent(self, tmp_path):
        lock = Lease(str(tmp_path / "x.lock"))
        lock.acquire()
        lock.release()
        lock.release()
        assert not lock.held

    def test_stale_lock_from_dead_pid_is_broken(self, tmp_path):
        path = str(tmp_path / "x.lock")
        _holder_file(path, 999999999)  # nonexistent pid
        with Lease(path).acquire(timeout=5.0) as lock:
            assert lock.held

    def test_live_lock_is_not_broken(self, tmp_path):
        path = str(tmp_path / "x.lock")
        _holder_file(path, os.getpid())  # us: definitely alive
        with pytest.raises(TimeoutError):
            Lease(path).acquire(timeout=0.3)


# ---------------------------------------------------------------------------
# Spec payload round-trip (what campaign journals store)
# ---------------------------------------------------------------------------


def test_spec_payload_round_trip():
    spec = SessionSpec("tf_like", "resnet50", SCALES["smoke"], seed=3,
                       policy="float16", dropout=0.5,
                       include_optimizer=False)
    payload = json.loads(json.dumps(spec_to_payload(spec)))
    assert spec_from_payload(payload) == spec
    assert spec_from_payload(payload).cache_key() == spec.cache_key()
