"""Serve workers run a shard's trials on the runner's fork pool: the same
outcomes as in process, leases kept through every fork, and nothing lost,
run twice or left untraced when a pooled worker is killed."""

import functools
import json
import multiprocessing
import os
import signal
import sys
import threading
import time

import pytest

from repro.durable import Lease
from repro.experiments.runner import Journal
from repro.nn import blas
from repro.serve import scheduler, shards
from repro.serve.scheduler import ServeWorker, run_worker
from repro.serve.spec import CampaignSpec
from repro.serve.store import CampaignStore
from repro.telemetry import TraceContext, TrialJoin, read_events

from . import kinds  # noqa: F401  (registers the serve_* kinds)

# a fork that meets a live thread fails the test on interpreters that warn
pytestmark = pytest.mark.filterwarnings(
    "error:This process:DeprecationWarning")


def campaign_events(store, cid):
    """Every event of the campaign's per-shard telemetry streams."""
    return [event for path in store.telemetry_paths(cid)
            for event in read_events(path)]


def campaign_spans(events):
    return [event for event in events if event.get("type") == "span"
            and event.get("name") == "campaign"]


def wait_for(predicate, timeout=60.0, interval=0.02):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never became true"
        time.sleep(interval)


def running(pid):
    """Whether *pid* still runs (a zombie awaiting its reaper does not)."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            state = handle.read().rpartition(")")[2].split()[0]
    except FileNotFoundError:
        return False
    return state not in ("Z", "X")


@pytest.fixture
def cpu_share(monkeypatch):
    """Set the BLAS thread count the pool-size rule reads as this
    process's CPU share (forked workers inherit it)."""
    return lambda threads: monkeypatch.setattr(blas, "num_threads",
                                               lambda: threads)


@pytest.fixture
def forks(monkeypatch, tmp_path):
    """Every fork of this process or of a worker it forks, as
    ``[beating, paused, alive]``: the heartbeats running when the fork
    began, how many of them its pause hook halted, and how many heartbeat
    threads were still alive when the process was copied."""
    log = tmp_path / "forks.jsonl"
    real_fork, real_halt = os.fork, shards.Heartbeat._halt
    halted = []

    def halt(heartbeat):
        real_halt(heartbeat)
        halted.append(heartbeat._thread.is_alive())

    def fork():
        beating = len(shards._beating)
        halted.clear()
        pid = real_fork()
        if pid:
            with open(log, "a", encoding="utf-8") as handle:
                handle.write(json.dumps(
                    [beating, len(halted), sum(halted)]) + "\n")
        return pid

    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(shards.Heartbeat, "_halt", halt)
    return lambda: ([json.loads(line) for line in log.read_text()
                     .splitlines()] if log.exists() else [])


def assert_no_fork_met_a_heartbeat(records):
    beating = [record for record in records if record[0]]
    assert beating, "no fork happened while a heartbeat ran"
    assert all(paused == count and alive == 0
               for count, paused, alive in beating), beating


def shard_records(store, cid):
    return [record for shard in store.shard_ids(cid)
            for record in Journal(store.shard_journal_path(cid, shard))
            .load()]


def fig3_spec():
    return CampaignSpec(kind="fig3", scale="smoke", seed=0,
                        params={"pairs": [["chainer_like", "alexnet"]],
                                "bitflips": [1, 10]})


def test_pooled_drain_journals_in_process_outcomes(tmp_path, cpu_share,
                                                   forks):
    """One worker drains a 4-trial fig3 campaign twice: in process, and
    with its shard on a pool two processes wide."""
    drained = {}
    for share in (1, 2):
        cpu_share(share)
        store = CampaignStore(str(tmp_path / f"share-{share}"),
                              shard_size=4)
        cid = store.submit(fig3_spec())
        ServeWorker(store, owner="w", poll=0.01).run(drain=True)
        records = [json.loads(line) for line in store.results(cid)]
        events = campaign_events(store, cid)
        widths = [span["attrs"]["workers"]
                  for span in campaign_spans(events)]
        assert widths == [share]
        assert {r["trial_id"] for r in records} <= set(
            TrialJoin().read(events).index())
        drained[share] = records
    assert len(drained[1]) == 4
    for record in (*drained[1], *drained[2]):
        assert record["status"] == "ok" and record["outcome_class"]
        del record["duration"], record["worker"]
    assert drained[2] == drained[1]
    assert_no_fork_met_a_heartbeat(forks())


def test_pooled_shards_under_fast_heartbeats_run_each_trial_once(
        tmp_path, monkeypatch, cpu_share, forks):
    """Two workers, pools wider than the host, a heartbeat every
    millisecond, a short thread switch interval and leases that expire
    after half a second: a heartbeat that stopped across a fork would let
    the other worker run a shard again."""
    width = len(os.sched_getaffinity(0)) + 2
    cpu_share(width)
    monkeypatch.setattr(scheduler, "Heartbeat",
                        functools.partial(shards.Heartbeat, interval=0.001))
    root = str(tmp_path / "root")
    marker = tmp_path / "marker"
    shard_size = 4 * width  # four rounds of the pool per shard
    store = CampaignStore(root, shard_size=shard_size, lease_ttl=0.5)
    cid = store.submit(CampaignSpec(
        kind="serve_pool", seed=2,
        params={"count": 3 * shard_size, "marker": str(marker),
                "delay": 0.1}))
    stop = str(tmp_path / "stop")
    context = multiprocessing.get_context("fork")
    workers = [context.Process(
        target=run_worker, args=(root,),
        kwargs={"owner": f"w{index}", "poll": 0.01, "lease_ttl": 0.5,
                "shard_size": shard_size, "stop_file": stop})
        for index in range(2)]
    switch_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # the workers inherit it
    try:
        for worker in workers:
            worker.start()
        wait_for(lambda: store.status(cid)["state"] == "done", timeout=90)
    finally:
        sys.setswitchinterval(switch_interval)
        with open(stop, "w", encoding="utf-8"):
            pass
        for worker in workers:
            worker.join(timeout=30)
            if worker.is_alive():
                worker.kill()
                worker.join()
    assert [worker.exitcode for worker in workers] == [0, 0]
    ids = sorted(record.trial_id for record in shard_records(store, cid))
    assert ids == sorted(f"serve_pool/2/{i}" for i in range(3 * shard_size))
    executed = sorted(int(value) for value in marker.read_text().split())
    assert executed == list(range(3 * shard_size))
    assert_no_fork_met_a_heartbeat(forks())


def test_kill_nine_pooled_worker_is_rescued_and_traced(tmp_path, cpu_share,
                                                       forks):
    """A worker SIGKILLed while one pool process holds trial 1 and the
    other has journaled trials 0, 2 and 3: its pool dies with it, the
    rescuer runs trial 1 alone, and every journaled trial is traced."""
    cpu_share(2)
    root = str(tmp_path / "root")
    hold = tmp_path / "hold"
    hold.touch()
    marker = tmp_path / "marker"
    pids = tmp_path / "pids"
    pids.mkdir()
    store = CampaignStore(root, shard_size=4, lease_ttl=600.0)
    trace = TraceContext.new()
    cid = store.submit(CampaignSpec(
        kind="serve_pool", seed=1,
        params={"count": 4, "hold_file": str(hold), "hold_values": [1],
                "marker": str(marker), "pids": str(pids)}), trace=trace)

    victim = multiprocessing.get_context("fork").Process(
        target=run_worker, args=(root,),
        kwargs={"owner": "victim", "poll": 0.01, "lease_ttl": 600.0,
                "shard_size": 4})
    victim.start()
    journal_path = store.shard_journal_path(cid, "shard-0000")
    wait_for(lambda: os.path.exists(journal_path)
             and len(Journal(journal_path).load()) == 3)
    os.kill(victim.pid, signal.SIGKILL)
    victim.join()
    (held,) = [int(name.split(".")[1]) for name in os.listdir(pids)
               if name.startswith("1.")]
    wait_for(lambda: not running(held), timeout=5.0)
    assert [r.trial_id for r in Journal(journal_path).load()] == \
        [f"serve_pool/1/{i}" for i in (0, 2, 3)]
    hold.unlink()

    rescuer = ServeWorker(store, owner="rescuer", poll=0.01)
    deadline = time.monotonic() + 60
    while store.status(cid)["state"] != "done":
        assert time.monotonic() < deadline
        rescuer.run(drain=True)
        time.sleep(0.05)

    journaled = [r.trial_id for r in Journal(journal_path).load()]
    assert sorted(journaled) == [f"serve_pool/1/{i}" for i in range(4)]
    executed = sorted(int(value) for value in marker.read_text().split())
    assert executed == list(range(4))  # trial 1 ran once, in the rescuer
    events = campaign_events(store, cid)
    assert {event["trace_id"] for event in events
            if event.get("trace_id") is not None} == {trace.trace_id}
    assert set(journaled) <= set(TrialJoin().read(events).index())
    # the rescuer sized its pool by the one trial its journal lacked: a
    # second process would have idled for the trial's whole run
    rescued = campaign_events(store, cid)
    rescued = [span for span in campaign_spans(rescued)
               if span["attrs"].get("skipped") == 3]
    assert [span["attrs"]["workers"] for span in rescued] == [1]
    assert_no_fork_met_a_heartbeat(forks())


def test_heartbeat_beats_again_after_a_fork(tmp_path, forks):
    """The pause around a fork is brief: the lease is renewed after it."""
    lease = Lease(str(tmp_path / "lease"), owner="owner", ttl=600.0)
    assert lease.try_claim()
    heartbeat = shards.Heartbeat(lease, interval=0.01)
    with heartbeat:
        process = multiprocessing.get_context("fork").Process(
            target=time.sleep, args=(0,))
        process.start()
        process.join()
        forked = time.time()
        wait_for(lambda: os.stat(lease.path).st_mtime > forked, timeout=5)
        assert heartbeat._thread.is_alive()
    assert not [thread for thread in threading.enumerate()
                if thread.name.startswith("heartbeat-")]
    lease.release()
    assert_no_fork_met_a_heartbeat(forks())
