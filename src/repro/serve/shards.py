"""Shard manifests and worker heartbeats: the on-disk work queue substrate.

A submitted campaign's trial plan is cut into *shards* — consecutive runs
of the task list — each persisted as a JSON manifest.  Workers claim a
shard by taking its :class:`~repro.durable.Lease` (a lock file with
heartbeat renewal and single-winner reclaim), execute it through the
ordinary campaign runner against the shard's own journal, and mark it
done.  ``kill -9`` anywhere in that sequence loses nothing:

* a dead claimant's lease stops being renewed; once expired it is
  reclaimed by exactly one other worker;
* the shard journal already holds every trial the dead worker completed,
  and the reclaiming worker resumes via ``completed_ids`` — no trial is
  lost or duplicated.

Every write goes through :mod:`repro.durable` (manifests and state files
are atomic commits), and racy directory creation is ``mkdir -p`` with
``exist_ok``, so shards can be claimed by worker processes on any host
sharing the campaign directory.
"""

from __future__ import annotations

import os
import resource
import threading
import time

from ..durable import Lease, write_json
from ..experiments.runner import TrialTask
from ..telemetry import hostname


def ensure_dir(path: str) -> str:
    """``mkdir -p``, safe under concurrent calls from racing workers."""
    os.makedirs(path, exist_ok=True)
    return path


def shard_name(index: int) -> str:
    return f"shard-{index:04d}"


def cut_shards(tasks: list[TrialTask], shard_size: int) -> \
        list[list[TrialTask]]:
    """Cut *tasks* into consecutive shards of up to *shard_size* trials.

    Consecutive (not strided) cuts keep same-group trials adjacent, which
    is what lets a shard's ``batch_trials`` executor actually form full
    batches.
    """
    if shard_size < 1:
        raise ValueError("shard_size must be a positive integer")
    return [tasks[cut:cut + shard_size]
            for cut in range(0, len(tasks), shard_size)]


def manifest_payload(campaign_id: str, shard_id: str,
                     tasks: list[TrialTask]) -> dict:
    return {
        "campaign_id": campaign_id,
        "shard_id": shard_id,
        "trial_ids": [task.trial_id for task in tasks],
        "tasks": [{"trial_id": task.trial_id, "kind": task.kind,
                   "payload": task.payload} for task in tasks],
    }


def manifest_tasks(manifest: dict) -> list[TrialTask]:
    return [TrialTask(trial_id=entry["trial_id"], kind=entry["kind"],
                      payload=entry["payload"])
            for entry in manifest["tasks"]]


def resource_sample() -> dict:
    """This process's resident-set and CPU usage, for heartbeat samples.

    Both cover the child processes it has reaped, the trial pools of the
    shards it finished: CPU seconds add up, and the resident set is the
    larger peak of the two.  ``ru_maxrss`` is kibibytes on Linux (the
    platform the fleet runs on); the sample normalizes to bytes.  Reading
    ``getrusage`` never touches experiment state — it is pure kernel
    accounting.
    """
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return {
        "rss_bytes": max(own.ru_maxrss, children.ru_maxrss) * 1024,
        "cpu_seconds": (own.ru_utime + own.ru_stime
                        + children.ru_utime + children.ru_stime),
    }


class Heartbeat:
    """Daemon thread renewing a lease every ``interval`` seconds.

    Keeps a long-running shard's lease fresh without the executing code
    having to think about it; ``stop()`` is idempotent and joins the
    thread so renewals never outlive the claim.

    No fork of this process meets a running heartbeat thread: every fork
    (a shard's trial pool) pauses the beating heartbeats first, joining
    their threads, and the parent starts them again after it.  A thread
    alive across ``fork`` could hold a lock the child then waits on
    forever, and Python 3.12 warns on every such fork.

    With ``sample_path`` set, every beat additionally publishes a worker
    resource sample — host, pid, RSS, CPU seconds, a wall-clock ``ts``,
    and whatever the ``info`` callable reports (current campaign/shard,
    trial counters) — as an atomically replaced JSON document.  The fleet
    console reads these to answer "is that worker alive, and what is it
    chewing on"; a worker that dies simply stops refreshing ``ts``, which
    is exactly the signal the ``worker-silent`` alert rule keys on.
    """

    def __init__(self, lease: Lease, interval: float | None = None,
                 sample_path: str | None = None, info=None):
        self.lease = lease
        self.interval = interval if interval is not None else \
            max(0.05, lease.ttl / 4.0)
        self.sample_path = sample_path
        self.info = info
        self._wake: threading.Event | None = None
        self._thread: threading.Thread | None = None

    def _run(self, wake: threading.Event) -> None:
        while not wake.wait(self.interval):
            self.lease.renew()
            self.sample()

    def _launch(self) -> None:
        self._wake = threading.Event()
        self._thread = threading.Thread(
            target=self._run, args=(self._wake,), daemon=True,
            name=f"heartbeat-{self.lease.owner}")
        self._thread.start()

    def _halt(self) -> None:
        self._wake.set()
        self._thread.join(timeout=5.0)

    def sample(self) -> None:
        """Publish one worker resource sample (best-effort: a full disk
        must not kill the shard the sample describes)."""
        if self.sample_path is None:
            return
        payload = {
            "owner": self.lease.owner,
            "host": hostname(),
            "pid": os.getpid(),
            "ts": time.time(),
            **resource_sample(),
        }
        if self.info is not None:
            try:
                payload.update(self.info() or {})
            except Exception:
                pass
        try:
            write_json(self.sample_path, payload)
        except OSError:
            pass

    def start(self) -> "Heartbeat":
        with _beating_lock:
            self._launch()
            _beating.add(self)
        self.sample()  # an immediate sample marks the claim, not just renewals
        return self

    def stop(self) -> None:
        with _beating_lock:
            if self in _beating:
                _beating.remove(self)
                self._halt()
        self.sample()  # final sample carries the finished counters

    def __enter__(self) -> "Heartbeat":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


#: the heartbeats whose thread runs, and the lock that a fork holds from
#: pausing them until they run again
_beating: set[Heartbeat] = set()
_beating_lock = threading.Lock()


def _pause_beating() -> None:
    _beating_lock.acquire()
    for heartbeat in _beating:
        heartbeat._halt()


def _resume_beating() -> None:
    for heartbeat in _beating:
        heartbeat._launch()
    _beating_lock.release()


def _forget_beating() -> None:
    # the child runs no heartbeat: only the forking thread survives a fork
    global _beating_lock
    _beating.clear()
    _beating_lock = threading.Lock()


os.register_at_fork(before=_pause_beating, after_in_parent=_resume_beating,
                    after_in_child=_forget_beating)
