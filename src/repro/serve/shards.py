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

    ``ru_maxrss`` is kibibytes on Linux (the platform the fleet runs on);
    the sample normalizes to bytes.  Reading ``getrusage`` never touches
    experiment state — it is pure kernel accounting.
    """
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return {
        "rss_bytes": usage.ru_maxrss * 1024,
        "cpu_seconds": usage.ru_utime + usage.ru_stime,
    }


class Heartbeat:
    """Daemon thread renewing a lease every ``interval`` seconds.

    Keeps a long-running shard's lease fresh without the executing code
    having to think about it; ``stop()`` is idempotent and joins the
    thread so renewals never outlive the claim.

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
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            self.lease.renew()
            self.sample()

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
        self._thread.start()
        self.sample()  # an immediate sample marks the claim, not just renewals
        return self

    def stop(self) -> None:
        self._stop.set()
        if self._thread.is_alive():
            self._thread.join(timeout=5.0)
        self.sample()  # final sample carries the finished counters

    def __enter__(self) -> "Heartbeat":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
