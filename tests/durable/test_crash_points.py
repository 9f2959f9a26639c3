"""Crash-point harness: kill a writer at every step of every durable
protocol and check what survives.

A dry run counts the ``os`` calls one operation makes: its steps.  Then,
for each step, a forked child runs the same operation from the same
starting files and calls ``os._exit`` at that step — before the call, and
for a ``write`` also after half of its bytes landed.  The parent reaps the
child (with a timeout) and checks what it left:

* a fresh reader sees the old content or the new, never an empty or torn
  file;
* a lease the child left is claimed once its pid is dead, by exactly one
  of two concurrent claimers;
* ``Journal.load`` returns a prefix of the appended records, also after
  a torn append was repaired and appended past.

Every durable file operation in ``repro`` goes through
:mod:`repro.durable`, so these cases cover them all.  A commit-order
mutant (``meta.json`` committed before the checkpoints) shows the checks
catch what a misordered commit would publish.
"""

import os
import signal
import threading
import time
import traceback

import pytest

from repro.durable import (Lease, atomic_write, lease_info, repair_tail,
                           write_json)
from repro.experiments.common import (SCALES, Baseline, BaselineCache,
                                      SessionSpec)
from repro.experiments.runner import Journal, TrialRecord

#: The ``os`` calls that count as steps: every call that changes a file.
STEP_CALLS = ("open", "write", "fsync", "close", "replace", "rename",
              "link", "unlink", "utime", "mkdir", "ftruncate")

#: Exit status of a child that died at its crash point.
CRASHED = 75

#: Seconds a crash child may run before it is killed and the case fails.
CHILD_TIMEOUT = 10.0


class Steps:
    """Patches :data:`STEP_CALLS` on ``os``, records each call's name, and
    exits the process at the step *crash* = ``(index, torn)`` names."""

    def __init__(self, crash=None):
        self.crash = crash
        self.names = []
        self._saved = {}

    def __enter__(self):
        for name in STEP_CALLS:
            self._saved[name] = getattr(os, name)
            setattr(os, name, self._step(name, self._saved[name]))
        return self

    def __exit__(self, *exc_info):
        for name, real in self._saved.items():
            setattr(os, name, real)

    def _step(self, name, real):
        def step(*args, **kwargs):
            index = len(self.names)
            self.names.append(name)
            if self.crash is not None and self.crash[0] == index:
                if self.crash[1]:  # torn write: half of the bytes land
                    data = bytes(args[1])
                    real(args[0], data[:len(data) // 2])
                os._exit(CRASHED)
            return real(*args, **kwargs)
        return step


def reap(pid):
    """The child's exit status; kills it and fails after CHILD_TIMEOUT."""
    deadline = time.monotonic() + CHILD_TIMEOUT
    while True:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            return os.waitstatus_to_exitcode(status)
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail(f"crash child {pid} still running after "
                        f"{CHILD_TIMEOUT}s")
        time.sleep(0.001)


def in_child(op, *args, crash=None):
    """Run ``op(*args)`` in a forked child (under :class:`Steps` when
    *crash* is given); returns its exit status."""
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            if crash is None:
                op(*args)
            else:
                with Steps(crash):
                    op(*args)
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(code)
    return reap(pid)


def read(path):
    try:
        with open(path, "rb") as handle:
            return handle.read()
    except FileNotFoundError:
        return None


def claimed_by_one(path, ttl=None):
    """Two concurrent claimers race for the lease at *path*; exactly one
    wins, and the file names the winner."""
    leases = [Lease(path, owner=f"claimer-{i}", ttl=ttl) for i in range(2)]
    barrier = threading.Barrier(len(leases))

    def race(lease):
        barrier.wait()
        lease.try_claim()

    threads = [threading.Thread(target=race, args=(lease,))
               for lease in leases]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=CHILD_TIMEOUT)
        assert not thread.is_alive(), "a claimer hung"
    winners = [lease for lease in leases if lease.held]
    assert len(winners) == 1, [lease.owner for lease in winners]
    assert lease_info(path)["owner"] == winners[0].owner
    winners[0].release()


def check_lease(path, ttl=None):
    """A lease file is complete whenever it exists, and claimable."""
    assert os.path.exists(path) == (lease_info(path) is not None), \
        f"torn lease file: {read(path)!r}"
    claimed_by_one(path, ttl)


def dead_holder(path, ttl=None):
    """Leave a lease at *path* whose holder has exited."""
    def claim():
        assert Lease(path, owner="dead", ttl=ttl).try_claim()
    assert in_child(claim) == 0


# ---------------------------------------------------------------------------
# The operations
# ---------------------------------------------------------------------------

OLD = b'{"state": "queued"}'
NEW = b'{"state": "running", "shards": ["' + b"shard-0000" * 40 + b'"]}'
WEIGHTS = b"\x89HDF\r\n\x1a\n" + bytes(range(256)) * 4
SPEC = SessionSpec("chainer_like", "alexnet", SCALES["smoke"])
RECORDS = [TrialRecord(trial_id=f"t/{i}", kind="k", status="ok",
                       outcome={"finals": [0.5] * 20})
           for i in range(5)]


class FakeTrainCache(BaselineCache):
    """The real commit protocol around a training that writes two small
    files — the crash points are in the commit, not in the training."""

    lock_timeout = CHILD_TIMEOUT

    def _train(self, spec, ckpt, final):
        for path in (ckpt, final):
            with open(path, "wb") as handle:
                handle.write(WEIGHTS)
        return Baseline(spec, ckpt, final, [0.25, 0.5], [0.5], 0.5)


class Case:
    """One operation: its starting files, the operation, and the check of
    what any crash in it may leave."""

    name = ""

    def setup(self, root):
        pass

    def op(self, root):
        raise NotImplementedError

    def check(self, root):
        raise NotImplementedError

    def path(self, root):
        return os.path.join(root, "target")


class AtomicWriteNew(Case):
    name = "atomic_write-new"

    def op(self, root):
        atomic_write(self.path(root), NEW)

    def check(self, root):
        assert read(self.path(root)) in (None, NEW)


class AtomicWriteReplace(AtomicWriteNew):
    name = "atomic_write-replace"

    def setup(self, root):
        atomic_write(self.path(root), OLD)

    def check(self, root):
        assert read(self.path(root)) in (OLD, NEW)


class BaselineCommit(Case):
    name = "baseline-cache-commit"

    def op(self, root):
        FakeTrainCache(root).get(SPEC)

    def check(self, root):
        cache = FakeTrainCache(root)
        directory = os.path.join(root, SPEC.cache_key())
        loaded = cache._load(SPEC, directory)
        if loaded is not None:  # meta.json committed: so were both files
            assert read(loaded.checkpoint_path) == WEIGHTS
            assert read(loaded.final_path) == WEIGHTS
            assert loaded.accuracy_curve == [0.25, 0.5]
        check_lease(os.path.join(directory, ".lock"))
        baseline = cache.get(SPEC)  # the next run completes the entry
        assert read(baseline.checkpoint_path) == WEIGHTS
        assert read(baseline.final_path) == WEIGHTS
        # ... and leaves no temp file of the crashed writer beside it
        entry = sorted(name for name in os.listdir(directory)
                       if not name.startswith(".lock"))
        assert entry == ["checkpoint.h5", "final.h5", "meta.json"], entry


class BaselineRecommit(BaselineCommit):
    """A retrain over an entry a pre-atomic crash left behind: a torn
    meta.json beside stale checkpoints.  Committing the marker before the
    checkpoints would publish the stale ones."""

    name = "baseline-cache-recommit"

    def setup(self, root):
        directory = os.path.join(root, SPEC.cache_key())
        os.makedirs(directory)
        for name in ("checkpoint.h5", "final.h5"):
            with open(os.path.join(directory, name), "wb") as handle:
                handle.write(WEIGHTS[::-1])
        with open(os.path.join(directory, "meta.json"), "w") as handle:
            handle.write('{"accuracy_curve": [0.2')


class LeaseCreate(Case):
    name = "lease-create"
    ttl = 30.0

    def op(self, root):
        assert Lease(self.path(root), owner="child", ttl=self.ttl) \
            .try_claim()

    def check(self, root):
        check_lease(self.path(root), self.ttl)


class LeaseReclaim(LeaseCreate):
    name = "lease-reclaim"

    def setup(self, root):
        dead_holder(self.path(root), self.ttl)


class LeaseRelease(LeaseCreate):
    name = "lease-create-release"

    def op(self, root):
        lease = Lease(self.path(root), owner="child", ttl=self.ttl)
        assert lease.try_claim()
        lease.release()


class LeaseAcquire(LeaseCreate):
    name = "lease-blocking-acquire"
    ttl = None  # the cache lock's flavour: only a dead pid expires it

    def setup(self, root):
        dead_holder(self.path(root))

    def op(self, root):
        Lease(self.path(root), owner="child").acquire(timeout=CHILD_TIMEOUT)


class JournalAppend(Case):
    name = "journal-append"

    def setup(self, root):
        journal = Journal(self.path(root))
        for record in RECORDS[:2]:
            journal.append(record)

    def op(self, root):
        journal = Journal(self.path(root))
        for record in RECORDS[2:4]:
            journal.append(record)

    def check(self, root):
        journal = Journal(self.path(root))
        ids = [record.trial_id for record in journal.load()]
        expected = [record.trial_id for record in RECORDS]
        assert 2 <= len(ids) <= 4 and ids == expected[:len(ids)], ids
        # a resumed campaign repairs the torn tail and appends after it
        journal.repair()
        journal.append(RECORDS[4])
        assert [record.trial_id for record in journal.load()] == \
            ids + [RECORDS[4].trial_id]


class JournalRepair(Case):
    """A resumed campaign over a journal whose last append was torn: it
    cuts the torn line, then appends."""

    name = "journal-repair"

    def setup(self, root):
        journal = Journal(self.path(root))
        for record in RECORDS[:2]:
            journal.append(record)
        line = (RECORDS[2].to_json_line() + "\n").encode("utf-8")
        with open(self.path(root), "ab") as handle:
            handle.write(line[:len(line) // 2])

    def op(self, root):
        repair_tail(self.path(root))
        Journal(self.path(root)).append(RECORDS[2])

    def check(self, root):
        journal = Journal(self.path(root))
        ids = [record.trial_id for record in journal.load()]
        expected = [record.trial_id for record in RECORDS]
        assert ids in (expected[:2], expected[:3]), ids
        journal.repair()
        journal.append(RECORDS[3])
        assert [record.trial_id for record in journal.load()] == \
            ids + [RECORDS[3].trial_id]


CASES = [AtomicWriteNew(), AtomicWriteReplace(), BaselineCommit(),
         BaselineRecommit(), LeaseCreate(), LeaseReclaim(), LeaseRelease(),
         LeaseAcquire(), JournalAppend(), JournalRepair()]

#: Step names each operation must at least make, so a refactor that
#: moves a step out of the patched ``os`` calls fails loudly here.
REQUIRED = {
    "atomic_write-new": {"write", "fsync", "replace"},
    "atomic_write-replace": {"write", "fsync", "replace"},
    "baseline-cache-commit": {"link", "fsync", "replace", "unlink"},
    "baseline-cache-recommit": {"link", "fsync", "replace", "unlink"},
    "lease-create": {"write", "link", "unlink"},
    "lease-reclaim": {"write", "replace"},
    "lease-create-release": {"link", "unlink"},
    "lease-blocking-acquire": {"write", "replace"},
    "journal-append": {"write", "fsync"},
    "journal-repair": {"ftruncate", "fsync", "write"},
}


def crash_points(names):
    """``(index, torn)`` for every step; a write also crashes torn."""
    for index, name in enumerate(names):
        yield index, False
        if name == "write":
            yield index, True


def crash_at_every_step(case, tmp_path):
    """Crash *case*'s operation at each of its steps and check each
    crash's leftovers; raises AssertionError at the first bad one."""
    dry = str(tmp_path / "dry")
    os.makedirs(dry)
    case.setup(dry)
    with Steps() as steps:
        case.op(dry)
    assert REQUIRED[case.name] <= set(steps.names), steps.names

    # every crash point, then a child that finishes (and dies holding
    # whatever the operation leaves held)
    for number, crash in enumerate([*crash_points(steps.names), None]):
        root = str(tmp_path / f"run-{number}")
        os.makedirs(root)
        case.setup(root)
        status = in_child(case.op, root, crash=crash)
        where = "no crash" if crash is None else (
            f"crash at step {crash[0]} ({steps.names[crash[0]]}"
            f"{', torn' if crash[1] else ''})")
        assert status == (0 if crash is None else CRASHED), (where, status)
        try:
            case.check(root)
        except AssertionError as exc:
            raise AssertionError(
                f"{case.name}, {where} of {steps.names}: {exc}") from exc


@pytest.mark.parametrize("case", CASES, ids=lambda case: case.name)
def test_crash_at_every_step(case, tmp_path):
    crash_at_every_step(case, tmp_path)


class MarkerFirstCache(FakeTrainCache):
    """The commit in the wrong order: meta.json is committed as soon as
    training ends, before ``get`` publishes the checkpoints."""

    def _train(self, spec, ckpt, final):
        baseline = super()._train(spec, ckpt, final)
        write_json(os.path.join(os.path.dirname(ckpt), "meta.json"), {
            "accuracy_curve": baseline.accuracy_curve,
            "resumed_curve": baseline.resumed_curve,
            "final_accuracy": baseline.final_accuracy,
        })
        return baseline


class MarkerFirstRecommit(BaselineRecommit):
    def op(self, root):
        MarkerFirstCache(root).get(SPEC)


def test_marker_written_first_caught(tmp_path):
    # a crash between the marker and the checkpoints publishes the stale
    # checkpoints the torn entry left behind
    with pytest.raises(AssertionError,
                       match="baseline-cache-recommit, crash at step"):
        crash_at_every_step(MarkerFirstRecommit(), tmp_path)
