"""Campaign execution engine: parallel, journaled, crash-safe trial running.

The paper's protocol is embarrassingly parallel — every experiment cell is
N independent inject-and-resume trainings (§V-A: 250 per cell).  This module
turns a harness's trial list into a *campaign*:

* the plan is cut once into *chunks* — a chunk of one per trial, or up to
  ``batch_trials`` same-group trials sharing one training pass
  (:mod:`repro.batched`), by default as many as fit memory when one
  process runs them all — and one scheduling policy runs them, in process
  (``workers=1``, no timeout) or on a pool of ``workers`` long-lived
  forked processes, each reused while its attempts succeed, replaced
  after one fails and killed with the campaign process (:func:`pool_size`
  sizes such a pool for a serve shard); results are bit-identical either
  way because every trial is a pure function of its payload;
* every terminal outcome is appended to a JSONL *journal* — an append-only
  record of (trial id, kind, payload, outcome, status, attempts, duration,
  worker) that survives ``kill -9`` mid-campaign;
* a killed campaign resumes by replaying the journal and skipping trials
  that already have a terminal record;
* each trial gets a configurable timeout (a chunk, the sum of its trials')
  and bounded retry; a trial that keeps hanging or crashing is journaled
  ``failed`` and the campaign moves on instead of aborting (graceful
  degradation).

Harnesses register *trial kinds* — top-level functions from JSON payload to
JSON outcome — with :func:`trial_kind`; worker processes look the function
up by name, so tasks stay picklable and journal records stay replayable.
A kind may additionally register a *batched* executor with
:func:`batch_trial_kind`, which runs its batched chunks, still journaling
one ordinary record per trial.
"""

from __future__ import annotations

import contextlib
import ctypes
import itertools
import json
import logging
import os
import signal
import sys
import time
import traceback
from dataclasses import asdict, dataclass, field
from multiprocessing import connection, get_context
from typing import Callable, Iterable

from .. import telemetry
from ..analysis.campaign import CampaignStats
from ..durable import append_fsynced
from ..health.outcome import classify_trial_record
from ..nn import blas

log = logging.getLogger("repro.experiments.runner")

# ---------------------------------------------------------------------------
# Trial kinds
# ---------------------------------------------------------------------------

#: name -> function(payload dict) -> outcome dict.  Worker processes resolve
#: trial functions through this registry, keeping tasks JSON-serializable.
TRIAL_KINDS: dict[str, Callable[[dict], dict]] = {}


def trial_kind(name: str) -> Callable[[Callable[[dict], dict]],
                                      Callable[[dict], dict]]:
    """Register a top-level trial function under *name*."""

    def register(func: Callable[[dict], dict]) -> Callable[[dict], dict]:
        TRIAL_KINDS[name] = func
        return func

    return register


def get_trial_kind(name: str) -> Callable[[dict], dict]:
    try:
        return TRIAL_KINDS[name]
    except KeyError:
        raise ValueError(
            f"unknown trial kind {name!r}; registered: {sorted(TRIAL_KINDS)}"
        ) from None


@dataclass(frozen=True)
class _BatchKind:
    """A batched executor for one trial kind, its grouping rule and the
    memory one more trial adds to a chunk (``None``: unknown)."""

    func: Callable[[list[dict]], list[dict]]
    group_key: Callable[[dict], str]
    trial_bytes: Callable[[dict], int] | None = None


#: name -> batched executor.  A batch kind amortizes shared work (the
#: training pass) across a chunk of same-kind trials; only payloads with
#: equal ``group_key`` may share a chunk.  Kinds without an entry here run
#: as chunks of one whatever ``batch_trials`` says.
BATCH_TRIAL_KINDS: dict[str, _BatchKind] = {}


def batch_trial_kind(name: str, *, group_key: Callable[[dict], str],
                     trial_bytes: Callable[[dict], int] | None = None) -> \
        Callable[[Callable[[list[dict]], list[dict]]],
                 Callable[[list[dict]], list[dict]]]:
    """Register a batched executor for trial kind *name*.

    The function receives the payloads of one chunk — all sharing a
    ``group_key`` — and must return one outcome dict per payload, in order,
    each bit-identical to what the sequential kind would have produced for
    that payload (the contract ``tests/batched`` enforces).  *trial_bytes*
    maps a payload to the bytes one more trial of its group adds to a
    chunk; without it the runner never stacks the kind on its own (see
    :func:`_chunk_size`).
    """

    def register(func: Callable[[list[dict]], list[dict]]) -> \
            Callable[[list[dict]], list[dict]]:
        BATCH_TRIAL_KINDS[name] = _BatchKind(func=func, group_key=group_key,
                                             trial_bytes=trial_bytes)
        return func

    return register


# ---------------------------------------------------------------------------
# Tasks and records
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrialTask:
    """One unit of campaign work.

    ``trial_id`` must be unique within the campaign *and* stable across
    re-invocations — it is the resume key.  ``payload`` must be
    JSON-serializable and fully determine the trial's outcome (trials are
    pure functions; that is what makes ``workers=N`` bit-identical to
    ``workers=1``).
    """

    trial_id: str
    kind: str
    payload: dict


@dataclass
class TrialRecord:
    """One journal line: the terminal outcome of a trial."""

    trial_id: str
    kind: str
    status: str  # "ok" | "failed"
    outcome: dict | None = None
    error: str | None = None
    attempts: int = 1
    timed_out: bool = False
    duration: float = 0.0
    worker: int = 0
    payload: dict = field(default_factory=dict)
    #: canonical taxonomy verdict (repro.health.outcome.OUTCOMES); stamped
    #: by the runner on every fresh record.  Optional with a None default
    #: so journals written before the classifier existed still replay.
    outcome_class: str | None = None
    #: severity-``error`` count from the opt-in post-injection structural
    #: validation (``--validate-checkpoints``); ``None`` when the trial did
    #: not validate, so old journals replay unchanged.
    structural_findings: int | None = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def classify(self) -> str:
        """Stamp (and return) the canonical outcome classification."""
        if self.outcome_class is None:
            self.outcome_class = classify_trial_record(self.status,
                                                       self.outcome)
        return self.outcome_class

    def finalize(self) -> str:
        """Stamp every derived field on a fresh record.

        Lifts the trial's ``structural_findings`` count (when the trial ran
        post-injection checkpoint validation) onto the record so journal
        consumers don't have to dig through outcome dicts, then classifies.
        """
        if isinstance(self.outcome, dict):
            findings = self.outcome.get("structural_findings")
            if findings is not None:
                self.structural_findings = int(findings)
        return self.classify()

    def to_json_line(self) -> str:
        # allow_nan keeps NaN accuracies (collapsed trainings) round-trippable
        # through Python's json, which reads NaN/Infinity back natively.
        return json.dumps(asdict(self), allow_nan=True, sort_keys=True)

    @classmethod
    def from_json_line(cls, line: str) -> "TrialRecord":
        return cls(**json.loads(line))


# ---------------------------------------------------------------------------
# Journal
# ---------------------------------------------------------------------------

class Journal:
    """Append-only JSONL journal of terminal trial records.

    Every append is one fsynced write
    (:func:`repro.durable.append_fsynced`), so after ``kill -9`` the
    journal holds every completed trial plus at most one torn final line,
    which :meth:`load` tolerates (a torn write can only be the last line
    of an append-only file).
    """

    def __init__(self, path: str):
        self.path = path
        parent = os.path.dirname(os.path.abspath(path))
        os.makedirs(parent, exist_ok=True)

    def append(self, record: TrialRecord) -> None:
        append_fsynced(self.path,
                       (record.to_json_line() + "\n").encode("utf-8"))

    def repair(self) -> int:
        """Truncate a torn trailing line; returns the bytes removed.

        A crash mid-append leaves a partial line with no trailing newline
        (the newline is the last byte of every complete append).  It must
        be cut *before* new appends, or the next record would concatenate
        onto the torn prefix and corrupt itself.
        """
        if not os.path.exists(self.path):
            return 0
        with open(self.path, "rb+") as handle:
            data = handle.read()
            if not data or data.endswith(b"\n"):
                return 0
            cut = data.rfind(b"\n") + 1
            handle.truncate(cut)
            return len(data) - cut

    def load(self) -> list[TrialRecord]:
        """All parseable records, skipping a torn trailing line."""
        if not os.path.exists(self.path):
            return []
        records: list[TrialRecord] = []
        with open(self.path, encoding="utf-8") as handle:
            lines = handle.readlines()
        for index, line in enumerate(lines):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(TrialRecord.from_json_line(line))
            except (json.JSONDecodeError, TypeError):
                if index == len(lines) - 1:
                    continue  # torn final write from a crash — expected
                raise ValueError(
                    f"{self.path}:{index + 1}: corrupt journal line"
                ) from None
        return records

    def completed_ids(self) -> set[str]:
        return {r.trial_id for r in self.load()}


# ---------------------------------------------------------------------------
# Campaign runner
# ---------------------------------------------------------------------------

@dataclass
class CampaignResult:
    """Everything a harness needs to aggregate a finished campaign."""

    records: list[TrialRecord]  # in task order, replayed + fresh merged
    stats: CampaignStats

    def outcomes_by_id(self) -> dict[str, TrialRecord]:
        return {r.trial_id: r for r in self.records}

    def record_dicts(self) -> list[dict]:
        """Journal-shaped dicts for :mod:`repro.analysis.campaign` helpers
        (:func:`~repro.analysis.campaign.group_records` etc.)."""
        return [asdict(r) for r in self.records]


def run_campaign(tasks: Iterable[TrialTask], *, workers: int = 1,
                 journal: str | Journal | None = None, resume: bool = False,
                 trial_timeout: float | None = None, retries: int = 1,
                 batch_trials: int | None = None) -> CampaignResult:
    """Execute *tasks*, returning records in task order.

    Parameters
    ----------
    workers:
        ``1`` runs chunks one after another in-process (unless a timeout is
        set, which needs a process to kill); ``>1`` runs them on a pool of
        that many long-lived forked workers, the BLAS threads split among
        them.
    journal:
        JSONL path (or :class:`Journal`).  When given, every terminal record
        is appended as it happens.
    resume:
        Replay the journal first and skip trials that already have a
        terminal record.
    trial_timeout:
        Seconds before a trial's attempt is killed and counted as a
        timeout; a chunk's attempt gets that many per trial.
    retries:
        Extra attempts after the first failure before the trial is
        journaled ``failed``.
    batch_trials:
        Chunks of up to that many batchable trials (same kind, same
        :func:`batch_trial_kind` group key) run through the kind's batched
        executor, in process or on the pool, one journal record per trial
        as usual; ``1`` runs every trial alone.  ``None`` lets the runner
        pick per group (:func:`_chunk_size`).
    """
    tasks = list(tasks)
    workers = max(1, workers)
    seen: set[str] = set()
    for task in tasks:
        if task.trial_id in seen:
            raise ValueError(f"duplicate trial_id {task.trial_id!r}")
        seen.add(task.trial_id)

    if isinstance(journal, str):
        journal = Journal(journal)
    if journal is not None:
        journal.repair()  # cut a torn tail before any new append

    replayed: dict[str, TrialRecord] = {}
    if resume:
        if journal is None:
            raise ValueError("resume=True requires a journal")
        replayed = {r.trial_id: r for r in journal.load()}

    todo = [t for t in tasks if t.trial_id not in replayed]
    log.debug("campaign: %d tasks (%d to run, %d replayed), workers=%d",
              len(tasks), len(todo), len(replayed), workers)
    start = time.monotonic()
    chunks = _cut(todo, batch_trials, workers)
    policy = _Policy(chunks, journal, retries, start)
    with telemetry.span("campaign", workers=workers,
                        total=len(tasks), skipped=len(replayed),
                        batch_trials=max((len(c.tasks) for c in chunks),
                                         default=1),
                        blas_threads=blas.num_threads()) as campaign:
        if workers == 1 and trial_timeout is None:
            _run_in_process(policy)
        else:
            # the BLAS thread count is lowered in the parent, before any
            # fork, so every child inherits its share of the CPUs and
            # never starts helper threads of its own
            with blas.thread_budget(workers) as blas_threads:
                campaign.set(blas_threads=blas_threads)
                _run_forked(policy, workers, trial_timeout)
        wall_time = time.monotonic() - start

        fresh = policy.records
        by_id = dict(replayed)
        by_id.update(fresh)
        records = [by_id[t.trial_id] for t in tasks]
        stats = CampaignStats.from_records(
            [asdict(r) for r in records],
            wall_time=wall_time, workers=workers,
            executed=len(fresh), skipped=len(tasks) - len(todo),
        )
        campaign.set(executed=stats.executed, ok=stats.ok,
                     failed=stats.failed, retries=stats.retries,
                     timeouts=stats.timeouts)
    telemetry.flush_metrics()  # parent-side counters join the event stream
    return CampaignResult(records=records, stats=stats)


# -- chunks -----------------------------------------------------------------

def _dispatch_payload(task: TrialTask) -> dict:
    """The payload copy handed to a trial function.

    ``trial_id`` rides along so emitters deep inside the trial — the
    injector's ``flips`` provenance, the health probe's per-epoch
    snapshots — can stamp the trial identity onto their telemetry (batched
    execution shares one pid across N trials, so pid alone cannot
    attribute events).  The journaled record's ``payload`` stays the
    task's own, unchanged.
    """
    return {**task.payload, "trial_id": task.trial_id}


@dataclass
class _Chunk:
    """Trials that run as one unit, and the state of their attempts."""

    tasks: list[TrialTask]
    #: cut as a batch: runs through the kind's batch executor whatever its
    #: size (a ragged tail of one included)
    batched: bool
    attempt: int = 1
    timeouts: int = 0
    first_started: float = 0.0
    started: float = 0.0  # the current attempt's start
    run_time: float = 0.0  # summed attempt wall-time
    span: object = None  # ``trial`` or ``trial_batch``, opened at first start
    attempt_id: str = ""  # the current attempt's telemetry stamp

    @property
    def kind(self) -> str:
        return self.tasks[0].kind

    def attempt_args(self) -> tuple:
        """:func:`_attempt`'s arguments, the span already open."""
        return (self.kind, [_dispatch_payload(t) for t in self.tasks],
                self.batched, self.span.context(), self.attempt_id)


def _cut(tasks: list[TrialTask], batch_trials: int | None,
         workers: int) -> list[_Chunk]:
    """Split the plan into chunks, once.

    Batchable tasks are grouped by (kind, group key) — preserving task
    order within a group — and each group whose chunk size
    (:func:`_chunk_size`) exceeds one is cut into consecutive chunks of up
    to that size (a ragged tail is an ordinary smaller chunk).  Every other
    task is a chunk of one, ahead of them, in task order.
    """
    singles: list[_Chunk] = []
    groups: dict[tuple[str, str], list[TrialTask]] = {}
    sizes: dict[tuple[str, str], int] = {}
    for task in tasks:
        batch_kind = BATCH_TRIAL_KINDS.get(task.kind) \
            if batch_trials != 1 else None
        if batch_kind is not None:
            key = (task.kind, batch_kind.group_key(task.payload))
            if key not in sizes:
                sizes[key] = _chunk_size(task.kind, task.payload,
                                         batch_trials, workers)
            if sizes[key] > 1:
                groups.setdefault(key, []).append(task)
                continue
        singles.append(_Chunk([task], batched=False))
    return singles + [_Chunk(group[cut:cut + sizes[key]], batched=True)
                      for key, group in groups.items()
                      for cut in range(0, len(group), sizes[key])]


#: the largest chunk the runner cuts when it picks the size itself
MAX_STACK = 16


def _chunk_size(kind: str, payload: dict, batch_trials: int | None,
                workers: int) -> int:
    """Trials per chunk for the group of *payload*, a batchable *kind*'s.

    An explicit *batch_trials* is taken as it is.  ``None`` means one on a
    pool (``workers > 1``), whose workers would each hold a stack, and
    for a kind that declares no per-trial footprint.  In one process it is
    the largest T ≤ :data:`MAX_STACK` whose T trials fit a quarter of the
    free memory by the kind's ``trial_bytes``, and one where none fits.
    """
    if batch_trials is not None:
        return batch_trials
    trial_bytes = BATCH_TRIAL_KINDS[kind].trial_bytes
    if workers > 1 or trial_bytes is None:
        return 1
    footprint = max(1, trial_bytes(payload))
    return max(1, min(MAX_STACK, _free_memory() // 4 // footprint))


def _free_memory() -> int:
    """Bytes of physical memory free right now."""
    return os.sysconf("SC_AVPHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def pool_size(tasks: list[TrialTask], batch_trials: int) -> int:
    """Pool processes for *tasks* cut into chunks of up to *batch_trials*,
    sized by what this process is given.

    One when any kind among them declares no per-trial footprint
    (``trial_bytes``): such trials run in process, as they always have.
    Otherwise the smallest of this process's CPU share (the BLAS thread
    count :func:`repro.nn.blas.thread_budget` left it, one without
    OpenBLAS), the chunk count, and the chunks in flight whose trials fit
    a quarter of the free memory, the rule :func:`_chunk_size` applies to
    a stack.
    """
    cpus = blas.num_threads() or 1
    chunks = _cut(tasks, batch_trials, cpus)
    if min(cpus, len(chunks)) < 2:
        return 1  # one CPU or one chunk: no footprint to probe
    footprint = 1
    for chunk in chunks:
        batch_kind = BATCH_TRIAL_KINDS.get(chunk.kind)
        if batch_kind is None or batch_kind.trial_bytes is None:
            return 1
        footprint = max(footprint, len(chunk.tasks)
                        * batch_kind.trial_bytes(chunk.tasks[0].payload))
    return max(1, min(cpus, len(chunks), _free_memory() // 4 // footprint))


def _attempt(kind: str, payloads: list[dict], batched: bool,
             trace: dict, attempt_id: str) -> list[dict]:
    """One attempt at a chunk: one outcome per payload, in order.

    *trace* is the chunk span's exported context: every span the trials
    open (``inject``, ``train``, ``hdf5.open``) descends from the chunk's
    ``trial`` or ``trial_batch`` span, in process or across the fork.
    Every event they emit is stamped with *attempt_id*, so readers can
    keep one attempt's flips of a trial the policy ran again.
    """
    with telemetry.ambient(trace), telemetry.tag_scope(attempt_id=attempt_id):
        if not batched:
            return [get_trial_kind(kind)(payloads[0])]
        outcomes = BATCH_TRIAL_KINDS[kind].func(payloads)
    if len(outcomes) != len(payloads):
        raise ValueError(f"batch executor returned {len(outcomes)} "
                         f"outcomes for {len(payloads)} trials")
    return outcomes


# -- the scheduling policy --------------------------------------------------

#: chunk attempts launched by this process, across campaigns
_launches = itertools.count(1)


class _Policy:
    """What happens to each chunk attempt, whoever launches it.

    A successful attempt journals one record per trial; the chunk's
    wall-time is split evenly across them (per-trial attribution inside a
    shared training pass is meaningless, but the sum over the journal must
    still equal the time spent).  A failed batched chunk (it raised,
    crashed or ran out of time) falls back to chunks of one —
    outcome-identical by the batch-kind contract, so a batch-level crash
    degrades to the sequential campaign instead of failing N trials at
    once.  A failed chunk of one is retried
    ``retries`` times, then journaled ``failed``.
    """

    def __init__(self, chunks: list[_Chunk], journal: Journal | None,
                 retries: int, campaign_start: float):
        self.pending = chunks[::-1]  # pop() from the end keeps plan order
        self.journal = journal
        self.retries = retries
        self.campaign_start = campaign_start
        self.records: dict[str, TrialRecord] = {}

    def take(self) -> _Chunk | None:
        """The next chunk attempt to launch, its span open."""
        if not self.pending:
            return None
        chunk = self.pending.pop()
        chunk.started = time.monotonic()
        # unique among a trial's attempts, a fallback's included, without
        # touching any randomness an experiment could observe
        chunk.attempt_id = f"{os.getpid():x}.{next(_launches)}"
        if chunk.span is None:
            # the span covers first start -> terminal record, spanning
            # retries; the trials' own spans parent to it
            chunk.first_started = chunk.started
            chunk.span = telemetry.start_span(
                "trial_batch", kind=chunk.kind, size=len(chunk.tasks)
            ) if chunk.batched else telemetry.start_span(
                "trial", trial_id=chunk.tasks[0].trial_id, kind=chunk.kind)
        return chunk

    def settle(self, chunk: _Chunk, outcomes: list[dict] | None,
               error: str | None, *, timed_out: bool = False,
               worker: int = 0) -> None:
        """Record how *chunk*'s attempt ended (*outcomes* ``None``: failed
        with *error*)."""
        now = time.monotonic()
        chunk.run_time += now - chunk.started
        chunk.timeouts += timed_out
        if outcomes is not None:
            self._finish(chunk, "ok", outcomes, None, chunk.timeouts > 0,
                         worker, now)
        elif chunk.batched:
            log.warning("batch of %d %r trials failed; re-running them one "
                        "at a time:\n%s", len(chunk.tasks), chunk.kind, error)
            telemetry.count("runner.batch_fallbacks")
            chunk.span.set(fallback=True, run_time=chunk.run_time)
            chunk.span.finish("failed")
            self.pending.extend(_Chunk([task], batched=False)
                                for task in reversed(chunk.tasks))
        elif chunk.attempt <= self.retries:
            telemetry.count("runner.retries")
            chunk.attempt += 1
            self.pending.append(chunk)
        else:
            self._finish(chunk, "failed", [None], error, timed_out, worker,
                         now)

    def _finish(self, chunk: _Chunk, status: str, outcomes: list,
                error: str | None, timed_out: bool, worker: int,
                now: float) -> None:
        records = [TrialRecord(
            trial_id=task.trial_id, kind=task.kind, status=status,
            outcome=outcome, error=error, attempts=chunk.attempt,
            timed_out=timed_out,
            duration=(now - chunk.first_started) / len(chunk.tasks),
            worker=worker, payload=task.payload,
        ) for task, outcome in zip(chunk.tasks, outcomes)]
        for record in records:
            record.finalize()
            telemetry.count(f"runner.trials_{status}")
            telemetry.count(f"runner.outcome_{record.outcome_class}")
        if chunk.batched:
            chunk.span.set(fallback=False, run_time=chunk.run_time)
        else:
            chunk.span.set(
                status=status, attempts=chunk.attempt, worker=worker,
                timed_out=timed_out,
                queue_wait=chunk.first_started - self.campaign_start,
                run_time=chunk.run_time, outcome=records[0].outcome_class,
            )
        chunk.span.finish(status)
        # the span is on disk before the journal holds its trials: a
        # kill -9 between the two leaves a traced trial to run again,
        # never a journaled one untraced
        telemetry.flush()
        for record in records:
            log.debug("trial %s: %s after %d attempt(s) in %.3fs "
                      "(worker %d, chunk of %d)", record.trial_id, status,
                      record.attempts, record.duration, worker,
                      len(chunk.tasks))
            self.records[record.trial_id] = record
            if self.journal is not None:
                self.journal.append(record)


# -- launchers --------------------------------------------------------------

def _run_in_process(policy: _Policy) -> None:
    while (chunk := policy.take()) is not None:
        try:
            outcomes, error = _attempt(*chunk.attempt_args()), None
        except Exception:
            outcomes, error = None, traceback.format_exc(limit=8)
        policy.settle(chunk, outcomes, error)


#: ``prctl`` option naming the signal a process gets when its parent dies
_PR_SET_PDEATHSIG = 1


def _die_with_parent(parent: int) -> bool:
    """Have the kernel SIGKILL this process when *parent* dies (Linux; no
    effect elsewhere).  False when *parent* is gone already.

    The kernel watches the thread that forked, not the process;
    :func:`_run_forked` forks every worker from the thread that joins them.
    """
    if sys.platform.startswith("linux"):
        prctl = ctypes.CDLL(None).prctl
        prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
        prctl.restype = ctypes.c_int
        prctl(_PR_SET_PDEATHSIG, signal.SIGKILL, 0, 0, 0)
    # a parent that died before the prctl sends no signal
    return os.getppid() == parent


def _reply(conn, message: tuple) -> None:
    # what the attempt emitted reaches the sink before the parent, told
    # the attempt is over, can journal its trials
    telemetry.flush()
    conn.send(message)


def _worker_main(conn, inherited: list, parent: int) -> None:
    """Pool worker entry point: run chunk attempts until told to stop.

    Each job is one chunk attempt (:func:`_attempt`'s arguments, the
    chunk span's context and the ``attempt_id`` among them) and ``None``
    ends the loop.  The reply is ``("ok", outcomes)`` or ``("error",
    traceback)``.  A worker outlives only attempts that returned outcomes:
    after a failed one it exits, so a retry never runs in the process that
    failed.  It dies with the campaign process *parent*, mid-attempt
    included, so a ``kill -9``'d campaign leaves no trial running.
    """
    if not _die_with_parent(parent):
        return
    # the fork copied the parent's end of this worker's pipe and of each
    # live sibling's; a worker sees EOF when the parent dies only if no
    # other process holds its pipe's parent end
    for end in inherited:
        end.close()
    # Ctrl-C reaches the whole process group; the parent stops the pool
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        while (job := conn.recv()) is not None:
            try:
                _reply(conn, ("ok", _attempt(*job)))
            except Exception:
                _reply(conn, ("error", traceback.format_exc(limit=8)))
                return
            finally:
                # worker counters join the merged stream: each snapshot is
                # cumulative per pid, so the worker's last one counts
                telemetry.flush_metrics()
    except (EOFError, BrokenPipeError, ConnectionResetError):
        pass  # the campaign parent is gone


@dataclass
class _Worker:
    """A live pool worker and the chunk attempt it runs, if any."""

    process: object
    conn: object
    chunk: _Chunk | None = None


def _fork_worker(ctx, pool: list[_Worker | None]) -> _Worker:
    conn, worker_end = ctx.Pipe()
    inherited = [conn] + [worker.conn for worker in pool if worker]
    process = ctx.Process(target=_worker_main,
                          args=(worker_end, inherited, os.getpid()))
    process.start()
    worker_end.close()
    return _Worker(process, conn)


def _run_forked(policy: _Policy, workers: int,
                trial_timeout: float | None) -> None:
    """Run the chunk attempts on a pool of at most *workers* processes.

    A slot forks its worker when it first has work and keeps it while its
    attempts succeed.  A worker whose attempt failed (it raised, crashed,
    or ran past its chunk's deadline, ``trial_timeout`` per trial, and was
    killed) is joined, and its slot forks a fresh one: a retry never runs
    in the process that failed, and a hang or segfault costs one worker,
    never the campaign.  No worker outlives this call, whatever it raises.
    The caller holds :func:`repro.nn.blas.thread_budget` across it, so
    every worker inherits its share of the CPUs.
    """
    ctx = get_context("fork")
    pool: list[_Worker | None] = [None] * workers
    pool_start = time.monotonic()
    busy_seconds = 0.0  # summed attempt wall-time, for worker utilization
    try:
        while True:
            for slot in range(workers):
                if pool[slot] and pool[slot].chunk is not None:
                    continue
                if (chunk := policy.take()) is None:
                    break
                worker = pool[slot] = pool[slot] or _fork_worker(ctx, pool)
                worker.chunk = chunk
                # one that died idle reads EOF below: settled as a crash
                with contextlib.suppress(OSError):
                    worker.conn.send(chunk.attempt_args())

            busy = [w for w in pool if w and w.chunk is not None]
            if not busy:
                break
            ready = connection.wait([w.conn for w in busy], timeout=0.05)
            now = time.monotonic()
            for slot, worker in enumerate(pool):
                if not worker or worker.chunk is None:
                    continue
                chunk, outcomes, timed_out = worker.chunk, None, False
                # a worker may exit between connection.wait and this check
                # with its reply still buffered in the pipe: poll before
                # trusting the exit code, or a completed chunk gets retried
                # as crashed
                if worker.conn in ready or worker.conn.poll(0):
                    try:
                        status, value = worker.conn.recv()
                    except (EOFError, OSError):
                        telemetry.count("runner.worker_crashes")
                        status, value = "error", "worker died without a result"
                    outcomes, error = (value, None) if status == "ok" \
                        else (None, value)
                elif worker.process.exitcode is not None:
                    telemetry.count("runner.worker_crashes")
                    error = (f"worker exited with code "
                             f"{worker.process.exitcode} before reporting "
                             "a result")
                elif trial_timeout is not None and now > chunk.started + \
                        trial_timeout * len(chunk.tasks):
                    worker.process.terminate()
                    telemetry.count("runner.timeouts")
                    timed_out = True
                    error = (f"{'chunk' if chunk.batched else 'trial'} "
                             f"timed out after {now - chunk.started:.1f}s")
                else:
                    continue
                worker.chunk = None
                busy_seconds += now - chunk.started
                if outcomes is None:
                    # crashed, killed, or exiting after its error reply
                    worker.process.join()
                    worker.conn.close()
                    pool[slot] = None
                policy.settle(chunk, outcomes, error, timed_out=timed_out,
                              worker=slot)
    except BaseException:
        # a journal error or an interrupt: no worker outlives the campaign
        for worker in filter(None, pool):
            worker.process.terminate()
        raise
    else:
        for worker in filter(None, pool):
            with contextlib.suppress(OSError):
                worker.conn.send(None)
    finally:
        for worker in filter(None, pool):
            worker.process.join()
            worker.conn.close()

    elapsed = time.monotonic() - pool_start
    if elapsed > 0:
        telemetry.gauge("runner.worker_utilization",
                        busy_seconds / (workers * elapsed))
    telemetry.count("runner.busy_seconds", busy_seconds)
