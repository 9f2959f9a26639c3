"""Campaign execution engine: parallel, journaled, crash-safe trial running.

The paper's protocol is embarrassingly parallel — every experiment cell is
N independent inject-and-resume trainings (§V-A: 250 per cell).  This module
turns a harness's trial list into a *campaign*:

* trials fan out over a ``multiprocessing`` worker pool (``workers=1`` keeps
  the original in-process sequential path, bit-identical to the parallel one
  because every trial is a pure function of its payload);
* every terminal outcome is appended to a JSONL *journal* — an append-only
  record of (trial id, kind, payload, outcome, status, attempts, duration,
  worker) that survives ``kill -9`` mid-campaign;
* a killed campaign resumes by replaying the journal and skipping trials
  that already have a terminal record;
* each trial gets a configurable timeout and bounded retry; a trial that
  keeps hanging or crashing is journaled ``failed`` and the campaign moves
  on instead of aborting (graceful degradation).

Harnesses register *trial kinds* — top-level functions from JSON payload to
JSON outcome — with :func:`trial_kind`; worker processes look the function
up by name, so tasks stay picklable and journal records stay replayable.
A kind may additionally register a *batched* executor with
:func:`batch_trial_kind`: under ``batch_trials > 1`` the runner chunks
same-group trials and amortizes their shared training pass
(:mod:`repro.batched`), still journaling one ordinary record per trial.
"""

from __future__ import annotations

import json
import logging
import os
import time
import traceback
from dataclasses import asdict, dataclass, field
from multiprocessing import connection, get_context
from typing import Callable, Iterable

from .. import telemetry
from ..analysis.campaign import CampaignStats
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
    """A batched executor for one trial kind plus its grouping rule."""

    func: Callable[[list[dict]], list[dict]]
    group_key: Callable[[dict], str]


#: name -> batched executor.  A batch kind amortizes shared work (the
#: training pass) across a chunk of same-kind trials; only payloads with
#: equal ``group_key`` may share a chunk.  Kinds without an entry here run
#: sequentially even under ``batch_trials > 1``.
BATCH_TRIAL_KINDS: dict[str, _BatchKind] = {}


def batch_trial_kind(name: str, *, group_key: Callable[[dict], str]) -> \
        Callable[[Callable[[list[dict]], list[dict]]],
                 Callable[[list[dict]], list[dict]]]:
    """Register a batched executor for trial kind *name*.

    The function receives the payloads of one chunk — all sharing a
    ``group_key`` — and must return one outcome dict per payload, in order,
    each bit-identical to what the sequential kind would have produced for
    that payload (the contract ``tests/batched`` enforces).
    """

    def register(func: Callable[[list[dict]], list[dict]]) -> \
            Callable[[list[dict]], list[dict]]:
        BATCH_TRIAL_KINDS[name] = _BatchKind(func=func, group_key=group_key)
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

    Every append is flushed and fsynced, so after ``kill -9`` the journal
    holds every completed trial plus at most one torn final line, which
    :meth:`load` tolerates (a torn write can only be the last line of an
    append-only file).
    """

    def __init__(self, path: str):
        self.path = path
        parent = os.path.dirname(os.path.abspath(path))
        os.makedirs(parent, exist_ok=True)

    def append(self, record: TrialRecord) -> None:
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(record.to_json_line() + "\n")
            handle.flush()
            os.fsync(handle.fileno())

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
                 trial_timeout: float | None = None,
                 retries: int = 1, batch_trials: int = 1) -> CampaignResult:
    """Execute *tasks*, returning records in task order.

    Parameters
    ----------
    workers:
        ``1`` runs trials sequentially in-process (unless a timeout is set,
        which needs subprocess isolation); ``>1`` fans out over a fork-based
        worker pool.
    journal:
        JSONL path (or :class:`Journal`).  When given, every terminal record
        is appended as it happens.
    resume:
        Replay the journal first and skip trials that already have a
        terminal record.
    trial_timeout:
        Seconds before an attempt is killed and counted as a timeout.
    retries:
        Extra attempts after the first failure before the trial is
        journaled ``failed``.
    batch_trials:
        ``> 1`` runs chunks of that many batchable trials (same kind, same
        :func:`batch_trial_kind` group key) through the kind's batched
        executor in-process, one journal record per trial as usual.
        Incompatible with ``workers > 1`` and ``trial_timeout`` — the
        batched path is in-process by design (the whole point is sharing
        one training pass, which a process-per-trial pool cannot do).
    """
    tasks = list(tasks)
    if batch_trials > 1:
        if workers > 1:
            raise ValueError(
                "batch_trials > 1 requires workers=1 (batched trials share "
                "one in-process training pass)")
        if trial_timeout is not None:
            raise ValueError(
                "batch_trials > 1 is incompatible with trial_timeout "
                "(timeouts need process-per-trial isolation)")
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
              len(tasks), len(todo), len(replayed), max(1, workers))
    start = time.monotonic()
    with telemetry.span("campaign", workers=max(1, workers),
                        total=len(tasks), skipped=len(replayed),
                        batch_trials=max(1, batch_trials),
                        blas_threads=blas.num_threads()) as campaign:
        if batch_trials > 1:
            fresh = _run_batched(todo, journal, batch_trials, retries)
        elif workers <= 1 and trial_timeout is None:
            fresh = _run_inline(todo, journal, retries)
        else:
            fresh = _run_pool(todo, journal, max(1, workers), trial_timeout,
                              retries, campaign)
        wall_time = time.monotonic() - start

        by_id = dict(replayed)
        by_id.update(fresh)
        records = [by_id[t.trial_id] for t in tasks]
        stats = CampaignStats.from_records(
            [asdict(r) for r in records],
            wall_time=wall_time, workers=max(1, workers),
            executed=len(fresh), skipped=len(tasks) - len(todo),
        )
        campaign.set(executed=stats.executed, ok=stats.ok,
                     failed=stats.failed, retries=stats.retries,
                     timeouts=stats.timeouts)
    telemetry.flush_metrics()  # parent-side counters join the event stream
    return CampaignResult(records=records, stats=stats)


# -- sequential path --------------------------------------------------------

def _dispatch_payload(task: TrialTask) -> dict:
    """The payload copy handed to a trial function.

    ``trial_id`` rides along so emitters deep inside the trial — the
    injector's ``flip`` provenance, the health probe's per-epoch snapshots
    — can stamp the trial identity onto their telemetry (batched execution
    shares one pid across N trials, so pid alone cannot attribute events).
    The journaled record's ``payload`` stays the task's own, unchanged.
    """
    return {**task.payload, "trial_id": task.trial_id}


def _run_inline(tasks: list[TrialTask], journal: Journal | None,
                retries: int) -> dict[str, TrialRecord]:
    results: dict[str, TrialRecord] = {}
    for task in tasks:
        func = get_trial_kind(task.kind)
        record = None
        started = time.monotonic()
        with telemetry.span("trial", trial_id=task.trial_id,
                            kind=task.kind) as span:
            for attempt in range(1, retries + 2):
                if attempt > 1:
                    telemetry.count("runner.retries")
                try:
                    outcome = func(_dispatch_payload(task))
                except Exception:
                    record = TrialRecord(
                        trial_id=task.trial_id, kind=task.kind,
                        status="failed",
                        error=traceback.format_exc(limit=8), attempts=attempt,
                        payload=task.payload,
                    )
                    continue
                record = TrialRecord(
                    trial_id=task.trial_id, kind=task.kind, status="ok",
                    outcome=outcome, attempts=attempt, payload=task.payload,
                )
                break
            record.duration = time.monotonic() - started
            record.finalize()
            telemetry.count(f"runner.trials_{record.status}")
            telemetry.count(f"runner.outcome_{record.outcome_class}")
            span.set(status=record.status, attempts=record.attempts,
                     queue_wait=0.0, run_time=record.duration, worker=0,
                     outcome=record.outcome_class)
            span.finish(record.status)
        log.debug("trial %s: %s after %d attempt(s) in %.3fs",
                  task.trial_id, record.status, record.attempts,
                  record.duration)
        results[task.trial_id] = record
        if journal is not None:
            journal.append(record)
    return results


# -- batched path -----------------------------------------------------------

def _run_batched(tasks: list[TrialTask], journal: Journal | None,
                 batch_trials: int,
                 retries: int) -> dict[str, TrialRecord]:
    """Chunked in-process execution for ``batch_trials > 1``.

    Batchable tasks are grouped by (kind, group key) — preserving task order
    within a group — and cut into consecutive chunks of up to
    ``batch_trials`` trials (a ragged tail is an ordinary smaller chunk).
    Tasks whose kind has no batched executor run through the inline path
    unchanged, as does any chunk whose executor raises: the fallback re-runs
    that chunk's trials sequentially, which is outcome-identical by the
    batch-kind contract, so a batch-level crash degrades to the sequential
    campaign instead of failing N trials at once.
    """
    results: dict[str, TrialRecord] = {}
    unbatched: list[TrialTask] = []
    groups: dict[tuple[str, str], list[TrialTask]] = {}
    for task in tasks:
        batch_kind = BATCH_TRIAL_KINDS.get(task.kind)
        if batch_kind is None:
            unbatched.append(task)
        else:
            key = (task.kind, batch_kind.group_key(task.payload))
            groups.setdefault(key, []).append(task)
    if unbatched:
        results.update(_run_inline(unbatched, journal, retries))
    for (kind_name, _), group in groups.items():
        func = BATCH_TRIAL_KINDS[kind_name].func
        for cut in range(0, len(group), batch_trials):
            chunk = group[cut:cut + batch_trials]
            results.update(_run_chunk(chunk, func, journal, retries))
    return results


def _run_chunk(chunk: list[TrialTask],
               func: Callable[[list[dict]], list[dict]],
               journal: Journal | None,
               retries: int) -> dict[str, TrialRecord]:
    """One batched chunk -> one record per trial (or a sequential fallback).

    The chunk's wall-time is split evenly across its records: per-trial
    attribution inside a shared training pass is meaningless, but the sum
    over the journal must still equal the time actually spent.
    """
    started = time.monotonic()
    outcomes = None
    with telemetry.span("trial_batch", kind=chunk[0].kind,
                        size=len(chunk)) as span:
        try:
            outcomes = func([_dispatch_payload(task) for task in chunk])
            if len(outcomes) != len(chunk):
                raise ValueError(
                    f"batch executor returned {len(outcomes)} outcomes "
                    f"for {len(chunk)} trials")
        except Exception:
            log.warning("batch of %d %r trials failed; re-running them "
                        "sequentially", len(chunk), chunk[0].kind,
                        exc_info=True)
            telemetry.count("runner.batch_fallbacks")
            span.set(fallback=True)
            span.finish("failed")
        else:
            span.set(fallback=False,
                     run_time=time.monotonic() - started)
            span.finish("ok")
    if outcomes is None:
        return _run_inline(list(chunk), journal, retries)
    elapsed = time.monotonic() - started
    results: dict[str, TrialRecord] = {}
    for task, outcome in zip(chunk, outcomes):
        record = TrialRecord(
            trial_id=task.trial_id, kind=task.kind, status="ok",
            outcome=outcome, attempts=1, duration=elapsed / len(chunk),
            payload=task.payload,
        )
        record.finalize()
        telemetry.count("runner.trials_ok")
        telemetry.count(f"runner.outcome_{record.outcome_class}")
        log.debug("trial %s: ok (batched, chunk of %d)",
                  task.trial_id, len(chunk))
        results[task.trial_id] = record
        if journal is not None:
            journal.append(record)
    return results


# -- parallel path ----------------------------------------------------------

def _child_main(conn, kind: str, payload: dict,
                trace: dict | None = None) -> None:
    """Worker entry point: run one trial, ship the outcome over the pipe.

    *trace* is the parent-side trial span's exported context: adopting it
    makes every span the trial opens (``inject``, ``train``, ``hdf5.open``)
    a descendant of that trial span in the merged event stream.
    """
    telemetry.adopt(trace)
    try:
        outcome = get_trial_kind(kind)(payload)
        conn.send(("ok", outcome))
    except BaseException:
        try:
            conn.send(("error", traceback.format_exc(limit=8)))
        except Exception:
            pass
    finally:
        telemetry.flush_metrics()  # worker counters join the merged stream
        conn.close()


@dataclass
class _Pending:
    """A trial attempt waiting for a worker slot."""

    task: TrialTask
    attempt: int = 1
    timeouts: int = 0
    first_started: float | None = None
    run_time: float = 0.0  # attempt wall-time already spent (retries)
    span: object = None  # parent-side trial span, opened at first fork


@dataclass
class _InFlight:
    task: TrialTask
    attempt: int
    process: object
    conn: object
    deadline: float | None
    started: float
    first_started: float
    slot: int
    timeouts: int = 0
    run_time: float = 0.0
    span: object = telemetry.NOOP_SPAN


def _run_pool(tasks: list[TrialTask], journal: Journal | None, workers: int,
              trial_timeout: float | None, retries: int,
              campaign) -> dict[str, TrialRecord]:
    """Fork the trials over *workers* processes, the BLAS threads split
    among them.

    The thread count is lowered here, in the parent and before any fork,
    so every child inherits its share of the CPUs and never starts helper
    threads of its own (:func:`repro.nn.blas.thread_budget`); the count
    applied is recorded on the *campaign* span.
    """
    with blas.thread_budget(workers) as blas_threads:
        campaign.set(blas_threads=blas_threads)
        return _fork_trials(tasks, journal, workers, trial_timeout, retries)


def _fork_trials(tasks: list[TrialTask], journal: Journal | None,
                 workers: int, trial_timeout: float | None,
                 retries: int) -> dict[str, TrialRecord]:
    """Process-per-trial scheduler with timeouts and bounded retry.

    One fork per attempt keeps trials fully isolated (a segfault or hang
    kills the child, never the campaign) and makes timeout enforcement a
    simple ``terminate()``.
    """
    ctx = get_context("fork")
    results: dict[str, TrialRecord] = {}
    pending: list[_Pending] = [_Pending(task=t) for t in tasks]
    pending.reverse()  # pop() from the end preserves task order
    inflight: list[_InFlight] = []
    free_slots = list(range(workers - 1, -1, -1))
    pool_start = time.monotonic()
    busy_seconds = 0.0  # summed attempt wall-time, for worker utilization

    def finish(flight: _InFlight, status: str, outcome: dict | None,
               error: str | None, timed_out: bool, now: float) -> None:
        record = TrialRecord(
            trial_id=flight.task.trial_id, kind=flight.task.kind,
            status=status, outcome=outcome, error=error,
            attempts=flight.attempt, timed_out=timed_out,
            duration=now - flight.first_started,
            worker=flight.slot, payload=flight.task.payload,
        )
        record.finalize()
        telemetry.count(f"runner.trials_{status}")
        telemetry.count(f"runner.outcome_{record.outcome_class}")
        flight.span.set(
            status=status, attempts=flight.attempt, worker=flight.slot,
            timed_out=timed_out,
            queue_wait=flight.first_started - pool_start,
            run_time=flight.run_time + (now - flight.started),
            outcome=record.outcome_class,
        )
        flight.span.finish(status)
        log.debug("trial %s: %s after %d attempt(s) in %.3fs (worker %d)",
                  record.trial_id, status, record.attempts, record.duration,
                  flight.slot)
        results[flight.task.trial_id] = record
        if journal is not None:
            journal.append(record)

    def retry_or_fail(flight: _InFlight, error: str, timed_out: bool,
                      now: float) -> None:
        if flight.attempt <= retries:
            telemetry.count("runner.retries")
            pending.append(_Pending(
                task=flight.task, attempt=flight.attempt + 1,
                timeouts=flight.timeouts + (1 if timed_out else 0),
                first_started=flight.first_started,
                run_time=flight.run_time + (now - flight.started),
                span=flight.span,
            ))
        else:
            finish(flight, "failed", None, error, timed_out, now)

    while pending or inflight:
        while pending and free_slots:
            item = pending.pop()
            slot = free_slots.pop()
            now = time.monotonic()
            span = item.span
            if span is None:
                # the trial span covers first fork -> terminal record,
                # spanning retries; workers parent their spans to it
                span = telemetry.start_span(
                    "trial", trial_id=item.task.trial_id,
                    kind=item.task.kind,
                )
            parent_conn, child_conn = ctx.Pipe(duplex=False)
            proc = ctx.Process(
                target=_child_main,
                args=(child_conn, item.task.kind,
                      _dispatch_payload(item.task), span.context()),
            )
            proc.start()
            child_conn.close()
            inflight.append(_InFlight(
                task=item.task, attempt=item.attempt, process=proc,
                conn=parent_conn,
                deadline=(None if trial_timeout is None
                          else now + trial_timeout),
                started=now,
                first_started=item.first_started
                if item.first_started is not None else now,
                slot=slot, timeouts=item.timeouts, run_time=item.run_time,
                span=span,
            ))

        ready = connection.wait([f.conn for f in inflight], timeout=0.05)
        now = time.monotonic()
        still: list[_InFlight] = []
        for flight in inflight:
            done = False
            # a child may exit between connection.wait and this check with
            # its result still buffered in the pipe — poll before trusting
            # the exit code, or a completed trial gets retried as crashed.
            if flight.conn in ready or flight.conn.poll(0):
                try:
                    status, value = flight.conn.recv()
                except (EOFError, OSError):
                    # child died without reporting (crash / os._exit)
                    status, value = "error", "worker died without a result"
                    telemetry.count("runner.worker_crashes")
                flight.process.join()
                flight.conn.close()
                if status == "ok":
                    rec = TrialRecord(
                        trial_id=flight.task.trial_id, kind=flight.task.kind,
                        status="ok", outcome=value, attempts=flight.attempt,
                        timed_out=flight.timeouts > 0,
                        duration=now - flight.first_started,
                        worker=flight.slot, payload=flight.task.payload,
                    )
                    rec.finalize()
                    telemetry.count("runner.trials_ok")
                    telemetry.count(f"runner.outcome_{rec.outcome_class}")
                    flight.span.set(
                        status="ok", attempts=flight.attempt,
                        worker=flight.slot, timed_out=flight.timeouts > 0,
                        queue_wait=flight.first_started - pool_start,
                        run_time=flight.run_time + (now - flight.started),
                        outcome=rec.outcome_class,
                    )
                    flight.span.finish("ok")
                    log.debug("trial %s: ok after %d attempt(s) in %.3fs "
                              "(worker %d)", rec.trial_id, rec.attempts,
                              rec.duration, flight.slot)
                    results[flight.task.trial_id] = rec
                    if journal is not None:
                        journal.append(rec)
                else:
                    retry_or_fail(flight, value, timed_out=False, now=now)
                done = True
            elif flight.process.exitcode is not None:
                # exited without sending anything
                flight.conn.close()
                telemetry.count("runner.worker_crashes")
                retry_or_fail(
                    flight,
                    f"worker exited with code {flight.process.exitcode} "
                    "before reporting a result",
                    timed_out=False, now=now,
                )
                done = True
            elif flight.deadline is not None and now > flight.deadline:
                flight.process.terminate()
                flight.process.join()
                flight.conn.close()
                telemetry.count("runner.timeouts")
                retry_or_fail(
                    flight,
                    f"trial timed out after {now - flight.started:.1f}s",
                    timed_out=True, now=now,
                )
                done = True
            if done:
                busy_seconds += now - flight.started
                free_slots.append(flight.slot)
            else:
                still.append(flight)
        inflight = still

    elapsed = time.monotonic() - pool_start
    if elapsed > 0:
        telemetry.gauge("runner.worker_utilization",
                        busy_seconds / (workers * elapsed))
    telemetry.count("runner.busy_seconds", busy_seconds)
    return results
