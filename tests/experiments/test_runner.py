"""Unit tests for the campaign engine: journal round-trips (property-based),
timeout/retry/crash handling, and resume-from-journal semantics."""

import contextlib
import json
import math
import os
import signal
import time

import multiprocessing
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.runner import (
    Journal,
    TrialRecord,
    TrialTask,
    batch_trial_kind,
    get_trial_kind,
    run_campaign,
    trial_kind,
)

# ---------------------------------------------------------------------------
# Trial kinds used by the tests (module-level so forked workers inherit them)
# ---------------------------------------------------------------------------


@trial_kind("test_echo")
def _echo(payload):
    return {"value": payload["value"]}


@trial_kind("test_touch_and_echo")
def _touch_and_echo(payload):
    # append-mode side effect: counts executions across processes
    with open(payload["marker"], "a") as handle:
        handle.write(f"{payload['value']}\n")
    return {"value": payload["value"]}


@trial_kind("test_hang")
def _hang(payload):
    time.sleep(payload.get("seconds", 3600))
    return {}


@trial_kind("test_crash")
def _crash(payload):
    os._exit(13)  # simulate a segfault: no exception, no result


@trial_kind("test_raise")
def _raise(payload):
    raise RuntimeError("boom")


@trial_kind("test_flaky")
def _flaky(payload):
    """Fails until the marker file accumulates `fail_times` lines."""
    with open(payload["marker"], "a") as handle:
        handle.write("x\n")
    with open(payload["marker"]) as handle:
        calls = len(handle.readlines())
    if calls <= payload["fail_times"]:
        raise RuntimeError(f"flaky failure #{calls}")
    return {"succeeded_on": calls}


@trial_kind("test_slow_echo")
def _slow_echo(payload):
    time.sleep(payload.get("delay", 0.2))
    return {"value": payload["value"]}


@trial_kind("test_pid")
def _pid(payload):
    """Reports the pid it ran in.  With ``fail``, its first call (no
    ``marker`` file yet) leaves its pid in the marker and then fails as the
    ``test_crash``, ``test_hang`` or ``test_raise`` body does."""
    time.sleep(payload.get("delay", 0.0))
    fail = payload.get("fail")
    if fail is not None and not os.path.exists(payload["marker"]):
        with open(payload["marker"], "w") as handle:
            handle.write(str(os.getpid()))
        get_trial_kind(f"test_{fail}")(payload)
    return {"pid": os.getpid()}


def pid_tasks(n, **payload):
    return [TrialTask(trial_id=f"pid/{i}", kind="test_pid", payload=payload)
            for i in range(n)]


def echo_tasks(n, marker=None):
    kind = "test_echo" if marker is None else "test_touch_and_echo"
    payload = {} if marker is None else {"marker": marker}
    return [TrialTask(trial_id=f"echo/{i}", kind=kind,
                      payload={"value": i, **payload}) for i in range(n)]


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


def test_registry_lookup():
    assert get_trial_kind("test_echo") is _echo
    with pytest.raises(ValueError):
        get_trial_kind("no_such_kind")


# ---------------------------------------------------------------------------
# Journal round-trip
# ---------------------------------------------------------------------------


def records_equal(a: TrialRecord, b: TrialRecord) -> bool:
    """Field equality treating NaN == NaN (json round-trips NaN natively)."""

    def norm(obj):
        if isinstance(obj, float) and math.isnan(obj):
            return "__nan__"
        if isinstance(obj, dict):
            return {k: norm(v) for k, v in obj.items()}
        if isinstance(obj, list):
            return [norm(v) for v in obj]
        return obj

    return norm(a.__dict__) == norm(b.__dict__)


def test_journal_round_trip_nan(tmp_path):
    journal = Journal(str(tmp_path / "j.jsonl"))
    record = TrialRecord(
        trial_id="t/0", kind="test_echo", status="ok",
        outcome={"finals": [float("nan"), 0.5], "collapsed": True},
        attempts=2, duration=1.25, worker=3,
        payload={"framework": "tf_like", "injection": {"first_bit": 2}},
    )
    journal.append(record)
    (loaded,) = journal.load()
    assert records_equal(loaded, record)


def test_journal_tolerates_torn_final_line(tmp_path):
    journal = Journal(str(tmp_path / "j.jsonl"))
    for i in range(3):
        journal.append(TrialRecord(trial_id=f"t/{i}", kind="test_echo",
                                   status="ok", outcome={"value": i}))
    with open(journal.path, "a") as handle:
        handle.write('{"trial_id": "t/3", "kind": "test_ec')  # torn write
    records = journal.load()
    assert [r.trial_id for r in records] == ["t/0", "t/1", "t/2"]
    assert journal.completed_ids() == {"t/0", "t/1", "t/2"}


def test_journal_rejects_corrupt_middle_line(tmp_path):
    path = tmp_path / "j.jsonl"
    good = TrialRecord(trial_id="t/0", kind="test_echo",
                       status="ok").to_json_line()
    path.write_text("garbage not json\n" + good + "\n")
    with pytest.raises(ValueError, match="corrupt journal line"):
        Journal(str(path)).load()


def test_journal_missing_file_is_empty(tmp_path):
    assert Journal(str(tmp_path / "absent.jsonl")).load() == []


def test_journal_repair_truncates_torn_tail(tmp_path):
    """Appending after a crash must not concatenate onto the torn line."""
    journal = Journal(str(tmp_path / "j.jsonl"))
    journal.append(TrialRecord(trial_id="t/0", kind="test_echo",
                               status="ok"))
    with open(journal.path, "a") as handle:
        handle.write('{"trial_id": "t/1", "kin')  # torn, no newline
    removed = journal.repair()
    assert removed > 0
    assert journal.repair() == 0  # idempotent
    journal.append(TrialRecord(trial_id="t/2", kind="test_echo",
                               status="ok"))
    assert [r.trial_id for r in journal.load()] == ["t/0", "t/2"]


def test_journal_repair_empty_and_missing(tmp_path):
    missing = Journal(str(tmp_path / "absent.jsonl"))
    assert missing.repair() == 0
    assert missing.load() == []
    empty_path = tmp_path / "empty.jsonl"
    empty_path.write_text("")
    empty = Journal(str(empty_path))
    assert empty.repair() == 0
    assert empty.load() == []
    # a journal that is nothing *but* a torn line repairs down to empty
    torn_path = tmp_path / "torn.jsonl"
    torn_path.write_text('{"trial_id": "t/0", "kin')
    torn = Journal(str(torn_path))
    assert torn.repair() > 0
    assert torn.load() == []


def test_repaired_journal_resumes_cleanly(tmp_path):
    """repair() + --resume replays intact records and re-runs only the rest."""
    marker = str(tmp_path / "marker")
    tasks = echo_tasks(4, marker=marker)
    journal = Journal(str(tmp_path / "j.jsonl"))
    for task in tasks[:2]:  # first two trials completed before the "crash"
        journal.append(TrialRecord(trial_id=task.trial_id, kind=task.kind,
                                   status="ok",
                                   outcome={"value": task.payload["value"]}))
    with open(journal.path, "a") as handle:
        handle.write('{"trial_id": "echo/2", "kin')  # crash mid-append
    assert journal.repair() > 0
    result = run_campaign(tasks, journal=journal, resume=True)
    assert [r.trial_id for r in result.records] == \
        [t.trial_id for t in tasks]
    assert all(r.status == "ok" for r in result.records)
    # only the un-journaled trials actually executed after the repair
    with open(marker) as handle:
        executed = [int(line) for line in handle.read().splitlines()]
    assert sorted(executed) == [2, 3]


json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2 ** 53), max_value=2 ** 53),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=30),
)
json_values = st.recursive(
    json_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=10), children, max_size=4),
    ),
    max_leaves=12,
)


@settings(max_examples=60, deadline=None)
@given(
    trial_id=st.text(min_size=1, max_size=40),
    kind=st.text(min_size=1, max_size=20),
    status=st.sampled_from(["ok", "failed"]),
    outcome=st.one_of(st.none(),
                      st.dictionaries(st.text(max_size=10), json_values,
                                      max_size=4)),
    error=st.one_of(st.none(), st.text(max_size=80)),
    attempts=st.integers(min_value=1, max_value=9),
    timed_out=st.booleans(),
    duration=st.floats(min_value=0, allow_nan=False, allow_infinity=False),
    worker=st.integers(min_value=0, max_value=63),
    payload=st.dictionaries(st.text(max_size=10), json_values, max_size=4),
)
def test_trial_record_jsonl_round_trip(trial_id, kind, status, outcome,
                                       error, attempts, timed_out, duration,
                                       worker, payload):
    """Property: every TrialRecord survives JSONL serialization unchanged —
    including NaN accuracies and nested injection descriptors."""
    record = TrialRecord(
        trial_id=trial_id, kind=kind, status=status, outcome=outcome,
        error=error, attempts=attempts, timed_out=timed_out,
        duration=duration, worker=worker, payload=payload,
    )
    line = record.to_json_line()
    assert "\n" not in line
    assert records_equal(TrialRecord.from_json_line(line), record)


# ---------------------------------------------------------------------------
# Sequential engine semantics
# ---------------------------------------------------------------------------


def test_inline_campaign_runs_all(tmp_path):
    journal = str(tmp_path / "j.jsonl")
    result = run_campaign(echo_tasks(5), workers=1, journal=journal)
    assert [r.outcome["value"] for r in result.records] == list(range(5))
    assert result.stats.ok == 5
    assert result.stats.executed == 5
    assert len(Journal(journal).load()) == 5


def test_duplicate_trial_ids_rejected():
    tasks = [TrialTask("same", "test_echo", {"value": 0}),
             TrialTask("same", "test_echo", {"value": 1})]
    with pytest.raises(ValueError, match="duplicate"):
        run_campaign(tasks)


def test_resume_requires_journal():
    with pytest.raises(ValueError, match="resume"):
        run_campaign(echo_tasks(1), resume=True)


def test_inline_failure_is_terminal_not_fatal(tmp_path):
    tasks = [TrialTask("a", "test_echo", {"value": 1}),
             TrialTask("b", "test_raise", {}),
             TrialTask("c", "test_echo", {"value": 3})]
    result = run_campaign(tasks, workers=1, retries=2,
                          journal=str(tmp_path / "j.jsonl"))
    by_id = result.outcomes_by_id()
    assert by_id["a"].ok and by_id["c"].ok  # campaign degraded gracefully
    failed = by_id["b"]
    assert failed.status == "failed"
    assert failed.attempts == 3  # 1 + 2 retries
    assert "boom" in failed.error
    assert result.stats.failed == 1
    assert result.stats.retries == 2


def test_inline_flaky_trial_retries_to_success(tmp_path):
    marker = str(tmp_path / "flaky")
    tasks = [TrialTask("f", "test_flaky",
                       {"marker": marker, "fail_times": 1})]
    result = run_campaign(tasks, workers=1, retries=1)
    record = result.records[0]
    assert record.ok
    assert record.attempts == 2


# ---------------------------------------------------------------------------
# Parallel engine semantics: timeouts, crashes, retry bounds
# ---------------------------------------------------------------------------


def test_hanging_trial_times_out_and_fails_after_retries(tmp_path):
    tasks = [TrialTask("h", "test_hang", {"seconds": 60}),
             TrialTask("ok", "test_echo", {"value": 7})]
    result = run_campaign(tasks, workers=2, trial_timeout=0.3, retries=1,
                          journal=str(tmp_path / "j.jsonl"))
    by_id = result.outcomes_by_id()
    hung = by_id["h"]
    assert hung.status == "failed"
    assert hung.timed_out
    assert hung.attempts == 2
    assert "timed out" in hung.error
    assert by_id["ok"].ok  # the rest of the campaign completed
    # the failure is journaled as a terminal record
    journaled = {r.trial_id: r for r in Journal(str(tmp_path /
                                                    "j.jsonl")).load()}
    assert journaled["h"].status == "failed"
    assert journaled["h"].timed_out
    assert result.stats.timeouts == 1


def test_crashing_worker_is_failed_not_fatal():
    tasks = [TrialTask("crash", "test_crash", {}),
             TrialTask("ok", "test_echo", {"value": 1})]
    result = run_campaign(tasks, workers=2, retries=1)
    by_id = result.outcomes_by_id()
    assert by_id["crash"].status == "failed"
    assert by_id["crash"].attempts == 2
    assert by_id["ok"].ok


def test_parallel_flaky_trial_recovers(tmp_path):
    marker = str(tmp_path / "flaky")
    tasks = [TrialTask("f", "test_flaky",
                       {"marker": marker, "fail_times": 1})]
    result = run_campaign(tasks, workers=2, retries=2)
    record = result.records[0]
    assert record.ok
    assert record.attempts == 2
    assert record.outcome["succeeded_on"] == 2


def test_parallel_preserves_task_order_and_outcomes(tmp_path):
    result = run_campaign(echo_tasks(8), workers=4)
    assert [r.outcome["value"] for r in result.records] == list(range(8))
    assert {r.trial_id for r in result.records} == \
        {f"echo/{i}" for i in range(8)}


def test_timeout_with_single_worker_uses_subprocess_isolation():
    """workers=1 + timeout still enforces the timeout (subprocess path)."""
    tasks = [TrialTask("h", "test_hang", {"seconds": 60})]
    start = time.monotonic()
    result = run_campaign(tasks, workers=1, trial_timeout=0.2, retries=0)
    assert time.monotonic() - start < 30
    assert result.records[0].status == "failed"
    assert result.records[0].timed_out


# ---------------------------------------------------------------------------
# Worker pool lifecycle
# ---------------------------------------------------------------------------


@pytest.fixture
def alive_after_fork(monkeypatch):
    """How many child processes are alive right after each fork."""
    counts = []
    start = multiprocessing.process.BaseProcess.start

    def counting_start(process):
        start(process)
        counts.append(len(multiprocessing.active_children()))

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start",
                        counting_start)
    return counts


def test_pool_forks_each_worker_once(alive_after_fork):
    result = run_campaign(pid_tasks(8), workers=2)
    pids = {r.outcome["pid"] for r in result.records}
    assert len(pids) <= 2
    assert os.getpid() not in pids
    assert len(alive_after_fork) == len(pids)


@pytest.mark.parametrize("fail", ["crash", "hang", "raise"])
def test_failed_worker_is_replaced_not_reused(tmp_path, alive_after_fork,
                                              fail):
    marker = str(tmp_path / "failed_pid")
    tasks = pid_tasks(6)
    tasks[3] = TrialTask("failing", "test_pid",
                         {"fail": fail, "marker": marker, "seconds": 60})
    result = run_campaign(tasks, workers=2, trial_timeout=2.0, retries=1)
    retried = result.outcomes_by_id()["failing"]
    assert retried.ok and retried.attempts == 2
    assert retried.timed_out == (fail == "hang")
    with open(marker) as handle:
        failed_pid = int(handle.read())
    assert retried.outcome["pid"] != failed_pid
    assert all(record.ok for record in result.records)
    assert max(alive_after_fork) <= 2


def test_journal_error_stops_every_worker(tmp_path, monkeypatch):
    append = Journal.append
    appended = []

    def failing_append(journal, record):
        if len(appended) == 2:
            raise OSError("journal disk full")
        appended.append(record)
        append(journal, record)

    monkeypatch.setattr(Journal, "append", failing_append)
    with pytest.raises(OSError, match="journal disk full"):
        run_campaign(pid_tasks(8, delay=0.2), workers=2,
                     journal=str(tmp_path / "j.jsonl"))
    assert multiprocessing.active_children() == []


def _pool_victim(journal, n):
    """Child-process entry: run a slow two-worker campaign until killed."""
    run_campaign(pid_tasks(n, delay=0.3), workers=2, journal=journal)


def _running(pid):
    """Whether *pid* still runs (a zombie awaiting its reaper does not)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            state = handle.read().rpartition(")")[2].split()[0]
    except (FileNotFoundError, ProcessLookupError):
        return False
    return state not in ("Z", "X")


def test_kill_dash_nine_leaves_no_pool_worker(tmp_path):
    """Workers see their parent's death as EOF on their pipe: none may
    keep a copy of its own pipe's or a sibling's parent end."""
    journal = str(tmp_path / "j.jsonl")
    victim = multiprocessing.get_context("fork").Process(
        target=_pool_victim, args=(journal, 40))
    victim.start()
    pids = set()
    deadline = time.monotonic() + 60
    while len(pids) < 2 and time.monotonic() < deadline:
        pids = {r.outcome["pid"] for r in Journal(journal).load()}
        time.sleep(0.02)
    os.kill(victim.pid, signal.SIGKILL)
    victim.join(timeout=10)
    try:
        assert len(pids) == 2
        deadline = time.monotonic() + 5
        while any(map(_running, pids)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not [pid for pid in pids if _running(pid)]
    finally:
        for pid in pids:
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)


# ---------------------------------------------------------------------------
# Resume semantics
# ---------------------------------------------------------------------------


def test_resume_skips_completed_trials(tmp_path):
    marker = str(tmp_path / "executions")
    journal = str(tmp_path / "j.jsonl")
    tasks = echo_tasks(6, marker=marker)

    # first invocation: run only the first half (simulates a killed campaign)
    first = run_campaign(tasks[:3], workers=1, journal=journal)
    assert first.stats.ok == 3

    # second invocation with the full task list resumes from the journal
    second = run_campaign(tasks, workers=2, journal=journal, resume=True)
    assert second.stats.total == 6
    assert second.stats.skipped == 3
    assert second.stats.executed == 3
    # completed trials were NOT re-executed: 3 + 3 marker lines, no more
    with open(marker) as handle:
        assert len(handle.readlines()) == 6
    # replayed + fresh records merge in task order
    assert [r.outcome["value"] for r in second.records] == list(range(6))


def test_resume_with_fully_complete_journal_executes_nothing(tmp_path):
    marker = str(tmp_path / "executions")
    journal = str(tmp_path / "j.jsonl")
    tasks = echo_tasks(4, marker=marker)
    run_campaign(tasks, workers=1, journal=journal)
    again = run_campaign(tasks, workers=4, journal=journal, resume=True)
    assert again.stats.executed == 0
    assert again.stats.skipped == 4
    assert again.stats.trials_per_second == 0.0
    with open(marker) as handle:
        assert len(handle.readlines()) == 4  # no re-execution


def test_resume_retries_previously_failed_only_if_not_journaled(tmp_path):
    """A terminal 'failed' record is final: resume must not re-run it."""
    journal_path = str(tmp_path / "j.jsonl")
    journal = Journal(journal_path)
    journal.append(TrialRecord(trial_id="echo/0", kind="test_echo",
                               status="failed", error="gave up"))
    tasks = echo_tasks(2)
    result = run_campaign(tasks, workers=1, journal=journal_path,
                          resume=True)
    by_id = result.outcomes_by_id()
    assert by_id["echo/0"].status == "failed"  # replayed, not re-run
    assert by_id["echo/1"].ok
    assert result.stats.executed == 1


def _campaign_victim(journal, marker, n):
    """Child-process entry: run a slow campaign until killed."""
    tasks = [TrialTask(trial_id=f"echo/{i}", kind="test_slow_echo",
                       payload={"value": i, "delay": 0.3})
             for i in range(n)]
    run_campaign(tasks, workers=1, journal=journal)
    with open(marker, "w") as handle:
        handle.write("finished uninterrupted")  # must not happen


def test_kill_dash_nine_mid_campaign_then_resume(tmp_path):
    """The acceptance scenario: SIGKILL a running campaign, then resume it
    from the journal without re-running the journaled trials."""
    journal = str(tmp_path / "j.jsonl")
    done_marker = str(tmp_path / "finished")
    n = 10
    ctx = multiprocessing.get_context("fork")
    victim = ctx.Process(target=_campaign_victim,
                         args=(journal, done_marker, n))
    victim.start()
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        if os.path.exists(journal) and len(Journal(journal).load()) >= 2:
            break
        time.sleep(0.02)
    os.kill(victim.pid, signal.SIGKILL)
    victim.join()
    assert not os.path.exists(done_marker)
    survived = Journal(journal).load()
    assert 2 <= len(survived) < n  # killed mid-campaign, journal intact

    marker = str(tmp_path / "executions")
    tasks = echo_tasks(n, marker=marker)
    resumed = run_campaign(tasks, workers=2, journal=journal, resume=True)
    assert resumed.stats.total == n
    assert resumed.stats.skipped == len(survived)
    assert resumed.stats.executed == n - len(survived)
    # only the non-journaled trials executed this time
    with open(marker) as handle:
        executed = {int(line) for line in handle}
    assert executed == {i for i in range(n)
                        if f"echo/{i}" not in {r.trial_id
                                               for r in survived}}
    assert [r.outcome["value"] for r in resumed.records] == list(range(n))


# ---------------------------------------------------------------------------
# Outcome stamping (the canonical taxonomy on every fresh record)
# ---------------------------------------------------------------------------


@trial_kind("test_curve")
def _curve_trial(payload):
    return {"curve": payload["curve"],
            "baseline_curve": payload.get("baseline_curve")}


def test_inline_records_carry_outcome_class(tmp_path):
    journal = str(tmp_path / "stamped.jsonl")
    tasks = [
        TrialTask("t/ok", "test_echo", {"value": 1}),
        TrialTask("t/boom", "test_raise", {}),
        TrialTask("t/collapse", "test_curve",
                  {"curve": [0.5, float("nan")]}),
        TrialTask("t/degraded", "test_curve",
                  {"curve": [0.3], "baseline_curve": [0.6]}),
    ]
    result = run_campaign(tasks, journal=journal)
    by_id = {r.trial_id: r.outcome_class for r in result.records}
    assert by_id == {"t/ok": "masked", "t/boom": "crashed",
                     "t/collapse": "collapsed", "t/degraded": "degraded"}
    # the stamp is journaled: watchers and resumes see it without
    # re-running the classifier
    with open(journal) as handle:
        for line in handle:
            parsed = json.loads(line)
            assert parsed["outcome_class"] == by_id[parsed["trial_id"]]


def test_parallel_records_carry_outcome_class(tmp_path):
    tasks = [TrialTask(f"t/{i}", "test_echo", {"value": i})
             for i in range(3)]
    tasks.append(TrialTask("t/crash", "test_crash", {}))
    result = run_campaign(tasks, workers=2)
    by_id = {r.trial_id: r.outcome_class for r in result.records}
    assert by_id["t/crash"] == "crashed"
    assert all(by_id[f"t/{i}"] == "masked" for i in range(3))


def test_classify_respects_existing_stamp():
    record = TrialRecord(trial_id="t", kind="k", status="ok",
                         outcome={"curve": [0.1]},
                         outcome_class="degraded")
    assert record.classify() == "degraded"  # no re-classification


def test_preclassifier_journal_replays_without_stamp(tmp_path):
    """Journals written before the classifier existed lack the field; they
    must still parse and resume (replayed records stay unstamped)."""
    journal = str(tmp_path / "old.jsonl")
    old = {"trial_id": "echo/0", "kind": "test_echo", "status": "ok",
           "attempts": 1, "timed_out": False, "duration": 0.1, "worker": 0,
           "error": None, "payload": {"value": 0}, "outcome": {"value": 0}}
    with open(journal, "w") as handle:
        handle.write(json.dumps(old) + "\n")
    result = run_campaign(echo_tasks(2), journal=journal, resume=True)
    by_id = {r.trial_id: r.outcome_class for r in result.records}
    assert by_id["echo/0"] is None       # replayed verbatim
    assert by_id["echo/1"] == "masked"   # fresh trial gets stamped


# ---------------------------------------------------------------------------
# trial_id stamping on dispatched payloads
# ---------------------------------------------------------------------------


@trial_kind("test_echo_trial_id")
def _echo_trial_id(payload):
    return {"seen_trial_id": payload.get("trial_id")}



@batch_trial_kind("test_echo_trial_id", group_key=lambda p: "all")
def _echo_trial_id_batch(payloads):
    return [{"seen_trial_id": p.get("trial_id"), "batched": True}
            for p in payloads]


class TestDispatchTrialIdStamp:
    """Every dispatch path hands the trial function a payload carrying its
    trial_id (so deep emitters can stamp telemetry), while the journaled
    record's payload stays the task's own, unchanged."""

    def tasks(self, n=3):
        return [TrialTask(f"stamp/{i}", "test_echo_trial_id", {"value": i})
                for i in range(n)]

    def assert_stamped(self, result):
        for record in result.records:
            assert record.outcome["seen_trial_id"] == record.trial_id
            assert "trial_id" not in record.payload

    def test_inline_dispatch_stamps(self, tmp_path):
        result = run_campaign(self.tasks(), workers=1,
                              journal=str(tmp_path / "j.jsonl"))
        self.assert_stamped(result)
        # the journal on disk carries the unstamped payload too
        for record in Journal(str(tmp_path / "j.jsonl")).load():
            assert "trial_id" not in record.payload

    def test_pool_dispatch_stamps(self, tmp_path):
        result = run_campaign(self.tasks(4), workers=2,
                              journal=str(tmp_path / "j.jsonl"))
        self.assert_stamped(result)

    def test_batched_dispatch_stamps(self, tmp_path):
        result = run_campaign(self.tasks(4), workers=1, batch_trials=2,
                              journal=str(tmp_path / "j.jsonl"))
        self.assert_stamped(result)
        assert all(r.outcome.get("batched") for r in result.records)

    def test_pool_batched_dispatch_stamps(self, tmp_path):
        result = run_campaign(self.tasks(4), workers=2, batch_trials=2,
                              journal=str(tmp_path / "j.jsonl"))
        self.assert_stamped(result)
        assert all(r.outcome.get("batched") for r in result.records)
