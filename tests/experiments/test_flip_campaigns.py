"""The flip campaigns (fig3, table5, table6) and their one trial body.

Every flip kind runs :func:`~repro.experiments.fig3_bitflip_rates.
run_flip_trials`; a sequential trial is a chunk of one.  These tests pin
the contract around it: tables render a cell no trial finished as NaN,
a stacked trial emits the per-trial telemetry the unstacked ``Trainer``
emits, and the whole-program fork analysis finds every trial body.
"""

from __future__ import annotations

import json
import math
import pathlib

import pytest

from repro import telemetry
from repro.analysis import propagation_report
from repro.atlas import AtlasIngester, AtlasStore
from repro.experiments import common
from repro.experiments import fig3_bitflip_rates as fig3
from repro.experiments import run_experiment
from repro.experiments.common import (
    BaselineCache,
    SessionSpec,
    get_scale,
    resume_training,
)
from repro.experiments.runner import run_campaign
from repro.lint import analyze_paths
from repro.serve import CampaignSpec

SMOKE = get_scale("smoke")
SRC = pathlib.Path(__file__).resolve().parents[2] / "src"
TWO_FRAMEWORKS = ["chainer_like", "torch_like"]


@pytest.fixture(scope="module")
def cache(tmp_path_factory):
    return BaselineCache(str(tmp_path_factory.mktemp("flip-cache")))


def isnan(value) -> bool:
    return isinstance(value, float) and math.isnan(value)


class TestCellsWithoutOkTrials:
    """A cell whose trials all failed, or that ``max_trials`` cut from the
    plan, renders NaN; percentages divide by the trials a cell actually
    aggregated."""

    def test_fig3_all_trials_timed_out(self, cache):
        result = fig3.run(scale="smoke", pairs=[("chainer_like", "alexnet")],
                          bitflips=[1], trial_timeout=0.001, retries=0,
                          cache=cache)
        assert result.extra["campaign"]["ok"] == 0, \
            "a trial beat the 1 ms timeout; this case no longer fails cells"
        by_series = {row[1]: row[2] for row in result.rows}
        assert not isnan(by_series["baseline"])
        assert isnan(by_series["1 flips"])

    def test_fig3_max_trials(self, cache):
        spec = CampaignSpec(kind="fig3", scale="smoke",
                            params={"pairs": [["chainer_like", "alexnet"]],
                                    "bitflips": [1, 10]}, max_trials=1)
        result = run_experiment("fig3", spec=spec, cache=cache)
        by_series = {row[1]: row[2] for row in result.rows}
        assert not isnan(by_series["1 flips"])
        assert isnan(by_series["10 flips"])

    def test_table5_max_trials(self, cache):
        spec = CampaignSpec(kind="table5", scale="smoke",
                            params={"frameworks": TWO_FRAMEWORKS,
                                    "models": ["alexnet"]}, max_trials=1)
        result = run_experiment("table5", spec=spec, cache=cache)
        [row] = result.rows
        model, trainings, rwc, pct, torch_rwc, torch_pct = row
        assert (model, trainings) == ("alexnet", 1)
        assert rwc in (0, 1) and pct == 100.0 * rwc
        assert isnan(torch_rwc) and isnan(torch_pct)

    def test_table6_max_trials(self, cache):
        spec = CampaignSpec(kind="table6", scale="smoke",
                            params={"frameworks": TWO_FRAMEWORKS,
                                    "model": "alexnet",
                                    "masks": [[3, "10001010"]]},
                            max_trials=1)
        result = run_experiment("table6", spec=spec, cache=cache)
        bits, mask, avg, nev, torch_avg, torch_nev = result.rows[1]
        assert (bits, mask) == (3, "10001010")
        assert nev in (0, 1) and (isnan(avg) == bool(nev))
        assert isnan(torch_avg) and isnan(torch_nev)


def test_spec_of_another_kind_is_rejected(cache):
    with pytest.raises(ValueError, match="cannot run as 'fig3'"):
        fig3.run(spec=CampaignSpec(kind="table5", scale="smoke"),
                 cache=cache)


def _recorded(tmp_path, name: str, work) -> list[dict]:
    log = str(tmp_path / f"{name}.jsonl")
    telemetry.configure(jsonl=log)
    try:
        work()
    finally:
        telemetry.shutdown()
    return telemetry.load_events(log)


def _spans(events, name):
    return [e for e in events if e.get("type") == "span"
            and e.get("name") == name]


def _epochs(events):
    return [e for e in events if e.get("type") == "event"
            and e.get("name") == "epoch"]


def test_inline_trial_emits_resume_training_telemetry(cache, tmp_path):
    """A sequential flip trial is a stacked chunk of one, yet its ``train``
    span and ``epoch`` events carry every attribute the unstacked
    ``resume_training`` emits — the telemetry report's final-acc and
    collapsed columns and the watch console's accuracy read them."""
    spec = SessionSpec("chainer_like", "alexnet", SMOKE)
    baseline = cache.get(spec)
    reference = _recorded(tmp_path, "reference", lambda: resume_training(
        spec, baseline.checkpoint_path, epochs=SMOKE.resume_epochs))
    tasks, _ = fig3.build_tasks(SMOKE, 42, [("chainer_like", "alexnet")],
                                (1,), 1, cache)
    events = _recorded(tmp_path, "trial",
                       lambda: run_campaign(tasks, batch_trials=1))

    [trial] = _spans(events, "trial")
    [train] = _spans(events, "train")
    assert train["parent_id"] == trial["span_id"]
    [ref_train] = _spans(reference, "train")
    assert set(ref_train["attrs"]) <= set(train["attrs"])
    epochs = _epochs(events)
    ref_epochs = _epochs(reference)
    assert len(epochs) == len(ref_epochs) == SMOKE.resume_epochs
    for event, ref in zip(epochs, ref_epochs):
        assert set(ref["attrs"]) <= set(event["attrs"])
        assert event["attrs"]["trial_id"] == tasks[0].trial_id

    [summary] = telemetry.CampaignTelemetry(events).trials()
    assert isinstance(summary.final_accuracy, float)
    assert isinstance(summary.collapsed, bool)


def test_stacked_chunk_emits_one_epoch_event_per_trial(cache, tmp_path):
    tasks, _ = fig3.build_tasks(SMOKE, 42, [("chainer_like", "alexnet")],
                                (1,), 3, cache)
    events = _recorded(tmp_path, "chunk",
                       lambda: run_campaign(tasks, batch_trials=3))
    [train] = _spans(events, "train")
    assert len(train["attrs"]["final_accuracy"]) == 3
    assert train["attrs"]["collapsed"] == [False] * 3
    stamped = [e["attrs"]["trial_id"] for e in _epochs(events)]
    assert sorted(stamped) == sorted(
        task.trial_id for task in tasks for _ in range(SMOKE.resume_epochs))


def test_in_process_trials_match_fresh_processes(cache):
    """Trials of one baseline in one process share its parsed structure
    and its dataset (built once per process); their outcomes equal those
    of fresh processes, one per trial, that build both themselves."""
    tasks, _ = fig3.build_tasks(SMOKE, 42, [("chainer_like", "alexnet")],
                                (10,), 2, cache)
    outcomes = {}
    for workers in (1, 2):
        # the pool forks its workers from this state: empty memos
        common._parse_structure.cache_clear()
        common._dataset.cache_clear()
        result = run_campaign(tasks, workers=workers, batch_trials=1)
        outcomes[workers] = sorted(
            json.dumps([r["trial_id"], r["status"], r["outcome"],
                        r["outcome_class"]], sort_keys=True)
            for r in result.record_dicts())
        if workers == 1:
            assert common._parse_structure.cache_info().misses == 1
            assert common._dataset.cache_info().misses == 1
    assert outcomes[1] == outcomes[2]
    assert all('"ok"' in line for line in outcomes[1])


def test_every_flip_kind_keeps_decorated_fork_entries():
    """``fork-safety`` finds the trial bodies a worker runs only through
    the ``@trial_kind`` / ``@batch_trial_kind`` decorators, so each flip
    kind must keep both — and the shared body must stay reachable from
    them."""
    graph = analyze_paths([str(SRC)]).graph
    entries = graph.fork_entries()
    for module in ("fig3_bitflip_rates", "table5_single_bitflip",
                   "table6_multibit_masks"):
        for entry in ("run_trial", "run_trial_batch"):
            assert f"repro.experiments.{module}.{entry}" in entries
    reached = graph.reachable_from(entries)
    assert "repro.experiments.fig3_bitflip_rates.run_flip_trials" in reached
    assert "repro.experiments.common.resume_training_batched" in reached


class TestRerunTrialProvenance:
    """A trial the runner runs again — a retry of a chunk of one, or a
    failed batched chunk's fallback to chunks of one — corrupts a fresh
    copy and emits its flips again.  Its provenance is its last attempt's
    flips, so a 1-flip trial stays a ``single`` atlas row and the
    propagation join counts one flip."""

    def _run(self, cache, tmp_path, monkeypatch, **spec_fields):
        resume = fig3.resume_training_batched
        calls = []

        def fails_first_call(*args, **kwargs):
            calls.append(len(calls))
            if len(calls) == 1:
                raise RuntimeError("first training pass fails")
            return resume(*args, **kwargs)

        monkeypatch.setattr(fig3, "resume_training_batched",
                            fails_first_call)
        spec = CampaignSpec(kind="fig3", scale="smoke",
                            params={"pairs": [["chainer_like", "alexnet"]],
                                    "bitflips": [1], "trainings": 2},
                            **spec_fields)
        journal = str(tmp_path / "fig3.jsonl")
        events = _recorded(tmp_path, "rerun", lambda: run_experiment(
            "fig3", spec=spec, cache=cache, journal=journal))
        assert len(calls) == 3
        store = AtlasStore(str(tmp_path / "atlas"))
        ingester = AtlasIngester(store)
        ingester.add_journal(journal,
                             telemetry_paths=(str(tmp_path / "rerun.jsonl"),))
        ingester.ingest()
        return store.load(), events

    def _assert_one_flip_per_trial(self, rows, events):
        assert len(rows["trial_id"]) == 2
        assert rows["mode"] == ["single", "single"]
        assert "?" not in rows["layer"]
        assert all(bit >= 0 for bit in rows["bit"])
        for trial_id in rows["trial_id"]:
            report = propagation_report(events, [], trial_id=trial_id)
            assert sum(report.flipped.values()) == 1, trial_id

    def test_retried_trial_counts_its_last_attempt(self, cache, tmp_path,
                                                   monkeypatch):
        rows, events = self._run(cache, tmp_path, monkeypatch,
                                 batch_trials=1)
        self._assert_one_flip_per_trial(rows, events)

    def test_fallback_trials_count_their_last_attempt(self, cache, tmp_path,
                                                      monkeypatch):
        rows, events = self._run(cache, tmp_path, monkeypatch,
                                 batch_trials=2)
        self._assert_one_flip_per_trial(rows, events)

    def test_telemetry_report_counts_the_last_attempt(self, cache, tmp_path,
                                                      monkeypatch):
        """The ``telemetry`` report's per-trial columns: a retried trial
        keeps one ``trial`` span over both attempts, yet reports its last
        attempt's one flip and its final accuracy."""
        _, events = self._run(cache, tmp_path, monkeypatch,
                              batch_trials=1)
        trials = telemetry.CampaignTelemetry(events).trials()
        assert sorted(t.attempts for t in trials) == [1, 2]
        for trial in trials:
            assert trial.flips == 1, trial
            assert trial.nev_introduced == 0, trial
            assert isinstance(trial.final_accuracy, float), trial
