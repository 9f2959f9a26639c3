"""Journal compatibility of ``batch_trials``: one ordinary record per trial.

A batched campaign must be indistinguishable in its journal from a
sequential one — same schema, same per-trial granularity, same resume
semantics.  That is what lets an operator mix modes freely: start a
campaign sequentially, ``kill -9`` it, resume it batched (or vice versa),
and aggregate the journal with the ordinary analysis helpers.
"""

from __future__ import annotations

import dataclasses
import json
import math

import pytest

from repro.analysis.campaign import CampaignStats
from repro.experiments import fig3_bitflip_rates as fig3
from repro.experiments.common import BaselineCache, get_scale
from repro.experiments.runner import Journal, TrialRecord, run_campaign

SMOKE = get_scale("smoke")
PAIR = (("chainer_like", "alexnet"),)


@pytest.fixture(scope="module")
def cache(tmp_path_factory):
    return BaselineCache(str(tmp_path_factory.mktemp("journal-cache")))


@pytest.fixture(scope="module")
def tasks(cache):
    built, _ = fig3.build_tasks(SMOKE, 42, PAIR, (1, 10),
                                SMOKE.curve_trainings, cache)
    return built


def outcomes_equal(a: dict, b: dict) -> bool:
    def feq(x, y):
        if isinstance(x, float) and isinstance(y, float):
            return (math.isnan(x) and math.isnan(y)) or x == y
        if isinstance(x, list) and isinstance(y, list):
            return len(x) == len(y) and all(feq(i, j) for i, j in zip(x, y))
        return x == y
    return list(a) == list(b) and all(feq(a[k], b[k]) for k in a)


class TestRecordSchema:
    def test_one_record_per_trial_same_schema(self, tasks, tmp_path):
        """A batched journal has exactly one record per trial, field-for-
        field the same schema as a sequential journal's."""
        seq_journal = Journal(str(tmp_path / "seq.jsonl"))
        bat_journal = Journal(str(tmp_path / "bat.jsonl"))
        run_campaign(tasks, journal=seq_journal, batch_trials=1)
        run_campaign(tasks, journal=bat_journal, batch_trials=3)

        seq_records = seq_journal.load()
        bat_records = bat_journal.load()
        assert len(bat_records) == len(seq_records) == len(tasks)
        field_names = [f.name for f in dataclasses.fields(TrialRecord)]
        for seq, bat in zip(sorted(seq_records, key=lambda r: r.trial_id),
                            sorted(bat_records, key=lambda r: r.trial_id)):
            assert bat.trial_id == seq.trial_id
            assert bat.kind == seq.kind
            assert bat.status == seq.status == "ok"
            assert bat.outcome_class == seq.outcome_class
            assert bat.payload == seq.payload
            assert outcomes_equal(bat.outcome, seq.outcome)
            for record in (seq, bat):
                assert list(dataclasses.asdict(record)) == field_names

    def test_journal_lines_are_plain_json(self, tasks, tmp_path):
        journal = Journal(str(tmp_path / "bat.jsonl"))
        run_campaign(tasks, journal=journal, batch_trials=4)
        with open(journal.path, encoding="utf-8") as handle:
            for line in handle:
                record = json.loads(line)
                assert record["status"] == "ok"
                assert record["attempts"] == 1


class TestResume:
    def test_resume_after_kill_reruns_only_incomplete(self, tasks, tmp_path):
        """``kill -9`` mid-batch leaves complete records for finished trials
        (every append is fsynced); a batched resume re-runs only the rest."""
        journal = Journal(str(tmp_path / "resume.jsonl"))
        run_campaign(tasks, journal=journal, batch_trials=3)
        with open(journal.path, encoding="utf-8") as handle:
            lines = handle.readlines()

        # keep 2 complete records plus a torn half-written third — the
        # on-disk state an fsynced journal can be left in by SIGKILL
        survivors = 2
        with open(journal.path, "w", encoding="utf-8") as handle:
            handle.writelines(lines[:survivors])
            handle.write(lines[survivors][: len(lines[survivors]) // 2])

        result = run_campaign(tasks, journal=journal, resume=True,
                              batch_trials=3)
        assert result.stats.skipped == survivors
        assert result.stats.executed == len(tasks) - survivors
        assert result.stats.failed == 0
        # the journal now holds every trial exactly once
        assert {r.trial_id for r in journal.load()} == \
            {t.trial_id for t in tasks}

    def test_sequential_journal_resumes_batched(self, tasks, tmp_path):
        """Mode mixing: a campaign started sequentially finishes batched
        with identical per-trial outcomes."""
        journal = Journal(str(tmp_path / "mixed.jsonl"))
        half = len(tasks) // 2
        run_campaign(tasks[:half], journal=journal, batch_trials=1)
        result = run_campaign(tasks, journal=journal, resume=True,
                              batch_trials=4)
        assert result.stats.skipped == half
        assert result.stats.executed == len(tasks) - half

        oracle = run_campaign(tasks, batch_trials=1)
        for mixed, seq in zip(result.records, oracle.records):
            assert mixed.trial_id == seq.trial_id
            assert outcomes_equal(mixed.outcome, seq.outcome)


class TestStats:
    def test_stats_round_trip_mixed_journal(self, tasks, tmp_path):
        """``CampaignStats.from_dict`` round-trips the archived stats of a
        mixed batched/sequential campaign."""
        journal = Journal(str(tmp_path / "stats.jsonl"))
        run_campaign(tasks[:2], journal=journal, batch_trials=1)
        result = run_campaign(tasks, journal=journal, resume=True,
                              batch_trials=3)
        payload = result.stats.as_dict()
        rebuilt = CampaignStats.from_dict(json.loads(json.dumps(payload)))
        round_tripped = rebuilt.as_dict()
        # trials_per_second is derived from the (rounded) wall_time rather
        # than stored, so it only round-trips to rounding precision
        assert round_tripped.pop("trials_per_second") == pytest.approx(
            payload.pop("trials_per_second"), rel=1e-2)
        assert round_tripped == payload
        assert rebuilt.total == len(tasks)
        assert rebuilt.ok == len(tasks)
        assert rebuilt.skipped == 2
