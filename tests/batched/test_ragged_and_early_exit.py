"""Ragged tails, all-crash batches, and early-exit pruning.

The chunking edge cases of ``batch_trials``: campaign sizes that do not
divide by the batch size, chunks whose batched executor dies outright, and
batches that lose trials (or every trial) to collapse mid-training.
"""

from __future__ import annotations

import os

import pytest

from repro.experiments import fig3_bitflip_rates as fig3
from repro.experiments.common import (
    BaselineCache,
    SessionSpec,
    get_scale,
    resume_training,
    resume_training_batched,
)
from repro.experiments.runner import (
    TrialTask,
    batch_trial_kind,
    run_campaign,
    trial_kind,
)

from .oracle import COLLAPSE_RECIPE, corrupt_trial_copy, feq

SMOKE = get_scale("smoke")

#: chunk sizes seen by the synthetic batch executor, reset per test
CHUNK_LOG: list[list[int]] = []


@trial_kind("synthetic-double")
def _double(payload: dict) -> dict:
    return {"doubled": payload["value"] * 2}


@batch_trial_kind("synthetic-double",
                  group_key=lambda payload: payload["group"])
def _double_batch(payloads: list[dict]) -> list[dict]:
    CHUNK_LOG.append([p["value"] for p in payloads])
    # the chunk size rides on the outcome too: a forked chunk's CHUNK_LOG
    # entry stays in its child process
    return [{"doubled": p["value"] * 2, "chunk": len(payloads)}
            for p in payloads]


@trial_kind("synthetic-fragile")
def _fragile(payload: dict) -> dict:
    return {"value": payload["value"]}


@batch_trial_kind("synthetic-fragile",
                  group_key=lambda payload: payload["group"])
def _fragile_batch(payloads: list[dict]) -> list[dict]:
    raise RuntimeError("whole batch crashed")


@trial_kind("synthetic-exiting")
def _exiting(payload: dict) -> dict:
    return {"value": payload["value"]}


@batch_trial_kind("synthetic-exiting",
                  group_key=lambda payload: payload["group"])
def _exiting_batch(payloads: list[dict]) -> list[dict]:
    os._exit(3)  # a worker that dies mid-chunk: no exception, no result


@trial_kind("synthetic-plain")
def _plain(payload: dict) -> dict:
    return {"plain": payload["value"]}


def make_tasks(kind: str, count: int, group: str = "g") -> list[TrialTask]:
    return [TrialTask(trial_id=f"{kind}/{group}/{i}", kind=kind,
                      payload={"value": i, "group": group})
            for i in range(count)]


class TestChunking:
    def test_ragged_tail_is_a_smaller_chunk(self):
        """7 trials at batch 3 -> chunks of 3, 3, 1; every outcome intact."""
        CHUNK_LOG.clear()
        result = run_campaign(make_tasks("synthetic-double", 7),
                              batch_trials=3)
        assert [len(chunk) for chunk in CHUNK_LOG] == [3, 3, 1]
        assert [r.outcome["doubled"] for r in result.records] == \
            [0, 2, 4, 6, 8, 10, 12]

    def test_groups_never_share_a_chunk(self):
        """Trials of different group keys may not be co-trained, even when
        merging them would fill chunks better."""
        CHUNK_LOG.clear()
        tasks = (make_tasks("synthetic-double", 2, group="a")
                 + make_tasks("synthetic-double", 2, group="b"))
        run_campaign(tasks, batch_trials=4)
        assert sorted(CHUNK_LOG) == [[0, 1], [0, 1]]

    def test_kinds_without_batch_impl_run_inline(self):
        tasks = make_tasks("synthetic-plain", 3)
        result = run_campaign(tasks, batch_trials=2)
        assert [r.outcome["plain"] for r in result.records] == [0, 1, 2]
        assert all(r.status == "ok" for r in result.records)

    def test_batch_trials_rejects_trial_timeout(self):
        with pytest.raises(ValueError, match="trial_timeout"):
            run_campaign([], trial_timeout=1.0, batch_trials=2)

    def test_pool_workers_run_whole_chunks(self):
        """Forked workers run the chunks the inline path would: 7 trials
        at batch 3 over two workers -> chunks of 3, 3, 1."""
        result = run_campaign(make_tasks("synthetic-double", 7),
                              workers=2, batch_trials=3)
        assert [r.outcome["chunk"] for r in result.records] == \
            [3, 3, 3, 3, 3, 3, 1]
        assert [r.outcome["doubled"] for r in result.records] == \
            [0, 2, 4, 6, 8, 10, 12]

    def test_pool_groups_never_share_a_chunk(self):
        tasks = (make_tasks("synthetic-double", 2, group="a")
                 + make_tasks("synthetic-double", 2, group="b"))
        result = run_campaign(tasks, workers=2, batch_trials=4)
        assert [r.outcome["chunk"] for r in result.records] == [2, 2, 2, 2]


class TestAllCrashBatch:
    def test_crashing_batch_falls_back_to_sequential(self):
        """A batch executor that dies loses nothing: its chunk re-runs
        through the inline path and every trial still succeeds."""
        result = run_campaign(make_tasks("synthetic-fragile", 5),
                              batch_trials=5)
        assert all(r.status == "ok" for r in result.records)
        assert [r.outcome["value"] for r in result.records] == [0, 1, 2, 3, 4]

    def test_dead_forked_batch_falls_back_to_chunks_of_one(self):
        """A chunk whose forked worker dies outright re-runs one trial per
        fork, and every trial still succeeds on its first attempt."""
        result = run_campaign(make_tasks("synthetic-exiting", 5),
                              workers=2, batch_trials=3)
        assert [r.status for r in result.records] == ["ok"] * 5
        assert [r.outcome["value"] for r in result.records] == \
            [0, 1, 2, 3, 4]
        assert [r.attempts for r in result.records] == [1] * 5

    def test_fallback_journals_once_per_trial(self, tmp_path):
        journal_path = str(tmp_path / "fallback.jsonl")
        run_campaign(make_tasks("synthetic-fragile", 4),
                     journal=journal_path, batch_trials=2)
        from repro.experiments.runner import Journal
        records = Journal(journal_path).load()
        assert sorted(r.trial_id for r in records) == \
            sorted(f"synthetic-fragile/g/{i}" for i in range(4))


class TestEarlyExit:
    @pytest.fixture(scope="class")
    def cache(self, tmp_path_factory):
        return BaselineCache(str(tmp_path_factory.mktemp("early-exit")))

    def test_all_collapse_batch_exits_early(self, cache, tmp_path):
        """Every trial collapsing ends the stacked run at the first epoch in
        both paths — and the batched curves still match sequential."""
        spec = SessionSpec("chainer_like", "alexnet", SMOKE)
        baseline = cache.get(spec)
        paths = [corrupt_trial_copy(spec, baseline.checkpoint_path,
                                    str(tmp_path), i, seed=900 + i,
                                    **COLLAPSE_RECIPE)
                 for i in range(3)]
        sequential = [resume_training(spec, p,
                                      epochs=spec.scale.resume_epochs)
                      for p in paths]
        batched = resume_training_batched(spec, paths,
                                          epochs=spec.scale.resume_epochs)
        assert all(o.collapsed for o in sequential), (
            "collapse recipe failed; this case no longer covers the "
            "all-collapse early exit")
        for seq, bat in zip(sequential, batched):
            assert bat.collapsed
            assert feq(seq.accuracy_curve, bat.accuracy_curve)

    def test_partial_collapse_does_not_perturb_survivors(self, cache,
                                                         tmp_path):
        """Campaign-level version of the prune invariant: a collapsing trial
        inside a fig3 chunk leaves its neighbours' outcomes bit-identical
        to the sequential campaign (fig3 trials never collapse at safe
        bits, so the bomb rides alongside as a bare resume)."""
        spec = SessionSpec("chainer_like", "alexnet", SMOKE)
        baseline = cache.get(spec)
        bomb = corrupt_trial_copy(spec, baseline.checkpoint_path,
                                  str(tmp_path), 99, seed=77,
                                  **COLLAPSE_RECIPE)
        safe = [corrupt_trial_copy(spec, baseline.checkpoint_path,
                                   str(tmp_path), i, seed=500 + i)
                for i in range(3)]
        paths = [safe[0], bomb, safe[1], safe[2]]
        sequential = [resume_training(spec, p,
                                      epochs=spec.scale.resume_epochs)
                      for p in paths]
        batched = resume_training_batched(spec, paths,
                                          epochs=spec.scale.resume_epochs)
        assert sequential[1].collapsed and batched[1].collapsed
        for index in (0, 2, 3):
            assert not batched[index].collapsed
            assert feq(sequential[index].accuracy_curve,
                       batched[index].accuracy_curve), f"survivor {index}"
