"""Campaign-level tests of the ported harnesses: parallel == sequential
determinism, resume-from-journal at the harness and CLI layers."""

import json
import os

import pytest

from repro.experiments import run_experiment
from repro.experiments.cli import main
from repro.experiments.common import BaselineCache
from repro.experiments.runner import Journal

FRAMEWORKS = ("chainer_like",)
MODELS = ("alexnet", "vgg16")


@pytest.fixture(scope="module")
def cache(tmp_path_factory):
    return BaselineCache(str(tmp_path_factory.mktemp("campaign_cache")))


class TestParallelEqualsSequential:
    def test_table5_bit_identical_rates(self, cache, tmp_path):
        """Acceptance: a smoke Table V campaign with workers=4 produces
        aggregate rates identical to the sequential run."""
        sequential = run_experiment(
            "table5", scale="smoke", cache=cache,
            frameworks=FRAMEWORKS, models=MODELS, workers=1,
        )
        parallel = run_experiment(
            "table5", scale="smoke", cache=cache,
            frameworks=FRAMEWORKS, models=MODELS, workers=4,
            journal=str(tmp_path / "t5.jsonl"),
        )
        assert parallel.rows == sequential.rows
        assert parallel.extra["campaign"]["workers"] == 4
        assert parallel.extra["campaign"]["failed"] == 0
        # every trial outcome is journaled bit-identically to what the
        # sequential path computed (not just the aggregates)
        records = Journal(str(tmp_path / "t5.jsonl")).load()
        assert len(records) == 2 * len(MODELS)  # smoke: 2 trainings/cell

    def test_fig3_bit_identical_curves(self, cache):
        kwargs = dict(scale="smoke", cache=cache,
                      pairs=(("chainer_like", "alexnet"),), bitflips=(1,))
        sequential = run_experiment("fig3", workers=1, **kwargs)
        for parallel in (run_experiment("fig3", workers=3, **kwargs),
                         run_experiment("fig3", workers=2, batch_trials=2,
                                        **kwargs)):
            assert parallel.extra["curves"] == sequential.extra["curves"]
            assert parallel.rows == sequential.rows

    def test_table6_bit_identical_rows(self, cache):
        kwargs = dict(scale="smoke", cache=cache,
                      frameworks=FRAMEWORKS, model="alexnet",
                      masks=((3, "10001010"),))
        sequential = run_experiment("table6", workers=1, **kwargs)
        parallel = run_experiment("table6", workers=3, **kwargs)
        assert parallel.rows == sequential.rows


class TestHarnessResume:
    def test_table5_resume_after_partial_journal(self, cache, tmp_path):
        """Acceptance: re-invoking with resume after a mid-campaign kill
        completes without re-executing journaled trials."""
        journal = str(tmp_path / "t5.jsonl")
        full = run_experiment(
            "table5", scale="smoke", cache=cache,
            frameworks=FRAMEWORKS, models=MODELS, workers=2,
            journal=journal,
        )
        records = Journal(journal).load()
        total = len(records)
        assert total == 2 * len(MODELS)

        # simulate a kill after the first trial: truncate the journal to one
        # complete record plus a torn half-written line
        lines = open(journal).readlines()
        with open(journal, "w") as handle:
            handle.write(lines[0])
            handle.write(lines[1][: len(lines[1]) // 2])

        resumed = run_experiment(
            "table5", scale="smoke", cache=cache,
            frameworks=FRAMEWORKS, models=MODELS, workers=2,
            journal=journal, resume=True,
        )
        assert resumed.rows == full.rows
        campaign = resumed.extra["campaign"]
        assert campaign["skipped"] == 1  # the surviving record was replayed
        assert campaign["executed"] == total - 1
        # the journal now holds every trial exactly once
        ids = [r.trial_id for r in Journal(journal).load()]
        assert len(ids) == total
        assert len(set(ids)) == total


@pytest.fixture(scope="module")
def cli_cache_dir(tmp_path_factory):
    # one on-disk cache for all CLI invocations: the full 3x3 smoke grid's
    # baselines train once, every later test hits the warm cache
    return str(tmp_path_factory.mktemp("cli_cache"))


class TestCLI:
    def test_workers_and_journal_flags(self, tmp_path, capsys, monkeypatch,
                                       cli_cache_dir):
        monkeypatch.setenv("REPRO_CACHE_DIR", cli_cache_dir)
        journal = str(tmp_path / "t5.jsonl")
        code = main(["run", "table5", "--scale", "smoke", "--workers", "2",
                     "--journal", journal])
        assert code == 0
        out = capsys.readouterr().out
        assert "Table V" in out
        assert "[campaign:" in out
        assert "trials/s" in out
        assert os.path.exists(journal)

    def test_cli_resume_reuses_journal(self, tmp_path, capsys, monkeypatch,
                                       cli_cache_dir):
        monkeypatch.setenv("REPRO_CACHE_DIR", cli_cache_dir)
        journal = str(tmp_path / "t5.jsonl")
        assert main(["run", "table5", "--scale", "smoke",
                     "--journal", journal]) == 0
        capsys.readouterr()
        assert main(["run", "table5", "--scale", "smoke",
                     "--journal", journal, "--resume"]) == 0
        out = capsys.readouterr().out
        # everything replayed from the journal, nothing re-executed
        assert "resumed=18" in out  # 3 frameworks x 3 models x 2 trainings

    def test_resume_without_journal_is_an_error(self, capsys):
        assert main(["run", "table5", "--scale", "smoke", "--resume"]) == 2
        assert "--resume requires --journal" in capsys.readouterr().err

    def test_campaign_flags_ignored_for_non_campaign_experiments(
            self, tmp_path, capsys, monkeypatch, cli_cache_dir):
        monkeypatch.setenv("REPRO_CACHE_DIR", cli_cache_dir)
        code = main(["run", "fig2", "--scale", "smoke", "--workers", "4"])
        assert code == 0
        assert "Fig 2" in capsys.readouterr().out

    def test_json_output_includes_campaign_stats(self, capsys, monkeypatch,
                                                 cli_cache_dir):
        monkeypatch.setenv("REPRO_CACHE_DIR", cli_cache_dir)
        assert main(["run", "table5", "--scale", "smoke", "--workers", "2",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["experiment_id"] == "table5"
        assert payload["campaign"]["workers"] == 2
        assert payload["campaign"]["total"] == 18
