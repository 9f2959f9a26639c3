"""What a forked trial worker inherits from its campaign parent: its share
of the BLAS threads, set before the fork, and every module it needs."""

import json
import os
import subprocess
import sys

import pytest

import repro
from repro import telemetry
from repro.experiments.cli import main
from repro.experiments.common import BaselineCache
from repro.experiments.runner import TrialTask, run_campaign, trial_kind
from repro.nn import blas
from repro.serve import CampaignSpec

needs_openblas = pytest.mark.skipif(blas.find_openblas() is None,
                                    reason="numpy has no OpenBLAS loaded")


@trial_kind("test_blas_threads")
def _report_threads(payload):
    return {"threads": blas.num_threads()}


def thread_tasks(n):
    return [TrialTask(trial_id=f"threads/{i}", kind="test_blas_threads",
                      payload={}) for i in range(n)]


def share(processes):
    """The count a child of a *processes*-wide pool should run with."""
    budget = max(1, len(os.sched_getaffinity(0)) // processes)
    return min(blas.num_threads(), budget)


@pytest.fixture
def campaign_spans():
    sink = telemetry.InMemorySink()
    telemetry.configure(sink)
    yield lambda: sink.spans("campaign")
    telemetry.shutdown()


@needs_openblas
def test_pool_children_inherit_their_share(campaign_spans):
    before, expected = blas.num_threads(), share(2)
    result = run_campaign(thread_tasks(4), workers=2)
    assert [r.outcome["threads"] for r in result.records] == [expected] * 4
    (span,) = campaign_spans()
    assert span["attrs"]["blas_threads"] == expected
    assert blas.num_threads() == before  # the parent's count is restored


@needs_openblas
def test_inline_campaign_leaves_count_alone(campaign_spans):
    before = blas.num_threads()
    result = run_campaign(thread_tasks(2), workers=1)
    assert [r.outcome["threads"] for r in result.records] == [before] * 2
    (span,) = campaign_spans()
    assert span["attrs"]["blas_threads"] == before


def test_campaign_runs_without_openblas(monkeypatch, campaign_spans):
    monkeypatch.setattr(blas, "find_openblas", lambda: None)
    result = run_campaign(thread_tasks(3), workers=2)
    assert result.stats.ok == 3
    assert [r.outcome["threads"] for r in result.records] == [None] * 3
    (span,) = campaign_spans()
    assert span["attrs"]["blas_threads"] is None


def _fake_serve_worker(root, *, owner, **_):
    with open(os.path.join(root, f"{owner}.threads"), "w") as handle:
        handle.write(json.dumps(blas.num_threads()))


def test_serve_splits_threads_before_forking(tmp_path, monkeypatch):
    """``serve --workers 2`` enters the budget for 2 processes, and its
    forked workers already run with the lowered count."""
    import repro.serve.scheduler as scheduler

    entered = []
    real_budget = blas.thread_budget

    def recording_budget(processes):
        entered.append(processes)
        return real_budget(processes)

    monkeypatch.setattr(blas, "thread_budget", recording_budget)
    monkeypatch.setattr(scheduler, "run_worker", _fake_serve_worker)
    root = tmp_path / "root"
    root.mkdir()
    (root / "stop").touch()  # the command returns as soon as it is up
    before = blas.num_threads()
    expected = None if before is None else share(2)
    assert main(["serve", "--root", str(root), "--workers", "2"]) == 0
    assert entered == [2]
    for index in range(2):
        seen = json.loads((root / f"worker-{index}.threads").read_text())
        assert seen == expected
    assert blas.num_threads() == before


CHILD_IMPORTS = r"""
import json, os, sys
from repro.experiments.runner import _dispatch_payload, get_trial_kind
from repro.serve import CampaignSpec

task = CampaignSpec.from_dict(json.loads(sys.argv[1])).build_tasks()[0]
before = set(sys.modules)
read, write = os.pipe()
pid = os.fork()
if pid == 0:
    try:
        get_trial_kind(task.kind)(_dispatch_payload(task))
        added = sorted(set(sys.modules) - before)
        os.write(write, json.dumps(added).encode())
    finally:
        os._exit(0)
os.close(write)
with os.fdopen(read) as handle:
    print(handle.read())
os.waitpid(pid, 0)
"""


def test_forked_trial_child_imports_nothing(tmp_path):
    """Every module a trial needs is imported before the fork, so no trial
    child pays for a first import (numpy 2 imports ``numpy.ma``, ``mmap``
    and ``numpy.random`` lazily on first use)."""
    spec = CampaignSpec(kind="fig3", scale="smoke", seed=0,
                        params={"pairs": [["chainer_like", "alexnet"]],
                                "bitflips": [1000], "trainings": 1})
    cache = tmp_path / "cache"
    spec.build_tasks(BaselineCache(str(cache)))  # a warm baseline cache
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = {**os.environ, "REPRO_CACHE_DIR": str(cache),
           "PYTHONPATH": os.pathsep.join(
               filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-c", CHILD_IMPORTS, json.dumps(spec.to_dict())],
        env=env, capture_output=True, text=True, timeout=300, check=True)
    assert json.loads(done.stdout) == []
