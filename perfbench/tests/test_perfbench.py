"""The benchmark checks itself at shrunken sizes: two trials per plan
instead of sixteen, one round per mode."""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

import digest
import modes
import run
import tracing
from metrics import END_TO_END, LAYER_KINDS, PER_LAYER
from repro import telemetry
from repro.experiments.common import SCALES, SessionSpec, build_session_model
from repro.experiments.runner import run_campaign

from conftest import BENCH, ROOT

SMALL = 2


def _journal(tasks, path, **kwargs) -> list[dict]:
    run_campaign(tasks, journal=str(path), **kwargs)
    return digest.read_journal(str(path))


def _digest(records) -> str:
    return digest.digest(digest.trial_entry(r) for r in records)


def test_benchmark_json_names_every_metric_with_its_unit():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == set(modes.WORKLOADS) \
        == set(run.WORKLOAD_NAMES)
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_layer_kinds_cover_both_models():
    for name in ("inline-bs1", "pool2-cheap"):
        task = modes.build_plan(modes.WORKLOADS[name], 0, SMALL)[0]
        spec = task.payload["spec"]
        model = build_session_model(SessionSpec(
            spec["framework"], spec["model"], SCALES["smoke"]))
        assert {type(layer).__name__ for layer in model.layers()} <= \
            set(LAYER_KINDS)


@pytest.mark.parametrize("pair,modes_", [
    ("cheap", ({"workers": 1}, {"workers": 2})),
    ("bs1", ({"workers": 1}, {"batch_trials": 16})),
])
def test_cross_mode_digests_agree_and_seeds_differ(pair, modes_, tmp_path):
    workload = next(w for w in modes.WORKLOADS.values() if w.pair == pair)
    golden = digest.load_golden()
    digests = []
    for seed in (0, 1):
        tasks = modes.build_plan(workload, modes.plan_seed(seed, golden),
                                 SMALL)
        first, second = (
            _journal(tasks, tmp_path / f"{seed}-{i}.jsonl", **kwargs)
            for i, kwargs in enumerate(modes_))
        assert _digest(first) == _digest(second)
        digests.append(_digest(first))
    assert digests[0] != digests[1]


def test_default_seed_matches_the_committed_golden(tmp_path):
    golden = digest.load_golden()
    seed = modes.plan_seed(0, golden)
    for name in ("inline-bs1", "pool2-cheap"):
        workload = modes.WORKLOADS[name]
        tasks = modes.build_plan(workload, seed, SMALL)
        records = _journal(tasks, tmp_path / f"{name}.jsonl")
        assert digest.check_entries(
            records, golden[workload.pair][str(seed)]["trials"]) == []


def test_golden_tables_cover_each_pair_for_every_vetted_seed():
    golden = digest.load_golden()
    assert len(golden["seeds"]) >= 2
    for pair in ("bs1", "cheap"):
        for seed in golden["seeds"]:
            table = golden[pair][str(seed)]
            assert len(table["trials"]) == modes.PLAN_TRIALS


def test_a_tampered_journal_trips_the_digest_check(tmp_path):
    workload = modes.WORKLOADS["pool2-cheap"]
    golden = digest.load_golden()
    seed = modes.plan_seed(0, golden)
    tasks = modes.build_plan(workload, seed, SMALL)
    path = tmp_path / "round.jsonl"
    records = _journal(tasks, path)
    expected = golden[workload.pair][str(seed)]["trials"]
    assert digest.check_entries(records, expected) == []

    lines = path.read_text(encoding="utf-8").splitlines()
    record = json.loads(lines[0])
    record["outcome"]["curve"][-1] = math.nextafter(
        record["outcome"]["curve"][-1], 2.0)
    lines[0] = json.dumps(record, sort_keys=True)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    tampered = digest.read_journal(str(path))
    assert digest.check_entries(tampered, expected) == [record["trial_id"]]

    rnd = modes.Round(wall=1.0, expected=SMALL, records=tampered,
                      problems=[])
    check = modes.verify(workload, seed, [rnd], golden)
    assert not check["correct"]
    assert check["failed"] == 1


def test_traced_run_emits_every_layer_metric_and_accounts_for_wall(
        tmp_path):
    workload = modes.WORKLOADS["pool2-cheap"]
    tasks = modes.build_plan(workload, 3, SMALL)
    log = str(tmp_path / "events.jsonl")
    tracer = tracing.Tracer().install()
    try:
        telemetry.configure(jsonl=log)
        try:
            run_campaign(tasks, workers=2,
                         journal=str(tmp_path / "j.jsonl"))
        finally:
            telemetry.shutdown()
    finally:
        tracer.uninstall()
    stream = tracing.Stream(telemetry.load_events(log))
    metrics = tracing.per_layer(
        stream, tracing.Stream([]), trials=SMALL, campaigns=1, workers=2,
        wall=1.0,
        extra={"traced_trials_per_s": 1.0, "untraced_trials_per_s": 1.0})
    assert set(metrics) == set(PER_LAYER)
    assert all(math.isfinite(v) for v in metrics.values())
    assert metrics["runner.forks"] == 1
    assert metrics["injector.flips"] == 1000
    assert metrics["nn.fwd.Conv2D_s"] > 0
    by_name, unaccounted, wall = stream.self_times()
    assert {"train", "inject", "common.copy"} <= set(by_name)
    assert sum(by_name.values()) + unaccounted == pytest.approx(wall)


def test_run_prints_every_end_to_end_metric_with_a_unit():
    run = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload",
         "pool2-cheap", "--seed", "4", "--seconds", "0.1", "--trace", "0"],
        capture_output=True, text=True, cwd=ROOT, timeout=170)
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_run_fails_without_the_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "inline-bs1",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60)
    assert run.returncode != 0
    assert run.stdout.strip() == ""
