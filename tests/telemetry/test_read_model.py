"""One trial join for every reader: the same seeded 4-trial smoke fig3
plan run five ways gives the same per-trial rows to the telemetry report,
the atlas, the error-propagation filters and the serve ``/trace`` index,
and the same outcome counts to ``watch``, the store and the campaign
stats.  Frozen streams of the same kind of plan (written before the join
keyed on ``trial_id`` alone) pin the pool-mode outputs byte for byte."""

import json
import os
from dataclasses import asdict

import pytest

from repro import telemetry
from repro.analysis import propagation
from repro.analysis.campaign import CampaignStats
from repro.atlas.ingest import AtlasIngester
from repro.atlas.store import AtlasStore
from repro.experiments import fig3_bitflip_rates as fig3, runner
from repro.experiments.watch import CampaignWatch
from repro.serve.app import ServeApp
from repro.serve.httpd import Request
from repro.serve.scheduler import ServeWorker
from repro.serve.spec import CampaignSpec
from repro.serve.store import CampaignStore

DATA = os.path.join(os.path.dirname(__file__), "data")

#: the report fields that do not depend on how the trials were run
MODE_FREE = ("trial_id", "flips", "nev_introduced", "final_accuracy",
             "collapsed", "epochs", "status")

PARAMS = {"pairs": [["chainer_like", "alexnet"]], "bitflips": [1, 10]}


def spec(**overrides):
    return CampaignSpec(kind="fig3", scale="smoke", seed=0, params=PARAMS,
                        **overrides)


def read_all(paths):
    return [event for path in paths for event in telemetry.read_events(path)]


def local_run(root, name, *, workers=1, batch_trials=None):
    journal = os.path.join(root, f"{name}.journal.jsonl")
    stream = os.path.join(root, f"{name}.telemetry.jsonl")
    telemetry.configure(jsonl=stream)
    try:
        fig3.run(spec=spec(batch_trials=batch_trials), workers=workers,
                 journal=journal)
    finally:
        telemetry.shutdown()
    return {"journals": [journal], "streams": [stream], "store": None}


def served_run(root, name, *, batch_trials=None):
    store = CampaignStore(os.path.join(root, name), shard_size=4)
    cid = store.submit(spec(batch_trials=batch_trials))
    ServeWorker(store, owner="w", poll=0.01).run(drain=True)
    return {"journals": [store.shard_journal_path(cid, sid)
                         for sid in store.shard_ids(cid)],
            "streams": store.telemetry_paths(cid), "store": store,
            "cid": cid}


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    root = str(tmp_path_factory.mktemp("read_model"))
    with pytest.MonkeyPatch.context() as patch:
        # room for a stack of four, whatever this host has free
        patch.setattr(runner, "_free_memory", lambda: 1 << 40)
        telemetry.shutdown()
        out = {
            "default": local_run(root, "default"),
            "chunks-of-one": local_run(root, "chunks", batch_trials=1),
            "pool": local_run(root, "pool", workers=2),
            "served": served_run(root, "served"),
            "served-batched": served_run(root, "served4", batch_trials=4),
        }
    for run in out.values():
        run["records"] = [json.loads(line) for path in run["journals"]
                          for line in open(path, encoding="utf-8")]
        run["events"] = read_all(run["streams"])
        run["summary"] = telemetry.CampaignTelemetry(
            telemetry.decode_events(run["events"]))
    return out


def atlas_rows(tmp_path, journals, streams, *, store=None):
    atlas = AtlasStore(str(tmp_path))
    ingester = AtlasIngester(atlas)
    if store is not None:
        ingester.add_campaign_root(store.root)
    else:
        for path in journals:
            ingester.add_journal(path, campaign="oracle",
                                 telemetry_paths=tuple(streams))
    ingester.ingest()
    columns = atlas.load()
    names = sorted(columns)
    rows = [{name: columns[name][i] for name in names}
            for i in range(atlas.row_count())]
    for row in rows:
        for name, value in row.items():
            row[name] = value.item() if hasattr(value, "item") else value
    return sorted(rows, key=lambda row: row["trial_id"]), atlas


def mode_free(rows):
    return sorted(({name: row[name] for name in MODE_FREE} for row in rows),
                  key=lambda row: row["trial_id"])


def test_every_journaled_trial_reaches_every_reader(runs, tmp_path):
    for mode, run in runs.items():
        journaled = {record["trial_id"] for record in run["records"]}
        assert len(journaled) == 4, mode
        assert journaled == run["summary"].closed_trial_ids(), mode
        rows, _ = atlas_rows(tmp_path / mode, run["journals"],
                             run["streams"], store=run["store"])
        assert {row["trial_id"] for row in rows} == journaled, mode
        if run["store"] is not None:
            response = ServeApp(run["store"]).trace(Request(
                "GET", "/", params={"campaign_id": run["cid"]},
                query={"format": ["summary"]}))
            body = response.body
            if not isinstance(body, (bytes, str)):
                body = b"".join(body)
            index = json.loads(body)["trials"]
            assert set(index) == journaled, mode


def test_batched_runs_are_batched(runs):
    for mode in ("default", "served-batched"):
        sizes = [span["attrs"]["size"] for span in runs[mode]["summary"].spans
                 if span["name"] == "trial_batch"]
        assert sizes == [4], (mode, sizes)


def test_mode_free_rows_agree(runs, tmp_path):
    reference = None
    for mode, run in runs.items():
        rows = [asdict(trial) for trial in run["summary"].trials()]
        atlas, _ = atlas_rows(tmp_path / mode, run["journals"],
                              run["streams"], store=run["store"])
        for row in atlas:
            del row["duration"], row["campaign"]
        layers = {trial_id: propagation.flipped_layers(
            run["events"], trial_id=trial_id)
            for trial_id in sorted(row["trial_id"] for row in rows)}
        seen = (mode_free(rows), atlas, layers)
        assert all(layers.values()), mode
        if reference is None:
            reference = seen
        assert seen == reference, mode


def test_outcome_counts_agree(runs):
    for mode, run in runs.items():
        stats = CampaignStats.from_records(run["records"], wall_time=1.0)
        counts = {**stats.outcomes, **stats.other_outcomes}
        assert sum(counts.values()) == 4, mode
        for journal in run["journals"]:
            assert CampaignWatch(journal).poll().outcomes == counts, mode
        if run["store"] is not None:
            assert run["store"].status(run["cid"])["outcomes"] == counts


def test_each_row_has_a_status_and_a_duration(runs):
    for mode, run in runs.items():
        summary = run["summary"]
        batches = {span["span_id"]: span for span in summary.spans
                   if span["name"] == "trial_batch"}
        rendered = summary.render(top=4)
        for trial in summary.trials():
            assert trial.status == "ok" and trial.duration > 0, mode
            batch = batches.get(trial.span_id)
            if batch is not None:
                assert trial.duration == batch["dur"] / batch["attrs"]["size"]
                assert f"{trial.trial_id} (split of trial_batch)" in rendered
        assert bool(batches) == (
            "(split of trial_batch)" in rendered), mode


# -- frozen inputs ------------------------------------------------------------

def frozen(name):
    return (os.path.join(DATA, f"{name}.journal.jsonl"),
            os.path.join(DATA, f"{name}.telemetry.jsonl"))


def test_frozen_pool_pair_reproduces_its_outputs(tmp_path):
    with open(os.path.join(DATA, "pool.parent.json"),
              encoding="utf-8") as handle:
        expected = json.load(handle)
    journal, stream = frozen("pool")
    summary = telemetry.CampaignTelemetry.from_file(stream)
    assert [asdict(trial) for trial in summary.trials()] == expected["trials"]
    rows, atlas = atlas_rows(tmp_path, [journal], [stream])
    for row in rows:
        row["campaign"] = "frozen"
    assert rows == sorted(expected["atlas_rows"],
                          key=lambda row: row["trial_id"])


def test_frozen_batched_pair_gives_the_pool_rows(tmp_path):
    pool = telemetry.CampaignTelemetry.from_file(frozen("pool")[1])
    batched = telemetry.CampaignTelemetry.from_file(frozen("batched")[1])
    rows = [asdict(trial) for trial in batched.trials()]
    assert len(rows) == 4
    assert mode_free(rows) == mode_free(asdict(t) for t in pool.trials())
    pool_rows, _ = atlas_rows(tmp_path / "pool", *map(list, zip(
        frozen("pool"))))
    batched_rows, _ = atlas_rows(tmp_path / "batched", *map(list, zip(
        frozen("batched"))))
    for row in (*pool_rows, *batched_rows):
        del row["duration"]
    assert batched_rows == pool_rows
