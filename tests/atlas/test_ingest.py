"""AtlasIngester: resumable ingest, the flip join, kill-9 recovery, and
the brute-force recount parity the acceptance gate demands."""

import json
import os
import random
import tracemalloc

from repro import telemetry
from repro.atlas.ingest import AtlasIngester, FlipSummary, derive_row, \
    flips_by_trial
from repro.atlas.query import surface
from repro.atlas.store import CHUNK_ROWS, MULTI, UNKNOWN, AtlasStore

from .conftest import flip_event, journal_record, write_jsonl


def build(tmp_path, name="atlas"):
    return AtlasStore(str(tmp_path / name))


def ingest_journal(store, journal, telemetry=()):
    ingester = AtlasIngester(store)
    ingester.add_journal(journal, campaign="camp",
                         telemetry_paths=tuple(telemetry))
    return ingester.ingest()


class TestDeriveRow:
    def test_joined_dimensions(self):
        record = journal_record(0, model="vgg", outcome_class="degraded")
        flips = [flip_event("trial/0", location="fc/W", bit_msb=5,
                            precision=64)["attrs"]]
        row = derive_row(record, "camp", FlipSummary.of(flips))
        assert row["layer"] == "fc/W"
        assert row["bit"] == 5
        assert row["precision"] == 64
        assert row["mode"] == "single"
        assert row["outcome"] == "degraded"
        assert row["model"] == "vgg"

    def test_multi_flip_collapses_to_sentinels(self):
        record = journal_record(0)
        flips = [flip_event("trial/0", location="a/W", bit_msb=1)["attrs"],
                 flip_event("trial/0", location="b/W", bit_msb=2)["attrs"]]
        row = derive_row(record, "camp", FlipSummary.of(flips))
        assert row["layer"] == "(multi)"
        assert row["bit"] == MULTI
        assert row["mode"] == "multi"

    def test_no_provenance_buckets_unknown(self):
        row = derive_row(journal_record(0, flips=1), "camp", FlipSummary())
        assert row["layer"] == "?"
        assert row["bit"] == UNKNOWN
        assert row["precision"] == UNKNOWN
        assert row["mode"] == "single"  # declared in the payload

    def test_failed_record_classifies_crashed(self):
        record = journal_record(0, status="failed")
        record["outcome_class"] = None
        assert derive_row(record, "camp", FlipSummary())["outcome"] == \
            "crashed"


class TestFlipJoin:
    def test_stamped_events_win(self):
        events = [flip_event("trial/1"), flip_event("trial/2"),
                  flip_event("trial/1", bit_msb=3)]
        grouped = flips_by_trial(events)
        assert set(grouped) == {"trial/1", "trial/2"}
        assert len(grouped["trial/1"]) == 2

    def test_unstamped_flip_under_a_trial_span_belongs_to_no_trial(self):
        # the trial_id attribute alone decides: no span parents are walked
        events = [
            {"type": "span", "name": "trial", "span_id": "s1",
             "parent_id": None, "attrs": {"trial_id": "trial/9"}},
            {"type": "span", "name": "inject.apply", "span_id": "s2",
             "parent_id": "s1", "attrs": {}},
            flip_event("ignored", stamped=False, span_id="s2"),
        ]
        assert flips_by_trial(events) == {}

    def test_last_attempt_flips_only(self):
        first = flip_event("trial/1", bit_msb=3)
        first["attrs"]["attempt_id"] = "a.1"
        retry = flip_event("trial/1", bit_msb=5)
        retry["attrs"]["attempt_id"] = "a.2"
        (summary,) = flips_by_trial([first, retry]).values()
        assert len(summary) == 1 and summary.bits == {5}

    def test_unattributable_flip_dropped(self):
        assert flips_by_trial([flip_event("x", stamped=False)]) == {}


class TestIngest:
    def test_brute_force_recount_parity(self, tmp_path, sample_journal):
        journal, telemetry_path, records = sample_journal
        store = build(tmp_path)
        stats = ingest_journal(store, journal, [telemetry_path])
        assert stats["rows"] == len(records)
        columns = store.load()
        result = surface(columns, "layer", "bit")
        # brute-force recount straight from the synthetic inputs
        brute: dict[tuple, list] = {}
        for i in range(len(records)):
            key = (f"conv{i % 3}/W", str(i % 4))
            brute.setdefault(key, []).append(i % 3 == 0)
        assert set(result.cells) == set(brute)
        for key, verdicts in brute.items():
            cell = result.cells[key]
            assert cell.trials == len(verdicts)
            assert cell.hits == sum(verdicts)
            assert cell.estimate.rate == sum(verdicts) / len(verdicts)
        # every trial in exactly one cell
        assert result.total_trials == len(records)

    def test_reingest_is_byte_identical(self, tmp_path, sample_journal):
        journal, telemetry_path, _ = sample_journal
        store = build(tmp_path)
        ingest_journal(store, journal, [telemetry_path])
        fingerprint = store.fingerprint()
        again = ingest_journal(AtlasStore(store.root), journal,
                               [telemetry_path])
        assert again["rows"] == 0
        assert AtlasStore(store.root).fingerprint() == fingerprint

    def test_incremental_equals_oneshot(self, tmp_path, sample_journal):
        journal, telemetry_path, records = sample_journal
        # one-shot reference
        oneshot = build(tmp_path, "oneshot")
        ingest_journal(oneshot, journal, [telemetry_path])
        # the same journal fed in three increments
        grown = str(tmp_path / "grown.jsonl")
        incremental = build(tmp_path, "incremental")
        with open(journal, encoding="utf-8") as handle:
            lines = handle.readlines()
        with open(grown, "w", encoding="utf-8") as handle:
            for cut in (8, 17, len(lines)):
                handle.seek(0)
                handle.truncate()
                handle.writelines(lines[:cut])
                handle.flush()
                ingest_journal(incremental, grown, [telemetry_path])
        # identical logical content (keys differ: journal basename)
        assert incremental.load()["trial_id"] == oneshot.load()["trial_id"]
        assert list(incremental.load()["bit"]) == list(oneshot.load()["bit"])

    def test_kill9_between_segment_and_catalog(self, tmp_path,
                                               sample_journal):
        journal, telemetry_path, _ = sample_journal
        reference = build(tmp_path, "reference")
        ingest_journal(reference, journal, [telemetry_path])
        # simulate the crash window: segments on disk, catalog never
        # written (the ingest died after commit_segment, before
        # write_catalog)
        crashed = build(tmp_path, "crashed")
        ingester = AtlasIngester(crashed)
        ingester.add_journal(journal, campaign="camp",
                             telemetry_paths=(telemetry_path,))
        original = AtlasStore.write_catalog
        AtlasStore.write_catalog = lambda self, catalog: None
        try:
            ingester.ingest()
        finally:
            AtlasStore.write_catalog = original
        assert not os.path.exists(crashed.catalog_path)
        # recovery run converges on the reference bytes
        ingest_journal(AtlasStore(crashed.root), journal, [telemetry_path])
        ref_names = reference.ordered_segments()
        assert AtlasStore(crashed.root).ordered_segments() == ref_names
        for name in ref_names:
            assert AtlasStore(crashed.root).segment_bytes(name) == \
                reference.segment_bytes(name)

    def test_torn_trailing_line_excluded_then_recovered(self, tmp_path):
        journal = str(tmp_path / "torn.jsonl")
        write_jsonl(journal, [journal_record(i) for i in range(3)])
        with open(journal, "a", encoding="utf-8") as handle:
            handle.write('{"trial_id": "trial/3", "status"')  # torn
        store = build(tmp_path)
        ingest_journal(store, journal)
        assert store.row_count() == 3
        # the torn line completes (with new records after it)
        with open(journal, "a", encoding="utf-8") as handle:
            handle.write(": \"ok\"}\n")
            handle.write(json.dumps(journal_record(4)) + "\n")
        ingest_journal(AtlasStore(store.root), journal)
        loaded = AtlasStore(store.root).load()
        assert loaded["trial_id"] == \
            ["trial/0", "trial/1", "trial/2", "trial/3", "trial/4"]

    def test_chunk_boundary_spill(self, tmp_path):
        count = CHUNK_ROWS + 7
        journal = str(tmp_path / "big.jsonl")
        write_jsonl(journal, [journal_record(i) for i in range(count)])
        store = build(tmp_path)
        ingest_journal(store, journal)
        assert store.row_count() == count
        assert len(store.ordered_segments()) == 2
        assert len(store.load()["trial_id"]) == count

    def test_campaign_root_walk(self, tmp_path):
        root = tmp_path / "serve-root"
        for cid in ("00001-fig3", "00002-table5"):
            campaign = root / "campaigns" / cid
            write_jsonl(str(campaign / "journals" / "shard-0000.jsonl"),
                        [journal_record(0), journal_record(1)])
            with open(campaign / "spec.json", "w", encoding="utf-8") as h:
                json.dump({"kind": "fig3"}, h)
        # a campaign dir without spec.json is skipped
        os.makedirs(root / "campaigns" / "junk", exist_ok=True)
        store = build(tmp_path)
        ingester = AtlasIngester(store)
        keys = ingester.add_campaign_root(str(root))
        assert keys == ["00001-fig3/shard-0000.jsonl",
                        "00002-table5/shard-0000.jsonl"]
        ingester.ingest()
        columns = store.load()
        assert sorted(set(columns["campaign"])) == \
            ["00001-fig3", "00002-table5"]
        assert len(columns["trial_id"]) == 4


def packed_flips(trial_id, locations, bits, *, attempt_id=None,
                 span_id=None) -> dict:
    """One injection's ``flips`` line, as the injector writes it."""
    attrs = {"location": list(locations), "flat_index": [7] * len(locations),
             "kind": ["bit_range"] * len(locations),
             "precision": [32] * len(locations), "bit_msb": list(bits),
             "old_value": [1.0] * len(locations),
             "new_value": [-1.0] * len(locations)}
    if trial_id is not None:
        attrs["trial_id"] = trial_id
    if attempt_id is not None:
        attrs["attempt_id"] = attempt_id
    return {"type": "event", "name": "flips", "pid": 1, "ts": 1.0,
            "span_id": span_id, "trace_id": "t", "attrs": attrs}


class TestColumnarIngest:
    def test_flips_lines_and_per_flip_lines_ingest_alike(self, tmp_path):
        """The same flips written as one ``flips`` line per injection and
        as the per-flip ``flip`` lines of older streams fold to the same
        store: stamped, a retried trial whose last attempt counts, and
        unstamped flips, which belong to no trial even inside a trial
        span."""
        events = [
            packed_flips("trial/0", ["conv0/W"], [3], attempt_id="a.1"),
            packed_flips("trial/1", ["conv0/W", "conv1/W", "fc/b"],
                         [1, 1, 9], attempt_id="a.2"),
            # trial/2 ran twice: the first attempt's three flips are
            # superseded by the second attempt's one
            packed_flips("trial/2", ["conv1/W", "conv2/W", "fc/W"],
                         [0, 5, 6], attempt_id="a.3"),
            packed_flips("trial/2", ["fc/W"], [4], attempt_id="a.4"),
            # unstamped: no trial, though it ran inside trial/3's span
            packed_flips(None, ["conv2/W"], [2], span_id="s2"),
            {"type": "span", "name": "inject.apply", "span_id": "s2",
             "parent_id": "s1", "attrs": {}},
            {"type": "span", "name": "trial", "span_id": "s1",
             "parent_id": None, "attrs": {"trial_id": "trial/3"}},
            # unattributable: dropped either way
            packed_flips(None, ["conv0/W"], [8], span_id="nowhere"),
        ]
        journal = str(tmp_path / "journals" / "run.jsonl")
        write_jsonl(journal, [journal_record(i) for i in range(5)])
        packed = str(tmp_path / "packed.jsonl")
        legacy = str(tmp_path / "legacy.jsonl")
        write_jsonl(packed, events)
        write_jsonl(legacy, telemetry.decode_events(events))
        with open(legacy, encoding="utf-8") as handle:
            assert sum(1 for _ in handle) == 12  # 10 flips, 2 spans

        stores = []
        for name, stream in (("packed", packed), ("legacy", legacy)):
            store = build(tmp_path, name)
            ingest_journal(store, journal, [stream])
            stores.append(store)
        assert stores[0].fingerprint() == stores[1].fingerprint()
        rows = stores[0].load()
        joined = dict(zip(rows["trial_id"],
                          zip(rows["mode"], rows["layer"], rows["bit"])))
        assert joined["trial/0"] == ("single", "conv0/W", 3)
        assert joined["trial/1"] == ("multi", "(multi)", MULTI)
        assert joined["trial/2"] == ("single", "fc/W", 4)
        assert joined["trial/3"] == ("single", "?", UNKNOWN)
        assert joined["trial/4"] == ("single", "?", UNKNOWN)

    def test_ingest_memory_is_per_trial_not_per_flip(self, tmp_path):
        """32 trials of 1000 flips each: the ingest folds each ``flips``
        line as it reads it.  Decoding them into per-flip events first
        peaked at about 27 MB under ``tracemalloc``; folding stays well
        under 1 MB."""
        rng = random.Random(0)
        journal = str(tmp_path / "journals" / "run.jsonl")
        stream = str(tmp_path / "telemetry.jsonl")
        write_jsonl(journal, [journal_record(i, flips=1000)
                              for i in range(32)])
        write_jsonl(stream, [
            packed_flips(f"trial/{i}",
                         [f"conv{rng.randrange(5)}/W" for _ in range(1000)],
                         [rng.randrange(2, 32) for _ in range(1000)],
                         attempt_id=f"a.{i}")
            for i in range(32)])
        store = build(tmp_path)
        tracemalloc.start()
        try:
            ingest_journal(store, journal, [stream])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20, peak
        assert set(store.load()["mode"]) == {"multi"}
