"""The live campaign watcher: tailing, snapshots, rendering, --serve."""

import json
import threading
import urllib.request

import pytest

from repro.durable import JsonlTail
from repro.experiments.cli import main
from repro.experiments.watch import (
    CampaignWatch,
    build_server,
    render_frame,
)


def record(trial_id, status="ok", outcome_class="masked", attempts=1,
           timed_out=False, **outcome):
    return {"trial_id": trial_id, "kind": "t", "status": status,
            "attempts": attempts, "timed_out": timed_out,
            "outcome_class": outcome_class,
            "outcome": outcome or {"finals": [0.5]}}


def write_journal(path, records, torn_tail=None):
    with open(path, "w", encoding="utf-8") as handle:
        for entry in records:
            handle.write(json.dumps(entry) + "\n")
        if torn_tail is not None:
            handle.write(torn_tail)


class TestJsonlTail:
    def test_incremental_poll(self, tmp_path):
        path = tmp_path / "j.jsonl"
        write_journal(path, [record("a")])
        tail = JsonlTail(str(path))
        assert [r["trial_id"] for r in tail.poll()] == ["a"]
        assert tail.poll() == []  # nothing new
        with open(path, "a") as handle:
            handle.write(json.dumps(record("b")) + "\n")
        assert [r["trial_id"] for r in tail.poll()] == ["b"]

    def test_torn_final_line_buffered_until_complete(self, tmp_path):
        path = tmp_path / "j.jsonl"
        full = json.dumps(record("b"))
        write_journal(path, [record("a")], torn_tail=full[:10])
        tail = JsonlTail(str(path))
        assert [r["trial_id"] for r in tail.poll()] == ["a"]
        with open(path, "a") as handle:
            handle.write(full[10:] + "\n")
        assert [r["trial_id"] for r in tail.poll()] == ["b"]

    def test_truncation_resets_offset(self, tmp_path):
        path = tmp_path / "j.jsonl"
        write_journal(path, [record("a"), record("b")])
        tail = JsonlTail(str(path))
        assert len(tail.poll()) == 2
        write_journal(path, [record("c")])  # rotated: shorter file
        assert [r["trial_id"] for r in tail.poll()] == ["c"]

    def test_missing_file_yields_nothing(self, tmp_path):
        tail = JsonlTail(str(tmp_path / "absent.jsonl"))
        assert tail.poll() == []

    def test_garbage_lines_skipped(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text('not json\n' + json.dumps(record("a")) + "\n"
                        + "[1, 2]\n")
        assert [r["trial_id"] for r in JsonlTail(str(path)).poll()] == ["a"]


class TestCampaignWatch:
    def test_snapshot_counts(self, tmp_path):
        path = tmp_path / "j.jsonl"
        write_journal(path, [
            record("a", outcome_class="masked"),
            record("b", outcome_class="degraded", attempts=2),
            record("c", status="failed", outcome_class="crashed",
                   attempts=3, timed_out=True),
        ], torn_tail='{"trial_id": "torn')
        snapshot = CampaignWatch(str(path), total=5).poll()
        assert (snapshot.done, snapshot.ok, snapshot.failed) == (3, 2, 1)
        assert snapshot.outcomes == {"masked": 1, "degraded": 1,
                                     "crashed": 1}
        assert snapshot.retries == 3
        assert snapshot.timeouts == 1
        assert snapshot.in_flight == 2
        assert not snapshot.complete

    def test_complete_when_done_reaches_total(self, tmp_path):
        path = tmp_path / "j.jsonl"
        write_journal(path, [record("a"), record("b")])
        snapshot = CampaignWatch(str(path), total=2).poll()
        assert snapshot.complete
        assert snapshot.eta_seconds == 0.0

    def test_preclassifier_journals_fall_back(self, tmp_path):
        path = tmp_path / "j.jsonl"
        old_ok = {"trial_id": "a", "status": "ok",
                  "outcome": {"finals": [0.5]}}
        old_failed = {"trial_id": "b", "status": "failed", "outcome": None}
        write_journal(path, [old_ok, old_failed])
        snapshot = CampaignWatch(str(path)).poll()
        # the label rule: classify_trial_record(status, outcome)
        assert snapshot.outcomes == {"masked": 1, "crashed": 1}

    def test_total_from_campaign_span(self, tmp_path):
        journal = tmp_path / "j.jsonl"
        tele = tmp_path / "t.jsonl"
        write_journal(journal, [record("a")])
        tele.write_text(json.dumps({
            "type": "span", "name": "campaign", "pid": 1, "ts": 0.0,
            "dur": 1.0, "attrs": {"total": 7}}) + "\n")
        snapshot = CampaignWatch(str(journal), str(tele)).poll()
        assert snapshot.total == 7

    def test_health_summary_from_telemetry(self, tmp_path):
        journal = tmp_path / "j.jsonl"
        tele = tmp_path / "t.jsonl"
        write_journal(journal, [record("a")])
        tele.write_text(json.dumps({
            "type": "event", "name": "health", "pid": 1, "ts": 0.0,
            "attrs": {"epoch": 3, "nan_count": 2, "inf_count": 0,
                      "abs_max": 7.5, "layers": {"a/W": {}}}}) + "\n")
        snapshot = CampaignWatch(str(journal), str(tele)).poll()
        assert snapshot.health["epoch"] == 3
        assert snapshot.health["nan_count"] == 2
        assert "layers" not in snapshot.health  # frame keeps the rollup only

    def test_active_workers_from_trial_span_slots(self, tmp_path):
        """Pids outnumber a pool's workers (a failed attempt's worker is
        replaced, and each campaign forks its own pool); the worker count
        must come from the bounded pool slots, not raw pids."""
        import time as time_module

        journal = tmp_path / "j.jsonl"
        tele = tmp_path / "t.jsonl"
        write_journal(journal, [record("a")])
        now = time_module.time()
        events = []
        for index in range(10):  # 10 dead children, 2 pool slots
            events.append({"type": "span", "name": "trial",
                           "pid": 1000 + index, "ts": now, "dur": 0.1,
                           "attrs": {"worker": index % 2}})
            events.append({"type": "event", "name": "epoch",
                           "pid": 2000 + index, "ts": now,
                           "attrs": {"epoch": 1}})
        tele.write_text("".join(json.dumps(e) + "\n" for e in events))
        snapshot = CampaignWatch(str(journal), str(tele)).poll()
        assert snapshot.active_workers == 2

    def test_to_json_is_strict_json(self, tmp_path):
        """`/health` consumers may not accept literal NaN: non-finite
        floats are nulled."""
        journal = tmp_path / "j.jsonl"
        tele = tmp_path / "t.jsonl"
        write_journal(journal, [record("a")])
        tele.write_text(json.dumps({
            "type": "event", "name": "health", "pid": 1, "ts": 0.0,
            "attrs": {"epoch": 0, "nan_count": 0,
                      "update_l2": float("nan"), "layers": {}}}) + "\n")
        payload = CampaignWatch(str(journal), str(tele)).poll().to_json()
        text = json.dumps(payload, allow_nan=False)  # must not raise
        assert json.loads(text)["health"]["update_l2"] is None

    def test_snapshot_json_round_trips(self, tmp_path):
        path = tmp_path / "j.jsonl"
        write_journal(path, [record("a")])
        payload = CampaignWatch(str(path), total=2).poll().to_json()
        parsed = json.loads(json.dumps(payload))
        assert parsed["done"] == 1
        assert parsed["complete"] is False
        assert parsed["outcomes"] == {"masked": 1}


class TestRenderFrame:
    def test_frame_lines(self, tmp_path):
        path = tmp_path / "j.jsonl"
        write_journal(path, [record("a"), record("b",
                                                 outcome_class="collapsed")])
        frame = render_frame(CampaignWatch(str(path), total=4).poll())
        joined = "\n".join(frame)
        assert "2/4 done" in joined
        assert "masked 1" in joined
        assert "collapsed 1" in joined

    def test_complete_marker(self, tmp_path):
        path = tmp_path / "j.jsonl"
        write_journal(path, [record("a")])
        frame = render_frame(CampaignWatch(str(path), total=1).poll())
        assert any("campaign complete" in line for line in frame)


class TestServe:
    @pytest.fixture()
    def server(self, tmp_path):
        journal = tmp_path / "j.jsonl"
        write_journal(journal, [
            record("a", outcome_class="masked"),
            record("b", status="failed", outcome_class="crashed"),
        ])
        watch = CampaignWatch(str(journal), total=3)
        server = build_server(watch, 0)  # ephemeral port
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        yield server
        server.shutdown()
        server.server_close()

    def _get(self, server, path):
        host, port = server.server_address[:2]
        return urllib.request.urlopen(f"http://{host}:{port}{path}",
                                      timeout=5)

    def test_health_endpoint(self, server):
        payload = json.loads(self._get(server, "/health").read())
        assert payload["done"] == 2
        assert payload["outcomes"] == {"masked": 1, "crashed": 1}
        assert payload["total"] == 3

    def test_metrics_endpoint(self, server):
        body = self._get(server, "/metrics").read().decode()
        assert '# TYPE repro_campaign_outcomes counter' in body
        assert 'repro_campaign_outcomes{outcome="masked"} 1' in body
        assert 'repro_campaign_trials_done{status="failed"} 1' in body
        assert "repro_campaign_trials_total 3" in body

    def test_unknown_path_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as exc:
            self._get(server, "/nope")
        assert exc.value.code == 404


class TestWatchCli:
    def test_once_json(self, tmp_path, capsys):
        path = tmp_path / "j.jsonl"
        write_journal(path, [record("a"), record("b",
                                                 outcome_class="degraded")])
        assert main(["watch", str(path), "--once", "--json",
                     "--total", "2"]) == 0
        payload = json.loads(capsys.readouterr().out.strip())
        assert payload["done"] == 2
        assert payload["complete"] is True
        assert payload["outcomes"] == {"masked": 1, "degraded": 1}

    def test_once_frame(self, tmp_path, capsys):
        path = tmp_path / "j.jsonl"
        write_journal(path, [record("a")])
        assert main(["watch", str(path), "--once"]) == 0
        out = capsys.readouterr().out
        assert "1/? done" in out
        assert "masked 1" in out

    def test_serve_once(self, tmp_path, capsys):
        path = tmp_path / "j.jsonl"
        write_journal(path, [record("a")])
        assert main(["watch", str(path), "--once", "--json",
                     "--serve", "0"]) == 0
        err = capsys.readouterr().err
        assert "/metrics" in err  # announced the bound port


class TestJsonlTailOffsets:
    """poll_with_offsets: the byte positions the atlas keys its
    resumable chunk boundaries on."""

    def test_offsets_point_past_each_line(self, tmp_path):
        path = tmp_path / "j.jsonl"
        lines = [json.dumps(record(name)) for name in ("a", "b", "c")]
        path.write_text("".join(line + "\n" for line in lines))
        pairs = JsonlTail(str(path)).poll_with_offsets()
        expected, position = [], 0
        for line in lines:
            position += len(line) + 1
            expected.append(position)
        assert [offset for _, offset in pairs] == expected
        assert [r["trial_id"] for r, _ in pairs] == ["a", "b", "c"]

    def test_resume_from_reported_offset(self, tmp_path):
        path = tmp_path / "j.jsonl"
        write_journal(path, [record("a"), record("b"), record("c")])
        pairs = JsonlTail(str(path)).poll_with_offsets()
        # re-open at the offset just past "a": only b and c remain
        resumed = JsonlTail(str(path), offset=pairs[0][1])
        assert [r["trial_id"] for r, _ in resumed.poll_with_offsets()] == \
            ["b", "c"]
        assert [offset for _, offset in resumed.poll_with_offsets()] == []

    def test_torn_line_has_no_offset_until_complete(self, tmp_path):
        path = tmp_path / "j.jsonl"
        full = json.dumps(record("b"))
        write_journal(path, [record("a")], torn_tail=full[:10])
        tail = JsonlTail(str(path))
        pairs = tail.poll_with_offsets()
        assert [r["trial_id"] for r, _ in pairs] == ["a"]
        # consumed stops at the torn line's start, not EOF
        assert tail.consumed == pairs[0][1]
        with open(path, "a") as handle:
            handle.write(full[10:] + "\n")
        (pair,) = tail.poll_with_offsets()
        assert pair[0]["trial_id"] == "b"
        assert tail.consumed == pair[1]

    def test_poll_delegates_to_offset_variant(self, tmp_path):
        path = tmp_path / "j.jsonl"
        write_journal(path, [record("a"), record("b")])
        assert [r["trial_id"] for r in JsonlTail(str(path)).poll()] == \
            ["a", "b"]
