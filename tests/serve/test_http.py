"""The HTTP front door: submit -> poll -> results round trips, cancel,
error statuses, and bit-identity with the direct campaign runner."""

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.serve.app import build_app_server
from repro.serve.client import ServeClient, ServeError
from repro.serve.scheduler import ServeWorker
from repro.serve.spec import CampaignSpec, run_spec
from repro.serve.store import CampaignStore

from . import kinds  # noqa: F401  (registers the serve_* kinds)

#: runtime-only record fields: everything else must be bit-identical
#: between HTTP-scheduled and directly-run campaigns.
RUNTIME_FIELDS = ("duration", "worker")


def stable(record: dict) -> dict:
    return {key: value for key, value in record.items()
            if key not in RUNTIME_FIELDS}


@pytest.fixture
def service(tmp_path):
    store = CampaignStore(str(tmp_path / "root"), max_active=2,
                          shard_size=2)
    server = build_app_server(store, 0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    client = ServeClient(f"http://{host}:{port}")
    yield store, client
    server.shutdown()
    server.server_close()


def drain(store):
    ServeWorker(store, owner="w", poll=0.01).run(drain=True)


class TestRoundTrip:
    def test_submit_poll_results(self, service):
        store, client = service
        spec = CampaignSpec(kind="serve_echo", seed=5,
                            params={"count": 5})
        submitted = client.submit(spec)
        cid = submitted["campaign_id"]
        assert submitted["status_url"].endswith(cid)

        assert client.status(cid)["state"] == "queued"
        drain(store)
        status = client.wait(cid, timeout=30)
        assert status["state"] == "done"
        assert (status["total"], status["ok"]) == (5, 5)

        records = list(client.results(cid))
        assert [r["trial_id"] for r in records] == \
            [f"serve_echo/5/{i}" for i in range(5)]
        assert [r["outcome"]["value"] for r in records] == \
            [i * 2 for i in range(5)]

    def test_http_records_bit_identical_to_direct_run(self, service,
                                                      tmp_path):
        """The acceptance criterion: POST /campaigns produces journal
        records bit-identical (modulo runtime fields) to run_spec on the
        same spec."""
        store, client = service
        spec = CampaignSpec(kind="serve_echo", seed=9,
                            params={"count": 6})

        direct_journal = str(tmp_path / "direct.jsonl")
        run_spec(spec, journal=direct_journal)
        with open(direct_journal, encoding="utf-8") as handle:
            direct = [json.loads(line) for line in handle]

        cid = client.submit(spec)["campaign_id"]
        drain(store)
        client.wait(cid, timeout=30)
        served = list(client.results(cid))

        assert [stable(r) for r in served] == [stable(r) for r in direct]
        # the stable part includes the classification and full payloads
        assert all(r["outcome_class"] for r in served)

    def test_served_spec_round_trips(self, service):
        store, client = service
        spec = CampaignSpec(kind="serve_echo", seed=2, priority=3,
                            params={"count": 1})
        cid = client.submit(spec)["campaign_id"]
        assert CampaignSpec.from_dict(client.spec(cid)) == spec

    def test_list_campaigns(self, service):
        store, client = service
        first = client.submit(
            CampaignSpec(kind="serve_echo", params={"count": 1}))
        listed = client.list_campaigns()
        assert [c["campaign_id"] for c in listed] == \
            [first["campaign_id"]]

    def test_dict_submission_is_deprecated_client_side(self, service):
        store, client = service
        payload = CampaignSpec(kind="serve_echo",
                               params={"count": 1}).to_dict()
        with pytest.warns(DeprecationWarning):
            client.submit(payload)


class TestCancel:
    def test_cancel_mid_campaign(self, service, tmp_path):
        store, client = service
        hold = tmp_path / "hold"
        hold.touch()
        spec = CampaignSpec(
            kind="serve_hold", seed=1,
            params={"count": 3, "hold_file": str(hold),
                    "hold_values": [0]})
        # shard_size=2 -> shard 0 holds trials {0, 1}, shard 1 holds {2}
        cid = client.submit(spec)["campaign_id"]

        stop = str(tmp_path / "stop")
        worker = ServeWorker(store, owner="w", poll=0.01)
        thread = threading.Thread(target=worker.run,
                                  kwargs={"stop_file": stop})
        thread.start()
        try:
            # wait until the plan exists and the worker is in shard 0
            deadline = time.monotonic() + 30
            while not client.status(cid)["planned"]:
                assert time.monotonic() < deadline
                time.sleep(0.02)
            cancelled = client.cancel(cid)
            assert cancelled["state"] == "cancelled"
            hold.unlink()  # unblock the in-flight shard
            status = client.wait(cid, timeout=30)
        finally:
            with open(stop, "w", encoding="utf-8"):
                pass
            thread.join(timeout=30)
        assert status["state"] == "cancelled"
        # the un-started shard was never claimed after the cancel
        assert status["done"] < status["total"]


class TestErrorStatuses:
    def test_unknown_campaign_404(self, service):
        _, client = service
        for call in (lambda: client.status("00099-ghost"),
                     lambda: list(client.results("00099-ghost")),
                     lambda: client.cancel("00099-ghost")):
            with pytest.raises(ServeError) as excinfo:
                call()
            assert excinfo.value.status == 404

    def test_invalid_spec_400(self, service):
        _, client = service
        with pytest.raises(ServeError) as excinfo:
            client.submit(CampaignSpec(kind="serve_echo").replace(
                kind="never_registered"))
        assert excinfo.value.status == 400
        assert "no plan builder" in str(excinfo.value)

    def test_mistyped_field_400(self, service):
        _, client = service
        request = urllib.request.Request(
            client.base_url + "/campaigns",
            data=json.dumps({"kind": "serve_echo",
                             "trial_timeout": "5"}).encode(),
            headers={"Content-Type": "application/json"}, method="POST")
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=5)
        assert excinfo.value.code == 400

    def test_garbage_body_400(self, service):
        _, client = service
        request = urllib.request.Request(
            client.base_url + "/campaigns", data=b"{not json",
            headers={"Content-Type": "application/json"}, method="POST")
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=5)
        assert excinfo.value.code == 400

    def test_backpressure_429(self, service):
        store, client = service  # max_active=2
        client.submit(CampaignSpec(kind="serve_echo", params={"count": 1}))
        client.submit(CampaignSpec(kind="serve_echo", params={"count": 1}))
        with pytest.raises(ServeError) as excinfo:
            client.submit(CampaignSpec(kind="serve_echo",
                                       params={"count": 1}))
        assert excinfo.value.status == 429

    def test_wrong_method_405(self, service):
        _, client = service
        cid = client.submit(CampaignSpec(kind="serve_echo",
                                         params={"count": 1}))["campaign_id"]
        request = urllib.request.Request(
            client.base_url + f"/campaigns/{cid}", data=b"{}",
            headers={"Content-Type": "application/json"}, method="POST")
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=5)
        assert excinfo.value.code == 405


class TestObservability:
    def test_metrics_exposition(self, service):
        store, client = service
        cid = client.submit(CampaignSpec(kind="serve_echo", seed=4,
                                         params={"count": 3}))["campaign_id"]
        drain(store)
        client.wait(cid, timeout=30)
        text = client.metrics()
        assert '# TYPE repro_serve_campaigns gauge' in text
        assert 'repro_serve_campaigns{state="done"} 1' in text
        assert (f'repro_serve_trials{{campaign="{cid}",status="ok"}} 3'
                in text)

    def test_health_root(self, service):
        _, client = service
        with urllib.request.urlopen(client.base_url + "/",
                                    timeout=5) as response:
            payload = json.loads(response.read())
        assert "campaigns" in payload
