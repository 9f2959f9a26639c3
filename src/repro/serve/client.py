"""A thin stdlib client for the :mod:`repro.serve` front door.

Used by the ``repro-experiments submit`` subcommand, the CI serve gate,
and tests; anything speaking HTTP+JSON (``curl`` included) is equally
first-class, since the client adds nothing beyond URL plumbing and JSON
(de)serialization.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from typing import Iterator

from ..telemetry import TraceContext, current_trace
from .spec import coerce_spec


class ServeError(RuntimeError):
    """A non-2xx response from the front door."""

    def __init__(self, status: int, message: str):
        super().__init__(f"HTTP {status}: {message}")
        self.status = status


class ServeClient:
    """HTTP client bound to one front-door base URL."""

    def __init__(self, base_url: str, timeout: float = 30.0):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    # -- plumbing ----------------------------------------------------------

    def _request(self, method: str, path: str, payload: dict | None = None,
                 headers: dict | None = None):
        body = None
        headers = dict(headers or {}, Accept="application/json")
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        request = urllib.request.Request(
            self.base_url + path, data=body, headers=headers, method=method)
        try:
            return urllib.request.urlopen(request, timeout=self.timeout)
        except urllib.error.HTTPError as exc:
            detail = exc.read().decode("utf-8", "replace")
            try:
                detail = json.loads(detail).get("error", detail)
            except json.JSONDecodeError:
                pass
            raise ServeError(exc.code, detail) from None

    def _json(self, method: str, path: str, payload: dict | None = None,
              headers: dict | None = None) -> dict:
        with self._request(method, path, payload, headers) as response:
            return json.loads(response.read().decode("utf-8"))

    # -- API ---------------------------------------------------------------

    def submit(self, spec, trace: TraceContext | None = None) -> dict:
        """POST the spec; returns ``{"campaign_id", "trace_id", ...}``.

        *spec* must be a :class:`~repro.serve.spec.CampaignSpec`; a raw
        dict raises ``TypeError`` (build it with ``CampaignSpec.from_dict``).

        The submit carries a ``traceparent`` header — *trace* if given,
        else the calling process's ambient trace context, else a freshly
        minted one — so the campaign's spans on every worker share the
        submitter's trace id end to end.
        """
        trace = trace or current_trace() or TraceContext.new()
        return self._json("POST", "/campaigns", coerce_spec(spec).to_dict(),
                          headers={"traceparent": trace.to_traceparent()})

    def list_campaigns(self) -> list[dict]:
        return self._json("GET", "/campaigns")["campaigns"]

    def status(self, campaign_id: str) -> dict:
        return self._json("GET", f"/campaigns/{campaign_id}")

    def spec(self, campaign_id: str) -> dict:
        return self._json("GET", f"/campaigns/{campaign_id}/spec")

    def cancel(self, campaign_id: str) -> dict:
        return self._json("POST", f"/campaigns/{campaign_id}/cancel")

    def trace(self, campaign_id: str, format: str = "chrome") -> dict:
        """The campaign's merged cross-worker telemetry (``chrome``,
        ``events``, or ``summary`` — see the ``/trace`` endpoint)."""
        return self._json(
            "GET", f"/campaigns/{campaign_id}/trace?format={format}")

    def metrics(self) -> str:
        with self._request("GET", "/metrics") as response:
            return response.read().decode("utf-8")

    def results(self, campaign_id: str) -> Iterator[dict]:
        """The campaign's journal records, decoded from the JSONL stream."""
        with self._request("GET",
                           f"/campaigns/{campaign_id}/results") as response:
            for line in response:
                line = line.strip()
                if line:
                    yield json.loads(line)

    def wait(self, campaign_id: str, timeout: float = 600.0,
             poll: float = 0.5) -> dict:
        """Poll until the campaign reaches a terminal state; returns the
        final status rollup (raises ``TimeoutError`` otherwise)."""
        deadline = time.monotonic() + timeout
        while True:
            status = self.status(campaign_id)
            if status["state"] in ("done", "cancelled", "failed"):
                return status
            if time.monotonic() > deadline:
                raise TimeoutError(
                    f"campaign {campaign_id} still {status['state']} after "
                    f"{timeout}s ({status['done']}/{status['total']} trials)")
            time.sleep(poll)
