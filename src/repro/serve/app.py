"""The injection-as-a-service HTTP front door.

Routes (all JSON unless noted)::

    POST /campaigns               submit a CampaignSpec document
    GET  /campaigns               list campaigns with status rollups
    GET  /campaigns/{id}          one campaign's status/progress rollup
    GET  /campaigns/{id}/spec     the spec as submitted
    GET  /campaigns/{id}/results  the journal records, streamed JSONL
    GET  /campaigns/{id}/trace    merged cross-worker telemetry: Chrome
                                  trace JSON (default), raw merged events
                                  (?format=events), or a summary with the
                                  trace id and per-trial span index
                                  (?format=summary)
    POST /campaigns/{id}/cancel   stop scheduling the campaign's shards
    GET  /atlas                   sensitivity-atlas summary (rows, sources,
                                  store fingerprint); refreshed on read
    GET  /atlas/surface           a sensitivity surface as JSON
                                  (?x=layer&y=bit&outcome=degraded, plus
                                  any dimension as an equality filter)
    GET  /atlas/heatmap.html      the same surface as a standalone HTML
                                  heatmap (inline SVG)
    GET  /metrics                 Prometheus text exposition (store +
                                  repro_fleet_* + repro_atlas_* rollups)
    GET  /health                  liveness + queue summary

The atlas endpoints serve the warehouse described in
:mod:`repro.atlas`: every request re-runs the offset-resumable ingest
over this store's journals (cheap — already-ingested bytes are skipped),
so the surfaces are live views of the campaigns as they execute.

Distributed tracing: a submit may carry a W3C-style ``traceparent``
header; the front door records it (or mints a fresh context) as the
campaign's one trace id, which every worker restores before opening
spans — see :mod:`repro.telemetry` and ``docs/observability.md``.

Built on the shared :mod:`repro.serve.httpd` router (the same plumbing
``repro-experiments watch --serve`` uses), over a
:class:`~repro.serve.store.CampaignStore` that any number of worker
processes — local or on other hosts sharing the root — drain
concurrently.
"""

from __future__ import annotations

from http.server import ThreadingHTTPServer

from ..atlas.query import DIMENSIONS, resolve_dimension
from ..atlas.render import surface_html
from ..atlas.service import AtlasService
from ..telemetry import TraceContext, TrialJoin, chrome_trace, read_events
from .httpd import (
    PROMETHEUS_CTYPE,
    Request,
    Response,
    Route,
    build_server,
    error_response,
    json_response,
    text_response,
)
from .spec import CampaignSpec
from .store import BacklogFull, CampaignStore, UnknownCampaign


class ServeApp:
    """Route handlers bound to one campaign store."""

    def __init__(self, store: CampaignStore,
                 atlas: AtlasService | None = None):
        self.store = store
        self.atlas = atlas or AtlasService(store.root)

    # -- handlers ----------------------------------------------------------

    def submit(self, request: Request) -> Response:
        # adopt the caller's distributed trace when it sent one; the
        # campaign is stamped with exactly one trace id either way
        trace = TraceContext.from_traceparent(request.header("traceparent"))
        try:
            spec = CampaignSpec.from_dict(request.json())
            campaign_id = self.store.submit(spec, trace=trace)
        except BacklogFull as exc:
            return error_response(429, str(exc))
        except ValueError as exc:
            return error_response(400, str(exc))
        stored = self.store.trace(campaign_id)
        return json_response({
            "campaign_id": campaign_id,
            "status_url": f"/campaigns/{campaign_id}",
            "results_url": f"/campaigns/{campaign_id}/results",
            "trace_id": stored.trace_id if stored is not None else None,
        }, status=201)

    def list_campaigns(self, request: Request) -> Response:
        return json_response({
            "campaigns": [self.store.status(cid)
                          for cid in self.store.list_campaigns()],
        })

    def status(self, request: Request) -> Response:
        try:
            return json_response(
                self.store.status(request.params["campaign_id"]))
        except UnknownCampaign:
            return self._unknown(request)

    def spec(self, request: Request) -> Response:
        try:
            return json_response(
                self.store.spec(request.params["campaign_id"]).to_dict())
        except UnknownCampaign:
            return self._unknown(request)

    def results(self, request: Request) -> Response:
        cid = request.params["campaign_id"]
        try:
            # the stream is lazy; probe eagerly so a bad id 404s instead
            # of dying after the 200 header is already on the wire
            self.store.spec(cid)
        except UnknownCampaign:
            return self._unknown(request)
        lines = self.store.results(cid)
        return Response(
            status=200,
            body=(line.encode("utf-8") for line in lines),
            content_type="application/x-ndjson",
        )

    def trace(self, request: Request) -> Response:
        """The campaign's merged cross-worker telemetry.

        Default is Chrome ``trace_event`` JSON (one track per worker
        process, host-disambiguated); ``?format=events`` returns the raw
        merged event list; ``?format=summary`` the trace id, source
        files, and per-trial span index the CI gate asserts on: each
        closed trial's ``trial`` span, or for a batched trial the
        ``trial_batch`` span it shares (:class:`repro.telemetry.TrialJoin`).
        """
        cid = request.params["campaign_id"]
        try:
            self.store.spec(cid)
        except UnknownCampaign:
            return self._unknown(request)
        sources = self.store.telemetry_paths(cid)
        events = [event for path in sources
                  for event in read_events(path)]
        fmt = (request.query.get("format") or ["chrome"])[0]
        if fmt == "events":
            return json_response({"events": events})
        if fmt == "summary":
            stored = self.store.trace(cid)
            return json_response({
                "campaign_id": cid,
                "trace_id": stored.trace_id if stored is not None else None,
                "trace_ids_observed": sorted(
                    {event["trace_id"] for event in events
                     if event.get("trace_id") is not None}),
                "sources": sources,
                "spans": sum(1 for event in events
                             if event.get("type") == "span"),
                "trials": TrialJoin().read(events).index(),
            })
        if fmt != "chrome":
            return error_response(
                400, f"unknown format {fmt!r} (chrome, events, summary)")
        return json_response(chrome_trace(events))

    def cancel(self, request: Request) -> Response:
        try:
            return json_response(
                self.store.cancel(request.params["campaign_id"]))
        except UnknownCampaign:
            return self._unknown(request)

    def metrics(self, request: Request) -> Response:
        return text_response(
            self.store.fleet_prometheus() + self.atlas.prometheus(),
            content_type=PROMETHEUS_CTYPE)

    # -- atlas -------------------------------------------------------------

    def _surface_from_query(self, request: Request):
        """The surface a ``/atlas/*`` request asks for (may raise
        ``ValueError`` for an unknown dimension)."""
        x = (request.query.get("x") or ["layer"])[0]
        y = (request.query.get("y") or ["bit"])[0]
        outcome = (request.query.get("outcome") or ["degraded"])[0]
        where = {}
        for name, values in request.query.items():
            if name in ("x", "y", "outcome") or not values:
                continue
            where[resolve_dimension(name)] = values[0]
        return self.atlas.surface(x, y, outcome=outcome,
                                  where=where or None)

    def atlas_summary(self, request: Request) -> Response:
        summary = self.atlas.summary()
        summary["dimensions"] = list(DIMENSIONS)
        return json_response(summary)

    def atlas_surface(self, request: Request) -> Response:
        try:
            return json_response(self._surface_from_query(request).to_json())
        except ValueError as exc:
            return error_response(400, str(exc))

    def atlas_heatmap(self, request: Request) -> Response:
        try:
            surface = self._surface_from_query(request)
        except ValueError as exc:
            return error_response(400, str(exc))
        return text_response(surface_html(surface),
                             content_type="text/html; charset=utf-8")

    def health(self, request: Request) -> Response:
        campaigns = self.store.list_campaigns()
        active = sum(
            1 for cid in campaigns
            if self.store.coarse_state(cid) not in
            ("done", "cancelled", "failed"))
        return json_response({
            "status": "ok",
            "campaigns": len(campaigns),
            "active": active,
            "max_active": self.store.max_active,
        })

    def _unknown(self, request: Request) -> Response:
        return error_response(
            404, f"unknown campaign {request.params.get('campaign_id')!r}")

    # -- wiring ------------------------------------------------------------

    def routes(self) -> list[Route]:
        return [
            Route("POST", "/campaigns", self.submit),
            Route("GET", "/campaigns", self.list_campaigns),
            Route("GET", "/campaigns/{campaign_id}", self.status),
            Route("GET", "/campaigns/{campaign_id}/spec", self.spec),
            Route("GET", "/campaigns/{campaign_id}/results", self.results),
            Route("GET", "/campaigns/{campaign_id}/trace", self.trace),
            Route("POST", "/campaigns/{campaign_id}/cancel", self.cancel),
            Route("GET", "/atlas", self.atlas_summary),
            Route("GET", "/atlas/surface", self.atlas_surface),
            Route("GET", "/atlas/heatmap.html", self.atlas_heatmap),
            Route("GET", "/metrics", self.metrics),
            Route("GET", "/health", self.health),
            Route("GET", "/", self.health),
        ]


def build_app_server(store: CampaignStore, port: int,
                     host: str = "127.0.0.1") -> ThreadingHTTPServer:
    """The front-door server (not yet serving; call ``serve_forever``)."""
    return build_server(ServeApp(store).routes(), port, host=host)
