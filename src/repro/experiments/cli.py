"""Command-line entry point: ``repro-experiments run table4 --scale tiny``.

Campaign-capable experiments (see
:data:`repro.experiments.registry.CAMPAIGN_EXPERIMENTS`) additionally
accept ``--workers N`` to fan trials out over a process pool, ``--journal
PATH`` to record every trial to an append-only JSONL journal, and
``--resume`` to continue a killed campaign from that journal without
re-running completed trials::

    repro-experiments run table5 --scale tiny --workers 4 \\
        --journal /tmp/table5.jsonl
    # ...killed mid-run?  pick up where it left off:
    repro-experiments run table5 --scale tiny --workers 4 \\
        --journal /tmp/table5.jsonl --resume
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
import time
from dataclasses import asdict

from .. import telemetry
from ..analysis.campaign import CampaignStats
from ..atlas.cli import add_atlas_arguments, atlas_command
from ..serve.spec import CampaignSpec
from .common import SCALES
from .registry import CAMPAIGN_EXPERIMENTS, EXPERIMENTS, run_experiment
from .watch import (
    add_fleet_arguments,
    add_watch_arguments,
    fleet_command,
    non_positive,
    watch_command,
)

log = logging.getLogger("repro.experiments.cli")


def build_parser() -> argparse.ArgumentParser:
    """Argument parser for the list/run subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the paper's tables and figures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    lister = sub.add_parser("list", help="list available experiments")
    _ = lister

    runner = sub.add_parser("run", help="run one or more experiments")
    runner.add_argument("experiments", nargs="+",
                        help="experiment ids (or 'all')")
    runner.add_argument("--scale", choices=sorted(SCALES), default="tiny")
    runner.add_argument("--seed", type=int, default=42)
    runner.add_argument("--json", action="store_true",
                        help="emit machine-readable rows instead of tables")
    campaign = runner.add_argument_group(
        "campaign engine",
        f"only honored by {', '.join(sorted(CAMPAIGN_EXPERIMENTS))}",
    )
    campaign.add_argument("--workers", type=int, default=1,
                          help="trial processes (default 1: every chunk "
                               "in this process)")
    campaign.add_argument("--batch-trials", type=int, default=None,
                          metavar="N",
                          help="train up to N same-spec trials together in "
                               "one stacked pass (bit-identical per trial); "
                               "by default as many as fit memory with "
                               "--workers 1, else 1; 1 trains each trial "
                               "alone")
    campaign.add_argument("--journal", default=None, metavar="PATH",
                          help="append every trial to this JSONL journal "
                               "(suffixed per experiment when running "
                               "several)")
    campaign.add_argument("--resume", action="store_true",
                          help="skip trials already recorded in --journal")
    campaign.add_argument("--trial-timeout", type=float, default=None,
                          metavar="SECONDS",
                          help="kill and retry a trial attempt after this "
                               "long (a chunk's: this long per trial)")
    campaign.add_argument("--retries", type=int, default=1,
                          help="extra attempts before a trial is journaled "
                               "'failed' (default 1)")
    campaign.add_argument("--engine", choices=["scalar", "vectorized"],
                          default="vectorized",
                          help="injector apply path for each trial "
                               "(default vectorized)")
    campaign.add_argument("--health-probe", action="store_true",
                          help="snapshot per-layer numerical health each "
                               "epoch of every trial (emitted as 'health' "
                               "telemetry events; read-only, bit-identical)")
    campaign.add_argument("--validate-checkpoints", action="store_true",
                          help="structurally validate each corrupted "
                               "checkpoint post-injection and stamp the "
                               "error-finding count on its journal record")
    observability = runner.add_argument_group("observability")
    observability.add_argument(
        "--telemetry", default=None, metavar="PATH",
        help="record spans/metrics from every process to this JSONL stream",
    )
    observability.add_argument(
        "--verbosity", choices=sorted(telemetry.VERBOSITY_LEVELS),
        default="info", help="logging verbosity (default info)",
    )

    tele = sub.add_parser(
        "telemetry", help="summarize or export a recorded telemetry stream"
    )
    tele.add_argument("events", help="telemetry JSONL stream (from "
                                     "'run --telemetry')")
    tele.add_argument("--top", type=int, default=5,
                      help="slowest-trial rows to show (default 5)")
    tele.add_argument("--format", dest="format", default="text",
                      choices=["text", "prometheus", "chrome", "json"],
                      help="text breakdown, Prometheus exposition, Chrome "
                           "trace_event JSON, or a JSON summary")
    tele.add_argument("--output", default=None, metavar="PATH",
                      help="write to PATH instead of stdout")

    watcher = sub.add_parser(
        "watch", help="live-monitor a campaign journal (and telemetry "
                      "stream) from another terminal"
    )
    add_watch_arguments(watcher)

    fleet = sub.add_parser(
        "fleet", help="live fleet console over a 'serve' campaign root: "
                      "per-campaign/per-worker status, lease ages, stall "
                      "alerts"
    )
    add_fleet_arguments(fleet)

    server = sub.add_parser(
        "serve", help="run the campaign scheduler: shard store, worker "
                      "pool, and HTTP front door (POST /campaigns ...)"
    )
    server.add_argument("--root", required=True, metavar="DIR",
                        help="campaign store directory (the work queue; "
                             "shared by every worker)")
    server.add_argument("--port", type=int, default=0,
                        help="front-door port (default 0 = pick a free one)")
    server.add_argument("--host", default="127.0.0.1")
    server.add_argument("--workers", type=int, default=1,
                        help="shard-executing worker processes (default 1)")
    server.add_argument("--shard-size", type=int, default=8, metavar="N",
                        help="trials per claimable shard (default 8)")
    server.add_argument("--lease-ttl", type=float, default=30.0,
                        metavar="SECONDS",
                        help="heartbeat lease expiry; a dead worker's shard "
                             "is reclaimable after this long (default 30)")
    server.add_argument("--max-active", type=int, default=64,
                        help="backpressure: reject new submissions (HTTP "
                             "429) beyond this many active campaigns")
    server.add_argument("--poll", type=float, default=0.2,
                        help="idle worker poll period in seconds")
    server.add_argument("--telemetry", default=None, metavar="PATH",
                        help="record spans/metrics from the server and all "
                             "workers to this JSONL stream")

    atlas = sub.add_parser(
        "atlas", help="cross-campaign sensitivity atlas: ingest journals, "
                      "query drill-down surfaces, export heatmaps, diff "
                      "stores for regressions"
    )
    add_atlas_arguments(atlas)

    submit = sub.add_parser(
        "submit", help="submit a campaign spec to a running 'serve' front "
                       "door and optionally wait for results"
    )
    submit.add_argument("kind", help="campaign kind (fig3, table5, table6)")
    submit.add_argument("--url", required=True,
                        help="front-door base URL, e.g. http://127.0.0.1:8731")
    submit.add_argument("--scale", choices=sorted(SCALES), default="tiny")
    submit.add_argument("--seed", type=int, default=42)
    submit.add_argument("--params", default=None, metavar="JSON",
                        help="kind-specific grid parameters as inline JSON, "
                             "e.g. '{\"bitflips\": [1, 10]}'")
    submit.add_argument("--batch-trials", type=int, default=None,
                        metavar="N",
                        help="stack up to N same-spec trials per chunk "
                             "(default: serve shards run chunks of one)")
    submit.add_argument("--trial-timeout", type=float, default=None,
                        metavar="SECONDS")
    submit.add_argument("--retries", type=int, default=1)
    submit.add_argument("--engine", choices=["scalar", "vectorized"],
                        default="vectorized")
    submit.add_argument("--health-probe", action="store_true")
    submit.add_argument("--validate-checkpoints", action="store_true")
    submit.add_argument("--priority", type=int, default=0,
                        help="scheduler weight; higher runs first")
    submit.add_argument("--max-trials", type=int, default=None, metavar="N",
                        help="truncate the plan to its first N trials")
    submit.add_argument("--wait", action="store_true",
                        help="poll until the campaign reaches a terminal "
                             "state")
    submit.add_argument("--timeout", type=float, default=600.0,
                        help="--wait deadline in seconds (default 600)")
    submit.add_argument("--results", default=None, metavar="PATH",
                        help="with --wait: write the result JSONL stream "
                             "to PATH ('-' for stdout)")
    return parser


def spec_from_args(args: argparse.Namespace, kind: str) -> CampaignSpec:
    """The canonical :class:`CampaignSpec` for a parsed command line.

    Both ``run`` (local execution) and ``submit`` (HTTP) funnel through
    here, so the same flags always describe byte-identical trial plans.
    """
    params = getattr(args, "params", None)
    if isinstance(params, str):
        params = json.loads(params)
    return CampaignSpec(
        kind=kind, scale=args.scale, seed=args.seed, params=params or {},
        engine=args.engine, batch_trials=args.batch_trials,
        health_probe=args.health_probe,
        validate_checkpoints=args.validate_checkpoints,
        retries=args.retries, trial_timeout=args.trial_timeout,
        priority=getattr(args, "priority", 0),
        max_trials=getattr(args, "max_trials", None),
    )


def campaign_kwargs(args: argparse.Namespace, experiment_id: str,
                    multiple: bool) -> dict:
    """The engine kwargs for one experiment (empty for non-campaign ids).

    Campaign-capable harnesses take the canonical spec plus the three
    execution-site knobs (``workers``/``journal``/``resume``) that belong
    to *where* the campaign runs rather than *what* it is.
    """
    if experiment_id not in CAMPAIGN_EXPERIMENTS:
        return {}
    journal = args.journal
    if journal is not None and multiple:
        journal = f"{journal}.{experiment_id}"
    return {
        "spec": spec_from_args(args, experiment_id),
        "workers": args.workers,
        "journal": journal,
        "resume": args.resume,
    }


def telemetry_command(args: argparse.Namespace) -> int:
    """The ``telemetry`` subcommand: summarize/export a recorded stream."""
    events = telemetry.load_events(args.events)
    if not events:
        print(f"no telemetry events found in {args.events}", file=sys.stderr)
        return 1
    if args.format == "text":
        rendered = telemetry.CampaignTelemetry(events).render(top=args.top)
    elif args.format == "prometheus":
        rendered = telemetry.prometheus_exposition(events)
    elif args.format == "chrome":
        rendered = json.dumps(telemetry.chrome_trace(events), indent=2)
    else:  # json summary
        summary = telemetry.CampaignTelemetry(events)
        rendered = json.dumps({
            "phases": [asdict(stat) for stat in summary.phases()],
            "trials": [asdict(trial) for trial in summary.trials()],
            "metrics": summary.metrics,
        }, indent=2)
    if not rendered.endswith("\n"):
        rendered += "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(rendered)
        print(f"wrote {args.format} export to {args.output}")
    else:
        sys.stdout.write(rendered)
    return 0


def serve_command(args: argparse.Namespace) -> int:
    """The ``serve`` subcommand: store + worker pool + HTTP front door.

    Writes ``<root>/server.json`` (bound address, server and worker pids,
    stop-file path) once everything is up, so scripts — the CI serve gate
    included — can discover the ephemeral port and kill individual
    workers.  Touching the stop file, or Ctrl-C, shuts the pool down.
    """
    import multiprocessing
    import os
    import threading

    from ..nn import blas
    from ..serve.app import build_app_server
    from ..serve.scheduler import run_worker
    from ..serve.shards import write_json_atomic
    from ..serve.store import CampaignStore

    error = non_positive(args, "shard_size", "max_active", "lease_ttl",
                         "poll")
    if error:
        print(error, file=sys.stderr)
        return 2
    if args.telemetry:
        # configure before forking: workers inherit the JSONL sink
        telemetry.configure(jsonl=args.telemetry)
    store = CampaignStore(args.root, max_active=args.max_active,
                          shard_size=args.shard_size,
                          lease_ttl=args.lease_ttl)
    server = build_app_server(store, args.port, host=args.host)
    host, port = server.server_address[:2]
    stop_file = os.path.join(store.root, "stop")

    # split the BLAS threads among the workers before forking them;
    # the children inherit the lowered count for the server's life
    with blas.thread_budget(args.workers):
        context = multiprocessing.get_context("fork")
        workers = []
        for index in range(args.workers):
            process = context.Process(
                target=run_worker, args=(args.root,),
                kwargs={"owner": f"worker-{index}", "poll": args.poll,
                        "lease_ttl": args.lease_ttl,
                        "shard_size": args.shard_size,
                        "stop_file": stop_file},
                name=f"serve-worker-{index}")
            process.start()
            workers.append(process)

        write_json_atomic(os.path.join(store.root, "server.json"), {
            "url": f"http://{host}:{port}",
            "host": host, "port": port, "pid": os.getpid(),
            "workers": [process.pid for process in workers],
            "stop_file": stop_file,
        })
        print(f"repro.serve front door on http://{host}:{port} "
              f"({args.workers} workers, root {store.root})", file=sys.stderr)

        # serve_forever on a thread so the main thread can watch the stop file
        server_thread = threading.Thread(target=server.serve_forever,
                                         daemon=True)
        server_thread.start()
        try:
            # keep serving HTTP even if every worker dies: their shards sit
            # behind expiring leases and a future worker will reclaim them
            while not os.path.exists(stop_file):
                time.sleep(0.2)
        except KeyboardInterrupt:
            pass
        finally:
            with open(stop_file, "w", encoding="utf-8"):
                pass
            for process in workers:
                process.join(timeout=30.0)
            for process in workers:
                if process.is_alive():
                    process.terminate()
            server.shutdown()
            server.server_close()
            if args.telemetry:
                telemetry.shutdown()
    return 0


def submit_command(args: argparse.Namespace) -> int:
    """The ``submit`` subcommand: POST a spec, optionally wait + fetch."""
    from ..serve.client import ServeClient, ServeError

    try:
        spec = spec_from_args(args, args.kind)
    except (ValueError, json.JSONDecodeError) as exc:
        print(f"bad spec: {exc}", file=sys.stderr)
        return 2
    client = ServeClient(args.url)
    try:
        submitted = client.submit(spec)
    except ServeError as exc:
        print(f"submission rejected: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(submitted))
    if not args.wait:
        return 0
    campaign_id = submitted["campaign_id"]
    status = client.wait(campaign_id, timeout=args.timeout)
    print(json.dumps(status))
    if args.results:
        handle = (sys.stdout if args.results == "-"
                  else open(args.results, "w", encoding="utf-8"))
        try:
            for record in client.results(campaign_id):
                handle.write(json.dumps(record) + "\n")
        finally:
            if handle is not sys.stdout:
                handle.close()
    return 0 if status["state"] == "done" else 1


def main(argv: list[str] | None = None) -> int:
    """Entry point for ``repro-experiments``."""
    args = build_parser().parse_args(argv)
    if args.command == "list":
        for experiment_id in sorted(EXPERIMENTS):
            print(experiment_id)
        return 0
    if args.command == "telemetry":
        return telemetry_command(args)
    if args.command == "watch":
        return watch_command(args)
    if args.command == "fleet":
        return fleet_command(args)
    if args.command == "serve":
        return serve_command(args)
    if args.command == "atlas":
        return atlas_command(args)
    if args.command == "submit":
        return submit_command(args)

    # --json keeps stdout machine-readable, so logging moves to stderr
    telemetry.setup_logging(args.verbosity,
                            stream=sys.stderr if args.json else None)
    ids = list(args.experiments)
    if ids == ["all"]:
        ids = sorted(EXPERIMENTS)
    unknown = [e for e in ids if e not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiments: {unknown}", file=sys.stderr)
        return 2
    if args.resume and args.journal is None:
        print("--resume requires --journal", file=sys.stderr)
        return 2
    if args.workers < 1:
        print("--workers must be at least 1", file=sys.stderr)
        return 2
    # every spec is built, and so validated, before any experiment starts
    try:
        engine_kwargs = [campaign_kwargs(args, experiment_id,
                                         multiple=len(ids) > 1)
                         for experiment_id in ids]
    except ValueError as exc:
        print(f"bad spec: {exc}", file=sys.stderr)
        return 2
    if args.telemetry:
        telemetry.configure(jsonl=args.telemetry)
        log.info("recording telemetry to %s", args.telemetry)
    try:
        for experiment_id, kwargs in zip(ids, engine_kwargs):
            start = time.time()
            result = run_experiment(experiment_id, scale=args.scale,
                                    seed=args.seed, **kwargs)
            elapsed = time.time() - start
            if args.json:
                print(result.to_json())
            else:
                print(result.rendered)
                print(f"[{experiment_id} completed in {elapsed:.1f}s "
                      f"at scale={args.scale}]")
                campaign = result.extra.get("campaign")
                if campaign:
                    stats = CampaignStats.from_dict(campaign)
                    print(f"[campaign: {stats.summary()}]")
                print()
    finally:
        if args.telemetry:
            telemetry.shutdown()
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
