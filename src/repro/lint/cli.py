"""Command-line entry point: ``repro-lint src tests``.

Exit codes follow the convention CI gates on:

* ``0`` — no non-baselined findings;
* ``1`` — at least one new finding (or an unparseable file);
* ``2`` — usage error (unknown rule, bad path, bad baseline file).

Whole-program switches::

    repro-lint src --jobs 8                 # parallel file parsing
    repro-lint src --graph-cache            # warm runs skip parsing
    repro-lint src --explain fork-reach     # print inferred traces
    repro-lint src --dump-graph graph.json  # call-graph CI artifact
"""

from __future__ import annotations

import argparse
import json
import sys

from .baseline import DEFAULT_BASELINE, Baseline
from .core import validate_select
from .project import analyze_paths
from .report import json_report, rule_catalogue, text_report

#: Default cache location when ``--graph-cache`` is given with no path.
DEFAULT_GRAPH_CACHE = ".repro-lint-cache.json"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="Statically enforce the repo's bit-identity, "
                    "fork-safety, crash-safety, and HDF5-discipline "
                    "contracts.",
    )
    parser.add_argument("paths", nargs="*",
                        help="files or directories to lint "
                             "(e.g. 'src tests')")
    parser.add_argument("--format", choices=["text", "json"],
                        default="text",
                        help="report format (default text)")
    parser.add_argument("--output", default=None, metavar="PATH",
                        help="write the report to PATH instead of stdout")
    parser.add_argument("--select", default=None, metavar="RULES",
                        help="comma-separated rule names to run "
                             "(default: all, per-file and cross-module)")
    parser.add_argument("--baseline", default=DEFAULT_BASELINE,
                        metavar="PATH",
                        help="baseline file of grandfathered findings "
                             f"(default {DEFAULT_BASELINE}; missing file "
                             "= empty baseline)")
    parser.add_argument("--no-baseline", action="store_true",
                        help="report every finding, ignoring the baseline")
    parser.add_argument("--write-baseline", action="store_true",
                        help="write current findings to --baseline and "
                             "exit 0")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalogue and exit")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="parse files with N worker processes "
                             "(default 1; the graph build stays "
                             "single-pass and the report byte-identical)")
    parser.add_argument("--graph-cache", nargs="?", default=None,
                        const=DEFAULT_GRAPH_CACHE, metavar="PATH",
                        help="cache per-file facts keyed on content "
                             "hashes; warm runs over an unchanged tree "
                             f"re-parse nothing (default path "
                             f"{DEFAULT_GRAPH_CACHE})")
    parser.add_argument("--explain", default=None, metavar="RULE",
                        help="print each finding of RULE with its "
                             "inferred call-chain / dataflow trace")
    parser.add_argument("--dump-graph", default=None, metavar="PATH",
                        help="write the project call graph as JSON "
                             "(the CI artifact) and continue")
    parser.add_argument("--stats", action="store_true",
                        help="print parsed/cached file counts to stderr")
    return parser


def _render_explain(findings, rule_name: str) -> str:
    lines = []
    matched = [f for f in findings if f.rule == rule_name]
    for finding in matched:
        lines.append(finding.render())
        if finding.trace:
            lines.extend(f"    {hop}" for hop in finding.trace)
        else:
            lines.append("    (per-file rule: the finding line is the "
                         "whole evidence)")
    lines.append(f"{len(matched)} finding(s) of {rule_name}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list_rules:
        print(rule_catalogue())
        return 0
    if not args.paths:
        print("repro-lint: no paths given (try: repro-lint src tests)",
              file=sys.stderr)
        return 2
    if args.jobs < 1:
        print("repro-lint: --jobs must be >= 1", file=sys.stderr)
        return 2

    select = None
    if args.select:
        select = [name.strip() for name in args.select.split(",")
                  if name.strip()]
    try:
        if select:
            validate_select(select)  # fail before any I/O
        if args.explain:
            validate_select([args.explain])
        result = analyze_paths(
            args.paths, select=select, jobs=args.jobs,
            cache_path=args.graph_cache,
        )
    except (FileNotFoundError, ValueError) as error:
        print(f"repro-lint: {error}", file=sys.stderr)
        return 2
    findings = result.findings
    files_checked = result.stats["files"]

    if args.stats:
        print(f"repro-lint: {result.stats['parsed']} parsed, "
              f"{result.stats['cached']} from cache", file=sys.stderr)
    if args.dump_graph:
        with open(args.dump_graph, "w", encoding="utf-8") as handle:
            json.dump(result.graph.to_json(), handle, indent=2,
                      sort_keys=True)
            handle.write("\n")

    if args.write_baseline:
        Baseline.from_findings(findings).save(args.baseline)
        print(f"wrote {len(findings)} finding(s) to {args.baseline}")
        return 0

    try:
        baseline = (Baseline() if args.no_baseline
                    else Baseline.load(args.baseline))
    except (ValueError, KeyError, TypeError) as error:
        print(f"repro-lint: bad baseline file: {error}", file=sys.stderr)
        return 2
    new, baselined = baseline.split(findings)

    if args.explain:
        rendered = _render_explain(new + baselined, args.explain)
    elif args.format == "json":
        rendered = json_report(new, baselined, files_checked, baseline)
    else:
        rendered = text_report(new, baselined, files_checked)
    if not rendered.endswith("\n"):
        rendered += "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(rendered)
    else:
        sys.stdout.write(rendered)

    stale = baseline.stale_entries(findings)
    if stale:
        print(f"repro-lint: {len(stale)} stale baseline entr"
              f"{'y' if len(stale) == 1 else 'ies'} (fixed findings "
              "still tolerated) — refresh with --write-baseline",
              file=sys.stderr)
    return 1 if new else 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
