"""The whole-program runner: parse (or reload) facts, build the graph,
run per-file and cross-module rules.

Two properties the CLI and CI lean on:

* **Incrementality** (``--graph-cache``): every file's per-file findings
  and whole-program facts are cached keyed on the sha1 of its *content*
  plus a hash of the lint package's own sources and the active rule
  selection.  On a warm run over an unchanged tree, nothing is
  ``ast.parse``d at all — the graph is rebuilt from cached facts (cheap,
  pure dict work) and the cross rules re-run on it, because a one-file
  change can flip a finding in a file that did not change.

* **Determinism** (``--jobs N``): files are parsed in worker processes
  but merged in sorted-path order, and every downstream structure
  (graph indexes, rule iteration, finding sort) is ordered, so the JSON
  report is byte-identical at any job count.
"""

from __future__ import annotations

import hashlib
import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Iterable

from ..durable import write_json
from . import graph as graph_mod
from .core import (
    PARSE_ERROR,
    CrossFinding,
    LintFinding,
    SourceModule,
    get_cross_rules,
    iter_python_files,
    lint_module,
    normalize_path,
)

_CACHE_VERSION = 1


def file_hash(source: bytes) -> str:
    return hashlib.sha1(source).hexdigest()


def lint_package_hash() -> str:
    """Hash of the lint package's own sources: new rules invalidate."""
    digest = hashlib.sha1()
    package_dir = os.path.dirname(os.path.abspath(__file__))
    for name in sorted(os.listdir(package_dir)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(package_dir, name), "rb") as handle:
            digest.update(name.encode("utf-8"))
            digest.update(handle.read())
    return digest.hexdigest()


def _finding_to_dict(finding: LintFinding) -> dict:
    payload = finding.to_dict()
    payload["span_start"] = finding.span_start
    payload["end_line"] = finding.end_line
    return payload


def _finding_from_dict(payload: dict) -> LintFinding:
    return LintFinding(
        rule=payload["rule"], path=payload["path"],
        line=payload["line"], col=payload["col"],
        message=payload["message"],
        line_hash=payload.get("line_hash", ""),
        span_start=payload.get("span_start", 0),
        end_line=payload.get("end_line", 0),
        trace=tuple(payload.get("trace", ())),
    )


def _analyze_file(task: tuple[str, tuple[str, ...] | None]) -> dict:
    """Parse one file into its cacheable entry (runs in --jobs workers)."""
    path, select = task
    raw = b""
    try:
        with open(path, "rb") as handle:
            raw = handle.read()
        source = raw.decode("utf-8")
        module = SourceModule.parse(path, source=source)
    except (SyntaxError, UnicodeDecodeError, OSError) as error:
        line = getattr(error, "lineno", None) or 1
        finding = LintFinding(
            rule=PARSE_ERROR, path=normalize_path(path), line=line,
            col=0, message=f"cannot parse file: {error}",
        )
        return {
            "path": normalize_path(path),
            "hash": file_hash(raw),
            "facts": None,
            "findings": [_finding_to_dict(finding)],
        }
    findings = lint_module(module, select=list(select) if select else None)
    return {
        "path": module.path,
        "hash": file_hash(raw),
        "facts": graph_mod.extract_module_facts(module),
        "findings": [_finding_to_dict(f) for f in findings],
    }


@dataclass
class ProjectResult:
    """Everything one analysis run produced."""

    findings: list[LintFinding]
    graph: graph_mod.ProjectGraph
    #: {"files": total, "parsed": cold, "cached": warm}
    stats: dict = field(default_factory=dict)


def _load_cache(cache_path: str | None, lint_hash: str,
                select_key: list[str] | None) -> dict:
    if not cache_path or not os.path.exists(cache_path):
        return {}
    try:
        with open(cache_path, encoding="utf-8") as handle:
            payload = json.load(handle)
    except (json.JSONDecodeError, OSError):
        return {}
    if payload.get("version") != _CACHE_VERSION or \
            payload.get("facts_version") != graph_mod.FACTS_VERSION or \
            payload.get("lint_hash") != lint_hash or \
            payload.get("select") != select_key:
        return {}
    return payload.get("files", {})


def _save_cache(cache_path: str, lint_hash: str,
                select_key: list[str] | None,
                entries: dict[str, dict]) -> None:
    payload = {
        "version": _CACHE_VERSION,
        "facts_version": graph_mod.FACTS_VERSION,
        "lint_hash": lint_hash,
        "select": select_key,
        "files": entries,
    }
    write_json(cache_path, payload)


def _cross_suppressed(facts: dict, finding: CrossFinding,
                      rule_name: str) -> bool:
    """Pragma filtering for cross findings, off the cached fact tables."""
    file_suppressions = set(facts.get("file_suppressions", ()))
    if {rule_name, "*"} & file_suppressions:
        return True
    line_suppressions = facts.get("line_suppressions", {})
    probe = LintFinding(
        rule=rule_name, path=finding.path, line=finding.line,
        col=finding.col, message=finding.message,
        span_start=finding.span_start, end_line=finding.end_line,
    )
    for lineno in probe.suppression_lines():
        on_line = line_suppressions.get(str(lineno), ())
        if rule_name in on_line or "*" in on_line:
            return True
    return False


def _run_cross_rules(project: graph_mod.ProjectGraph,
                     select: list[str] | None) -> list[LintFinding]:
    findings: list[LintFinding] = []
    by_path = {facts["path"]: facts
               for facts in project.modules.values()}
    for rule_ in get_cross_rules(select):
        for cross in rule_.check(project):
            facts = by_path.get(cross.path)
            if facts is None:
                continue
            if not rule_.applies_to(facts["module"]):
                continue
            if _cross_suppressed(facts, cross, rule_.name):
                continue
            line_hashes = facts.get("line_hashes", [])
            line_hash = line_hashes[cross.line - 1] \
                if 1 <= cross.line <= len(line_hashes) else ""
            findings.append(LintFinding(
                rule=rule_.name, path=cross.path, line=cross.line,
                col=cross.col, message=cross.message,
                line_hash=line_hash, span_start=cross.span_start,
                end_line=cross.end_line, trace=tuple(cross.trace),
            ))
    return findings


def analyze_paths(paths: Iterable[str],
                  select: Iterable[str] | None = None,
                  jobs: int = 1,
                  cache_path: str | None = None) -> ProjectResult:
    """Run the full analysis (per-file rules + whole-program rules).

    *jobs* > 1 parses files in a process pool; *cache_path* enables the
    content-hash graph cache.  Output is deterministic across both.
    """
    select_list = sorted(select) if select is not None else None
    files = sorted(set(iter_python_files(paths)))
    lint_hash = lint_package_hash()
    cached_entries = _load_cache(cache_path, lint_hash, select_list)

    entries: dict[str, dict] = {}
    to_parse: list[str] = []
    for path in files:
        norm = normalize_path(path)
        cached = cached_entries.get(norm)
        if cached is not None:
            try:
                with open(path, "rb") as handle:
                    current = file_hash(handle.read())
            except OSError:
                current = None
            if current == cached.get("hash"):
                entries[norm] = cached
                continue
        to_parse.append(path)

    select_key = tuple(select_list) if select_list is not None else None
    tasks = [(path, select_key) for path in to_parse]
    if jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_analyze_file, tasks, chunksize=8))
    else:
        results = [_analyze_file(task) for task in tasks]
    for entry in results:
        entries[entry["path"]] = entry

    if cache_path:
        _save_cache(cache_path, lint_hash, select_list, entries)

    findings: list[LintFinding] = []
    modules: dict[str, dict] = {}
    for norm in sorted(entries):
        entry = entries[norm]
        findings.extend(_finding_from_dict(f) for f in entry["findings"])
        if entry["facts"] is not None:
            modules[norm] = entry["facts"]

    project = graph_mod.ProjectGraph(modules)
    findings.extend(_run_cross_rules(project, select_list))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return ProjectResult(
        findings=findings,
        graph=project,
        stats={
            "files": len(files),
            "parsed": len(to_parse),
            "cached": len(files) - len(to_parse),
        },
    )
