"""The runner: one lint pass, from a source string to a whole tree.

Each file is parsed once into an *entry* — its per-file findings and its
whole-program facts.  The :class:`~repro.lint.graph.ProjectGraph` is
assembled from every entry's facts, the whole-program rules run on it,
and one pragma filter drops the suppressed findings of both kinds.
:func:`analyze_paths` runs that over files and :func:`lint_source` over
one source string, as a one-module project.

Two properties the CLI and CI lean on:

* **Incrementality** (``--graph-cache``): every file's entry is cached
  keyed on the sha1 of its *content* plus a hash of the lint package's
  own sources and the active rule selection.  On a warm run over an
  unchanged tree, nothing is ``ast.parse``d at all — the graph is rebuilt
  from cached facts (cheap, pure dict work) and the whole-program rules
  re-run on it, because a one-file change can flip a finding in a file
  that did not change.

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
    LintFinding,
    SourceModule,
    check_pragmas,
    get_rules,
    iter_python_files,
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


def _unparsed(path: str, raw: bytes, error: Exception) -> dict:
    """The entry of a file that cannot be read or parsed: one
    :data:`PARSE_ERROR` finding, so a syntax error in one script never
    masks the findings everywhere else."""
    finding = LintFinding(
        rule=PARSE_ERROR, path=normalize_path(path),
        line=getattr(error, "lineno", None) or 1, col=0,
        message=f"cannot parse file: {error}",
    )
    return {"path": finding.path, "hash": file_hash(raw), "facts": None,
            "findings": [_finding_to_dict(finding)]}


def _analyze_source(path: str, raw: bytes, select: Iterable[str] | None,
                    module: str | None = None) -> dict:
    """One file's cacheable entry: its facts and its per-file findings,
    pragmas not yet applied."""
    try:
        source = SourceModule.parse(path, source=raw.decode("utf-8"),
                                    module=module)
    except (SyntaxError, UnicodeDecodeError) as error:
        return _unparsed(path, raw, error)
    findings = [
        source.finding(node, rule_.name, message)
        for rule_ in get_rules(select)
        if not rule_.whole_program and rule_.applies_to(source.module)
        for node, message in rule_.checker(source)
    ]
    findings.extend(check_pragmas(source))
    return {
        "path": source.path,
        "hash": file_hash(raw),
        "facts": graph_mod.extract_module_facts(source),
        "findings": [_finding_to_dict(f) for f in findings],
    }


def _analyze_file(task: tuple[str, tuple[str, ...] | None]) -> dict:
    """Read and analyze one file (runs in --jobs workers)."""
    path, select = task
    try:
        with open(path, "rb") as handle:
            raw = handle.read()
    except OSError as error:
        return _unparsed(path, b"", error)
    return _analyze_source(path, raw, select)


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


def _suppressed(finding: LintFinding, facts: dict | None) -> bool:
    """Whether a pragma in the finding's file disables it: the one
    pragma filter, for per-file and whole-program findings alike."""
    if facts is None:
        return False
    names = {finding.rule, "*"}
    if names & set(facts["file_suppressions"]):
        return True
    on_line = facts["line_suppressions"]
    return any(names & set(on_line.get(str(lineno), ()))
               for lineno in finding.suppression_lines())


def _whole_program_findings(project: graph_mod.ProjectGraph,
                            select: Iterable[str] | None
                            ) -> list[LintFinding]:
    """The whole-program rules' findings, one per rule and line."""
    findings: list[LintFinding] = []
    seen: set[tuple[str, str, int]] = set()
    for rule_ in get_rules(select):
        if not rule_.whole_program:
            continue
        for path, line, message, trace in rule_.checker(project):
            facts = project.modules.get(path)
            if facts is None or not rule_.applies_to(facts["module"]) or \
                    (rule_.name, path, line) in seen:
                continue
            seen.add((rule_.name, path, line))
            line_hashes = facts["line_hashes"]
            findings.append(LintFinding(
                rule=rule_.name, path=path, line=line, col=0,
                message=message,
                line_hash=line_hashes[line - 1]
                if 1 <= line <= len(line_hashes) else "",
                trace=tuple(trace),
            ))
    return findings


def _assemble(entries: dict[str, dict],
              select: Iterable[str] | None) -> ProjectResult:
    """Build the graph from *entries*, run the whole-program rules on it
    and filter every finding through the files' pragmas."""
    modules = {path: entry["facts"] for path, entry in entries.items()
               if entry["facts"] is not None}
    project = graph_mod.ProjectGraph(modules)
    findings = [_finding_from_dict(payload) for path in sorted(entries)
                for payload in entries[path]["findings"]]
    findings.extend(_whole_program_findings(project, select))
    findings = [finding for finding in findings
                if not _suppressed(finding, modules.get(finding.path))]
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return ProjectResult(findings=findings, graph=project)


def analyze_paths(paths: Iterable[str],
                  select: Iterable[str] | None = None,
                  jobs: int = 1,
                  cache_path: str | None = None) -> ProjectResult:
    """Run every selected rule, per-file and whole-program, over *paths*.

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

    result = _assemble(entries, select_list)
    result.stats = {
        "files": len(files),
        "parsed": len(to_parse),
        "cached": len(files) - len(to_parse),
    }
    return result


def lint_source(source: str, *, path: str = "<string>",
                module: str = "",
                select: Iterable[str] | None = None) -> list[LintFinding]:
    """Lint *source* as a one-module project (the fixture-test entry
    point): every rule runs, the whole-program ones over its one file."""
    entry = _analyze_source(path, source.encode("utf-8"), select,
                            module=module)
    return _assemble({entry["path"]: entry}, select).findings
