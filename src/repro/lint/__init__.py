"""``repro.lint`` — static enforcement of the campaign's contracts.

An AST-based invariant checker over the repo's own invariants: injections
bit-identical across engines, probes/telemetry RNG-free, workers
fork-safe, commits and leases only through :mod:`repro.durable`, HDF5
callers on the zero-copy view discipline.  One runner
(:func:`analyze_paths`) parses each file into cached facts and per-file
findings, then runs the whole-program rules (``rng-purity``,
``fork-safety``) over the project call graph built from those facts.
Run it as ``repro-lint src tests`` or ``python -m repro.lint src tests``;
the rule catalogue lives in ``docs/static-analysis.md`` and
``--list-rules``.
"""

from .baseline import DEFAULT_BASELINE, Baseline
from .core import (
    BAD_PRAGMA,
    PARSE_ERROR,
    LintFinding,
    Rule,
    SourceModule,
    get_rules,
    module_name,
    rule,
)
from .graph import ProjectGraph, extract_module_facts
from .project import ProjectResult, analyze_paths, lint_source
from .report import json_report, rule_catalogue, text_report

__all__ = [
    "BAD_PRAGMA",
    "Baseline",
    "DEFAULT_BASELINE",
    "LintFinding",
    "PARSE_ERROR",
    "ProjectGraph",
    "ProjectResult",
    "Rule",
    "SourceModule",
    "analyze_paths",
    "extract_module_facts",
    "get_rules",
    "json_report",
    "lint_source",
    "module_name",
    "rule",
    "rule_catalogue",
    "text_report",
]
