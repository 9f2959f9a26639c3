"""``repro.lint`` — static enforcement of the campaign's contracts.

An AST-based invariant checker over the repo's own invariants: injections
bit-identical across engines, probes/telemetry RNG-free, workers
fork-safe, commits and leases only through :mod:`repro.durable`, HDF5
callers on the zero-copy view discipline.  Per-file rules run one module
at a time; whole-program rules (fork-reach, rng-purity-flow) run over a
project call graph built from cached per-file facts.  Run it as
``repro-lint src tests`` or ``python -m repro.lint src tests``; the rule
catalogue lives in ``docs/static-analysis.md`` and ``--list-rules``.
"""

from .baseline import DEFAULT_BASELINE, Baseline
from .core import (
    BAD_PRAGMA,
    PARSE_ERROR,
    CrossFinding,
    CrossModuleRule,
    LintFinding,
    Rule,
    SourceModule,
    cross_rule,
    get_cross_rules,
    get_rules,
    lint_module,
    lint_paths,
    lint_source,
    module_name,
    rule,
)
from .graph import ProjectGraph, extract_module_facts
from .project import ProjectResult, analyze_paths
from .report import json_report, rule_catalogue, text_report

__all__ = [
    "BAD_PRAGMA",
    "Baseline",
    "CrossFinding",
    "CrossModuleRule",
    "DEFAULT_BASELINE",
    "LintFinding",
    "PARSE_ERROR",
    "ProjectGraph",
    "ProjectResult",
    "Rule",
    "SourceModule",
    "analyze_paths",
    "cross_rule",
    "extract_module_facts",
    "get_cross_rules",
    "get_rules",
    "json_report",
    "lint_module",
    "lint_paths",
    "lint_source",
    "module_name",
    "rule",
    "rule_catalogue",
    "text_report",
]
