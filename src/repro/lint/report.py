"""Reporters: human-readable text and machine-readable JSON."""

from __future__ import annotations

import json

from .baseline import Baseline
from .core import LintFinding, get_rules


def text_report(new: list[LintFinding], baselined: list[LintFinding],
                files_checked: int) -> str:
    """Compiler-style finding lines plus a one-line summary."""
    lines = [finding.render() for finding in new]
    summary = (
        f"{len(new)} finding(s) in {files_checked} file(s)"
        if new else f"clean: {files_checked} file(s)"
    )
    if baselined:
        summary += f" ({len(baselined)} baselined finding(s) suppressed)"
    lines.append(summary)
    return "\n".join(lines)


def json_report(new: list[LintFinding], baselined: list[LintFinding],
                files_checked: int, baseline: Baseline) -> str:
    """A stable JSON document (the CI artifact format)."""
    payload = {
        "version": 1,
        "files_checked": files_checked,
        "counts": {
            "new": len(new),
            "baselined": len(baselined),
            "total": len(new) + len(baselined),
        },
        "findings": [finding.to_dict() for finding in new],
        "baselined_findings": [finding.to_dict() for finding in baselined],
        "stale_baseline_entries": baseline.stale_entries(new + baselined),
        "rules": {
            rule.name: {
                "description": rule.description,
                "rationale": rule.rationale,
                "domains": list(rule.domains),
            }
            for rule in get_rules()
        },
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def rule_catalogue() -> str:
    """``--list-rules`` output: name, domains, description, rationale."""
    blocks = []
    for rule in get_rules():
        domains = ", ".join(rule.domains) if rule.domains else "all modules"
        kind = "  [whole-program]" if rule.whole_program else ""
        blocks.append(
            f"{rule.name}{kind}\n"
            f"  applies to: {domains}\n"
            f"  checks: {rule.description}\n"
            f"  why: {rule.rationale}"
        )
    return "\n\n".join(blocks)
