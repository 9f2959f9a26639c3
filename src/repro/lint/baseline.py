"""Baseline file: grandfathered findings the linter tolerates.

Adopting a linter over a living tree needs an escape hatch for findings
that are *intentional* — exact-equality RWC accounting, a test that
deliberately exercises the deprecated injector call form.  Pragmas handle
the ones worth annotating in source; the baseline handles the rest: a
checked-in JSON file of fingerprints with per-fingerprint counts.

The file (format version 2) keys each entry on ``(rule, path,
line_hash)`` where ``line_hash`` is the whitespace-insensitive content
fingerprint of the offending source line
(:func:`repro.lint.core.hash_line`).  Line *numbers* are excluded —
unrelated edits shifting a finding do not churn the file — while moving a
finding between files, or editing the line into a different offence with
the same message, can never silently both un-baseline and re-baseline
it.

Workflow::

    repro-lint src tests --write-baseline   # seed / refresh
    repro-lint src tests                    # exits 0 while only
                                            # baselined findings remain

A finding is *consumed* from the baseline count-wise: two grandfathered
occurrences of the same fingerprint tolerate exactly two findings — a
third (a regression) is reported.  Stale entries are harmless but
reported to stderr by the CLI so the file shrinks as debt is paid.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Iterable

from ..durable import atomic_write
from .core import LintFinding

#: Default location, resolved against the working directory (the repo root
#: in CI and normal invocations).
DEFAULT_BASELINE = ".repro-lint-baseline.json"

_FORMAT_VERSION = 2


@dataclass
class Baseline:
    """Fingerprint -> tolerated occurrence count."""

    entries: dict[str, int] = field(default_factory=dict)

    @classmethod
    def load(cls, path: str | None) -> "Baseline":
        """Load *path*; a missing file is an empty baseline."""
        if path is None or not os.path.exists(path):
            return cls()
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
        version = payload.get("version")
        if version != _FORMAT_VERSION:
            raise ValueError(
                f"{path}: unsupported baseline version {version!r}"
            )
        entries: dict[str, int] = {}
        for item in payload.get("findings", []):
            fingerprint = (f"{item['rule']}::{item['path']}::"
                           f"@{item['line_hash']}")
            entries[fingerprint] = entries.get(fingerprint, 0) \
                + int(item.get("count", 1))
        return cls(entries)

    @classmethod
    def from_findings(cls, findings: Iterable[LintFinding]) -> "Baseline":
        entries: dict[str, int] = {}
        for finding in findings:
            key = finding.fingerprint()
            entries[key] = entries.get(key, 0) + 1
        return cls(entries)

    def save(self, path: str) -> None:
        items = []
        for fingerprint in sorted(self.entries):
            rule, file_path, line_hash = fingerprint.split("::", 2)
            items.append({
                "rule": rule, "path": file_path,
                "line_hash": line_hash.lstrip("@"),
                "count": self.entries[fingerprint],
            })
        text = json.dumps({"version": _FORMAT_VERSION, "findings": items},
                          indent=2, sort_keys=True)
        atomic_write(path, (text + "\n").encode("utf-8"))

    def split(self, findings: Iterable[LintFinding]
              ) -> tuple[list[LintFinding], list[LintFinding]]:
        """(new, baselined) partition of *findings*, consuming counts."""
        remaining = dict(self.entries)
        new: list[LintFinding] = []
        baselined: list[LintFinding] = []
        for finding in findings:
            key = finding.fingerprint()
            if remaining.get(key, 0) > 0:
                remaining[key] -= 1
                baselined.append(finding)
            else:
                new.append(finding)
        return new, baselined

    def stale_entries(self, findings: Iterable[LintFinding]) -> list[str]:
        """Fingerprints whose tolerated count exceeds current findings."""
        seen: dict[str, int] = {}
        for finding in findings:
            key = finding.fingerprint()
            seen[key] = seen.get(key, 0) + 1
        return sorted(
            fingerprint for fingerprint, count in self.entries.items()
            if seen.get(fingerprint, 0) < count
        )
