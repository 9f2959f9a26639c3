"""The ``repro.lint`` framework: sources, findings and the rule registry.

The repo's correctness story rests on contracts the test suite can only
probe dynamically — injections bit-identical across engines, probes and
telemetry drawing no RNG, workers staying fork-safe, callers using
zero-copy views.  This module is the static half of that story: a small
visitor-based analysis framework over Python ``ast`` whose rules encode
those contracts as machine-checkable invariants.

Pieces:

* :class:`SourceModule` — one parsed file (path, dotted module name,
  AST, source lines, pragma suppressions);
* :class:`LintFinding` — one diagnostic, with a line-independent
  :meth:`~LintFinding.fingerprint` used by the baseline;
* :func:`rule` — registers a checker with its metadata (description,
  rationale, the module-name *domains* it is confined to), either per file
  or over the whole program.

The runner (:func:`repro.lint.project.analyze_paths`, and
:func:`~repro.lint.project.lint_source` for one source string) applies
every selected rule whose domain matches and filters pragma-suppressed
findings.

Suppression pragmas (both forms take a comma list or ``all``)::

    risky_line()  # repro-lint: disable=float-eq
    # repro-lint: disable-file=fork-safety

The linter itself must satisfy its own rng-purity rule: nothing in this
package draws randomness or mutates the tree it inspects.
"""

from __future__ import annotations

import ast
import hashlib
import os
import re
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

#: Pseudo-rule reported for files the ``ast`` parser rejects.
PARSE_ERROR = "parse-error"

#: Pseudo-rule reported for pragmas naming a rule that does not exist —
#: a typo'd suppression must warn, never silently suppress nothing.
BAD_PRAGMA = "bad-pragma"


def hash_line(text: str) -> str:
    """Content fingerprint of one source line (whitespace-insensitive).

    The baseline keys on ``(rule, file, hash_line(source line))`` so a
    grandfathered finding survives reformatting and line shifts but a
    *different* offending line can never silently consume its entry.
    """
    return hashlib.sha1(
        "".join(text.split()).encode("utf-8")).hexdigest()[:12]

_PRAGMA = re.compile(
    r"#\s*repro-lint:\s*(?P<kind>disable(?:-file)?)\s*=\s*"
    r"(?P<rules>[\w*,\- ]+)"
)


@dataclass(frozen=True)
class LintFinding:
    """One diagnostic emitted by a rule.

    ``span_start``/``end_line`` bound the physical lines a suppression
    pragma may sit on (a decorated def's decorators, every line of a
    multiline expression); ``line`` stays the single anchor reported to
    the user.  ``line_hash`` is the content fingerprint of the anchor
    line, the baseline's identity for this finding.  ``trace`` carries
    the inferred call chain / dataflow path for interprocedural findings
    (rendered by ``--explain``).
    """

    rule: str
    path: str
    line: int
    col: int
    message: str
    line_hash: str = ""
    span_start: int = 0
    end_line: int = 0
    trace: tuple[str, ...] = ()

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: [{self.rule}] " \
               f"{self.message}"

    def fingerprint(self) -> str:
        """Baseline identity: ``(rule, file, fingerprint of source line)``.

        Line *numbers* are deliberately excluded so unrelated edits
        shifting a grandfathered finding do not un-baseline it; the line
        *content* hash is included so a different offending line (or the
        same line moved to another file) cannot silently consume a stale
        baseline entry for an old finding with the same message.
        """
        return f"{self.rule}::{self.path}::@{self.line_hash}"

    def suppression_lines(self) -> range:
        """The physical lines on which a pragma suppresses this finding."""
        start = self.span_start or self.line
        end = max(self.end_line or self.line, self.line)
        # cap pathological spans; a pragma hundreds of lines from the
        # anchor is not "on" the finding in any reviewable sense
        end = min(end, start + 50)
        return range(min(start, self.line), end + 1)

    def to_dict(self) -> dict:
        return {"rule": self.rule, "path": self.path, "line": self.line,
                "col": self.col, "message": self.message,
                "line_hash": self.line_hash, "trace": list(self.trace)}


@dataclass
class SourceModule:
    """One parsed source file plus everything rules need to inspect it."""

    path: str
    module: str
    source: str
    tree: ast.Module
    lines: list[str]
    #: physical line -> rule names disabled on that line ("*" = all)
    line_suppressions: dict[int, set[str]] = field(default_factory=dict)
    #: rule names disabled for the whole file ("*" = all)
    file_suppressions: set[str] = field(default_factory=set)
    #: every (line, rule-name) a pragma mentioned, for unknown-rule checks
    pragma_sites: list[tuple[int, str]] = field(default_factory=list)

    @classmethod
    def parse(cls, path: str, source: str | None = None,
              module: str | None = None) -> "SourceModule":
        if source is None:
            with open(path, encoding="utf-8") as handle:
                source = handle.read()
        tree = ast.parse(source, filename=path)
        self = cls(
            path=normalize_path(path),
            module=module if module is not None else module_name(path),
            source=source, tree=tree, lines=source.splitlines(),
        )
        self._scan_pragmas()
        return self

    def _scan_pragmas(self) -> None:
        for lineno, line in enumerate(self.lines, start=1):
            match = _PRAGMA.search(line)
            if match is None:
                continue
            names = {
                "*" if name.strip() == "all" else name.strip()
                for name in match.group("rules").split(",")
                if name.strip()
            }
            self.pragma_sites.extend((lineno, name) for name in names)
            if match.group("kind") == "disable-file":
                self.file_suppressions |= names
            else:
                self.line_suppressions.setdefault(lineno, set()).update(names)

    def line_hash_at(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return hash_line(self.lines[lineno - 1])
        return ""

    def finding(self, node: ast.AST, rule_name: str,
                message: str) -> LintFinding:
        line = getattr(node, "lineno", 1)
        span_start, end_line = node_span(node)
        return LintFinding(
            rule=rule_name, path=self.path, line=line,
            col=getattr(node, "col_offset", 0),
            message=message, line_hash=self.line_hash_at(line),
            span_start=span_start, end_line=end_line,
        )


def node_span(node: ast.AST) -> tuple[int, int]:
    """(span_start, end_line) bounding where a pragma may suppress *node*.

    For a (possibly decorated) def or class, the span runs from the first
    decorator to the ``def``/``class`` line — never into the body, so a
    pragma buried inside a long function cannot suppress a finding
    anchored on its signature.  For everything else (the multiline-
    expression case) it is the node's own line range.
    """
    line = getattr(node, "lineno", 1)
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                         ast.ClassDef)):
        decorators = getattr(node, "decorator_list", [])
        start = min([line] + [d.lineno for d in decorators])
        return start, line
    return line, getattr(node, "end_lineno", None) or line


def normalize_path(path: str) -> str:
    """Repo-relative posix-ish path, the stable key for baselines."""
    return os.path.relpath(path).replace(os.sep, "/")


def module_name(path: str) -> str:
    """Dotted module name of *path* under the repo's src/tests layout.

    ``src/repro/health/probe.py`` -> ``repro.health.probe``;
    ``tests/hdf5/test_view.py`` -> ``tests.hdf5.test_view``; anything
    outside those roots falls back to its stem, so domain-scoped rules
    simply do not apply to it.
    """
    parts = normalize_path(path).split("/")
    if parts[-1].endswith(".py"):
        parts[-1] = parts[-1][:-3]
    if parts[-1] == "__init__":
        parts = parts[:-1]
    if "src" in parts:
        parts = parts[parts.index("src") + 1:]
    elif "tests" in parts:
        parts = parts[parts.index("tests"):]
    else:
        parts = parts[-1:]
    return ".".join(parts)


# ---------------------------------------------------------------------------
# Rule registry
# ---------------------------------------------------------------------------

Checker = Callable[..., Iterable[tuple]]  # see rule()


def in_domains(module: str, domains: tuple[str, ...]) -> bool:
    """Whether dotted *module* falls under one of *domains* (none: all)."""
    return not domains or any(
        module == domain or module.startswith(domain + ".")
        for domain in domains
    )


@dataclass(frozen=True)
class Rule:
    """A registered rule: checker plus user-facing metadata."""

    name: str
    description: str
    rationale: str
    domains: tuple[str, ...]
    checker: Checker
    whole_program: bool = False

    def applies_to(self, module: str) -> bool:
        return in_domains(module, self.domains)


REGISTRY: dict[str, Rule] = {}


def rule(name: str, *, description: str, rationale: str,
         domains: tuple[str, ...] = (),
         whole_program: bool = False) -> Callable[[Checker], Checker]:
    """Register *checker* under *name*.

    A per-file checker receives a :class:`SourceModule` and yields
    ``(node, message)`` pairs; the framework turns them into
    :class:`LintFinding` objects.  A *whole_program* checker receives the
    project graph, where no AST is in reach (a warm graph-cache run parses
    nothing), and yields ``(path, line, message, trace)``: plain
    coordinates plus the evidence ``--explain`` prints, one hop per entry.
    Empty *domains* means findings may anchor in every module; otherwise
    only in modules whose dotted name falls under one of the prefixes (a
    whole-program rule still sees every linted file).
    """

    def register(checker: Checker) -> Checker:
        if name in REGISTRY:
            raise ValueError(f"duplicate lint rule {name!r}")
        REGISTRY[name] = Rule(
            name=name, description=description, rationale=rationale,
            domains=tuple(domains), checker=checker,
            whole_program=whole_program,
        )
        return checker

    return register


def get_rules(select: Iterable[str] | None = None) -> list[Rule]:
    """Registered rules, optionally restricted to *select* names."""
    _ensure_rules_loaded()
    if select is None:
        return [REGISTRY[name] for name in sorted(REGISTRY)]
    validate_select(select)
    return [REGISTRY[name] for name in sorted(set(select))]


def validate_select(select: Iterable[str]) -> None:
    """Raise on names that name no registered rule."""
    _ensure_rules_loaded()
    unknown = sorted(set(select) - set(REGISTRY))
    if unknown:
        raise ValueError(
            f"unknown lint rule(s): {', '.join(unknown)}; "
            f"registered: {', '.join(sorted(REGISTRY))}"
        )


def _ensure_rules_loaded() -> None:
    # rules live in sibling modules registered on import; imported lazily
    # so `core` stays importable from them without a cycle
    from . import rules  # noqa: F401
    from . import rules_fork  # noqa: F401
    from . import rules_rng  # noqa: F401


def known_rule_names() -> set[str]:
    """Every name a pragma may legitimately disable."""
    _ensure_rules_loaded()
    return set(REGISTRY) | {PARSE_ERROR, BAD_PRAGMA}


def check_pragmas(module: SourceModule) -> list[LintFinding]:
    """:data:`BAD_PRAGMA` findings for pragmas naming unknown rules.

    A typo'd pragma (say ``disable=froksafety``) suppresses nothing and
    would otherwise pass silently — the author believes a finding is
    annotated when it is not.
    """
    known = known_rule_names()
    return [
        LintFinding(
            rule=BAD_PRAGMA, path=module.path, line=lineno, col=0,
            message=(f"pragma names unknown rule {name!r}; it suppresses "
                     "nothing (see --list-rules for the catalogue)"),
            line_hash=module.line_hash_at(lineno),
        )
        for lineno, name in sorted(module.pragma_sites)
        if name != "*" and name not in known
    ]


def iter_python_files(paths: Iterable[str]) -> Iterator[str]:
    """Every ``.py`` file under *paths* (files pass through), sorted."""
    out: list[str] = []
    for path in paths:
        if os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames.sort()
                dirnames[:] = [d for d in dirnames
                               if d not in ("__pycache__", ".git")]
                out.extend(os.path.join(dirpath, name)
                           for name in sorted(filenames)
                           if name.endswith(".py"))
        elif path.endswith(".py"):
            out.append(path)
        else:
            raise FileNotFoundError(f"not a Python file or directory: {path}")
    return iter(out)


# ---------------------------------------------------------------------------
# Shared AST helpers for rules
# ---------------------------------------------------------------------------

def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def call_name(call: ast.Call) -> str | None:
    """The dotted name a call is made through, if statically resolvable."""
    return dotted_name(call.func)


def terminal_name(call: ast.Call) -> str | None:
    """The last component of the called name (``rng.choice`` -> ``choice``)."""
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None
