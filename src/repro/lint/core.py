"""The ``repro.lint`` framework: sources, findings, rules, and the runner.

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
  rationale, the module-name *domains* it is confined to);
* :func:`lint_paths` / :func:`lint_module` — the runner, applying every
  selected rule whose domain matches and filtering pragma-suppressed
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
        if self.line_hash:
            return f"{self.rule}::{self.path}::@{self.line_hash}"
        return self.legacy_fingerprint()

    def legacy_fingerprint(self) -> str:
        """The v1 baseline key (rule + path + message), kept for loading
        baselines written before line hashes existed."""
        return f"{self.rule}::{self.path}::{self.message}"

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

    def suppressed(self, finding: LintFinding) -> bool:
        if {finding.rule, "*"} & self.file_suppressions:
            return True
        for lineno in finding.suppression_lines():
            on_line = self.line_suppressions.get(lineno, ())
            if finding.rule in on_line or "*" in on_line:
                return True
        return False

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

Checker = Callable[[SourceModule], Iterable[tuple[ast.AST, str]]]


@dataclass(frozen=True)
class Rule:
    """A registered rule: checker plus user-facing metadata."""

    name: str
    description: str
    rationale: str
    domains: tuple[str, ...]
    checker: Checker

    def applies_to(self, module: str) -> bool:
        if not self.domains:
            return True
        return any(
            module == domain or module.startswith(domain + ".")
            for domain in self.domains
        )


REGISTRY: dict[str, Rule] = {}


def rule(name: str, *, description: str, rationale: str,
         domains: tuple[str, ...] = ()) -> Callable[[Checker], Checker]:
    """Register *checker* under *name*.

    The checker receives a :class:`SourceModule` and yields
    ``(node, message)`` pairs; the framework turns them into
    :class:`LintFinding` objects and applies pragma suppression.  Empty
    *domains* means the rule runs on every module; otherwise it runs only
    on modules whose dotted name falls under one of the prefixes.
    """

    def register(checker: Checker) -> Checker:
        if name in REGISTRY:
            raise ValueError(f"duplicate lint rule {name!r}")
        REGISTRY[name] = Rule(
            name=name, description=description, rationale=rationale,
            domains=tuple(domains), checker=checker,
        )
        return checker

    return register


def get_rules(select: Iterable[str] | None = None) -> list[Rule]:
    """Registered per-file rules, optionally restricted to *select* names.

    *select* may also name cross-module rules (the CLI shares one
    ``--select`` namespace); those are simply not returned here — fetch
    them with :func:`get_cross_rules`.
    """
    _ensure_rules_loaded()
    if select is None:
        return [REGISTRY[name] for name in sorted(REGISTRY)]
    validate_select(select)
    return [REGISTRY[name] for name in sorted(select)
            if name in REGISTRY]


def validate_select(select: Iterable[str]) -> None:
    """Raise on names naming neither a per-file nor a cross-module rule."""
    _ensure_rules_loaded()
    registered = set(REGISTRY) | set(CROSS_REGISTRY)
    unknown = sorted(set(select) - registered)
    if unknown:
        raise ValueError(
            f"unknown lint rule(s): {', '.join(unknown)}; "
            f"registered: {', '.join(sorted(registered))}"
        )


def _ensure_rules_loaded() -> None:
    # rules live in sibling modules registered on import; imported lazily
    # so `core` stays importable from them without a cycle
    from . import rules  # noqa: F401
    from . import rules_fork  # noqa: F401
    from . import rules_rng  # noqa: F401


# ---------------------------------------------------------------------------
# Cross-module (whole-program) rules
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CrossFinding:
    """One diagnostic from a whole-program rule, anchored by path/line.

    Cross rules run over the project fact graph (no ASTs in reach — warm
    graph-cache runs never re-parse), so they report plain coordinates
    plus the inferred *trace*: the call chain or dataflow path that
    justifies the finding, one human-readable hop per entry.
    """

    path: str
    line: int
    message: str
    col: int = 0
    span_start: int = 0
    end_line: int = 0
    trace: tuple[str, ...] = ()


class CrossModuleRule:
    """Base class for whole-program rules: "what reaches what" checks.

    Subclasses set the metadata class attributes and implement
    :meth:`check` as a generator over a
    :class:`~repro.lint.graph.ProjectGraph`.  Registration is via the
    :func:`cross_rule` class decorator; domain scoping restricts where a
    finding may be *anchored* (the graph itself always spans every linted
    file — a purity violation may well sit outside the purity domain).
    """

    name: str = ""
    description: str = ""
    rationale: str = ""
    domains: tuple[str, ...] = ()

    def applies_to(self, module: str) -> bool:
        if not self.domains:
            return True
        return any(module == domain or module.startswith(domain + ".")
                   for domain in self.domains)

    def check(self, graph) -> Iterable[CrossFinding]:
        raise NotImplementedError


CROSS_REGISTRY: dict[str, CrossModuleRule] = {}


def cross_rule(cls: type) -> type:
    """Register a :class:`CrossModuleRule` subclass (instantiated once)."""
    instance = cls()
    if not instance.name:
        raise ValueError(f"{cls.__name__} must set a rule name")
    if instance.name in REGISTRY or instance.name in CROSS_REGISTRY:
        raise ValueError(f"duplicate lint rule {instance.name!r}")
    CROSS_REGISTRY[instance.name] = instance
    return cls


def get_cross_rules(select: Iterable[str] | None = None
                    ) -> list[CrossModuleRule]:
    """Registered cross-module rules, optionally restricted to *select*."""
    _ensure_rules_loaded()
    if select is None:
        return [CROSS_REGISTRY[name] for name in sorted(CROSS_REGISTRY)]
    validate_select(select)
    return [CROSS_REGISTRY[name] for name in sorted(select)
            if name in CROSS_REGISTRY]


def known_rule_names() -> set[str]:
    """Every name a pragma may legitimately disable."""
    _ensure_rules_loaded()
    return (set(REGISTRY) | set(CROSS_REGISTRY)
            | {PARSE_ERROR, BAD_PRAGMA})


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------

def lint_module(module: SourceModule,
                select: Iterable[str] | None = None) -> list[LintFinding]:
    """All non-suppressed findings of the selected rules on one module."""
    findings: list[LintFinding] = []
    for rule_ in get_rules(select):
        if not rule_.applies_to(module.module):
            continue
        for node, message in rule_.checker(module):
            finding = module.finding(node, rule_.name, message)
            if not module.suppressed(finding):
                findings.append(finding)
    findings.extend(check_pragmas(module))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings


def check_pragmas(module: SourceModule) -> list[LintFinding]:
    """:data:`BAD_PRAGMA` findings for pragmas naming unknown rules.

    A typo'd pragma (say ``disable=froksafety``) suppresses nothing and
    would otherwise pass silently — the author believes a finding is
    annotated when it is not.
    """
    known = known_rule_names()
    findings = []
    for lineno, name in sorted(module.pragma_sites):
        if name == "*" or name in known:
            continue
        finding = LintFinding(
            rule=BAD_PRAGMA, path=module.path, line=lineno, col=0,
            message=(f"pragma names unknown rule {name!r}; it suppresses "
                     "nothing (see --list-rules for the catalogue)"),
            line_hash=module.line_hash_at(lineno),
        )
        if not module.suppressed(finding):
            findings.append(finding)
    return findings


def lint_source(source: str, *, path: str = "<string>",
                module: str = "",
                select: Iterable[str] | None = None) -> list[LintFinding]:
    """Lint a source string (the fixture-test entry point)."""
    return lint_module(
        SourceModule.parse(path, source=source, module=module), select=select
    )


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


def lint_paths(paths: Iterable[str],
               select: Iterable[str] | None = None) -> list[LintFinding]:
    """Lint every Python file under *paths*.

    Unparseable files yield a single :data:`PARSE_ERROR` finding instead of
    aborting the run — a syntax error in one experiment script must not
    mask findings everywhere else.
    """
    findings: list[LintFinding] = []
    for file_path in iter_python_files(paths):
        try:
            module = SourceModule.parse(file_path)
        except (SyntaxError, UnicodeDecodeError, OSError) as error:
            line = getattr(error, "lineno", None) or 1
            findings.append(LintFinding(
                rule=PARSE_ERROR, path=normalize_path(file_path),
                line=line, col=0, message=f"cannot parse file: {error}",
            ))
            continue
        findings.extend(lint_module(module, select=select))
    return findings


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
