"""The domain rules: the repo's runtime contracts as static checks.

Each rule names the invariant it guards and the PR that introduced it —
see ``docs/static-analysis.md`` for the full catalogue.  Rules are
registered on import via :func:`repro.lint.core.rule`; the framework
handles domain scoping, pragma suppression, and baselining, so checkers
only yield ``(node, message)`` pairs.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from .core import (
    SourceModule,
    call_name,
    dotted_name,
    rule,
    terminal_name,
)

# ---------------------------------------------------------------------------
# Scope helpers
# ---------------------------------------------------------------------------

_FUNCTION_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)
_SCOPE_NODES = _FUNCTION_NODES + (ast.Lambda,)


def _scopes(tree: ast.Module) -> Iterator[tuple[ast.AST, list[ast.stmt]]]:
    """(scope node, body) for the module and every (nested) function."""
    yield tree, tree.body
    for node in ast.walk(tree):
        if isinstance(node, _FUNCTION_NODES):
            yield node, node.body


def _walk_scope(body: Iterable[ast.stmt]) -> Iterator[ast.AST]:
    """Walk statements without descending into nested function scopes."""
    stack: list[ast.AST] = list(body)
    while stack:
        node = stack.pop()
        yield node
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, _SCOPE_NODES):
                stack.append(child)


def _calls_in(node: ast.AST) -> Iterator[ast.Call]:
    for child in ast.walk(node):
        if isinstance(child, ast.Call):
            yield child


def _import_time_calls(tree: ast.Module,
                       include_classes: bool = True) -> Iterator[ast.Call]:
    """Every Call evaluated when the module is imported.

    Module top-level expressions run at import; so do class bodies (a
    ``Lock()`` class attribute is as fork-hostile as a module global) and
    the decorators/defaults of function definitions.  Function *bodies*
    are excluded — they run after the fork, on whichever side called them.
    """
    stack: list[ast.stmt] = list(tree.body)
    while stack:
        statement = stack.pop()
        if isinstance(statement, _FUNCTION_NODES):
            for expr in (*statement.decorator_list,
                         *statement.args.defaults,
                         *statement.args.kw_defaults):
                if expr is not None:
                    yield from _calls_in(expr)
            continue
        if isinstance(statement, ast.ClassDef):
            for expr in (*statement.decorator_list, *statement.bases,
                         *statement.keywords):
                yield from _calls_in(expr)
            if include_classes:
                stack.extend(statement.body)
            continue
        # compound statements: scan import-time-evaluated expressions,
        # then descend into the statement bodies
        nested = False
        for kind, exprs in (
            ((ast.If, ast.While), lambda s: [s.test]),
            ((ast.For, ast.AsyncFor), lambda s: [s.iter]),
            ((ast.With, ast.AsyncWith),
             lambda s: [item.context_expr for item in s.items]),
            ((ast.Try,), lambda s: []),
        ):
            if isinstance(statement, kind):
                for expr in exprs(statement):
                    yield from _calls_in(expr)
                for child in ast.iter_child_nodes(statement):
                    if isinstance(child, ast.stmt):
                        stack.append(child)
                    elif isinstance(child, ast.excepthandler):
                        stack.extend(child.body)
                nested = True
                break
        if not nested:
            yield from _calls_in(statement)


# ---------------------------------------------------------------------------
# 1. rng-purity
# ---------------------------------------------------------------------------

#: Method names that draw from an RNG state.  Any call through one of these
#: inside a purity domain is flagged regardless of the receiver — a purity
#: domain has no legitimate RNG to call them on.
RNG_DRAW_METHODS = frozenset({
    "standard_normal", "normal", "uniform", "integers", "choice",
    "shuffle", "permutation", "rand", "randn", "randint", "random_sample",
    "beta", "binomial", "poisson", "exponential",
})

#: Module prefixes whose import alone signals randomness.
RNG_MODULES = ("random", "numpy.random", "secrets")


@rule(
    "rng-purity",
    description="no RNG draws in bit-identity-critical code",
    rationale=(
        "health probes (PR 4), telemetry (PR 3), and the structural "
        "validator must be observational: one RNG draw would shift every "
        "subsequent sample of a seeded campaign and silently break the "
        "probed == unprobed bit-identity guarantee"
    ),
    domains=("repro.health", "repro.telemetry", "repro.hdf5.validate",
             "repro.lint"),
)
def check_rng_purity(module: SourceModule):
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "random" or \
                        alias.name.startswith("numpy.random") or \
                        alias.name == "secrets":
                    yield node, (
                        f"import of RNG module {alias.name!r} in a "
                        "purity domain"
                    )
        elif isinstance(node, ast.ImportFrom):
            origin = node.module or ""
            if origin in RNG_MODULES or origin.startswith("numpy.random"):
                yield node, (
                    f"import from RNG module {origin!r} in a purity domain"
                )
        elif isinstance(node, ast.Attribute):
            dotted = dotted_name(node)
            if dotted in ("np.random", "numpy.random"):
                yield node, (
                    f"use of {dotted} in a purity domain (health/telemetry/"
                    "validation code must not draw randomness)"
                )
        elif isinstance(node, ast.Call):
            name = terminal_name(node)
            if name == "default_rng":
                yield node, (
                    "default_rng() constructs an RNG inside a purity domain"
                )
            elif name in RNG_DRAW_METHODS and \
                    isinstance(node.func, ast.Attribute):
                yield node, (
                    f"RNG draw .{name}() in a purity domain; probes and "
                    "telemetry must stay bit-identity-neutral"
                )


# ---------------------------------------------------------------------------
# 2. fork-safety
# ---------------------------------------------------------------------------

_LOCK_FACTORIES = frozenset({
    "Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore", "Event",
    "Barrier",
})


def _is_constant_name(name: str) -> bool:
    return name == name.upper() or (name.startswith("__")
                                    and name.endswith("__"))


@rule(
    "fork-safety",
    description="no locks, open files, or mutable state at import time "
                "in fork-boundary modules",
    rationale=(
        "the campaign runner forks a pool of workers that each run many "
        "chunk attempts; a module-level lock forks in an arbitrary "
        "held/released state, an open hdf5.File handle aliases one memmap "
        "from every worker, and "
        "lowercase module-level mutable state invites cross-fork mutation "
        "that the parent never sees (UPPER_CASE import-time registries "
        "like TRIAL_KINDS are write-once and fine)"
    ),
    domains=("repro.experiments",),
)
def check_fork_safety(module: SourceModule):
    for call in _import_time_calls(module.tree):
        name = terminal_name(call)
        if name in _LOCK_FACTORIES and isinstance(call.func, ast.Attribute):
            owner = dotted_name(call.func.value) or ""
            if owner.split(".")[0] in ("threading", "multiprocessing",
                                       "mp", "ctx"):
                yield call, (
                    f"synchronization primitive {owner}.{name}() "
                    "created at import time crosses the campaign fork "
                    "boundary in an undefined state; create it inside "
                    "the function that uses it"
                )
        elif call_name(call) in ("hdf5.File", "h5py.File", "open"):
            yield call, (
                f"file handle opened at import time "
                f"({call_name(call)}(...)); an open handle captured "
                "across the runner's fork shares one file position/"
                "memmap between every worker"
            )
    for statement in module.tree.body:
        if not isinstance(statement, ast.Assign):
            continue
        if len(statement.targets) != 1 or \
                not isinstance(statement.targets[0], ast.Name):
            continue
        target = statement.targets[0].id
        if _is_constant_name(target):
            continue
        if isinstance(statement.value, (ast.Dict, ast.List, ast.Set,
                                        ast.ListComp, ast.SetComp,
                                        ast.DictComp)):
            yield statement, (
                f"module-level mutable state {target!r} is captured by "
                "forked campaign workers; name it UPPER_CASE if it is a "
                "write-once import-time registry, otherwise build it "
                "inside a function"
            )


# ---------------------------------------------------------------------------
# 3. view-discipline
# ---------------------------------------------------------------------------

@rule(
    "view-discipline",
    description="no Dataset.read() -> mutate -> write() round-trips "
                "where view() applies",
    rationale=(
        "PR 2 made Dataset.view() alias the r+ memmap zero-copy; a "
        "read()/write() round-trip copies the full tensor twice and, on "
        "a partially-corrupted file, can resurrect bytes another writer "
        "changed in between"
    ),
)
def check_view_discipline(module: SourceModule):
    for _, body in _scopes(module.tree):
        reads: dict[str, tuple[str, int]] = {}  # var -> (receiver, line)
        nodes = sorted(
            (node for node in _walk_scope(body)
             if isinstance(node, (ast.Assign, ast.Call))),
            key=lambda node: (node.lineno, node.col_offset),
        )
        for node in nodes:
            if isinstance(node, ast.Assign):
                if len(node.targets) == 1 and \
                        isinstance(node.targets[0], ast.Name) and \
                        isinstance(node.value, ast.Call) and \
                        isinstance(node.value.func, ast.Attribute) and \
                        node.value.func.attr == "read" and \
                        not node.value.args and not node.value.keywords:
                    receiver = ast.unparse(node.value.func.value)
                    reads[node.targets[0].id] = (receiver, node.lineno)
                else:
                    # any other assignment to the name drops the tracking
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            reads.pop(target.id, None)
            elif isinstance(node, ast.Call):
                if not (isinstance(node.func, ast.Attribute)
                        and node.func.attr == "write"
                        and len(node.args) == 1
                        and isinstance(node.args[0], ast.Name)):
                    continue
                bound = reads.get(node.args[0].id)
                if bound is None:
                    continue
                receiver, read_line = bound
                if ast.unparse(node.func.value) == receiver and \
                        node.lineno > read_line:
                    yield node, (
                        f"read() -> mutate -> write() round-trip on "
                        f"{receiver!r} (read at line {read_line}); use "
                        "Dataset.view() to edit storage in place"
                    )


# ---------------------------------------------------------------------------
# 4. deprecated-injector-kwargs
# ---------------------------------------------------------------------------

_REPLAY_LEGACY = ("location_map", "reuse_indices", "seed")


@rule(
    "deprecated-injector-kwargs",
    description="no config= mixed with legacy override kwargs at "
                "injector call sites",
    rationale=(
        "PR 2 unified injector configuration on InjectorConfig/"
        "ReplayConfig; mixing config= with loose overrides only warns at "
        "runtime (DeprecationWarning) and a typo'd override silently "
        "corrupts nothing — the worst failure mode for an injection "
        "campaign.  Use config.replace(**overrides)."
    ),
)
def check_deprecated_injector_kwargs(module: SourceModule):
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        name = terminal_name(node)
        keywords = {kw.arg for kw in node.keywords if kw.arg is not None}
        if "config" not in keywords:
            continue
        if name == "corrupt_checkpoint":
            overrides = keywords - {"config", "engine"}
            if overrides:
                yield node, (
                    "corrupt_checkpoint(config=..., "
                    f"{', '.join(sorted(overrides))}=...) mixes a config "
                    "with deprecated keyword overrides; use "
                    "config.replace(...) and pass only config="
                )
        elif name == "replay_log":
            legacy = keywords & set(_REPLAY_LEGACY)
            if legacy or len(node.args) > 2:
                what = ", ".join(sorted(legacy)) or "positional arguments"
                yield node, (
                    "replay_log(config=...) combined with legacy "
                    f"keyword(s) {what}; fold them into the ReplayConfig"
                )


# ---------------------------------------------------------------------------
# 5. float-eq
# ---------------------------------------------------------------------------

@rule(
    "float-eq",
    description="no ==/!= on float expressions in outcome/health/"
                "analysis code",
    rationale=(
        "outcome classification (PR 4) deals in NaN-bearing accuracy "
        "curves; `x == x` NaN tests and exact float comparisons read as "
        "correct but break under NaN propagation and float noise — use "
        "math.isnan/np.isnan and isclose-style tolerances (exact-equality "
        "checks that are *deliberate*, like RWC accounting, carry a "
        "pragma)"
    ),
    domains=("repro.health", "repro.analysis", "repro.experiments"),
)
def check_float_eq(module: SourceModule):
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Compare):
            continue
        left = node.left
        for op, right in zip(node.ops, node.comparators):
            if isinstance(op, (ast.Eq, ast.NotEq)):
                yield from _judge_float_compare(left, right)
            left = right


def _judge_float_compare(left: ast.expr, right: ast.expr):
    if not isinstance(left, ast.Constant) and \
            ast.unparse(left) == ast.unparse(right):
        yield left, (
            f"`{ast.unparse(left)} == {ast.unparse(right)}` is the "
            "self-comparison NaN idiom; write math.isnan()/np.isnan() "
            "so the intent survives review"
        )
        return
    for side in (left, right):
        if isinstance(side, ast.Constant) and isinstance(side.value, float):
            yield side, (
                f"exact float equality against {side.value!r}; use "
                "math.isclose/np.isclose or an explicit tolerance"
            )
            return
        if isinstance(side, ast.Call) and terminal_name(side) == "float":
            yield side, (
                "equality against a float(...) cast (NaN never compares "
                "equal); use math.isnan/isclose instead"
            )
            return


# ---------------------------------------------------------------------------
# 6. journal-schema
# ---------------------------------------------------------------------------

#: The journal contract (PR 1): every record names its trial, its kind, and
#: a terminal status.  (`outcome` and the payload's seed ride along with
#: defaults — status "ok" implies an outcome dict, and the runner refuses
#: payload-less resumes at runtime.)
REQUIRED_RECORD_FIELDS = ("trial_id", "kind", "status")


@rule(
    "journal-schema",
    description="every journal record construction names trial_id, kind, "
                "and status",
    rationale=(
        "--resume (PR 1) replays the journal keyed on trial_id and "
        "re-dispatches by kind; a record appended without them replays as "
        "a phantom trial or not at all, silently re-running (and "
        "re-charging) completed work"
    ),
)
def check_journal_schema(module: SourceModule):
    positional = REQUIRED_RECORD_FIELDS
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        name = terminal_name(node)
        if name == "TrialRecord":
            if any(kw.arg is None for kw in node.keywords):
                continue  # **splat: statically opaque
            supplied = set(positional[:len(node.args)])
            supplied.update(kw.arg for kw in node.keywords)
            missing = [f for f in REQUIRED_RECORD_FIELDS
                       if f not in supplied]
            if missing:
                yield node, (
                    "TrialRecord constructed without required journal "
                    f"field(s): {', '.join(missing)}"
                )
        elif name == "append" and isinstance(node.func, ast.Attribute):
            receiver = (dotted_name(node.func.value) or "").lower()
            if "journal" not in receiver:
                continue
            if len(node.args) != 1 or not isinstance(node.args[0], ast.Dict):
                continue
            keys = node.args[0].keys
            if any(key is None or not isinstance(key, ast.Constant)
                   for key in keys):
                continue  # **splat / computed keys: statically opaque
            present = {key.value for key in keys}
            missing = [f for f in REQUIRED_RECORD_FIELDS
                       if f not in present]
            if missing:
                yield node, (
                    "journal append of a record dict missing required "
                    f"key(s): {', '.join(missing)}"
                )


# ---------------------------------------------------------------------------
# 7. span-discipline
# ---------------------------------------------------------------------------

_IMPORT_TIME_METRIC_CALLS = frozenset({"count", "gauge", "observe",
                                       "configure"})


def _telemetry_span_call(node: ast.Call,
                         span_aliases: frozenset[str]) -> bool:
    func = node.func
    if isinstance(func, ast.Attribute) and func.attr == "span":
        owner = dotted_name(func.value) or ""
        return owner.split(".")[-1] == "telemetry"
    if isinstance(func, ast.Name):
        return func.id in span_aliases
    return False


@rule(
    "span-discipline",
    description="telemetry.span() only as a context manager; no metric "
                "emission at import time",
    rationale=(
        "a span outside `with` is never finished (PR 3): it silently "
        "drops from the event stream and orphans every child span opened "
        "under it — start_span() is the sanctioned detached API.  Metric "
        "calls at import time register counters in whichever process "
        "imports first, so parent/worker registries disagree after fork."
    ),
)
def check_span_discipline(module: SourceModule):
    span_aliases = frozenset(
        alias.asname or alias.name
        for node in ast.walk(module.tree)
        if isinstance(node, ast.ImportFrom)
        and (node.module or "").endswith("telemetry")
        for alias in node.names if alias.name == "span"
    )
    allowed: set[ast.Call] = set()
    for node in ast.walk(module.tree):
        if isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                if isinstance(item.context_expr, ast.Call):
                    allowed.add(item.context_expr)
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Call) and node not in allowed and \
                _telemetry_span_call(node, span_aliases):
            yield node, (
                "telemetry.span(...) used outside a `with` block leaks an "
                "unfinished span; use `with telemetry.span(...)` or "
                "telemetry.start_span() for detached spans"
            )
    for call in _import_time_calls(module.tree, include_classes=False):
        if isinstance(call.func, ast.Attribute) and \
                call.func.attr in _IMPORT_TIME_METRIC_CALLS:
            owner = dotted_name(call.func.value) or ""
            if owner.split(".")[-1] == "telemetry":
                yield call, (
                    f"telemetry.{call.func.attr}(...) at import time; "
                    "metrics must be emitted by the running process "
                    "(after the campaign fork), not at module import"
                )


# ---------------------------------------------------------------------------
# 8. trace-propagation
# ---------------------------------------------------------------------------

def _telemetry_aliases(tree: ast.Module, name: str) -> frozenset[str]:
    """Local names *name* was imported as from a telemetry module."""
    return frozenset(
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.module or "").endswith("telemetry")
        for alias in node.names if alias.name == name
    )


def _trace_scope_call(node: ast.Call, aliases: frozenset[str]) -> bool:
    func = node.func
    if isinstance(func, ast.Attribute) and func.attr == "trace_scope":
        owner = dotted_name(func.value) or ""
        return owner.split(".")[-1] == "telemetry"
    if isinstance(func, ast.Name):
        return func.id in aliases
    return False


@rule(
    "trace-propagation",
    description="serve-layer spans open inside a restored trace context",
    rationale=(
        "workers restore the campaign's submit-time trace with "
        "telemetry.trace_scope() before opening serve.* spans (this PR); "
        "a serve-layer span opened outside a trace_scope emits under the "
        "process's own ad-hoc trace id, fracturing the campaign's "
        "distributed trace per worker so the /trace merge can no longer "
        "assert one trace id per campaign"
    ),
    domains=("repro.serve",),
)
def check_trace_propagation(module: SourceModule):
    scope_aliases = _telemetry_aliases(module.tree, "trace_scope")
    span_aliases = _telemetry_aliases(module.tree, "span")
    covered: set[ast.AST] = set()
    for node in ast.walk(module.tree):
        if isinstance(node, (ast.With, ast.AsyncWith)) and any(
                isinstance(item.context_expr, ast.Call) and
                _trace_scope_call(item.context_expr, scope_aliases)
                for item in node.items):
            covered.update(ast.walk(node))
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call) or node in covered or \
                not _telemetry_span_call(node, span_aliases):
            continue
        if not node.args:
            continue
        first = node.args[0]
        if isinstance(first, ast.Constant) and \
                isinstance(first.value, str) and \
                first.value.startswith("serve."):
            yield node, (
                f"span {first.value!r} opened outside a "
                "telemetry.trace_scope(...) block; restore the campaign's "
                "submit-time trace context first so the span joins the "
                "campaign's distributed trace"
            )


@rule(
    "atlas-ingest-offsets",
    description="atlas journal readers go through the offset-resumable "
                "JsonlTail API, never ad-hoc file reads",
    rationale=(
        "the atlas's byte-determinism and kill-9 resumability (this PR) "
        "hang on every journal byte being consumed through "
        "telemetry.fleet.JsonlTail, whose `consumed` offset is the "
        "catalog's durable high-water mark and whose partial-line "
        "buffering tolerates torn writes; a raw open()/.readlines() of a "
        "journal reads torn lines as records and cannot resume, silently "
        "corrupting or duplicating atlas rows"
    ),
    domains=("repro.atlas",),
)
def check_atlas_ingest_offsets(module: SourceModule):
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        if terminal_name(node) == "readlines":
            yield node, (
                ".readlines() in the atlas layer bypasses the "
                "offset-resumable tail; read journals through "
                "telemetry.fleet.JsonlTail(path, offset=...).poll()"
            )
            continue
        if call_name(node) == "open" and node.args:
            first = node.args[0]
            literal = first.value if (
                isinstance(first, ast.Constant) and
                isinstance(first.value, str)) else None
            mentioned = literal if literal is not None else (
                dotted_name(first) or "")
            if literal is not None and literal.endswith(".jsonl") or \
                    "journal" in mentioned.lower():
                yield node, (
                    "journal file opened directly; the atlas must tail "
                    "journals with telemetry.fleet.JsonlTail so ingest "
                    "stays offset-resumable and torn-line tolerant"
                )
