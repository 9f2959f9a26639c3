"""What code does to RNG state, locks, file handles and logging.

The vocabulary of the ``rng-purity`` and ``fork-safety`` rules lives here
once: what draws randomness, which factories make a lock or open a
handle.  This module applies it to one file's AST, per function as
**effects** and per module as the state created at import time, and
:class:`~repro.lint.graph.ProjectGraph` propagates the effects over the
call graph.

Everything here is extracted once per file (and cached by content hash,
see :mod:`repro.lint.project`), so it must be derivable from the AST
alone and must serialize to plain JSON.

Per-function effects (all keys always present)::

    {
      "rng":            [{"line", "what"}],          # RNG imports and draws
      "lock_uses":      [{"name", "line"}],          # with X: / X.acquire()
      "setup_logging":  [line, ...],
    }
"""

from __future__ import annotations

import ast
from collections import deque
from typing import Iterator

from .core import dotted_name, terminal_name

#: Method names that draw from an RNG state.  Inside a purity domain a
#: call through one of these is a draw whatever the receiver: a purity
#: domain has no legitimate RNG to call them on.
RNG_DRAW_METHODS = frozenset({
    "standard_normal", "normal", "uniform", "integers", "choice",
    "shuffle", "permutation", "rand", "randn", "randint", "random_sample",
    "beta", "binomial", "poisson", "exponential",
})

#: Modules whose import alone signals randomness.
RNG_MODULES = ("random", "numpy.random", "secrets")

_RNG_PREFIXES = tuple(f"{module}." for module in (*RNG_MODULES, "np.random"))

#: Calls that create a synchronization primitive (``threading``,
#: ``multiprocessing`` and context objects alike).
LOCK_FACTORIES = frozenset({
    "Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore", "Event",
    "Barrier",
})

#: Calls that open a file handle or mapping (``open``, ``hdf5.File``,
#: ``h5py.File``, ``np.memmap``, ``os.fdopen``).
HANDLE_FACTORIES = frozenset({"open", "File", "memmap", "fdopen"})

_FUNCTION_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)

_MUTABLE_LITERALS = (ast.Dict, ast.List, ast.Set, ast.ListComp,
                     ast.SetComp, ast.DictComp)


def expr_text(node: ast.AST | None) -> str:
    """Normalized source text of an expression (the dataflow identity)."""
    if node is None:
        return ""
    try:
        return ast.unparse(node)
    except Exception:  # pragma: no cover - unparse is total on exprs
        return ""


def _rng_module(name: str) -> bool:
    return any(name == module or name.startswith(f"{module}.")
               for module in RNG_MODULES)


def rng_use(node: ast.AST) -> str | None:
    """How *node* uses randomness, or None.

    An import of an RNG module, a reference to ``np.random``, an RNG
    construction, a call through an RNG module or a draw-method call.
    """
    if isinstance(node, ast.Import):
        for alias in node.names:
            if _rng_module(alias.name):
                return f"import of RNG module {alias.name!r}"
    elif isinstance(node, ast.ImportFrom):
        if _rng_module(node.module or ""):
            return f"import from RNG module {node.module!r}"
    elif isinstance(node, ast.Attribute):
        dotted = dotted_name(node)
        if dotted in ("np.random", "numpy.random"):
            return f"use of {dotted}"
    elif isinstance(node, ast.Call):
        name = terminal_name(node)
        dotted = dotted_name(node.func) or ""
        if name == "default_rng":
            return "default_rng() constructs an RNG"
        if dotted.startswith(_RNG_PREFIXES):
            return f"{dotted}() draws from module-level RNG state"
        if name in RNG_DRAW_METHODS and isinstance(node.func, ast.Attribute):
            return f"{expr_text(node.func.value)}.{name}() draws from an RNG"
    return None


def _ordered_nodes(root: ast.AST,
                   skip: frozenset = frozenset()) -> list[ast.AST]:
    """Every node under *root* outside the *skip* subtrees, source order.

    Nested defs and lambdas are absorbed into the enclosing top-level
    function: a closure's lock acquisition or RNG draw belongs to the
    function whose lifetime it shares.
    """
    nodes, queue = [], deque([root])
    while queue:
        node = queue.popleft()
        if hasattr(node, "lineno"):
            nodes.append(node)
        queue.extend(child for child in ast.iter_child_nodes(node)
                     if child not in skip)
    nodes.sort(key=lambda n: (n.lineno, n.col_offset))
    return nodes


def rng_uses(nodes: list[ast.AST]) -> list[dict]:
    """``{"line", "what"}`` of every RNG use among *nodes*."""
    return [{"line": node.lineno, "what": what} for node in nodes
            if (what := rng_use(node)) is not None]


def module_rng_uses(tree: ast.Module, functions: list[ast.AST]) -> list[dict]:
    """The RNG uses of a module outside *functions* (the ones its facts
    describe): module level and class bodies."""
    return rng_uses(_ordered_nodes(tree, frozenset(functions)))


def function_effects(func: ast.AST) -> dict:
    """Extract the effects digest of one (top-level) function or method."""
    nodes = _ordered_nodes(func)
    effects: dict = {"rng": rng_uses(nodes), "lock_uses": [],
                     "setup_logging": []}
    for node in nodes:
        if isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                if not isinstance(item.context_expr, ast.Call):
                    name = dotted_name(item.context_expr)
                    if name:
                        effects["lock_uses"].append(
                            {"name": name, "line": node.lineno})
        if not isinstance(node, ast.Call):
            continue
        last = terminal_name(node) or ""
        if last == "acquire" and isinstance(node.func, ast.Attribute):
            receiver = dotted_name(node.func.value)
            if receiver:
                effects["lock_uses"].append(
                    {"name": receiver, "line": node.lineno})
        if last == "setup_logging":
            effects["setup_logging"].append(node.lineno)
    return effects


# ---------------------------------------------------------------------------
# Import time
# ---------------------------------------------------------------------------

def _calls_in(node: ast.AST) -> Iterator[ast.Call]:
    for child in ast.walk(node):
        if isinstance(child, ast.Call):
            yield child


def import_time_calls(tree: ast.Module,
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


def _is_constant_name(name: str) -> bool:
    return name == name.upper() or (name.startswith("__")
                                    and name.endswith("__"))


def import_time_state(tree: ast.Module) -> list[dict]:
    """The locks, handles and mutable containers a module creates when it
    is imported, as ``{"kind", "name", "line", "what"}``.

    *kind* is ``"lock"``, ``"handle"`` or ``"mutable"``.  *name* is the
    module-level name the object is bound to (``LOCK = threading.Lock()``),
    or None where no function can load it by name (a class attribute, a
    default argument, a call inside a larger expression).  Write-once
    ``UPPER_CASE`` registries are not mutable state.
    """
    bound = {
        statement.value: statement.targets[0].id
        for statement in tree.body
        if isinstance(statement, ast.Assign)
        and len(statement.targets) == 1
        and isinstance(statement.targets[0], ast.Name)
    }
    state = []
    for call in import_time_calls(tree):
        name = terminal_name(call)
        kind = "lock" if name in LOCK_FACTORIES else \
            "handle" if name in HANDLE_FACTORIES else None
        if kind is not None:
            state.append({"kind": kind, "name": bound.get(call),
                          "line": call.lineno,
                          "what": f"{dotted_name(call.func) or name}()"})
    for value, name in bound.items():
        if isinstance(value, _MUTABLE_LITERALS) and \
                not _is_constant_name(name):
            state.append({"kind": "mutable", "name": name,
                          "line": value.lineno, "what": name})
    state.sort(key=lambda item: (item["line"], item["kind"]))
    return state
