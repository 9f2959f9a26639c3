"""Project-wide module/symbol index and call graph over extracted facts.

The whole-program rules never see an AST.  Each file is distilled once
into a JSON-serializable **facts** dict (:func:`extract_module_facts`) —
its functions, their call sites and dataflow effects, imports, classes,
the RNG it uses and the state it creates at import time, pragma tables,
and per-line content hashes — and the
:class:`ProjectGraph` is assembled from those facts alone.  That split is
what makes ``--graph-cache`` honest: a warm run loads facts by content
hash and rebuilds the graph without parsing a single file.

Call resolution is best-effort static, in order of confidence:

1. ``self.method`` / ``cls.method`` through the enclosing class and its
   same-project base classes;
2. imported names (``from ..durable import Lease``, ``import os`` —
   external targets resolve to nothing);
3. bare names defined in the same module;
4. a *by-name* fallback: a sufficiently distinctive terminal name defined
   by at most :data:`BY_NAME_LIMIT` project functions resolves to all of
   them as may-call edges.  Only the call-graph dump (``--dump-graph``)
   shows these edges, labelled ``by-name``; the reachability rules stick
   to resolved edges so one generic method name cannot taint half the
   project.
"""

from __future__ import annotations

import ast
from collections import deque
from typing import Iterable

from . import dataflow
from .core import (SourceModule, dotted_name, hash_line, node_span,
                   terminal_name)

#: Facts format version; bump on any change to the extraction schema so
#: stale graph caches self-invalidate.
FACTS_VERSION = 3

#: Maximum project definitions a terminal name may have and still resolve
#: by name; more means the name is too generic to be evidence.
BY_NAME_LIMIT = 4

#: Terminal names never resolved by name (ubiquitous verbs).
_GENERIC_NAMES = frozenset({
    "run", "main", "load", "save", "get", "put", "set", "read", "write",
    "open", "close", "append", "update", "render", "parse", "start",
    "stop", "send", "recv", "next", "items", "keys", "values", "copy",
    "check", "finish", "flush", "join", "add", "pop", "clear", "submit",
})

_FORK_DECORATORS = frozenset({"trial_kind", "batch_trial_kind"})

_FUNCTION_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)


# ---------------------------------------------------------------------------
# Fact extraction (per file; runs in --jobs workers, output is cached)
# ---------------------------------------------------------------------------

def _call_facts(func: ast.AST) -> list[dict]:
    calls = []
    for node in ast.walk(func):
        if not isinstance(node, ast.Call):
            continue
        name = dotted_name(node.func)
        if name is None:
            term = terminal_name(node)
            if term is None:
                continue
            name = "." + term  # attribute call on an opaque receiver
        span_start, end_line = node_span(node)
        calls.append({
            "name": name, "line": node.lineno,
            "span_start": span_start, "end_line": end_line,
            "args": [dataflow.expr_text(a) for a in node.args],
        })
    calls.sort(key=lambda c: (c["line"], c["name"]))
    return calls


def _free_loads(func: ast.AST) -> list[dict]:
    """Names this function reads but never binds (module/global refs)."""
    bound: set[str] = set()
    if isinstance(func, _FUNCTION_NODES):
        args = func.args
        bound.update(a.arg for a in (*args.posonlyargs, *args.args,
                                     *args.kwonlyargs))
        if args.vararg:
            bound.add(args.vararg.arg)
        if args.kwarg:
            bound.add(args.kwarg.arg)
    loads: dict[str, int] = {}
    for node in ast.walk(func):
        if isinstance(node, ast.Name):
            if isinstance(node.ctx, (ast.Store, ast.Del)):
                bound.add(node.id)
            else:
                loads.setdefault(node.id, node.lineno)
        elif isinstance(node, _FUNCTION_NODES):
            if node is not func:
                bound.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update((a.asname or a.name).split(".")[0]
                         for a in node.names)
    return [{"name": name, "line": line}
            for name, line in sorted(loads.items())
            if name not in bound]


def _function_facts(func: ast.AST, cls: str | None) -> dict:
    span_start, end_line = node_span(func)
    args = func.args
    params = [a.arg for a in (*args.posonlyargs, *args.args)]
    decorators = []
    for decorator in func.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) \
            else decorator
        name = dotted_name(target) or terminal_name(
            ast.Call(func=target, args=[], keywords=[])) or ""
        if name:
            decorators.append(name)
    return {
        "name": func.name, "cls": cls, "line": func.lineno,
        "span_start": span_start, "end_line": end_line,
        "params": params, "decorators": decorators,
        "calls": _call_facts(func),
        "free_loads": _free_loads(func),
        "effects": dataflow.function_effects(func),
    }


def _import_map(module: SourceModule) -> dict[str, str]:
    """Local name -> absolute dotted target, for every import anywhere."""
    package = module.module if module.path.endswith("__init__.py") \
        else module.module.rpartition(".")[0]
    imports: dict[str, str] = {}
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imports[(alias.asname or alias.name).split(".")[0]] = \
                    alias.name if alias.asname else alias.name.split(".")[0]
                if alias.asname:
                    imports[alias.asname] = alias.name
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                parts = package.split(".") if package else []
                if node.level > 1:
                    parts = parts[:len(parts) - (node.level - 1)]
                base = ".".join(parts + ([node.module] if node.module
                                         else []))
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                imports[local] = f"{base}.{alias.name}" if base \
                    else alias.name
    return imports


def extract_module_facts(module: SourceModule) -> dict:
    """The whole-program facts digest of one parsed file."""
    functions: dict[str, dict] = {}
    classes: dict[str, dict] = {}
    fork_targets: list[dict] = []
    extracted: list[ast.AST] = []  # the function nodes facts describe

    for statement in module.tree.body:
        if isinstance(statement, _FUNCTION_NODES):
            facts = _function_facts(statement, cls=None)
            functions[f"{module.module}.{statement.name}"] = facts
            extracted.append(statement)
        elif isinstance(statement, ast.ClassDef):
            methods = []
            for sub in statement.body:
                if isinstance(sub, _FUNCTION_NODES):
                    methods.append(sub.name)
                    qualname = (f"{module.module}."
                                f"{statement.name}.{sub.name}")
                    functions[qualname] = _function_facts(
                        sub, cls=statement.name)
                    extracted.append(sub)
            classes[statement.name] = {
                "line": statement.lineno, "methods": methods,
                "bases": [dataflow.expr_text(base)
                          for base in statement.bases],
            }

    for node in ast.walk(module.tree):
        if isinstance(node, ast.Call) and \
                (terminal_name(node) or "") == "Process":
            for kw in node.keywords:
                if kw.arg == "target":
                    fork_targets.append({
                        "name": dataflow.expr_text(kw.value),
                        "line": node.lineno,
                    })

    return {
        "version": FACTS_VERSION,
        "path": module.path,
        "module": module.module,
        "is_package": module.path.endswith("__init__.py"),
        "imports": _import_map(module),
        "functions": functions,
        "classes": classes,
        "module_rng": dataflow.module_rng_uses(module.tree, extracted),
        "import_state": dataflow.import_time_state(module.tree),
        "fork_targets": fork_targets,
        "line_hashes": [hash_line(line) for line in module.lines],
        "line_suppressions": {
            str(line): sorted(names)
            for line, names in module.line_suppressions.items()
        },
        "file_suppressions": sorted(module.file_suppressions),
    }


# ---------------------------------------------------------------------------
# The assembled graph
# ---------------------------------------------------------------------------

class ProjectGraph:
    """Symbol index + call graph + summaries over per-module facts."""

    def __init__(self, modules: dict[str, dict]):
        #: path -> module facts
        self.modules = dict(sorted(modules.items()))
        #: qualname -> function facts (augmented with module/path)
        self.functions: dict[str, dict] = {}
        #: module dotted name -> facts
        self.by_module: dict[str, dict] = {}
        self._by_terminal: dict[str, list[str]] = {}
        self._resolve_cache: dict[tuple[str, str, bool], tuple[str, ...]] \
            = {}
        for path, facts in self.modules.items():
            self.by_module[facts["module"]] = facts
            for qualname, func in facts["functions"].items():
                func = dict(func)
                func["qualname"] = qualname
                func["module"] = facts["module"]
                func["path"] = path
                self.functions[qualname] = func
                self._by_terminal.setdefault(func["name"], []) \
                    .append(qualname)
        for names in self._by_terminal.values():
            names.sort()
        self._rng_taint: dict[str, tuple[str, int] | None] | None = None

    # -- symbol resolution -------------------------------------------------

    def _class_method(self, module: str, cls: str,
                      method: str, depth: int = 0) -> str | None:
        facts = self.by_module.get(module)
        if facts is None or depth > 3:
            return None
        klass = facts["classes"].get(cls)
        if klass is None:
            return None
        if method in klass["methods"]:
            return f"{module}.{cls}.{method}"
        for base in klass["bases"]:
            base_term = base.split(".")[-1]
            for base_module, base_facts in self.by_module.items():
                if base_term in base_facts["classes"]:
                    found = self._class_method(base_module, base_term,
                                               method, depth + 1)
                    if found:
                        return found
        return None

    def _by_name(self, term: str) -> tuple[str, ...]:
        if term in _GENERIC_NAMES or len(term) < 4:
            return ()
        candidates = self._by_terminal.get(term, ())
        if 0 < len(candidates) <= BY_NAME_LIMIT:
            return tuple(candidates)
        return ()

    def resolve(self, caller: str, raw_name: str,
                by_name: bool = False) -> tuple[str, ...]:
        """Callee qualnames a call through *raw_name* may reach.

        *caller* is the calling function's qualname (source of module and
        class context).  With ``by_name=False`` only confidently resolved
        edges are returned; ``by_name=True`` adds the distinctive-name
        fallback (may-call edges).
        """
        key = (caller, raw_name, by_name)
        cached = self._resolve_cache.get(key)
        if cached is not None:
            return cached
        result = self._resolve(caller, raw_name, by_name)
        self._resolve_cache[key] = result
        return result

    def _resolve(self, caller: str, raw_name: str,
                 by_name: bool) -> tuple[str, ...]:
        caller_facts = self.functions.get(caller)
        if caller_facts is None:
            return ()
        module = caller_facts["module"]
        module_facts = self.by_module[module]
        term = raw_name.split(".")[-1]

        if raw_name.startswith("."):  # opaque receiver: terminal only
            return self._by_name(term) if by_name else ()

        parts = raw_name.split(".")
        head = parts[0]

        if head in ("self", "cls") and caller_facts.get("cls") and \
                len(parts) == 2:
            found = self._class_method(module, caller_facts["cls"], term)
            if found:
                return (found,)
            return self._by_name(term) if by_name else ()

        if len(parts) == 1:
            local = f"{module}.{head}"
            if local in self.functions:
                return (local,)
            target = module_facts["imports"].get(head)
            if target and target in self.functions:
                return (target,)
            if target:
                mod, _, clsname = target.rpartition(".")
                found = self._class_method(mod, clsname, "__init__")
                if found:
                    return (found,)
            if head in module_facts["classes"]:
                found = self._class_method(module, head, "__init__")
                return (found,) if found else ()
            return self._by_name(term) if by_name else ()

        target = module_facts["imports"].get(head)
        if target is not None:
            full = ".".join([target] + parts[1:])
            if full in self.functions:
                return (full,)
            # module.Class.method or module.Class() patterns
            if len(parts) >= 2:
                mod, _, clsname = ".".join([target] + parts[1:-1]) \
                    .rpartition(".")
                found = self._class_method(mod, clsname, term)
                if found:
                    return (found,)
            if target.split(".")[0] not in self.by_module and \
                    not any(m.startswith(target.split(".")[0] + ".")
                            or m == target.split(".")[0]
                            for m in self.by_module):
                return ()  # stdlib / third-party: no project edge
        if head in module_facts["classes"] and len(parts) == 2:
            found = self._class_method(module, head, term)
            if found:
                return (found,)
        return self._by_name(term) if by_name else ()

    # -- call edges and reachability ---------------------------------------

    def edges_from(self, qualname: str,
                   by_name: bool = False) -> list[tuple[str, int, str]]:
        """(callee qualname, call line, raw name) edges out of one node."""
        facts = self.functions.get(qualname)
        if facts is None:
            return []
        out = []
        for call in facts["calls"]:
            for callee in self.resolve(qualname, call["name"],
                                       by_name=by_name):
                out.append((callee, call["line"], call["name"]))
        return out

    def fork_entries(self) -> list[str]:
        """The worker entry points the ``fork-safety`` rule walks from:
        ``Process(target=...)`` functions and ``@trial_kind`` /
        ``@batch_trial_kind`` registered trial bodies."""
        entries: set[str] = set()
        for facts in self.modules.values():
            module = facts["module"]
            for target in facts["fork_targets"]:
                for qualname in self._resolve_in_module(
                        module, target["name"]):
                    entries.add(qualname)
            for qualname, func in facts["functions"].items():
                if any(d.split(".")[-1] in _FORK_DECORATORS
                       for d in func["decorators"]):
                    entries.add(qualname)
        return sorted(entries)

    def _resolve_in_module(self, module: str,
                           raw_name: str) -> tuple[str, ...]:
        """Resolve *raw_name* in *module* scope without a caller context."""
        facts = self.by_module.get(module)
        if facts is None:
            return ()
        parts = raw_name.split(".")
        local = f"{module}.{raw_name}"
        if local in self.functions:
            return (local,)
        target = facts["imports"].get(parts[0])
        if target:
            full = ".".join([target] + parts[1:])
            if full in self.functions:
                return (full,)
        return ()

    def reachable_from(self, entries: Iterable[str],
                       by_name: bool = False
                       ) -> dict[str, tuple[str, int] | None]:
        """BFS closure: reached qualname -> (caller, call line) witness.

        Entry points map to ``None``; every other reached function records
        the first (deterministic, sorted-order) edge that reached it, from
        which :meth:`chain` reconstructs the full call path.
        """
        reached: dict[str, tuple[str, int] | None] = {}
        queue = deque()
        for entry in sorted(set(entries)):
            if entry in self.functions:
                reached[entry] = None
                queue.append(entry)
        while queue:
            current = queue.popleft()
            for callee, line, _raw in sorted(
                    self.edges_from(current, by_name=by_name)):
                if callee not in reached:
                    reached[callee] = (current, line)
                    queue.append(callee)
        return reached

    def chain(self, reached: dict[str, tuple[str, int] | None],
              qualname: str) -> list[str]:
        """Human-readable call chain from an entry point to *qualname*."""
        hops = []
        cursor = qualname
        seen = set()
        while cursor is not None and cursor not in seen:
            seen.add(cursor)
            facts = self.functions[cursor]
            witness = reached.get(cursor)
            if witness is None:
                hops.append(f"{cursor} ({facts['path']}:{facts['line']}) "
                            "[entry point]")
                break
            caller, line = witness
            caller_facts = self.functions[caller]
            hops.append(f"{cursor} called from {caller} "
                        f"({caller_facts['path']}:{line})")
            cursor = caller
        hops.reverse()
        return hops

    # -- summaries ---------------------------------------------------------

    def rng_taint(self) -> dict[str, tuple[str, int] | None]:
        """Functions that (transitively) draw RNG.

        Maps qualname -> witness: ``None`` for a direct draw, else the
        ``(callee, call line)`` through which the taint arrives.
        """
        if self._rng_taint is not None:
            return self._rng_taint
        taint: dict[str, tuple[str, int] | None] = {}
        for qualname in sorted(self.functions):
            if self.functions[qualname]["effects"]["rng"]:
                taint[qualname] = None
        changed = True
        while changed:
            changed = False
            for qualname in sorted(self.functions):
                if qualname in taint:
                    continue
                for callee, line, _raw in sorted(
                        self.edges_from(qualname)):
                    if callee in taint:
                        taint[qualname] = (callee, line)
                        changed = True
                        break
        self._rng_taint = taint
        return taint

    def rng_chain(self, qualname: str) -> list[str]:
        """The witness chain from *qualname* down to the actual draw."""
        taint = self.rng_taint()
        hops = []
        cursor = qualname
        seen = set()
        while cursor not in seen:
            seen.add(cursor)
            facts = self.functions[cursor]
            witness = taint.get(cursor)
            if witness is None:
                draws = facts["effects"]["rng"]
                what = draws[0]["what"] if draws else "draws RNG"
                hops.append(f"{cursor} ({facts['path']}:"
                            f"{draws[0]['line'] if draws else facts['line']}"
                            f") {what}")
                break
            callee, line = witness
            hops.append(f"{cursor} ({facts['path']}:{line}) calls "
                        f"{callee.split('.')[-1]}")
            cursor = callee
        return hops

    # -- import-time state lookups -----------------------------------------

    def module_state(self, module: str, name: str,
                     kind: str) -> dict | None:
        """The import-time *kind* object (see
        :func:`~repro.lint.dataflow.import_time_state`) that *name* loads in
        *module* — a module-level binding there, or one imported by name —
        with the ``path`` of the module that creates it."""
        head = name.split(".")[0]
        owners = [(module, head)]
        target = self.by_module.get(module, {}).get("imports", {}).get(head)
        if target:
            owner, _, attr = target.rpartition(".")
            owners.append((owner, attr))
        for owner, attr in owners:
            facts = self.by_module.get(owner)
            for state in facts["import_state"] if facts else ():
                if state["kind"] == kind and state["name"] == attr:
                    return {**state, "path": facts["path"]}
        return None

    # -- serialization (the CI call-graph artifact) ------------------------

    def to_json(self) -> dict:
        nodes = [
            {"qualname": qualname, "path": facts["path"],
             "line": facts["line"]}
            for qualname, facts in sorted(self.functions.items())
        ]
        edges = []
        for qualname in sorted(self.functions):
            for callee, line, raw in sorted(
                    self.edges_from(qualname, by_name=True)):
                resolved = self.resolve(qualname, raw, by_name=False)
                edges.append({
                    "caller": qualname, "callee": callee, "line": line,
                    "kind": "resolved" if callee in resolved
                    else "by-name",
                })
        return {
            "version": FACTS_VERSION,
            "nodes": nodes,
            "edges": edges,
            "fork_entries": self.fork_entries(),
        }
