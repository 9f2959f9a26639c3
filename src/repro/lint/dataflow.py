"""Intraprocedural dataflow with interprocedural summaries.

The whole-program rules need answers the per-file visitors cannot give:
*was the file fed to this* ``os.replace`` *fsynced first, on any path
through any helper?*  This module computes the per-function half of that
answer as **effects** — a JSON-serializable digest of what one function
does to files, locks, and RNG state — and the cross-function half as
**summaries** propagated to a fixpoint over the project call graph.

Effects are extracted once per file (and cached by content hash, see
:mod:`repro.lint.project`), so everything here must be derivable from the
AST alone and must serialize to plain JSON.  The dataflow is deliberately
*textual*: path expressions are compared by their normalized source text
(``ckpt + suffix`` matches ``ckpt + suffix``), which is exactly the level
at which the repo's commit protocols are written — every commit site
builds the temp name and replaces it within one function, or delegates
both to a helper like ``write_json_atomic``.

Per-function effects (all keys always present)::

    {
      "rng":            [{"line", "what"}],          # direct RNG draws
      "fsynced":        ["<path expr>", ...],        # locally fsynced
      "fsync_params":   [0, 2],                      # params fsynced
      "opens":          [{"line", "path", "mode"}],
      "replaces":       [{"line", "src", "dst", "src_fsynced",
                          "candidates": [{"name", "line", "arg"}]}],
      "excl_creates":   [{"line", "path"}],
      "ttl_marker":     true/false,                  # ttl/stale/reclaim
      "lock_uses":      [{"name", "line"}],          # with X: / X.acquire()
      "setup_logging":  [line, ...],
    }

``replaces[*].candidates`` are earlier same-function calls that received
the replace's source expression as an argument — the sites through which
an interprocedural fsync may have happened.  :func:`fsync_param_fixpoint`
resolves them: a function fsyncs parameter *i* if it fsyncs it directly
or passes it (as a bare name) to a callee parameter that does.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from .core import dotted_name, terminal_name

#: Method names that draw from an RNG state (shared with the per-file
#: rng-purity rule; redefined here so dataflow does not import the rule
#: modules it feeds).
RNG_DRAW_METHODS = frozenset({
    "standard_normal", "normal", "uniform", "integers", "choice",
    "shuffle", "permutation", "rand", "randn", "randint", "random_sample",
    "beta", "binomial", "poisson", "exponential",
})

_RNG_PREFIXES = ("random.", "np.random.", "numpy.random.", "secrets.")

_TTL_MARKER = re.compile(r"ttl|stale|expir|reclaim", re.IGNORECASE)

_WRITE_MODES = ("w", "wb", "a", "ab", "x", "xb", "w+", "r+", "rb+", "r+b")


def expr_text(node: ast.AST | None) -> str:
    """Normalized source text of an expression (the dataflow identity)."""
    if node is None:
        return ""
    try:
        return ast.unparse(node)
    except Exception:  # pragma: no cover - unparse is total on exprs
        return ""


def _call_mode(call: ast.Call, position: int = 1) -> str | None:
    """The literal mode argument of an ``open``-style call, if any."""
    if len(call.args) > position:
        arg = call.args[position]
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            return arg.value
    for kw in call.keywords:
        if kw.arg == "mode" and isinstance(kw.value, ast.Constant) and \
                isinstance(kw.value.value, str):
            return kw.value.value
    return None


def _is_rng_draw(call: ast.Call) -> str | None:
    """A human-readable description of the draw, or None."""
    name = terminal_name(call)
    dotted = dotted_name(call.func) or ""
    if name == "default_rng":
        return "default_rng() constructs an RNG"
    for prefix in _RNG_PREFIXES:
        if dotted.startswith(prefix):
            return f"{dotted}() draws from module-level RNG state"
    if name in RNG_DRAW_METHODS and isinstance(call.func, ast.Attribute):
        receiver = expr_text(call.func.value)
        return f"{receiver}.{name}() draws from an RNG"
    return None


def _ordered_nodes(func: ast.AST) -> Iterator[ast.AST]:
    """Every node under *func* (nested scopes included), source order.

    Nested defs and lambdas are absorbed into the enclosing top-level
    function: a closure's lock acquisition or fsync belongs to the
    function whose lifetime it shares.
    """
    nodes = [node for node in ast.walk(func) if hasattr(node, "lineno")]
    nodes.sort(key=lambda n: (n.lineno, n.col_offset))
    return iter(nodes)


def function_effects(func: ast.AST) -> dict:
    """Extract the effects digest of one (top-level) function or method."""
    params: list[str] = []
    if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
        args = func.args
        params = [a.arg for a in (*args.posonlyargs, *args.args)]

    # variable bindings discovered so far, in source order
    handle_paths: dict[str, str] = {}   # handle/fd var -> path expr text
    mkstemp_tmp: dict[str, str] = {}    # fd var -> tmp path var
    fsynced: list[str] = []
    call_args: list[dict] = []          # {"name", "line", "args": [texts]}

    effects: dict = {
        "rng": [], "fsynced": fsynced, "fsync_params": [], "opens": [],
        "replaces": [], "excl_creates": [], "ttl_marker": False,
        "lock_uses": [], "setup_logging": [],
    }

    identifiers: set[str] = set()
    if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
        identifiers.add(func.name)
    identifiers.update(params)

    def note_handle(target: ast.expr, call: ast.Call) -> None:
        """Bind ``target = open(...)`` / ``os.fdopen(fd)`` style handles."""
        if not isinstance(target, ast.Name):
            return
        name = dotted_name(call.func) or terminal_name(call) or ""
        if name.split(".")[-1] in ("open", "fdopen"):
            if not call.args:
                return
            first = call.args[0]
            first_text = expr_text(first)
            if name.split(".")[-1] == "fdopen" and \
                    first_text in mkstemp_tmp:
                handle_paths[target.id] = mkstemp_tmp[first_text]
            else:
                handle_paths[target.id] = first_text

    for node in _ordered_nodes(func):
        if isinstance(node, ast.Name):
            identifiers.add(node.id)
        elif isinstance(node, ast.Attribute):
            identifiers.add(node.attr)

        if isinstance(node, ast.Assign) and \
                isinstance(node.value, ast.Call):
            call = node.value
            callee = dotted_name(call.func) or ""
            if callee.endswith("mkstemp") and len(node.targets) == 1 and \
                    isinstance(node.targets[0], ast.Tuple) and \
                    len(node.targets[0].elts) == 2 and \
                    all(isinstance(e, ast.Name)
                        for e in node.targets[0].elts):
                fd_var, tmp_var = (e.id for e in node.targets[0].elts)
                mkstemp_tmp[fd_var] = tmp_var
                handle_paths[fd_var] = tmp_var
            elif callee == "os.open" and len(node.targets) == 1 and \
                    isinstance(node.targets[0], ast.Name) and call.args:
                handle_paths[node.targets[0].id] = expr_text(call.args[0])
            elif len(node.targets) == 1:
                note_handle(node.targets[0], call)

        if isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                if isinstance(item.context_expr, ast.Call) and \
                        item.optional_vars is not None:
                    note_handle(item.optional_vars, item.context_expr)
                elif not isinstance(item.context_expr, ast.Call):
                    name = dotted_name(item.context_expr)
                    if name:
                        effects["lock_uses"].append(
                            {"name": name, "line": node.lineno})

        if not isinstance(node, ast.Call):
            continue
        call = node
        callee = dotted_name(call.func) or ""
        last = terminal_name(call) or ""

        draw = _is_rng_draw(call)
        if draw is not None:
            effects["rng"].append({"line": call.lineno, "what": draw})

        if last == "acquire" and isinstance(call.func, ast.Attribute):
            receiver = dotted_name(call.func.value)
            if receiver:
                effects["lock_uses"].append(
                    {"name": receiver, "line": call.lineno})

        if last == "setup_logging":
            effects["setup_logging"].append(call.lineno)

        if last == "fsync" and call.args:
            arg = call.args[0]
            if isinstance(arg, ast.Call) and \
                    terminal_name(arg) == "fileno" and \
                    isinstance(arg.func, ast.Attribute):
                handle = expr_text(arg.func.value)
            else:
                handle = expr_text(arg)
            path = handle_paths.get(handle, handle)
            if path and path not in fsynced:
                fsynced.append(path)

        if callee == "os.open" and len(call.args) >= 2:
            flags = expr_text(call.args[1])
            if "O_EXCL" in flags and "O_CREAT" in flags:
                effects["excl_creates"].append(
                    {"line": call.lineno,
                     "path": expr_text(call.args[0])})

        if last in ("open", "fdopen") or callee in ("open", "os.open"):
            mode = _call_mode(call)
            if callee == "os.open":
                mode = None  # flags, not a mode string
            if call.args and mode in _WRITE_MODES:
                effects["opens"].append(
                    {"line": call.lineno,
                     "path": expr_text(call.args[0]), "mode": mode})

        if callee in ("os.replace", "os.rename") and len(call.args) == 2:
            src = expr_text(call.args[0])
            dst = expr_text(call.args[1])
            candidates = [
                {"name": earlier["name"], "line": earlier["line"],
                 "arg": earlier["args"].index(src)}
                for earlier in call_args
                if earlier["line"] <= call.lineno and src in earlier["args"]
            ]
            effects["replaces"].append({
                "line": call.lineno, "op": callee.split(".")[-1],
                "src": src, "dst": dst,
                "src_fsynced": src in fsynced,
                "candidates": candidates,
            })

        if callee not in ("os.replace", "os.rename", "os.fsync"):
            call_args.append({
                "name": callee or last, "line": call.lineno,
                "args": [expr_text(a) for a in call.args],
            })

    effects["fsync_params"] = [
        index for index, param in enumerate(params) if param in fsynced
    ]
    effects["ttl_marker"] = any(
        _TTL_MARKER.search(identifier) for identifier in identifiers
    )
    # re-judge replaces against the *complete* fsynced set: `fsync(h)`
    # textually after `os.replace` inside a try/finally still orders
    # before it at runtime often enough that line order alone would
    # false-positive; commit helpers fsync-then-replace, so a function
    # that fsyncs the expression anywhere is credited.
    for replace in effects["replaces"]:
        if not replace["src_fsynced"] and replace["src"] in fsynced:
            replace["src_fsynced"] = True
    return effects


# ---------------------------------------------------------------------------
# Interprocedural summaries
# ---------------------------------------------------------------------------

def fsync_param_fixpoint(functions: dict[str, dict],
                         resolve) -> dict[str, set[int]]:
    """Which parameters each function fsyncs, directly or transitively.

    *functions* maps qualname -> function facts (with ``effects`` and
    ``params``); *resolve* maps a raw callee name (as recorded in call
    facts) from a given caller to a list of callee qualnames.  A function
    fsyncs parameter *i* when its effects fsync the parameter's bare name,
    or when it passes that bare name as argument *j* to a callee that
    fsyncs parameter *j* — propagated to a fixpoint so helper chains of
    any depth are credited.
    """
    summary: dict[str, set[int]] = {}
    for qualname, facts in functions.items():
        effects = facts.get("effects", {})
        params = facts.get("params", [])
        direct = set(effects.get("fsync_params", []))
        summary[qualname] = direct

    changed = True
    passes = 0
    while changed and passes < 10:
        changed = False
        passes += 1
        for qualname, facts in functions.items():
            params = facts.get("params", [])
            if not params:
                continue
            current = summary[qualname]
            for call in facts.get("calls", []):
                args = call.get("args", [])
                hits = [i for i, arg in enumerate(args) if arg in params]
                if not hits:
                    continue
                for callee in resolve(qualname, call["name"]):
                    callee_summary = summary.get(callee, set())
                    callee_offset = _self_offset(functions.get(callee))
                    for arg_index in hits:
                        if arg_index + callee_offset in callee_summary:
                            param_index = params.index(args[arg_index])
                            if param_index not in current:
                                current.add(param_index)
                                changed = True
    return summary


def _self_offset(facts: dict | None) -> int:
    """1 when the callee is a method (caller arguments shift past self)."""
    if facts and facts.get("cls") and facts.get("params", [])[:1] in \
            (["self"], ["cls"]):
        return 1
    return 0
