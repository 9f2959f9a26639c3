"""Per-function effects for the whole-program rules.

The whole-program rules need answers the per-file visitors cannot give:
*does anything a forked worker can reach take a module-level lock or draw
RNG?*  This module computes the per-function half of that answer as
**effects** — a JSON-serializable digest of what one function does to
locks, logging and RNG state — and :class:`~repro.lint.graph.ProjectGraph`
propagates them over the call graph.

Effects are extracted once per file (and cached by content hash, see
:mod:`repro.lint.project`), so everything here must be derivable from the
AST alone and must serialize to plain JSON.

Per-function effects (all keys always present)::

    {
      "rng":            [{"line", "what"}],          # direct RNG draws
      "lock_uses":      [{"name", "line"}],          # with X: / X.acquire()
      "setup_logging":  [line, ...],
    }
"""

from __future__ import annotations

import ast
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


def expr_text(node: ast.AST | None) -> str:
    """Normalized source text of an expression (the dataflow identity)."""
    if node is None:
        return ""
    try:
        return ast.unparse(node)
    except Exception:  # pragma: no cover - unparse is total on exprs
        return ""


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
    function: a closure's lock acquisition or RNG draw belongs to the
    function whose lifetime it shares.
    """
    nodes = [node for node in ast.walk(func) if hasattr(node, "lineno")]
    nodes.sort(key=lambda n: (n.lineno, n.col_offset))
    return iter(nodes)


def function_effects(func: ast.AST) -> dict:
    """Extract the effects digest of one (top-level) function or method."""
    effects: dict = {"rng": [], "lock_uses": [], "setup_logging": []}
    for node in _ordered_nodes(func):
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
        draw = _is_rng_draw(node)
        if draw is not None:
            effects["rng"].append({"line": node.lineno, "what": draw})
        if last == "acquire" and isinstance(node.func, ast.Attribute):
            receiver = dotted_name(node.func.value)
            if receiver:
                effects["lock_uses"].append(
                    {"name": receiver, "line": node.lineno})
        if last == "setup_logging":
            effects["setup_logging"].append(node.lineno)
    return effects
