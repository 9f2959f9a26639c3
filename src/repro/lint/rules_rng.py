"""``rng-purity``: observational code draws no randomness, itself or
through anything it calls.

A seeded campaign's bit-identity oracle compares probed and unprobed
runs; one RNG draw in a probe, or in any helper it calls, advances the
stream and shifts every later sample.  In the purity domains (health
probes, telemetry, HDF5 validators, the linter itself) the rule reports:

* every RNG use outside a function — an import of ``random``,
  ``numpy.random`` or ``secrets``, a use of ``np.random``, a draw at
  module level or in a class body;
* every RNG use inside a function;
* in a function that uses none itself, the call through which it reaches
  a draw at any depth over resolved call edges
  (:meth:`~repro.lint.graph.ProjectGraph.rng_taint`).

Each finding's ``--explain`` trace names the draw, through the chain of
calls when there is one.
"""

from __future__ import annotations

from .core import rule

_ADVICE = ("observational code must stay bit-identity-neutral — pass "
           "values in, or move the draw to the campaign side")


@rule(
    "rng-purity",
    description="no RNG draws in bit-identity-critical code, directly or "
                "through any function it calls",
    rationale=(
        "health probes, telemetry, the structural validator and the "
        "linter must be observational: one RNG draw, here or in "
        "any helper they reach over resolved call edges, would shift every "
        "subsequent sample of a seeded campaign and silently break the "
        "probed == unprobed bit-identity guarantee"
    ),
    domains=("repro.health", "repro.telemetry", "repro.hdf5.validate",
             "repro.lint"),
    whole_program=True,
)
def check_rng_purity(graph):
    for facts in graph.modules.values():
        for use in facts["module_rng"]:
            yield facts["path"], use["line"], (
                f"{use['what']} in a purity domain; {_ADVICE}"
            ), (f"{facts['module']} ({facts['path']}:{use['line']}) "
                f"{use['what']} outside any function",)
    taint = graph.rng_taint()
    for qualname in sorted(taint):
        facts = graph.functions[qualname]
        witness = taint[qualname]
        if witness is None:
            for use in facts["effects"]["rng"]:
                yield facts["path"], use["line"], (
                    f"{facts['name']} draws RNG: {use['what']}; {_ADVICE}"
                ), (f"{qualname} ({facts['path']}:{use['line']}) "
                    f"{use['what']}",)
            continue
        callee, line = witness
        callee_facts = graph.functions[callee]
        yield facts["path"], line, (
            f"{facts['name']} transitively draws RNG: it calls "
            f"{callee_facts['name']} ({callee_facts['path']}:"
            f"{callee_facts['line']}), which reaches an RNG draw; {_ADVICE}"
        ), tuple(graph.rng_chain(qualname))
