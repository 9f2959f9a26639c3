"""``fork-safety``: nothing a forked worker runs shares state with its
parent by accident.

The campaign runner forks a pool of long-lived workers that each run
chunk attempts in a loop (``ctx.Process(target=_worker_main)``), and the
serve scheduler forks shard workers the same way.  The rule reports two
ways state crosses that fork:

* **Import-time state in ``repro.experiments``**, the modules the workers
  are forked from: a lock, an open file handle or a lowercase mutable
  container created at import time, in a class body or a default argument
  included.  Write-once ``UPPER_CASE`` registries such as ``TRIAL_KINDS``
  are exempt.
* **What the workers reach**, anywhere in ``repro``.  From every fork
  entry point (resolved ``Process(target=...)`` functions and
  ``@trial_kind`` / ``@batch_trial_kind`` trial bodies) it walks the
  resolved call graph and reports the acquisition of a module-level lock
  (forked in an undefined held state: if the parent held it at fork time,
  the child deadlocks forever), a read of a module-level file handle or
  memmap opened before the fork (every worker aliases one offset and one
  mapping), and a call to ``setup_logging`` (reconfiguring the root logger
  in a child duplicates the parent's handlers and interleaves corrupt
  lines in the shared log file).

Only confidently resolved call edges are walked — a by-name fallback here
would let one generic method name mark half the project fork-reachable.
"""

from __future__ import annotations

from .core import in_domains, rule

#: Where import-time state is checked: the modules workers fork from.
IMPORT_TIME_DOMAINS = ("repro.experiments",)

_IMPORT_TIME = {
    "lock": ("synchronization primitive {what} created at import time "
             "crosses the campaign fork boundary in an undefined state; "
             "create it inside the function that uses it"),
    "handle": ("file handle opened at import time ({what}); an open handle "
               "captured across the runner's fork shares one file "
               "position/memmap between every worker"),
    "mutable": ("module-level mutable state {what!r} is captured by forked "
                "campaign workers; name it UPPER_CASE if it is a write-once "
                "import-time registry, otherwise build it inside a function"),
}


@rule(
    "fork-safety",
    description="no import-time locks, open files or mutable state in "
                "fork-boundary modules, and no module-level lock, pre-fork "
                "handle or setup_logging call reachable from a worker",
    rationale=(
        "fork() clones locks in whatever state the parent held them and "
        "aliases every open handle's offset and mapping: a worker that "
        "acquires a module lock can deadlock on the parent's ghost, one "
        "that reconfigures logging corrupts the shared sink, and lowercase "
        "module-level state diverges per worker without the parent ever "
        "seeing it.  Import-time state is checked where the campaign "
        "workers are forked from (repro.experiments); reachability is "
        "computed over resolved call edges from Process(target=...) and "
        "trial-kind registrations"
    ),
    domains=("repro",),
    whole_program=True,
)
def check_fork_safety(graph):
    for facts in graph.modules.values():
        if not in_domains(facts["module"], IMPORT_TIME_DOMAINS):
            continue
        for state in facts["import_state"]:
            yield facts["path"], state["line"], \
                _IMPORT_TIME[state["kind"]].format(what=state["what"]), (
                    f"{facts['module']} ({facts['path']}:{state['line']}) "
                    f"creates {state['what']} at import time",
                    "campaign workers forked from repro.experiments inherit "
                    "it as the parent left it",
                )

    reached = graph.reachable_from(graph.fork_entries())
    for qualname in sorted(reached):
        facts = graph.functions[qualname]
        chain = tuple(graph.chain(reached, qualname))
        module, path = facts["module"], facts["path"]
        entry = (f"{facts['name']} is reachable from a fork-pool worker "
                 "entry and")

        for use in facts["effects"]["lock_uses"]:
            lock = graph.module_state(module, use["name"], "lock")
            if lock is None:
                continue
            yield path, use["line"], (
                f"{entry} acquires module-level lock {use['name']!r} "
                f"(defined line {lock['line']}); locks fork in an undefined "
                "held state — pass a per-worker lock or acquire only in the "
                "parent"
            ), chain + (
                f"{qualname} ({path}:{use['line']}) acquires {use['name']}",
                f"{use['name']} is module-level state ({lock['path']}:"
                f"{lock['line']}), created pre-fork",
            )

        for load in facts["free_loads"]:
            handle = graph.module_state(module, load["name"], "handle")
            if handle is None:
                continue
            yield path, load["line"], (
                f"{entry} uses module-level handle {load['name']!r} opened "
                f"pre-fork (line {handle['line']}); every worker aliases one "
                "file offset/mmap — open the file inside the worker instead"
            ), chain + (
                f"{qualname} ({path}:{load['line']}) reads module-level "
                f"{load['name']}",
                f"{load['name']} opened at import time ({handle['path']}:"
                f"{handle['line']})",
            )

        for line in facts["effects"]["setup_logging"]:
            yield path, line, (
                f"{entry} calls setup_logging(); reconfiguring logging in a "
                "forked child duplicates the parent's handlers and "
                "interleaves corrupt lines in the shared sink"
            ), chain + (f"{qualname} ({path}:{line}) calls setup_logging()",)
