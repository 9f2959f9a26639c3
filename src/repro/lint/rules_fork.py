"""Whole-program rule: fork-reachability safety.

The campaign runner forks a pool of long-lived workers that each run
chunk attempts in a loop (``ctx.Process(target=_worker_main)``), and the
scheduler forks shard workers the same way.  The per-file
``fork-safety`` rule polices what the *experiments modules* create at
import time; this rule polices what the *workers can reach*: starting
from every fork entry point — resolved ``Process(target=...)`` functions
plus ``@trial_kind`` / ``@batch_trial_kind`` registered trial bodies — it
walks the resolved call graph and flags, anywhere in the closure:

* acquisition of a module-level lock (forked in an undefined held state:
  if the parent held it at fork time, the child deadlocks forever);
* use of a module-level file handle / memmap opened pre-fork (every
  worker aliases one file offset and one mmap — torn reads, interleaved
  writes);
* calls to ``setup_logging`` (reconfiguring the root logger in a child
  duplicates the parent's handlers and interleaves corrupt lines in the
  shared log file).

Only confidently-resolved call edges are walked — a by-name fallback here
would let one generic method name mark half the project fork-reachable.
"""

from __future__ import annotations

from typing import Iterable

from .core import CrossFinding, CrossModuleRule, cross_rule


@cross_rule
class ForkReachabilityRule(CrossModuleRule):
    name = "fork-reach"
    description = (
        "functions reachable from fork-pool worker entry points must not "
        "acquire module-level locks, touch pre-fork file handles, or call "
        "setup_logging"
    )
    rationale = (
        "fork() clones locks in whatever state the parent held them and "
        "aliases every open handle's offset; a worker that acquires a "
        "module lock can deadlock on the parent's ghost, and one that "
        "reconfigures logging corrupts the shared sink. Reachability is "
        "computed over resolved call edges from Process(target=...) and "
        "trial-kind registrations."
    )
    domains = ("repro",)

    def check(self, graph) -> Iterable[CrossFinding]:
        entries = graph.fork_entries()
        reached = graph.reachable_from(entries)
        for qualname in sorted(reached):
            facts = graph.functions[qualname]
            chain = graph.chain(reached, qualname)
            effects = facts["effects"]
            module = facts["module"]

            for use in effects["lock_uses"]:
                lock = graph.module_lock(module, use["name"])
                if lock is None:
                    continue
                yield CrossFinding(
                    path=facts["path"], line=use["line"],
                    message=(
                        f"{facts['name']} is reachable from a fork-pool "
                        f"worker entry and acquires module-level lock "
                        f"{use['name']!r} (defined line {lock['line']}); "
                        "locks fork in an undefined held state — pass a "
                        "per-worker lock or acquire only in the parent"
                    ),
                    trace=tuple(chain) + (
                        f"{qualname} ({facts['path']}:{use['line']}) "
                        f"acquires {use['name']}",
                        f"{use['name']} is module-level state "
                        f"({facts['path']}:{lock['line']}), created "
                        "pre-fork",
                    ),
                )

            for load in facts["free_loads"]:
                handle = graph.module_handle(module, load["name"])
                if handle is None:
                    continue
                yield CrossFinding(
                    path=facts["path"], line=load["line"],
                    message=(
                        f"{facts['name']} is reachable from a fork-pool "
                        f"worker entry and uses module-level handle "
                        f"{load['name']!r} opened pre-fork (line "
                        f"{handle['line']}); every worker aliases one "
                        "file offset/mmap — open the file inside the "
                        "worker instead"
                    ),
                    trace=tuple(chain) + (
                        f"{qualname} ({facts['path']}:{load['line']}) "
                        f"reads module-level {load['name']}",
                        f"{load['name']} opened at import time "
                        f"({facts['path']}:{handle['line']})",
                    ),
                )

            for line in effects["setup_logging"]:
                yield CrossFinding(
                    path=facts["path"], line=line,
                    message=(
                        f"{facts['name']} is reachable from a fork-pool "
                        "worker entry and calls setup_logging(); "
                        "reconfiguring logging in a forked child "
                        "duplicates the parent's handlers and interleaves "
                        "corrupt lines in the shared sink"
                    ),
                    trace=tuple(chain) + (
                        f"{qualname} ({facts['path']}:{line}) calls "
                        "setup_logging()",
                    ),
                )
