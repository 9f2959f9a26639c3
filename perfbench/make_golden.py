"""Regenerate ``golden.json``: the committed outcome digests of both trial
plans for a set of vetted seeds.

    python3 perfbench/make_golden.py

For each candidate seed the script runs the ``bs1`` plan sequentially and
as one 16-trial batch, and the ``cheap`` plan sequentially and in the
two-worker pool.  A seed is kept only when both modes of both pairs agree on
every trial; its sequential outcomes become the golden tables.  The
benchmark maps ``--seed`` onto the kept seeds, so every workload of a pair
is checked trial by trial against the same table -- ``inline-bs1`` and
``batch16-bs1`` must produce the same digest, and so must ``pool2-cheap``
and ``serve1-cheap``.  Rejected seeds are printed: each is a case where
execution modes disagree, which the program should not allow.

Regenerate only when a change is meant to alter trial outcomes, and say so
in its description.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CANDIDATES = range(10)


def main() -> int:
    scratch = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="golden-", dir=scratch)
    os.environ["REPRO_CACHE_DIR"] = os.path.join(workdir, "cache")
    os.environ["TMPDIR"] = workdir
    tempfile.tempdir = None
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    import digest
    import modes
    from repro.experiments.runner import run_campaign

    modes_by_pair = {"bs1": ({"workers": 1}, {"batch_trials": 16}),
                     "cheap": ({"workers": 1}, {"workers": 2})}
    golden: dict = {"seeds": [], "bs1": {}, "cheap": {}}
    try:
        for seed in CANDIDATES:
            tables = {}
            for pair, (reference, other) in modes_by_pair.items():
                workload = next(w for w in modes.WORKLOADS.values()
                                if w.pair == pair)
                tasks = modes.build_plan(workload, seed)
                entries = []
                for index, kwargs in enumerate((reference, other)):
                    journal = os.path.join(workdir,
                                           f"{pair}-{seed}-{index}.jsonl")
                    run_campaign(tasks, journal=journal, **kwargs)
                    records = digest.read_journal(journal)
                    entries.append(sorted(digest.trial_entry(r)
                                          for r in records))
                if entries[0] != entries[1]:
                    differ = [a.split("|")[0] for a, b in zip(*entries)
                              if a != b]
                    print(f"seed {seed}: {pair} modes disagree on {differ}")
                    break
                tables[pair] = {
                    "digest": digest.digest(entries[0]),
                    "trials": {entry.split("|", 1)[0]:
                               digest.entry_hash(entry)
                               for entry in entries[0]},
                }
            else:
                golden["seeds"].append(seed)
                for pair, table in tables.items():
                    golden[pair][str(seed)] = table
                print(f"seed {seed}: kept", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass
    with open(digest.GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {digest.GOLDEN_PATH}: seeds {golden['seeds']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
