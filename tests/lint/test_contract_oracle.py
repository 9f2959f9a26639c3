"""Frozen (path, line) oracle for the ``rng-purity`` and ``fork-safety``
contracts.

Each contract was once split across a per-file rule (direct draws,
import-time state) and a whole-program twin (transitive draws, what a
forked worker reaches).  The expected sets below are what the two halves
reported together on every rule snippet of ``test_rules.py`` and every
corpus under ``fixtures/rng`` and ``fixtures/fork``; the one rule that
now owns each contract must report exactly that set, each line once, and
keep every clean case clean.

Every case is written into a ``src/repro/...`` layout and analyzed as a
project, so both halves of the old pair would have seen it.
"""

import os
import pathlib
import shutil
import textwrap

import pytest

from repro.lint import analyze_paths

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def _src(module):
    return "src/" + module.replace(".", "/") + ".py"


#: (rule, {destination: source text or fixture name}, expected findings)
CASES = {
    "rng-import-random": ("rng-purity", {
        _src("repro.health.probe"): "import random\n",
    }, [(_src("repro.health.probe"), 1)]),
    "rng-from-numpy-random": ("rng-purity", {
        _src("repro.telemetry.core"):
            "from numpy.random import default_rng\n",
    }, [(_src("repro.telemetry.core"), 1)]),
    "rng-np-random-attribute": ("rng-purity", {
        _src("repro.hdf5.validate"): """
            import numpy as np

            def jitter(x):
                return x + np.random.normal()
            """,
    }, [(_src("repro.hdf5.validate"), 5)]),
    "rng-draw-method": ("rng-purity", {
        _src("repro.health.outcome"): """
            def sample(rng, values):
                return rng.choice(values)
            """,
    }, [(_src("repro.health.outcome"), 3)]),
    "rng-outside-domain-clean": ("rng-purity", {
        _src("repro.experiments.table5"): "import random\n",
    }, []),
    "rng-pure-math-clean": ("rng-purity", {
        _src("repro.health.probe"): """
            import math

            def score(x):
                return math.isnan(x)
            """,
    }, []),
    "rng-corpus-transitive": ("rng-purity", {
        _src("repro.health.probe_fx"): "rng/probe_bad.py",
        _src("repro.noise"): "rng/noise.py",
    }, [(_src("repro.health.probe_fx"), 7)]),
    "rng-corpus-pure-clean": ("rng-purity", {
        _src("repro.health.probe_fx"): "rng/probe_good.py",
        _src("repro.mathutil"): "rng/mathutil.py",
    }, []),
    "fork-module-lock": ("fork-safety", {
        _src("repro.experiments.runner"): """
            import threading

            lock = threading.Lock()
            """,
    }, [(_src("repro.experiments.runner"), 4)]),
    "fork-import-time-open": ("fork-safety", {
        _src("repro.experiments.common"): 'handle = open("state.h5")\n',
    }, [(_src("repro.experiments.common"), 1)]),
    "fork-class-attribute-lock": ("fork-safety", {
        _src("repro.experiments.runner"): """
            import threading

            class Pool:
                guard = threading.Lock()
            """,
    }, [(_src("repro.experiments.runner"), 5)]),
    "fork-default-arg-lock": ("fork-safety", {
        _src("repro.experiments.runner"): """
            import threading

            def run(guard=threading.Lock()):
                pass
            """,
    }, [(_src("repro.experiments.runner"), 4)]),
    "fork-lowercase-mutable-state": ("fork-safety", {
        _src("repro.experiments.common"): "cache = {}\n",
    }, [(_src("repro.experiments.common"), 1)]),
    "fork-uppercase-registry-clean": ("fork-safety", {
        _src("repro.experiments.runner"): "TRIAL_KINDS = {}\n",
    }, []),
    "fork-lock-inside-function-clean": ("fork-safety", {
        _src("repro.experiments.runner"): """
            import threading

            def run():
                guard = threading.Lock()
                with open("x") as handle:
                    return handle, guard
            """,
    }, []),
    "fork-outside-domain-clean": ("fork-safety", {
        _src("repro.hdf5.file"): """
            import threading

            lock = threading.Lock()
            """,
    }, []),
    "fork-corpus-worker-lock": ("fork-safety", {
        _src("repro.worker"): "fork/bad_worker.py",
    }, [(_src("repro.worker"), 10)]),
    "fork-corpus-worker-handle": ("fork-safety", {
        _src("repro.worker"): "fork/bad_worker_handle.py",
    }, [(_src("repro.worker"), 9)]),
    "fork-corpus-worker-logging": ("fork-safety", {
        _src("repro.worker"): "fork/bad_worker_logging.py",
    }, [(_src("repro.worker"), 11)]),
    "fork-corpus-worker-local-clean": ("fork-safety", {
        _src("repro.worker"): "fork/good_worker.py",
    }, []),
}


def _materialize(root, files):
    for dest, text in files.items():
        target = root / dest
        target.parent.mkdir(parents=True, exist_ok=True)
        if text.endswith(".py"):
            shutil.copyfile(FIXTURES / text, target)
        else:
            target.write_text(textwrap.dedent(text))


@pytest.mark.parametrize("case", sorted(CASES))
def test_rule_reports_exactly_the_oracle(tmp_path, case):
    rule, files, expected = CASES[case]
    _materialize(tmp_path, files)
    result = analyze_paths([str(tmp_path)], select=[rule])
    found = [
        (os.path.relpath(os.path.abspath(f.path), tmp_path)
         .replace(os.sep, "/"), f.line)
        for f in result.findings if f.rule == rule
    ]
    assert sorted(set(found)) == sorted(expected)
    assert len(found) == len(set(found)), "a line reported twice"
