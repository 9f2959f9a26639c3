"""Whole-program analysis: fixture corpora, cache, jobs, explain.

The fixture corpus under ``tests/lint/fixtures/`` specifies the rules
whose verdict depends on where a module sits: each cross-module rule and
the per-file ``durable-io`` rule has at least one positive fixture (the
protocol violated) and one negative (the protocol followed).  Fixtures
are copied into a ``src/repro/...`` layout in tmp_path so their dotted
module names anchor inside the rules' domains — in place, under
``tests/``, they anchor as test modules and the rules ignore them by
design.
"""

import json
import os
import pathlib
import shutil

import pytest

from repro.lint import analyze_paths
from repro.lint.cli import main as lint_main

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def _materialize(tmp_path, mapping):
    """Copy fixture files to repo-shaped destinations; return the root."""
    for fixture, dest in mapping.items():
        target = tmp_path / dest
        target.parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(FIXTURES / fixture, target)
    return str(tmp_path)


def _findings(tmp_path, mapping, rule):
    result = analyze_paths([_materialize(tmp_path, mapping)])
    assert not any(f.rule == "parse-error" for f in result.findings)
    return [f for f in result.findings if f.rule == rule]


class TestAtomicCommit:
    """The commit half of the per-file ``durable-io`` rule: only
    repro.durable renames a file into place."""

    def test_hand_rolled_commit_flagged(self, tmp_path):
        found = _findings(
            tmp_path,
            {"durable/hand_rolled_commit.py": "src/repro/store.py"},
            "durable-io")
        assert len(found) == 1
        assert "os.replace outside repro.durable" in found[0].message

    def test_durable_module_itself_exempt(self, tmp_path):
        assert _findings(
            tmp_path,
            {"durable/hand_rolled_commit.py": "src/repro/durable.py"},
            "durable-io") == []

    def test_pragma_suppresses(self, tmp_path):
        source = (FIXTURES / "durable" / "hand_rolled_commit.py").read_text()
        source = source.replace(
            "    os.replace(tmp, catalog_path)",
            "    os.replace(tmp, catalog_path)"
            "  # repro-lint: disable=durable-io")
        target = tmp_path / "src" / "repro" / "store.py"
        target.parent.mkdir(parents=True)
        target.write_text(source)
        result = analyze_paths([str(tmp_path)])
        assert [f for f in result.findings
                if f.rule == "durable-io"] == []


class TestLeaseProtocol:
    """The lock half of ``durable-io``: only repro.durable.Lease creates
    lock files."""

    def test_excl_without_ttl_flagged(self, tmp_path):
        found = _findings(
            tmp_path, {"durable/excl_lock.py": "src/repro/lock.py"},
            "durable-io")
        assert len(found) == 1
        assert "O_EXCL" in found[0].message
        assert "Lease" in found[0].message


class TestAtlasJournalReads:
    """The atlas half of ``durable-io``: journals are read through
    repro.durable.JsonlTail."""

    def test_raw_journal_read_flagged(self, tmp_path):
        found = _findings(
            tmp_path,
            {"durable/atlas_raw_journal.py": "src/repro/atlas/rows.py"},
            "durable-io")
        assert len(found) == 1
        assert "JsonlTail" in found[0].message

    def test_raw_journal_read_outside_atlas_not_flagged(self, tmp_path):
        assert _findings(
            tmp_path,
            {"durable/atlas_raw_journal.py": "src/repro/rows.py"},
            "durable-io") == []

    def test_going_through_durable_clean(self, tmp_path):
        # commits, a lease and a tail, placed where every check applies
        assert _findings(
            tmp_path,
            {"durable/through_durable.py": "src/repro/atlas/rows.py"},
            "durable-io") == []


class TestForkReachability:
    def test_module_lock_flagged_with_chain(self, tmp_path):
        found = _findings(
            tmp_path, {"fork/bad_worker.py": "src/repro/worker.py"},
            "fork-reach")
        assert len(found) == 1
        assert "module-level lock '_REGISTRY_LOCK'" in found[0].message
        # the trace walks entry -> helper -> acquisition
        assert any("entry point" in hop for hop in found[0].trace)
        assert any("acquires _REGISTRY_LOCK" in hop
                   for hop in found[0].trace)

    def test_setup_logging_flagged(self, tmp_path):
        found = _findings(
            tmp_path,
            {"fork/bad_worker_logging.py": "src/repro/worker.py"},
            "fork-reach")
        assert len(found) == 1
        assert "setup_logging" in found[0].message

    def test_prefork_handle_flagged(self, tmp_path):
        found = _findings(
            tmp_path,
            {"fork/bad_worker_handle.py": "src/repro/worker.py"},
            "fork-reach")
        assert len(found) == 1
        assert "_JOURNAL" in found[0].message

    def test_worker_local_state_clean(self, tmp_path):
        assert _findings(
            tmp_path, {"fork/good_worker.py": "src/repro/worker.py"},
            "fork-reach") == []


class TestRngPurityFlow:
    def test_transitive_draw_flagged_with_witness_chain(self, tmp_path):
        found = _findings(
            tmp_path,
            {"rng/probe_bad.py": "src/repro/health/probe_fx.py",
             "rng/noise.py": "src/repro/noise.py"},
            "rng-purity-flow")
        assert len(found) == 1
        assert "transitively draws RNG" in found[0].message
        # chain ends at the actual draw
        assert any("draws from" in hop or "default_rng" in hop
                   for hop in found[0].trace)

    def test_draw_outside_domain_not_anchored(self, tmp_path):
        # the drawing helper itself is outside the purity domains: the
        # only finding anchors on the in-domain probe
        found = _findings(
            tmp_path,
            {"rng/probe_bad.py": "src/repro/health/probe_fx.py",
             "rng/noise.py": "src/repro/noise.py"},
            "rng-purity-flow")
        assert all(f.path.endswith("health/probe_fx.py") for f in found)

    def test_pure_helpers_clean(self, tmp_path):
        assert _findings(
            tmp_path,
            {"rng/probe_good.py": "src/repro/health/probe_fx.py",
             "rng/mathutil.py": "src/repro/mathutil.py"},
            "rng-purity-flow") == []


class TestGraph:
    def test_fork_entries_from_process_and_decorators(self, tmp_path):
        root = tmp_path / "src" / "repro"
        root.mkdir(parents=True)
        shutil.copyfile(FIXTURES / "fork" / "bad_worker.py",
                        root / "worker.py")
        (root / "trials.py").write_text(
            "def trial_kind(name):\n"
            "    def deco(fn):\n"
            "        return fn\n"
            "    return deco\n"
            "\n"
            "@trial_kind('demo')\n"
            "def run_trial_demo(payload):\n"
            "    return payload\n"
        )
        result = analyze_paths([str(tmp_path)])
        entries = result.graph.fork_entries()
        assert "repro.worker.worker_main" in entries
        assert "repro.trials.run_trial_demo" in entries

    def test_dump_graph_is_serializable(self, tmp_path):
        _materialize(tmp_path,
                     {"fork/bad_worker.py": "src/repro/worker.py"})
        result = analyze_paths([str(tmp_path)])
        payload = result.graph.to_json()
        # round-trips through JSON and names real nodes
        parsed = json.loads(json.dumps(payload))
        names = {node["qualname"] for node in parsed["nodes"]}
        assert "repro.worker.worker_main" in names
        assert any(edge["caller"] == "repro.worker.worker_main"
                   for edge in parsed["edges"])


class TestGraphCache:
    def test_warm_run_parses_nothing(self, tmp_path, monkeypatch):
        root = _materialize(
            tmp_path,
            {"fork/bad_worker.py": "src/repro/worker.py",
             "rng/mathutil.py": "src/repro/mathutil.py"})
        cache = str(tmp_path / "cache.json")
        cold = analyze_paths([root], cache_path=cache)
        assert cold.stats["parsed"] == 2

        import repro.lint.core as core

        def explode(*args, **kwargs):
            raise AssertionError("warm run must not parse any file")

        monkeypatch.setattr(core.SourceModule, "parse", explode)
        warm = analyze_paths([root], cache_path=cache)
        assert warm.stats == {"files": 2, "parsed": 0, "cached": 2}
        assert [f.to_dict() for f in warm.findings] == \
               [f.to_dict() for f in cold.findings]

    def test_changed_file_reparsed_and_finding_updates(self, tmp_path):
        root = _materialize(
            tmp_path, {"fork/bad_worker.py": "src/repro/worker.py"})
        cache = str(tmp_path / "cache.json")
        cold = analyze_paths([root], cache_path=cache)
        assert any(f.rule == "fork-reach" for f in cold.findings)

        # fix the file: the warm run re-parses exactly it and the
        # cross-module finding disappears
        target = tmp_path / "src" / "repro" / "worker.py"
        target.write_text(
            (FIXTURES / "fork" / "good_worker.py").read_text())
        warm = analyze_paths([root], cache_path=cache)
        assert warm.stats["parsed"] == 1
        assert not any(f.rule == "fork-reach" for f in warm.findings)


class TestJobsDeterminism:
    @pytest.mark.parametrize("jobs", [1, 8])
    def test_json_report_byte_identical_across_jobs(self, tmp_path, jobs):
        root = _materialize(tmp_path, {
            "durable/hand_rolled_commit.py": "src/repro/store.py",
            "durable/through_durable.py": "src/repro/other_store.py",
            "durable/atlas_raw_journal.py": "src/repro/atlas/rows.py",
            "durable/excl_lock.py": "src/repro/lock.py",
            "fork/bad_worker.py": "src/repro/worker.py",
            "fork/good_worker.py": "src/repro/worker_ok.py",
            "rng/probe_bad.py": "src/repro/health/probe_fx.py",
            "rng/noise.py": "src/repro/noise.py",
        })
        out = tmp_path / f"report-{jobs}.json"
        code = lint_main([root, "--no-baseline", "--jobs", str(jobs),
                          "--format", "json", "--output", str(out)])
        assert code == 1  # the corpus contains positives
        baseline_out = tmp_path / "report-1.json"
        if jobs != 1:
            code = lint_main([root, "--no-baseline", "--jobs", "1",
                              "--format", "json", "--output",
                              str(baseline_out)])
            assert code == 1
            assert out.read_bytes() == baseline_out.read_bytes()


class TestExplain:
    def test_explain_prints_trace_per_finding(self, tmp_path, capsys):
        root = _materialize(
            tmp_path, {"fork/bad_worker.py": "src/repro/worker.py"})
        code = lint_main([root, "--no-baseline",
                          "--explain", "fork-reach"])
        assert code == 1
        out = capsys.readouterr().out
        assert "[fork-reach]" in out
        assert "entry point" in out
        assert "acquires _REGISTRY_LOCK" in out

    def test_explain_unknown_rule_is_usage_error(self, tmp_path, capsys):
        root = _materialize(
            tmp_path, {"rng/mathutil.py": "src/repro/mathutil.py"})
        assert lint_main([root, "--explain", "not-a-rule"]) == 2


class TestRuntimeSweepRegression:
    """The sweep fixed real findings; they must not come back."""

    def test_src_tree_has_no_cross_module_findings(self):
        repo = pathlib.Path(__file__).resolve().parents[2]
        result = analyze_paths([str(repo / "src" / "repro")])
        cross = [f for f in result.findings
                 if f.rule in ("fork-reach", "rng-purity-flow")]
        assert cross == [], [f.render() for f in cross]
        # the rule walks from the pool's worker loop and the serve worker
        entries = result.graph.fork_entries()
        assert "repro.experiments.runner._worker_main" in entries
        assert "repro.serve.scheduler.run_worker" in entries

    def test_src_tree_commits_only_through_durable(self):
        repo = pathlib.Path(__file__).resolve().parents[2]
        result = analyze_paths([str(repo / "src" / "repro")])
        found = [f for f in result.findings if f.rule == "durable-io"]
        assert found == [], [f.render() for f in found]

    def test_baseline_cache_fsyncs_before_commit(self, tmp_path,
                                                 monkeypatch):
        # each file's bytes reach the disk before its rename, the
        # directory right after it, and meta.json (the commit marker)
        # is renamed last
        from repro.experiments.common import (SCALES, Baseline,
                                              BaselineCache, SessionSpec)

        class FakeTrainCache(BaselineCache):
            def _train(self, spec, ckpt, final):
                for path in (ckpt, final):
                    with open(path, "wb") as handle:
                        handle.write(b"weights")
                return Baseline(spec, ckpt, final, [0.5], [0.5], 0.5)

        events = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            events.append(("fsync", os.readlink(f"/proc/self/fd/{fd}")))
            real_fsync(fd)

        def replace(src, dst):
            events.append(("replace", os.path.abspath(src), dst))
            real_replace(src, dst)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        spec = SessionSpec("chainer_like", "alexnet", SCALES["smoke"])
        FakeTrainCache(str(tmp_path)).get(spec)
        renames = [i for i, event in enumerate(events)
                   if event[0] == "replace"]
        assert [os.path.basename(events[i][2]) for i in renames] == \
            ["checkpoint.h5", "final.h5", "meta.json"]
        for i in renames:
            _, src, dst = events[i]
            assert events[i - 1] == ("fsync", src)
            assert events[i + 1] == ("fsync", os.path.dirname(dst))
