"""Whole-program analysis: fixture corpora, cache, jobs, explain.

The fixture corpus under ``tests/lint/fixtures/`` is each cross-module
rule's specification: every rule has at least one positive fixture (the
protocol violated) and one negative (the protocol followed, including
the interprocedurally-credited variants).  Fixtures are copied into a
``src/repro/...`` layout in tmp_path so their dotted module names anchor
inside the rules' domains — in place, under ``tests/``, they anchor as
test modules and the whole-program rules ignore them by design.
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
    def test_missing_fsync_flagged_with_trace(self, tmp_path):
        found = _findings(
            tmp_path, {"atomic/bad_commit.py": "src/repro/store.py"},
            "atomic-commit")
        assert len(found) == 1
        assert "without an fsync" in found[0].message
        assert found[0].trace, "interprocedural finding must carry a trace"
        assert any("os.replace" in hop for hop in found[0].trace)

    def test_local_fsync_clean(self, tmp_path):
        assert _findings(
            tmp_path, {"atomic/good_commit.py": "src/repro/store.py"},
            "atomic-commit") == []

    def test_helper_fsync_credited(self, tmp_path):
        assert _findings(
            tmp_path,
            {"atomic/good_helper_commit.py": "src/repro/store.py",
             "atomic/helpers.py": "src/repro/helpers.py"},
            "atomic-commit") == []

    def test_helper_fsync_required_to_be_present(self, tmp_path):
        # same caller without the helper module: the credit disappears
        found = _findings(
            tmp_path,
            {"atomic/good_helper_commit.py": "src/repro/store.py"},
            "atomic-commit")
        assert len(found) == 1

    def test_marker_written_first_flagged(self, tmp_path):
        found = _findings(
            tmp_path,
            {"atomic/bad_marker_order.py": "src/repro/store.py"},
            "atomic-commit")
        assert len(found) == 1
        assert "write the marker last" in found[0].message

    def test_marker_written_last_clean(self, tmp_path):
        assert _findings(
            tmp_path,
            {"atomic/good_marker_order.py": "src/repro/store.py"},
            "atomic-commit") == []

    def test_inplace_marker_write_flagged(self, tmp_path):
        found = _findings(
            tmp_path, {"atomic/bad_inplace.py": "src/repro/store.py"},
            "atomic-commit")
        assert len(found) == 1
        assert "in-place" in found[0].message

    def test_pragma_suppresses(self, tmp_path):
        source = (FIXTURES / "atomic" / "bad_commit.py").read_text()
        source = source.replace(
            "    os.replace(tmp, catalog_path)",
            "    os.replace(tmp, catalog_path)"
            "  # repro-lint: disable=atomic-commit")
        target = tmp_path / "src" / "repro" / "store.py"
        target.parent.mkdir(parents=True)
        target.write_text(source)
        result = analyze_paths([str(tmp_path)])
        assert [f for f in result.findings
                if f.rule == "atomic-commit"] == []


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


class TestLeaseProtocol:
    def test_excl_without_ttl_flagged(self, tmp_path):
        found = _findings(
            tmp_path, {"lease/bad_lease.py": "src/repro/lock.py"},
            "lease-protocol")
        assert len(found) == 1
        assert "O_CREAT|O_EXCL" in found[0].message
        assert found[0].trace

    def test_own_ttl_path_clean(self, tmp_path):
        assert _findings(
            tmp_path, {"lease/good_lease.py": "src/repro/lock.py"},
            "lease-protocol") == []

    def test_sibling_method_ttl_credited(self, tmp_path):
        assert _findings(
            tmp_path, {"lease/good_lease_class.py": "src/repro/lock.py"},
            "lease-protocol") == []


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
            {"atomic/bad_commit.py": "src/repro/store.py",
             "atomic/helpers.py": "src/repro/helpers.py"})
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
            tmp_path, {"atomic/bad_commit.py": "src/repro/store.py"})
        cache = str(tmp_path / "cache.json")
        cold = analyze_paths([root], cache_path=cache)
        assert any(f.rule == "atomic-commit" for f in cold.findings)

        # fix the file: the warm run re-parses exactly it and the
        # cross-module finding disappears
        target = tmp_path / "src" / "repro" / "store.py"
        target.write_text(
            (FIXTURES / "atomic" / "good_commit.py").read_text())
        warm = analyze_paths([root], cache_path=cache)
        assert warm.stats["parsed"] == 1
        assert not any(f.rule == "atomic-commit" for f in warm.findings)


class TestJobsDeterminism:
    @pytest.mark.parametrize("jobs", [1, 8])
    def test_json_report_byte_identical_across_jobs(self, tmp_path, jobs):
        root = _materialize(tmp_path, {
            "atomic/bad_commit.py": "src/repro/store.py",
            "atomic/good_helper_commit.py": "src/repro/other_store.py",
            "atomic/helpers.py": "src/repro/helpers.py",
            "fork/bad_worker.py": "src/repro/worker.py",
            "fork/good_worker.py": "src/repro/worker_ok.py",
            "rng/probe_bad.py": "src/repro/health/probe_fx.py",
            "rng/noise.py": "src/repro/noise.py",
            "lease/bad_lease.py": "src/repro/lock.py",
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
                 if f.rule in ("atomic-commit", "fork-reach",
                               "rng-purity-flow", "lease-protocol")]
        assert cross == [], [f.render() for f in cross]
        # the rule walks from the pool's worker loop and the serve worker
        entries = result.graph.fork_entries()
        assert "repro.experiments.runner._worker_main" in entries
        assert "repro.serve.scheduler.run_worker" in entries

    def test_baseline_cache_fsyncs_before_commit(self, tmp_path):
        # the unit half of the regression: the helper the fix introduced
        # flushes an existing file and propagates a missing one
        from repro.experiments.common import _fsync_path

        target = tmp_path / "checkpoint.h5.tmp"
        target.write_bytes(b"payload")
        _fsync_path(str(target))  # must not raise
        with pytest.raises(FileNotFoundError):
            _fsync_path(str(tmp_path / "absent.tmp"))
