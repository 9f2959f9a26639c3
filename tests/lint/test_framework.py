"""Framework tests: pragmas, baselines, module naming, parse errors, and
the CLI's exit-code contract."""

import json
import textwrap

import pytest

from repro.lint import (
    PARSE_ERROR,
    Baseline,
    analyze_paths,
    get_rules,
    lint_source,
    module_name,
)
from repro.lint.cli import main

VIOLATION = textwrap.dedent(
    """
    def record(trial_id):
        return TrialRecord(trial_id=trial_id, kind="fig3")
    """
)

CLEAN = textwrap.dedent(
    """
    def record(trial_id):
        return TrialRecord(trial_id=trial_id, kind="fig3", status="ok")
    """
)


class TestPragmas:
    def test_line_pragma_suppresses(self):
        source = (
            "def record(trial_id):\n"
            "    return TrialRecord(  "
            "# repro-lint: disable=journal-schema\n"
            "        trial_id=trial_id, kind='fig3')\n"
        )
        assert lint_source(source) == []

    def test_line_pragma_is_rule_specific(self):
        source = (
            "def record(trial_id):\n"
            "    return TrialRecord(  "
            "# repro-lint: disable=float-eq\n"
            "        trial_id=trial_id, kind='fig3')\n"
        )
        assert [f.rule for f in lint_source(source)] == \
            ["journal-schema"]

    def test_line_pragma_all(self):
        source = (
            "def record(trial_id):\n"
            "    return TrialRecord(  # repro-lint: disable=all\n"
            "        trial_id=trial_id, kind='fig3')\n"
        )
        assert lint_source(source) == []

    def test_file_pragma_suppresses_everywhere(self):
        source = ("# repro-lint: disable-file=journal-schema\n"
                  + VIOLATION)
        assert lint_source(source) == []

    def test_pragma_on_other_line_does_not_suppress(self):
        source = ("# repro-lint: disable=journal-schema\n"
                  + VIOLATION)
        assert len(lint_source(source)) == 1


class TestBaseline:
    def test_round_trip(self, tmp_path):
        findings = lint_source(VIOLATION, path="pkg/inject.py")
        assert len(findings) == 1
        path = str(tmp_path / "baseline.json")
        Baseline.from_findings(findings).save(path)
        loaded = Baseline.load(path)
        new, baselined = loaded.split(findings)
        assert new == []
        assert baselined == findings

    def test_counts_consumed(self, tmp_path):
        one = lint_source(VIOLATION, path="pkg/inject.py")
        twice = one + lint_source(VIOLATION, path="pkg/inject.py")
        baseline = Baseline.from_findings(one)
        new, baselined = baseline.split(twice)
        assert len(baselined) == 1
        assert len(new) == 1  # the second occurrence is a regression

    def test_missing_file_is_empty(self, tmp_path):
        baseline = Baseline.load(str(tmp_path / "absent.json"))
        assert baseline.entries == {}

    def test_wrong_version_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"version": 99, "findings": []}))
        with pytest.raises(ValueError):
            Baseline.load(str(path))

    def test_stale_entries_reported(self):
        findings = lint_source(VIOLATION, path="pkg/inject.py")
        baseline = Baseline.from_findings(findings)
        assert baseline.stale_entries([]) == sorted(baseline.entries)


class TestModuleNaming:
    def test_src_layout(self):
        assert module_name("src/repro/health/probe.py") == \
            "repro.health.probe"

    def test_init_collapses_to_package(self):
        assert module_name("src/repro/lint/__init__.py") == "repro.lint"

    def test_tests_layout(self):
        assert module_name("tests/hdf5/test_view.py") == \
            "tests.hdf5.test_view"

    def test_outside_roots_falls_back_to_stem(self):
        assert module_name("scripts/tool.py") == "tool"


class TestRegistry:
    def test_all_seven_rules_registered(self):
        names = {rule.name for rule in get_rules()}
        assert names >= {
            "rng-purity", "fork-safety", "view-discipline", "durable-io",
            "float-eq", "journal-schema", "span-discipline",
        }

    def test_unknown_rule_rejected(self):
        with pytest.raises(ValueError):
            get_rules(["no-such-rule"])

    def test_rules_carry_metadata(self):
        for rule in get_rules():
            assert rule.description
            assert rule.rationale


class TestLintPaths:
    def test_syntax_error_becomes_parse_error_finding(self, tmp_path):
        bad = tmp_path / "broken.py"
        bad.write_text("def oops(:\n")
        findings = analyze_paths([str(bad)]).findings
        assert [f.rule for f in findings] == [PARSE_ERROR]
        assert "parse" in findings[0].message

    def test_directory_walk_skips_pycache(self, tmp_path):
        (tmp_path / "__pycache__").mkdir()
        (tmp_path / "__pycache__" / "junk.py").write_text("import random\n")
        (tmp_path / "mod.py").write_text("x = 1\n")
        result = analyze_paths([str(tmp_path)])
        assert result.findings == []
        assert result.stats["files"] == 1


class TestCli:
    def test_no_paths_is_usage_error(self, capsys):
        assert main([]) == 2

    def test_clean_tree_exits_zero(self, tmp_path, monkeypatch, capsys):
        (tmp_path / "mod.py").write_text(CLEAN)
        monkeypatch.chdir(tmp_path)
        assert main(["mod.py"]) == 0
        assert "clean" in capsys.readouterr().out

    def test_finding_exits_one(self, tmp_path, monkeypatch, capsys):
        (tmp_path / "mod.py").write_text(VIOLATION)
        monkeypatch.chdir(tmp_path)
        assert main(["mod.py"]) == 1
        assert "journal-schema" in capsys.readouterr().out

    def test_unknown_select_is_usage_error(self, tmp_path, monkeypatch):
        (tmp_path / "mod.py").write_text(CLEAN)
        monkeypatch.chdir(tmp_path)
        assert main(["mod.py", "--select", "bogus"]) == 2

    def test_missing_path_is_usage_error(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["nowhere"]) == 2

    def test_write_baseline_then_clean(self, tmp_path, monkeypatch, capsys):
        (tmp_path / "mod.py").write_text(VIOLATION)
        monkeypatch.chdir(tmp_path)
        assert main(["mod.py", "--write-baseline"]) == 0
        assert main(["mod.py"]) == 0
        assert main(["mod.py", "--no-baseline"]) == 1

    def test_json_report_shape(self, tmp_path, monkeypatch, capsys):
        (tmp_path / "mod.py").write_text(VIOLATION)
        monkeypatch.chdir(tmp_path)
        assert main(["mod.py", "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["counts"]["new"] == 1
        assert payload["findings"][0]["rule"] == "journal-schema"
        assert payload["files_checked"] == 1

    def test_json_report_to_file(self, tmp_path, monkeypatch):
        (tmp_path / "mod.py").write_text(CLEAN)
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "report.json"
        assert main(["mod.py", "--format", "json",
                     "--output", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["counts"]["total"] == 0

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "rng-purity" in out
        assert "span-discipline" in out
