"""Baseline v2 keying and pragma edge cases."""
# The string-literal sources below contain deliberately bogus pragmas;
# the line-based pragma scanner sees them when this file itself is
# linted, so silence the pseudo-rule here.
# repro-lint: disable-file=bad-pragma

import ast
import json

import pytest

from repro.lint import Baseline, LintFinding, lint_source
from repro.lint.core import REGISTRY, hash_line, rule


def _finding(rule_name="float-eq", path="src/repro/a.py",
             line=10, source_line="x == 1.0", message="exact float eq"):
    return LintFinding(rule=rule_name, path=path, line=line, col=0,
                       message=message, line_hash=hash_line(source_line))


class TestBaselineV2:
    def test_keyed_on_rule_file_and_line_content(self, tmp_path):
        baseline = Baseline.from_findings([_finding()])
        path = tmp_path / "baseline.json"
        baseline.save(str(path))
        payload = json.loads(path.read_text())
        assert payload["version"] == 2
        entry = payload["findings"][0]
        assert entry["rule"] == "float-eq"
        assert entry["path"] == "src/repro/a.py"
        assert entry["line_hash"] == hash_line("x == 1.0")
        assert "message" not in entry

    def test_same_message_other_file_not_consumed(self, tmp_path):
        # the v1 bug class: identity must be per (rule, file, line text)
        baseline = Baseline.from_findings([_finding()])
        moved = _finding(path="src/repro/b.py")
        new, baselined = baseline.split([moved])
        assert baselined == []
        assert new == [moved]

    def test_different_line_content_not_consumed(self):
        baseline = Baseline.from_findings([_finding()])
        edited = _finding(source_line="y == 2.0")
        new, baselined = baseline.split([edited])
        assert new == [edited]

    def test_line_shift_and_reformat_still_consumed(self):
        baseline = Baseline.from_findings([_finding(line=10)])
        shifted = _finding(line=99, source_line="x  ==  1.0")  # ws-insens
        new, baselined = baseline.split([shifted])
        assert new == []
        assert baselined == [shifted]

    def test_counts_consumed_countwise(self):
        baseline = Baseline.from_findings([_finding(), _finding()])
        findings = [_finding(), _finding(), _finding()]
        new, baselined = baseline.split(findings)
        assert len(baselined) == 2
        assert len(new) == 1

    def test_unknown_version_rejected(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps({"version": 7, "findings": []}))
        with pytest.raises(ValueError):
            Baseline.load(str(path))


class TestPragmaEdgeCases:
    def test_pragma_on_decorator_line_covers_decorated_def(self):
        # a rule anchored on a def must be suppressible from the first
        # decorator line — that is where the reviewer reads the function
        @rule("tmp-def-rule", description="t", rationale="t")
        def check_defs(module):
            for node in ast.walk(module.tree):
                if isinstance(node, ast.FunctionDef):
                    yield node, "flagged def"

        try:
            src_plain = (
                "@decorator\n"
                "def f():\n"
                "    pass\n"
            )
            found = lint_source(src_plain, select=["tmp-def-rule"])
            assert [f.line for f in found] == [2]

            src_pragma = (
                "@decorator  # repro-lint: disable=tmp-def-rule\n"
                "def f():\n"
                "    pass\n"
            )
            assert lint_source(src_pragma, select=["tmp-def-rule"]) == []

            # a pragma buried in the body does NOT suppress a def-anchored
            # finding: the span stops at the def line
            src_body = (
                "@decorator\n"
                "def f():\n"
                "    pass  # repro-lint: disable=tmp-def-rule\n"
            )
            found = lint_source(src_body, select=["tmp-def-rule"])
            assert [f.line for f in found] == [2]
        finally:
            del REGISTRY["tmp-def-rule"]

    def test_pragma_on_any_line_of_multiline_expression(self):
        src = (
            "def check(value):\n"
            "    return (value ==\n"
            "            1.0)  # repro-lint: disable=float-eq\n"
        )
        found = lint_source(src, module="repro.analysis.tmp",
                            select=["float-eq"])
        assert found == []

        src_no_pragma = (
            "def check(value):\n"
            "    return (value ==\n"
            "            1.0)\n"
        )
        found = lint_source(src_no_pragma, module="repro.analysis.tmp",
                            select=["float-eq"])
        assert len(found) == 1

    def test_unknown_rule_pragma_warns(self):
        src = "x = 1  # repro-lint: disable=froksafety\n"
        found = lint_source(src, module="repro.analysis.tmp")
        assert [f.rule for f in found] == ["bad-pragma"]
        assert "froksafety" in found[0].message

    def test_unknown_rule_in_file_pragma_warns(self):
        src = "# repro-lint: disable-file=not-a-rule\nx = 1\n"
        found = lint_source(src, module="repro.analysis.tmp")
        assert [f.rule for f in found] == ["bad-pragma"]

    def test_known_rule_pragma_silent(self):
        src = "x = 1  # repro-lint: disable=float-eq\n"
        assert lint_source(src, module="repro.analysis.tmp") == []

    def test_disable_all_pragma_silent(self):
        src = "x = 1  # repro-lint: disable=all\n"
        assert lint_source(src, module="repro.analysis.tmp") == []
