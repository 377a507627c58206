"""Engine-level lint tests: suppressions, baseline diffing, registry,
config loading, reporters."""

import json
from pathlib import Path

import pytest

from repro.analysis import (
    BAD_SUPPRESSION,
    PARSE_ERROR,
    Baseline,
    Finding,
    LintConfig,
    LintResult,
    lint_file,
    load_config,
    register_rule,
    render_json,
    render_text,
    run_lint,
)
from repro.analysis.rules import LintRule, get_rule, registered_rules
from repro.analysis.suppress import scan_suppressions
from repro.errors import LintError, ReproError

FIXTURES = Path(__file__).parent / "lint_fixtures"
REPO_ROOT = Path(__file__).parents[1]


def _finding(rule="determinism", path="mod.py", line=3, snippet="x = time.time()"):
    return Finding(
        rule=rule, path=path, line=line, col=5,
        message="msg", snippet=snippet,
    )


# ----------------------------------------------------------------------
# Suppression comments
# ----------------------------------------------------------------------


class TestSuppressions:
    def run_fixture(self):
        config = LintConfig(
            root=FIXTURES, paths=(".",),
            determinism_paths=("fix_suppress.py",),
        )
        rules = [get_rule(rule_id) for rule_id in registered_rules()]
        return lint_file(
            FIXTURES / "fix_suppress.py", "fix_suppress.py", rules, config
        )

    def test_inline_and_standalone_suppressions_silence_findings(self):
        findings, suppressed = self.run_fixture()
        silenced_lines = {
            10,  # inline_ok: trailing comment on the offending line
            15,  # standalone_ok: comment on the line above
        }
        assert suppressed == 2
        assert not [f for f in findings if f.line in silenced_lines]

    def test_malformed_suppressions_never_silence(self):
        findings, _ = self.run_fixture()
        by_rule = {}
        for finding in findings:
            by_rule.setdefault(finding.rule, []).append(finding.line)
        # unknown_rule / missing_why / empty_ids all keep their
        # determinism finding AND gain a bad-suppression finding.
        assert sorted(by_rule["determinism"]) == [19, 23, 27]
        assert sorted(by_rule[BAD_SUPPRESSION]) == [19, 23, 27]

    def test_bad_suppression_messages_name_the_problem(self):
        findings, _ = self.run_fixture()
        messages = sorted(
            f.message for f in findings if f.rule == BAD_SUPPRESSION
        )
        assert any("not-a-rule" in m for m in messages)
        assert any("justification" in m for m in messages)
        assert any("names no rule id" in m for m in messages)

    @pytest.mark.parametrize(
        "rule_id",
        # The last two ids were merged into determinism and pool-safety.
        ["not-a-rule", "determinism-taint", "spawn-picklability"],
    )
    def test_unknown_rule_id_is_a_bad_suppression(self, tmp_path, rule_id):
        path = tmp_path / "mod.py"
        path.write_text(
            "import time\n\n\ndef stamp():\n"
            f"    return time.time()  # repro: lint-ignore[{rule_id}]: old\n"
        )
        config = LintConfig(
            root=tmp_path, paths=(".",), determinism_paths=("mod.py",)
        )
        rules = [get_rule(name) for name in registered_rules()]
        findings, suppressed = lint_file(path, "mod.py", rules, config)
        assert suppressed == 0
        assert sorted(f.rule for f in findings) == [
            BAD_SUPPRESSION, "determinism"
        ]
        (bad,) = [f for f in findings if f.rule == BAD_SUPPRESSION]
        assert repr(rule_id) in bad.message

    def test_scan_requires_exact_marker(self):
        table = scan_suppressions(
            "mod.py",
            "x = 1  # lint-ignore[determinism]: missing the repro: prefix\n",
            ("determinism",),
        )
        assert not table.by_line and not table.problems

    def test_marker_inside_string_is_not_a_suppression(self):
        source = 'text = "# repro: lint-ignore[determinism]: nope"\n'
        table = scan_suppressions("mod.py", source, ("determinism",))
        assert not table.by_line and not table.problems


# ----------------------------------------------------------------------
# Baseline add/remove diffing
# ----------------------------------------------------------------------


class TestBaseline:
    def test_roundtrip(self, tmp_path):
        findings = [_finding(), _finding(rule="pool-safety", line=9)]
        path = tmp_path / "base.json"
        Baseline.from_findings(findings).save(path)
        loaded = Baseline.load(path)
        assert len(loaded) == 2
        diff = loaded.diff(findings)
        assert not diff.new and not diff.resolved
        assert len(diff.baselined) == 2

    def test_line_shift_still_matches(self):
        baseline = Baseline.from_findings([_finding(line=3)])
        diff = baseline.diff([_finding(line=40)])  # same snippet, moved
        assert not diff.new and not diff.resolved

    def test_new_finding_is_new(self):
        baseline = Baseline.from_findings([_finding()])
        diff = baseline.diff([_finding(), _finding(snippet="y = hash(k)")])
        assert len(diff.new) == 1
        assert diff.new[0].snippet == "y = hash(k)"

    def test_fixed_finding_is_resolved(self):
        baseline = Baseline.from_findings([_finding(), _finding(line=9)])
        diff = baseline.diff([_finding()])
        # Two identical-key findings grandfathered, one remains: the
        # count shrinks and the surplus is reported as resolved.
        assert not diff.new
        assert len(diff.baselined) == 1
        assert len(diff.resolved) == 1
        assert diff.resolved[0]["unmatched"] == 1

    def test_missing_file_is_empty(self, tmp_path):
        baseline = Baseline.load(tmp_path / "absent.json")
        assert len(baseline) == 0

    def test_corrupt_file_raises_lint_error(self, tmp_path):
        path = tmp_path / "base.json"
        path.write_text("{\"schema\": 99}")
        with pytest.raises(LintError):
            Baseline.load(path)
        path.write_text("not json")
        with pytest.raises(LintError):
            Baseline.load(path)


# ----------------------------------------------------------------------
# Rule registry
# ----------------------------------------------------------------------


class TestRegistry:
    def test_double_registration_is_an_error(self):
        class Clone(LintRule):
            rule_id = "determinism"
            description = "impostor"

        with pytest.raises(LintError):
            register_rule(Clone())

    def test_replace_allows_override_and_restores(self):
        original = get_rule("determinism")

        class Clone(LintRule):
            rule_id = "determinism"
            description = "impostor"

        try:
            register_rule(Clone(), replace=True)
            assert get_rule("determinism").description == "impostor"
        finally:
            register_rule(original, replace=True)
        assert get_rule("determinism") is original

    def test_reserved_and_anonymous_ids_rejected(self):
        class Meta(LintRule):
            rule_id = BAD_SUPPRESSION

        class Nameless(LintRule):
            rule_id = ""

        with pytest.raises(LintError):
            register_rule(Meta())
        with pytest.raises(LintError):
            register_rule(Nameless())

    def test_unknown_rule_lookup_raises(self):
        with pytest.raises(LintError) as err:
            get_rule("no-such-rule")
        assert "determinism" in str(err.value)  # names the known rules

    def test_lint_error_is_a_repro_error(self):
        assert issubclass(LintError, ReproError)


# ----------------------------------------------------------------------
# Config
# ----------------------------------------------------------------------


class TestConfig:
    def test_repo_pyproject_round_trips(self):
        config = load_config(REPO_ROOT)
        assert config.paths == ("src", "benchmarks")
        assert config.baseline == "LINT_baseline.json"
        assert "src/repro/scheduling" in config.determinism_paths
        assert {g.file for g in config.cache_guards} == {
            "src/repro/ir/ddg.py", "src/repro/scheduling/mrt.py",
        }
        ddg = config.guards_for("src/repro/ir/ddg.py")
        assert len(ddg) == 1 and "_touch_endpoints" in ddg[0].invalidators

    def test_unknown_key_raises(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text(
            "[tool.repro.lint]\ntypo-key = true\n"
        )
        with pytest.raises(LintError) as err:
            load_config(tmp_path)
        assert "typo-key" in str(err.value)

    def test_missing_pyproject_uses_defaults(self, tmp_path):
        config = load_config(tmp_path)
        assert config.paths == ("src", "benchmarks")

    def test_guard_entry_missing_key_raises(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text(
            "[[tool.repro.lint.cache-guards]]\nfile = \"x.py\"\n"
        )
        with pytest.raises(LintError):
            load_config(tmp_path)


# ----------------------------------------------------------------------
# Runner + reporters
# ----------------------------------------------------------------------


class TestRunner:
    def make_tree(self, tmp_path):
        pkg = tmp_path / "src"
        pkg.mkdir()
        (pkg / "clean.py").write_text("VALUE = 1\n")
        (pkg / "dirty.py").write_text(
            "import time\n\n\ndef stamp():\n    return time.time()\n"
        )
        (pkg / "broken.py").write_text("def oops(:\n")
        return LintConfig(
            root=tmp_path, paths=("src",),
            determinism_paths=("src",), api_paths=(), cache_guards=(),
        )

    def test_run_lint_finds_parse_errors_and_findings(self, tmp_path):
        result = run_lint(self.make_tree(tmp_path))
        rules = sorted(f.rule for f in result.findings)
        assert rules == sorted([PARSE_ERROR, "determinism"])
        assert result.files_checked == 3
        assert not result.ok

    def test_exclude_drops_files(self, tmp_path):
        config = self.make_tree(tmp_path)
        config.exclude = ("src/broken.py", "src/dirty.py")
        result = run_lint(config)
        assert result.files_checked == 1 and result.ok

    def test_baseline_consumes_findings(self, tmp_path):
        config = self.make_tree(tmp_path)
        config.exclude = ("src/broken.py",)
        first = run_lint(config)
        Baseline.from_findings(first.findings).save(config.baseline_path())
        second = run_lint(config)
        assert second.ok and len(second.baselined) == 1

    def test_json_report_shape(self, tmp_path):
        config = self.make_tree(tmp_path)
        result = run_lint(config)
        payload = json.loads(render_json(result))
        assert payload["ok"] is False
        assert payload["counts"]["new"] == 2
        assert {f["rule"] for f in payload["new"]} == {
            PARSE_ERROR, "determinism",
        }
        for entry in payload["new"]:
            assert {"rule", "path", "line", "col", "message", "key"} <= set(entry)

    def test_text_report_mentions_summary(self):
        text = render_text(LintResult(files_checked=5, rules_run=["a", "b"]))
        assert "checked 5 files" in text and "0 new" in text

    def test_run_lint_is_deterministic(self, tmp_path):
        config = self.make_tree(tmp_path)
        first = render_json(run_lint(config))
        second = render_json(run_lint(config))
        assert first == second
