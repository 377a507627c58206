"""Engine-level lint tests: suppressions, registry, config, reporters."""

import ast
import json
from collections import Counter
from pathlib import Path
from unittest import mock

import pytest

from repro.analysis import (
    BAD_SUPPRESSION,
    PARSE_ERROR,
    Finding,
    LintConfig,
    LintResult,
    lint_file,
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
# Finding keys (SARIF partial fingerprints)
# ----------------------------------------------------------------------


class TestFindingKey:
    def test_line_shift_keeps_the_key(self):
        assert _finding(line=3).key() == _finding(line=40).key()

    def test_rule_path_or_snippet_change_the_key(self):
        base = _finding().key()
        assert _finding(rule="pool-safety").key() != base
        assert _finding(path="other.py").key() != base
        assert _finding(snippet="y = hash(k)").key() != base

    def test_key_ignores_surrounding_whitespace(self):
        assert _finding(snippet="  x = time.time()  ").key() == _finding().key()
        assert _finding().to_dict()["key"] == _finding().key()


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
    def test_defaults_describe_this_repo(self):
        config = LintConfig(root=REPO_ROOT)
        assert config.paths == ("src", "benchmarks")
        assert "src/repro/scheduling" in config.determinism_paths
        assert {g.file for g in config.cache_guards} == {
            "src/repro/ir/ddg.py", "src/repro/scheduling/mrt.py",
        }
        ddg = config.guards_for("src/repro/ir/ddg.py")
        assert len(ddg) == 1 and "_touch_endpoints" in ddg[0].invalidators
        for guard in config.cache_guards:
            assert (REPO_ROOT / guard.file).is_file()

    def test_ddg_guard_flags_a_mutator_that_skips_touch_endpoints(self, tmp_path):
        # The DDG as it stands is clean under its guard; the same class
        # with one more method that stores an edge tuple without
        # _touch_endpoints is not.
        rel = "src/repro/ir/ddg.py"
        config = LintConfig(root=REPO_ROOT)
        rules = [get_rule("cache-discipline")]
        findings, _ = lint_file(REPO_ROOT / rel, rel, rules, config)
        assert findings == []
        sneaky = tmp_path / "ddg.py"
        sneaky.write_text(
            (REPO_ROOT / rel).read_text()
            + "\n    def _sneak_edge(self, edge):\n"
            + "        self._out[edge.src] = (edge,)\n"
        )
        findings, _ = lint_file(sneaky, rel, rules, config)
        assert [finding.rule for finding in findings] == ["cache-discipline"]
        assert "DDG._sneak_edge" in findings[0].message


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

    def test_suppressed_finding_is_counted_not_reported(self, tmp_path):
        config = self.make_tree(tmp_path)
        (tmp_path / "src" / "broken.py").unlink()
        (tmp_path / "src" / "dirty.py").write_text(
            "import time\n\n\ndef stamp():\n"
            "    return time.time()  # repro: lint-ignore[determinism]: log\n"
        )
        result = run_lint(config)
        assert result.ok and result.findings == []
        assert result.suppressed == 1 and result.files_checked == 2

    def test_json_report_shape(self, tmp_path):
        config = self.make_tree(tmp_path)
        result = run_lint(config)
        payload = json.loads(render_json(result))
        assert payload["ok"] is False
        assert payload["counts"] == {"total": 2, "suppressed": 0}
        assert {f["rule"] for f in payload["findings"]} == {
            PARSE_ERROR, "determinism",
        }
        for entry in payload["findings"]:
            assert {"rule", "path", "line", "col", "message", "key"} <= set(entry)

    def test_text_report_mentions_summary(self):
        text = render_text(LintResult(files_checked=5, rules_run=["a", "b"]))
        assert text == "checked 5 files, 2 rules: 0 findings, 0 suppressed"

    def test_each_file_is_read_and_parsed_once(self, tmp_path):
        config = self.make_tree(tmp_path)
        (tmp_path / "src" / "pools.py").write_text(
            "from concurrent.futures import ProcessPoolExecutor\n\n\n"
            "def go(xs):\n"
            "    with ProcessPoolExecutor(2) as pool:\n"
            "        return list(pool.map(abs, xs))\n"
        )
        parse, read_text = ast.parse, Path.read_text
        with mock.patch("ast.parse", side_effect=parse) as parsed, \
                mock.patch.object(
                    Path, "read_text", autospec=True, side_effect=read_text
                ) as read:
            result = run_lint(config)
        linted = ["src/broken.py", "src/clean.py", "src/dirty.py", "src/pools.py"]
        assert result.files_checked == len(linted)
        assert {f.rule for f in result.findings} == {
            PARSE_ERROR, "determinism", "pool-safety",
        }
        parses = Counter(c.kwargs.get("filename") for c in parsed.call_args_list)
        assert parses == Counter(linted)
        reads = Counter(
            Path(c.args[0]).relative_to(tmp_path).as_posix()
            for c in read.call_args_list
            if Path(c.args[0]).suffix == ".py"
        )
        assert reads == Counter(linted)

    def test_run_lint_is_deterministic(self, tmp_path):
        config = self.make_tree(tmp_path)
        first = render_json(run_lint(config))
        second = render_json(run_lint(config))
        assert first == second
