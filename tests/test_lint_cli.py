"""``repro lint`` CLI: exit codes, formats, inline suppressions, and the
meta-test that the committed tree itself lints clean."""

import json
import subprocess
from pathlib import Path

import pytest

from repro.cli import main

REPO_ROOT = Path(__file__).parents[1]
MOD = "src/repro/scheduling/mod.py"


@pytest.fixture()
def project(tmp_path):
    """A miniature project with one determinism finding, placed under a
    default determinism path."""
    (tmp_path / MOD).parent.mkdir(parents=True)
    (tmp_path / MOD).write_text(
        "import time\n\n\ndef stamp():\n    return time.time()\n"
    )
    return tmp_path


# ----------------------------------------------------------------------
# The tree gates itself
# ----------------------------------------------------------------------


def test_repo_lints_clean(capsys):
    """The CI gate on this very checkout: no unsuppressed finding."""
    assert main(["lint", "--root", str(REPO_ROOT)]) == 0
    assert " 0 findings, " in capsys.readouterr().out


def test_repo_json_report_is_clean(capsys):
    """The machine-readable report of this checkout: ok, no findings."""
    assert main(
        ["lint", "--root", str(REPO_ROOT), "--format", "json"]
    ) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema"] == 2 and payload["ok"] is True
    assert payload["counts"]["total"] == 0 and payload["findings"] == []
    assert payload["files_checked"] > 0


def test_repo_has_one_lint_configuration():
    """The settings live in ``analysis/config.py`` only: no baseline file
    and no pyproject table that could drift from the in-code defaults."""
    assert not (REPO_ROOT / "LINT_baseline.json").exists()
    assert "[tool.repro.lint" not in (REPO_ROOT / "pyproject.toml").read_text()


# ----------------------------------------------------------------------
# Exit codes and formats
# ----------------------------------------------------------------------


def test_finding_exits_1(project, capsys):
    assert main(["lint", "--root", str(project)]) == 1
    out = capsys.readouterr().out
    assert f"{MOD}:5:12: [determinism]" in out
    assert "1 findings, 0 suppressed" in out


def test_clean_project_exits_0(project, capsys):
    (project / MOD).write_text("VALUE = 1\n")
    assert main(["lint", "--root", str(project)]) == 0
    assert "0 findings, 0 suppressed" in capsys.readouterr().out


def test_parse_error_exits_1(project, capsys):
    (project / MOD).write_text("def oops(:\n")
    assert main(["lint", "--root", str(project)]) == 1
    assert f"{MOD}:" in (out := capsys.readouterr().out)
    assert "[parse-error]" in out


@pytest.mark.parametrize(
    "flag", ["--baseline=x.json", "--update-baseline", "--fail-on-new",
             "--verbose"],
)
def test_deleted_flag_is_a_usage_error(project, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["lint", "--root", str(project), flag])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_pyproject_lint_table_is_ignored(project, capsys):
    """A leftover ``[tool.repro.lint]`` table changes nothing: the run
    still lints the default paths and reports the finding."""
    (project / "pyproject.toml").write_text(
        "[tool.repro.lint]\n"
        'paths = ["elsewhere"]\n'
        "determinism-paths = []\n"
    )
    assert main(["lint", "--root", str(project)]) == 1
    assert f"{MOD}:5:12: [determinism]" in capsys.readouterr().out


def test_text_format_out_file_is_the_json_report(project, capsys, tmp_path):
    out_file = tmp_path / "report.json"
    assert main(
        ["lint", "--root", str(project), "--out", str(out_file)]
    ) == 1
    assert "1 findings, 0 suppressed" in capsys.readouterr().out
    written = json.loads(out_file.read_text())
    assert written["counts"] == {"total": 1, "suppressed": 0}
    assert written["findings"][0]["path"] == MOD


def test_json_format_and_out_file(project, capsys, tmp_path):
    out_file = tmp_path / "report.json"
    code = main(
        ["lint", "--root", str(project), "--format", "json",
         "--out", str(out_file)]
    )
    assert code == 1
    printed = json.loads(capsys.readouterr().out)
    written = json.loads(out_file.read_text())
    assert printed == written
    assert printed["schema"] == 2 and printed["ok"] is False
    assert printed["counts"] == {"total": 1, "suppressed": 0}
    assert printed["findings"][0]["rule"] == "determinism"


def test_sarif_format_is_valid_and_levelled(project, capsys):
    assert main(
        ["lint", "--root", str(project), "--format", "sarif"]
    ) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["version"] == "2.1.0"
    run = doc["runs"][0]
    assert run["tool"]["driver"]["name"] == "repro-lint"
    results = run["results"]
    assert len(results) == 1
    (result,) = results
    assert result["ruleId"] == "determinism"
    assert result["level"] == "error"  # every finding gates the scan
    location = result["locations"][0]["physicalLocation"]
    assert location["artifactLocation"]["uri"] == MOD
    assert location["artifactLocation"]["uriBaseId"] == "%SRCROOT%"
    # The key hashes (rule, path, stripped line), never the line number;
    # pinned so code-scanning alerts keep their identity across releases.
    key = result["partialFingerprints"]["reproBaselineKey/v1"]
    assert key == "8401c1c16db1345b"
    assert any(r["id"] == "determinism" for r in run["tool"]["driver"]["rules"])


def test_rules_help_lists_all_rules(capsys):
    assert main(["lint", "--rules", "help"]) == 0
    out = capsys.readouterr().out
    for rule_id in (
        "determinism", "async-blocking", "pool-safety", "cache-discipline",
        "exception-discipline", "resource-hygiene", "bad-suppression",
        "parse-error", "async-atomicity",
    ):
        assert rule_id in out


def test_unknown_rule_exits_2(capsys):
    assert main(["lint", "--rules", "no-such-rule"]) == 2
    assert "unknown lint rule" in capsys.readouterr().err


def test_rule_narrowing_runs_single_rule(project, capsys):
    assert main(
        ["lint", "--root", str(project), "--rules", "pool-safety",
         "--format", "json"]
    ) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["rules"] == ["pool-safety"]
    assert payload["counts"]["total"] == 0  # determinism rule not run


# ----------------------------------------------------------------------
# Inline suppressions: the one way to accept a finding
# ----------------------------------------------------------------------


def _annotate(project, comment):
    path = project / MOD
    path.write_text(
        path.read_text().replace(
            "return time.time()\n", f"return time.time()  {comment}\n"
        )
    )


def test_justified_suppression_accepts_the_finding(project, capsys):
    _annotate(project, "# repro: lint-ignore[determinism]: display only")
    assert main(["lint", "--root", str(project)]) == 0
    assert "0 findings, 1 suppressed" in capsys.readouterr().out


def test_unjustified_suppression_fails_the_gate(project, capsys):
    _annotate(project, "# repro: lint-ignore[determinism]")
    assert main(["lint", "--root", str(project)]) == 1
    out = capsys.readouterr().out
    assert "[bad-suppression]" in out and "[determinism]" in out


def test_suppression_of_another_rule_keeps_the_finding(project, capsys):
    _annotate(project, "# repro: lint-ignore[pool-safety]: wrong rule")
    assert main(["lint", "--root", str(project)]) == 1
    out = capsys.readouterr().out
    assert "[determinism]" in out and "1 findings, 0 suppressed" in out


def test_unknown_rule_in_suppression_fails_the_gate(project, capsys):
    _annotate(project, "# repro: lint-ignore[no-such-rule]: typo")
    assert main(["lint", "--root", str(project)]) == 1
    out = capsys.readouterr().out
    assert "unknown rule id 'no-such-rule'" in out
    assert "[determinism]" in out  # a malformed comment silences nothing


def test_standalone_suppression_covers_the_next_line(project, capsys):
    path = project / MOD
    path.write_text(
        path.read_text().replace(
            "    return time.time()\n",
            "    # repro: lint-ignore[determinism]: display only\n"
            "    return time.time()\n",
        )
    )
    assert main(["lint", "--root", str(project)]) == 0
    assert "0 findings, 1 suppressed" in capsys.readouterr().out


def test_new_finding_beside_a_suppressed_one_fails(project, capsys):
    _annotate(project, "# repro: lint-ignore[determinism]: display only")
    (project / MOD).with_name("other.py").write_text(
        "import uuid\n\n\ndef tag():\n    return uuid.uuid4()\n"
    )
    assert main(["lint", "--root", str(project)]) == 1
    out = capsys.readouterr().out
    assert "src/repro/scheduling/other.py:5:12: [determinism]" in out
    assert "1 findings, 1 suppressed" in out


def test_sarif_omits_suppressed_findings(project, capsys):
    _annotate(project, "# repro: lint-ignore[determinism]: display only")
    assert main(
        ["lint", "--root", str(project), "--format", "sarif"]
    ) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["runs"][0]["results"] == []


# ----------------------------------------------------------------------
# --changed (git-diff-scoped runs)
# ----------------------------------------------------------------------


def _git(root, *argv):
    subprocess.run(
        ["git", "-c", "user.name=t", "-c", "user.email=t@t", *argv],
        cwd=str(root), check=True, capture_output=True,
    )


def test_changed_outside_git_checks_nothing(project, capsys):
    assert main(
        ["lint", "--root", str(project), "--changed", "--format", "json"]
    ) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["files_checked"] == 0


def test_changed_lints_only_the_diff(project, capsys):
    _git(project, "init", "-q")
    _git(project, "add", "-A")
    _git(project, "commit", "-q", "-m", "seed")
    # Untracked file with a fresh finding: the only thing --changed sees.
    (project / MOD).with_name("other.py").write_text(
        "import uuid\n\n\ndef tag():\n    return uuid.uuid4()\n"
    )
    assert main(
        ["lint", "--root", str(project), "--changed", "--format", "json"]
    ) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["files_checked"] == 1
    assert payload["findings"][0]["path"] == "src/repro/scheduling/other.py"
    # mod.py's committed finding is outside the subset.
    assert all(f["path"] != MOD for f in payload["findings"])


def test_changed_counts_suppressions_in_the_subset(project, capsys):
    _git(project, "init", "-q")
    _git(project, "add", "-A")
    _git(project, "commit", "-q", "-m", "seed")
    (project / MOD).with_name("other.py").write_text(
        "import uuid\n\n\ndef tag():\n"
        "    return uuid.uuid4()  # repro: lint-ignore[determinism]: log id\n"
    )
    assert main(
        ["lint", "--root", str(project), "--changed", "--format", "json"]
    ) == 0
    payload = json.loads(capsys.readouterr().out)
    # Only the untracked file is linted; mod.py's committed finding is
    # outside the subset, and the new file's finding is accepted inline.
    assert payload["files_checked"] == 1
    assert payload["counts"] == {"total": 0, "suppressed": 1}
