"""``repro lint`` CLI: exit codes, formats, baseline workflow, and the
meta-test that the committed tree itself lints clean."""

import json
import subprocess
from pathlib import Path

import pytest

from repro.cli import main

REPO_ROOT = Path(__file__).parents[1]


@pytest.fixture()
def project(tmp_path):
    """A miniature project with one determinism finding."""
    (tmp_path / "pyproject.toml").write_text(
        "[tool.repro.lint]\n"
        'paths = ["src"]\n'
        'determinism-paths = ["src"]\n'
        "api-paths = []\n"
    )
    src = tmp_path / "src"
    src.mkdir()
    (src / "mod.py").write_text(
        "import time\n\n\ndef stamp():\n    return time.time()\n"
    )
    return tmp_path


# ----------------------------------------------------------------------
# The tree gates itself
# ----------------------------------------------------------------------


def test_repo_is_clean_modulo_committed_baseline(capsys):
    """The CI gate on this very checkout: zero non-baselined findings."""
    assert main(["lint", "--root", str(REPO_ROOT), "--fail-on-new"]) == 0
    out = capsys.readouterr().out
    assert "0 new" in out


def test_repo_baseline_matches_tree_exactly(capsys):
    """No stale grandfathering: every baseline entry is still matched."""
    assert main(
        ["lint", "--root", str(REPO_ROOT), "--format", "json"]
    ) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True
    assert payload["counts"]["resolved"] == 0
    assert payload["counts"]["baselined"] == len(payload["baselined"])


def test_repo_baseline_is_burned_to_zero():
    """The committed baseline grandfathers nothing: the tree is clean
    on its own, not by debt."""
    payload = json.loads((REPO_ROOT / "LINT_baseline.json").read_text())
    assert payload["entries"] == {}


# ----------------------------------------------------------------------
# Exit codes and formats
# ----------------------------------------------------------------------


def test_fail_on_new_exits_1(project, capsys):
    assert main(["lint", "--root", str(project), "--fail-on-new"]) == 1
    assert "[determinism]" in capsys.readouterr().out


def test_report_only_exits_0(project):
    assert main(["lint", "--root", str(project)]) == 0


def test_json_format_and_out_file(project, capsys, tmp_path):
    out_file = tmp_path / "report.json"
    code = main(
        ["lint", "--root", str(project), "--format", "json",
         "--out", str(out_file)]
    )
    assert code == 0
    printed = json.loads(capsys.readouterr().out)
    written = json.loads(out_file.read_text())
    assert printed == written
    assert printed["counts"]["new"] == 1
    assert printed["new"][0]["rule"] == "determinism"


def test_sarif_format_is_valid_and_levelled(project, capsys):
    assert main(
        ["lint", "--root", str(project), "--format", "sarif"]
    ) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["version"] == "2.1.0"
    run = doc["runs"][0]
    assert run["tool"]["driver"]["name"] == "repro-lint"
    results = run["results"]
    assert len(results) == 1
    (result,) = results
    assert result["ruleId"] == "determinism"
    assert result["level"] == "error"  # new finding gates the scan
    location = result["locations"][0]["physicalLocation"]
    assert location["artifactLocation"]["uri"] == "src/mod.py"
    assert location["artifactLocation"]["uriBaseId"] == "%SRCROOT%"
    assert result["partialFingerprints"]["reproBaselineKey/v1"]
    assert any(r["id"] == "determinism" for r in run["tool"]["driver"]["rules"])


def test_sarif_demotes_baselined_findings_to_note(project, capsys):
    main(["lint", "--root", str(project), "--update-baseline"])
    capsys.readouterr()
    assert main(
        ["lint", "--root", str(project), "--format", "sarif"]
    ) == 0
    doc = json.loads(capsys.readouterr().out)
    (result,) = doc["runs"][0]["results"]
    assert result["level"] == "note"


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
    assert payload["counts"]["new"] == 0  # determinism rule not run


# ----------------------------------------------------------------------
# Baseline workflow
# ----------------------------------------------------------------------


def test_update_baseline_then_gate_passes(project, capsys):
    assert main(["lint", "--root", str(project), "--update-baseline"]) == 0
    assert "1 findings grandfathered" in capsys.readouterr().out
    assert (project / "LINT_baseline.json").exists()
    assert main(["lint", "--root", str(project), "--fail-on-new"]) == 0


def test_fixed_finding_reports_resolved(project, capsys):
    main(["lint", "--root", str(project), "--update-baseline"])
    (project / "src" / "mod.py").write_text("VALUE = 1\n")
    assert main(["lint", "--root", str(project), "--fail-on-new"]) == 0
    capsys.readouterr()
    assert main(
        ["lint", "--root", str(project), "--format", "json"]
    ) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["counts"]["resolved"] == 1


def test_new_finding_on_top_of_baseline_fails(project, capsys):
    main(["lint", "--root", str(project), "--update-baseline"])
    (project / "src" / "other.py").write_text(
        "import uuid\n\n\ndef tag():\n    return uuid.uuid4()\n"
    )
    capsys.readouterr()
    assert main(["lint", "--root", str(project), "--fail-on-new"]) == 1
    out = capsys.readouterr().out
    assert "uuid.uuid4" in out and "1 new, 1 baselined" in out


def test_update_baseline_refuses_narrowed_rule_set(project, capsys):
    code = main(
        ["lint", "--root", str(project), "--rules", "determinism",
         "--update-baseline"]
    )
    assert code == 2
    assert "full rule set" in capsys.readouterr().err


def test_clean_tree_round_trips_an_empty_baseline(project, capsys):
    """Burning the baseline to zero leaves a loadable empty file, and
    the gate still passes against it."""
    (project / "src" / "mod.py").write_text("VALUE = 1\n")
    assert main(["lint", "--root", str(project), "--update-baseline"]) == 0
    assert "0 findings grandfathered" in capsys.readouterr().out
    payload = json.loads((project / "LINT_baseline.json").read_text())
    assert payload["entries"] == {}
    assert main(["lint", "--root", str(project), "--fail-on-new"]) == 0


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
    (project / "src" / "other.py").write_text(
        "import uuid\n\n\ndef tag():\n    return uuid.uuid4()\n"
    )
    assert main(
        ["lint", "--root", str(project), "--changed", "--fail-on-new",
         "--format", "json"]
    ) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["files_checked"] == 1
    assert payload["new"][0]["path"] == "src/other.py"
    # mod.py's committed finding is outside the subset.
    assert all(f["path"] != "src/mod.py" for f in payload["new"])


def test_changed_subset_never_reports_resolved_entries(project, capsys):
    main(["lint", "--root", str(project), "--update-baseline"])
    _git(project, "init", "-q")
    _git(project, "add", "-A")
    _git(project, "commit", "-q", "-m", "seed")
    (project / "src" / "other.py").write_text("VALUE = 1\n")
    capsys.readouterr()
    assert main(
        ["lint", "--root", str(project), "--changed", "--format", "json"]
    ) == 0
    payload = json.loads(capsys.readouterr().out)
    # mod.py's baselined finding was not re-scanned; declaring its
    # baseline entry stale from a partial view would be wrong.
    assert payload["counts"]["resolved"] == 0


def test_changed_refuses_update_baseline(project, capsys):
    code = main(
        ["lint", "--root", str(project), "--changed", "--update-baseline"]
    )
    assert code == 2
    assert "full run" in capsys.readouterr().err
