"""The lint driver: collect files, run rules, fold in suppressions.

:func:`run_lint` is the single entry point the CLI, CI and tests share.
It is deterministic by construction — files are visited in sorted
relative-path order, findings sort by (path, line, col, rule) — so two
runs over the same tree produce byte-identical reports.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, List, Optional, Sequence

from ..errors import LintError
from . import checks  # noqa: F401 - import registers the builtin rules
from .callgraph import ProjectIndex
from .config import LintConfig
from .findings import Finding
from .report import LintResult
from .rules import (
    META_RULE_IDS,
    LintRule,
    all_rule_ids,
    get_rule,
    registered_rules,
)
from .suppress import scan_suppressions
from .visitor import ModuleContext, Walker


def collect_files(config: LintConfig) -> List[Path]:
    """Python files under ``config.paths``."""
    root = Path(config.root)
    seen = set()
    out: List[Path] = []
    for entry in config.paths:
        base = root / entry
        if base.is_file() and base.suffix == ".py":
            candidates: Iterable[Path] = [base]
        elif base.is_dir():
            candidates = sorted(base.rglob("*.py"))
        else:
            continue
        for path in candidates:
            rel = path.relative_to(root).as_posix()
            if rel in seen:
                continue
            seen.add(rel)
            out.append(path)
    return sorted(out, key=lambda p: p.relative_to(root).as_posix())


def select_rules(only: Optional[Sequence[str]] = None) -> List[LintRule]:
    """Registered rules, optionally narrowed to *only* (validated ids)."""
    if only is None:
        return [get_rule(rule_id) for rule_id in registered_rules()]
    chosen: List[LintRule] = []
    for rule_id in only:
        if rule_id in META_RULE_IDS:
            continue  # meta findings are always produced; nothing to run
        chosen.append(get_rule(rule_id))  # raises LintError on unknown ids
    return chosen


def lint_file(
    path: Path,
    rel_path: str,
    rules: Sequence[LintRule],
    config: LintConfig,
    project: Optional[ProjectIndex] = None,
) -> tuple[List[Finding], int]:
    """All unsuppressed findings for one file + the suppressed count.

    *project* is the parsed-module table the file is read from and flow
    rules resolve names through; when omitted (single-file runs, fixture
    tests) a one-file index is built on the spot.
    """
    if project is None:
        project = ProjectIndex.build(Path(config.root), [(path, rel_path)])
    info = project.module_info(rel_path)
    if info is None:
        return [project.errors[rel_path]], 0

    active = [r for r in rules if r.applies_to(rel_path, config)]
    ctx = ModuleContext(info, config)
    if active:
        Walker(ctx, active).run()
        for rule in active:
            rule.analyze_module(ctx, project)

    table = scan_suppressions(rel_path, info.source, all_rule_ids())
    kept = [f for f in ctx.findings if not table.suppresses(f)]
    suppressed = len(ctx.findings) - len(kept)
    kept.extend(table.problems)
    return sorted(kept, key=Finding.sort_key), suppressed


def run_lint(
    config: LintConfig,
    *,
    only: Optional[Sequence[str]] = None,
    files: Optional[Sequence[str]] = None,
) -> LintResult:
    """Lint the tree described by *config*.

    *files* narrows the run to a subset of repo-relative paths
    (``--changed``); the project index is still built over the full
    tree so cross-file resolution stays whole-program.  Each file is
    read and parsed once, by the index.
    """
    rules = select_rules(only)
    result = LintResult(rules_run=sorted(r.rule_id for r in rules))
    root = Path(config.root)
    pairs = [
        (path, path.relative_to(root).as_posix())
        for path in collect_files(config)
    ]
    project = ProjectIndex.build(root, pairs)

    wanted = None if files is None else {f.rstrip("/") for f in files}
    for path, rel in pairs:
        if wanted is not None and rel not in wanted:
            continue
        findings, suppressed = lint_file(
            path, rel, rules, config, project=project
        )
        result.findings.extend(findings)
        result.suppressed += suppressed
        result.files_checked += 1

    result.findings.sort(key=Finding.sort_key)
    return result


__all__ = [
    "collect_files",
    "select_rules",
    "lint_file",
    "run_lint",
    "LintError",
]
