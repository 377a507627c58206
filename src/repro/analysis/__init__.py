"""repro.analysis: project-aware static analysis (``repro lint``).

The subsystem mirrors the pass-registry architecture of
:mod:`repro.api.passes`: rules are stateless objects registered by id
in :data:`~repro.analysis.rules.RULE_REGISTRY`; the driver
(:func:`~repro.analysis.runner.run_lint`) reads and parses each file
once into the project index, walks each file's AST once, dispatching
nodes to every interested rule, runs each rule's whole-module flow
pass, then folds in inline suppressions and the committed baseline.

Layers::

    findings.py   Finding / baseline keys
    rules.py      LintRule base + registry (+ meta rule ids)
    visitor.py    ModuleContext (scopes, aliases, parents) + Walker
    cfg.py        intraprocedural control-flow graphs
    dataflow.py   events + forward solver + reaching definitions
    callgraph.py  parsed-module table: trees, resolved aliases, symbols
    suppress.py   # repro: lint-ignore[...] comment semantics
    baseline.py   grandfathered-findings file + diffing
    config.py     defaults + [tool.repro.lint] from pyproject.toml
    report.py     LintResult + text/JSON/SARIF rendering
    runner.py     file collection + the run_lint driver
    checks/       the builtin rules (syntactic and flow-aware)
"""

from __future__ import annotations

from .baseline import Baseline, BaselineDiff
from .config import CacheGuard, LintConfig, load_config
from .findings import Finding
from .report import LintResult, render_json, render_sarif, render_text
from .rules import (
    BAD_SUPPRESSION,
    PARSE_ERROR,
    RULE_REGISTRY,
    LintRule,
    all_rule_ids,
    get_rule,
    register_rule,
    registered_rules,
)
from .runner import collect_files, lint_file, run_lint, select_rules, update_baseline

__all__ = [
    "BAD_SUPPRESSION",
    "PARSE_ERROR",
    "RULE_REGISTRY",
    "Baseline",
    "BaselineDiff",
    "CacheGuard",
    "Finding",
    "LintConfig",
    "LintResult",
    "LintRule",
    "all_rule_ids",
    "collect_files",
    "get_rule",
    "lint_file",
    "load_config",
    "register_rule",
    "registered_rules",
    "render_json",
    "render_sarif",
    "render_text",
    "run_lint",
    "select_rules",
    "update_baseline",
]
