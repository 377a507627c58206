"""repro.analysis: project-aware static analysis (``repro lint``).

The subsystem mirrors the pass-registry architecture of
:mod:`repro.api.passes`: rules are stateless objects registered by id
in :data:`~repro.analysis.rules.RULE_REGISTRY`; the driver
(:func:`~repro.analysis.runner.run_lint`) reads and parses each file
once into the project index, walks each file's AST once, dispatching
nodes to every interested rule, runs each rule's whole-module flow
pass, then folds in inline suppressions.

Layers::

    findings.py   Finding + its line-free key
    rules.py      LintRule base + registry (+ meta rule ids)
    visitor.py    ModuleContext (scopes, aliases, parents) + Walker
    cfg.py        intraprocedural control-flow graphs
    dataflow.py   events + forward solver + reaching definitions
    callgraph.py  parsed-module table: trees, resolved aliases, symbols
    suppress.py   # repro: lint-ignore[...] comment semantics
    config.py     LintConfig: the repo's paths, guards, sources, sinks
    report.py     LintResult + text/JSON/SARIF rendering
    runner.py     file collection + the run_lint driver
    checks/       the builtin rules (syntactic and flow-aware)
"""

from __future__ import annotations

from .config import CacheGuard, LintConfig
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
from .runner import collect_files, lint_file, run_lint, select_rules

__all__ = [
    "BAD_SUPPRESSION",
    "PARSE_ERROR",
    "RULE_REGISTRY",
    "CacheGuard",
    "Finding",
    "LintConfig",
    "LintResult",
    "LintRule",
    "all_rule_ids",
    "collect_files",
    "get_rule",
    "lint_file",
    "register_rule",
    "registered_rules",
    "render_json",
    "render_sarif",
    "render_text",
    "run_lint",
    "select_rules",
]
