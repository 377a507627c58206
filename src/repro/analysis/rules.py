"""Lint-rule base class and registry.

Mirrors the :mod:`repro.api.passes` pass-registry idiom: every rule is a
stateless instance registered under a unique kebab-case id, and silent
shadowing is an error.  Rules hook into the AST walk by defining
``visit_<NodeType>`` methods (e.g. ``visit_Call``); the walker in
:mod:`repro.analysis.visitor` dispatches every node of a matching type
to every active rule.

Two ids are reserved for the engine itself (they have no AST hooks but
participate in selection, suppression checking and reporting):

* ``bad-suppression`` — a ``lint-ignore`` comment naming an unknown rule
  id, or missing its required justification;
* ``parse-error`` — a file the analyzer could not parse.
"""

from __future__ import annotations

import ast
from typing import Callable, Dict, Tuple

from ..errors import LintError
from .findings import Finding

#: Engine-level finding ids (not AST rules, but selectable/reportable).
BAD_SUPPRESSION = "bad-suppression"
PARSE_ERROR = "parse-error"
META_RULE_IDS: Tuple[str, ...] = (BAD_SUPPRESSION, PARSE_ERROR)


class LintRule:
    """One named static-analysis rule.

    Subclasses set :attr:`rule_id` and :attr:`description`, then define
    ``visit_<NodeType>`` hooks and/or :meth:`analyze_module`.  Rules are
    stateless across files: all per-file state lives on the
    :class:`~repro.analysis.visitor.ModuleContext` handed to every hook.
    """

    #: Registry id; kebab-case, must be unique.
    rule_id: str = ""
    #: One-line summary shown by ``repro lint --rules help`` and reports.
    description: str = ""
    #: Flow rules that resolve names across files set this; the runner
    #: then guarantees :meth:`analyze_module` receives a project index
    #: (a single-file one when linting in isolation, e.g. in fixtures).
    requires_project: bool = False

    def applies_to(self, rel_path: str, config) -> bool:
        """Whether this rule runs on *rel_path* at all (default: yes).

        Path-scoped rules (determinism, cache-discipline) override this
        so the walker skips their hooks entirely on out-of-scope files.
        """
        return True

    def hooks(self) -> Dict[type, Callable]:
        """Map AST node types to this rule's ``visit_*`` bound methods."""
        table: Dict[type, Callable] = {}
        for name in dir(self):
            if not name.startswith("visit_"):
                continue
            node_type = getattr(ast, name[len("visit_"):], None)
            if node_type is not None:
                table[node_type] = getattr(self, name)
        return table

    def analyze_module(self, ctx, project) -> None:
        """Whole-module pass run after the AST walk (flow rules).

        *project* is the :class:`~repro.analysis.callgraph.ProjectIndex`
        covering the lint run (or just this file when none was built).
        The default is a no-op; syntactic rules never override it.
        """

    def report(self, ctx, node: ast.AST, message: str) -> None:
        """Record a finding for *node* on the current file's context."""
        ctx.add_finding(
            Finding(
                rule=self.rule_id,
                path=ctx.rel_path,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0) + 1,
                message=message,
                snippet=ctx.line_text(getattr(node, "lineno", 1)),
            )
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<rule {self.rule_id or type(self).__name__}>"


#: Global rule registry: rule id -> shared (stateless) rule instance.
RULE_REGISTRY: Dict[str, LintRule] = {}


def register_rule(rule: LintRule, *, replace: bool = False) -> LintRule:
    """Register *rule* under its :attr:`LintRule.rule_id`.

    Like :func:`repro.api.passes.register_pass`, double registration is
    an error unless ``replace=True``.
    """
    if not isinstance(rule, LintRule):
        raise LintError(f"register_rule needs a LintRule instance, got {rule!r}")
    if not rule.rule_id:
        raise LintError(f"rule {rule!r} has no rule_id")
    if rule.rule_id in META_RULE_IDS:
        raise LintError(f"rule id {rule.rule_id!r} is reserved by the engine")
    if rule.rule_id in RULE_REGISTRY and not replace:
        raise LintError(
            f"rule {rule.rule_id!r} is already registered "
            "(pass replace=True to override)"
        )
    RULE_REGISTRY[rule.rule_id] = rule
    return rule


def get_rule(rule_id: str) -> LintRule:
    """Look up a registered rule by id."""
    try:
        return RULE_REGISTRY[rule_id]
    except KeyError:
        known = ", ".join(all_rule_ids())
        raise LintError(
            f"unknown lint rule {rule_id!r}; known rules: {known}"
        ) from None


def registered_rules() -> Tuple[str, ...]:
    """Ids of all registered AST rules, sorted."""
    return tuple(sorted(RULE_REGISTRY))


def all_rule_ids() -> Tuple[str, ...]:
    """Every id a finding or suppression may legally name."""
    return tuple(sorted((*RULE_REGISTRY, *META_RULE_IDS)))
