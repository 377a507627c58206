"""Rendering lint results for humans (text) and machines (JSON)."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List

from .findings import Finding

REPORT_SCHEMA = 2


@dataclass
class LintResult:
    """Everything one ``repro lint`` run produced.

    *findings* is every finding no inline suppression accepted;
    *suppressed* counts the ones that were.
    """

    findings: List[Finding] = field(default_factory=list)
    files_checked: int = 0
    rules_run: List[str] = field(default_factory=list)
    suppressed: int = 0

    @property
    def ok(self) -> bool:
        """True when no unsuppressed finding remains."""
        return not self.findings

    def to_dict(self) -> Dict[str, object]:
        return {
            "schema": REPORT_SCHEMA,
            "ok": self.ok,
            "files_checked": self.files_checked,
            "rules": list(self.rules_run),
            "counts": {
                "total": len(self.findings),
                "suppressed": self.suppressed,
            },
            "findings": [f.to_dict() for f in self.findings],
        }


def render_text(result: LintResult) -> str:
    """Human-readable report: findings, then a one-line summary."""
    lines = [finding.render() for finding in result.findings]
    if lines:
        lines.append("")
    lines.append(
        f"checked {result.files_checked} files, "
        f"{len(result.rules_run)} rules: "
        f"{len(result.findings)} findings, "
        f"{result.suppressed} suppressed"
    )
    return "\n".join(lines)


def render_json(result: LintResult) -> str:
    return json.dumps(result.to_dict(), indent=2, sort_keys=True)


#: SARIF version pinned to what GitHub code scanning ingests.
SARIF_VERSION = "2.1.0"
SARIF_SCHEMA_URI = "https://json.schemastore.org/sarif-2.1.0.json"


def render_sarif(result: LintResult) -> str:
    """The run as a SARIF 2.1.0 document (GitHub code-scanning upload).

    Every finding is an ``error``: each one fails the gate.  The
    finding's key rides along as a partial fingerprint so code scanning
    tracks a finding across line-shifting edits.
    """
    from .rules import META_RULE_IDS, RULE_REGISTRY

    rule_ids = sorted(
        {f.rule for f in result.findings} | set(result.rules_run)
    )
    rules = []
    for rule_id in rule_ids:
        rule = RULE_REGISTRY.get(rule_id)
        if rule is not None:
            text = rule.description
        elif rule_id in META_RULE_IDS:
            text = "engine-level finding"
        else:
            text = rule_id
        rules.append(
            {
                "id": rule_id,
                "shortDescription": {"text": text},
            }
        )
    results = []
    for finding in result.findings:
        results.append(
            {
                "ruleId": finding.rule,
                "level": "error",
                "message": {"text": finding.message},
                "locations": [
                    {
                        "physicalLocation": {
                            "artifactLocation": {
                                "uri": finding.path,
                                "uriBaseId": "%SRCROOT%",
                            },
                            "region": {
                                "startLine": finding.line,
                                "startColumn": finding.col,
                            },
                        }
                    }
                ],
                "partialFingerprints": {
                    "reproBaselineKey/v1": finding.key(),
                },
            }
        )
    doc = {
        "$schema": SARIF_SCHEMA_URI,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro-lint",
                        "rules": rules,
                    }
                },
                "columnKind": "unicodeCodePoints",
                "results": results,
            }
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True)
