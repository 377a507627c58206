"""Finding model for ``repro lint``.

A :class:`Finding` is one rule violation pinned to a source location.
Findings carry the *stripped source line* they fired on (``snippet``):
the finding's key is derived from ``(rule, path, snippet)`` rather than
the line number, so code scanning (SARIF) tracks one finding across
unrelated edits that shift lines, and sees a new one only when the
offending code itself moves between files or changes rule.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str  # repo-relative, posix separators
    line: int
    col: int
    message: str
    snippet: str = ""

    def key(self) -> str:
        """Stable identity across line shifts (line-number free)."""
        blob = f"{self.rule}\x1f{self.path}\x1f{self.snippet.strip()}"
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]

    def sort_key(self):
        return (self.path, self.line, self.col, self.rule)

    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col}"

    def render(self) -> str:
        return f"{self.location()}: [{self.rule}] {self.message}"

    def to_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "snippet": self.snippet,
            "key": self.key(),
        }
