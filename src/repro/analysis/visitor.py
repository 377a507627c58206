"""The AST walk behind every lint rule.

One :class:`ModuleContext` is built per analysed file.  It owns the
parsed tree plus the derived facts rules keep needing:

* **alias resolution** — ``import numpy as np`` / ``from time import
  sleep`` are folded into a name map so :meth:`ModuleContext.resolve`
  turns a ``Call``'s func into a canonical dotted path (``numpy.random.
  default_rng``, ``time.sleep``) no matter how the module was imported;
* **scope tracking** — a stack of module/class/function frames, so rules
  can ask "am I inside an ``async def``?" (:attr:`in_async`) or "which
  function am I in?" without re-walking;
* **parent links** — ``parent(node)`` / ``ancestors(node)`` /
  ``enclosing_class(func)``, used by rules that care about *where* a
  node sits (``open(...)`` as a ``with`` context manager vs. a bare
  call, a function as a method of some class).

The :class:`Walker` drives a single pass over the tree, keeping the
scope stack current and dispatching each node to every active rule that
declared a ``visit_<NodeType>`` hook for it.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence

from .findings import Finding


@dataclass
class ScopeFrame:
    """One entry of the module/class/function scope stack."""

    kind: str  # "module" | "class" | "function" | "lambda"
    name: str
    node: ast.AST
    is_async: bool = False


class ModuleContext:
    """Everything rules can ask about the file being analysed."""

    def __init__(self, rel_path: str, source: str, tree: ast.Module, config):
        self.rel_path = rel_path
        self.source = source
        self.lines = source.splitlines()
        self.tree = tree
        self.config = config
        self.findings: List[Finding] = []
        self.scopes: List[ScopeFrame] = [
            ScopeFrame("module", rel_path, tree)
        ]
        self._parents: Dict[int, ast.AST] = {}
        for parent in ast.walk(tree):
            for child in ast.iter_child_nodes(parent):
                self._parents[id(child)] = parent
        self.aliases = _collect_aliases(tree)

    # -- findings ------------------------------------------------------

    def add_finding(self, finding: Finding) -> None:
        self.findings.append(finding)

    def line_text(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""

    # -- scopes --------------------------------------------------------

    @property
    def current_function(self) -> Optional[ScopeFrame]:
        """Innermost function frame (lambdas excluded), or None."""
        for frame in reversed(self.scopes):
            if frame.kind == "function":
                return frame
        return None

    @property
    def in_async(self) -> bool:
        """True when the innermost enclosing function is ``async def``.

        A sync helper nested inside an ``async def`` is *not* async —
        its body runs wherever it is called from, which the analyzer
        cannot see; only statements whose innermost function frame is
        async are reported by async-scoped rules.
        """
        frame = self.current_function
        return frame is not None and frame.is_async

    # -- tree navigation ----------------------------------------------

    def parent(self, node: ast.AST) -> Optional[ast.AST]:
        return self._parents.get(id(node))

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        current = self.parent(node)
        while current is not None:
            yield current
            current = self.parent(current)

    def enclosing_class(self, func: ast.AST) -> Optional[str]:
        """Name of the class whose body defines *func* (None for a
        module-level or nested function)."""
        for ancestor in self.ancestors(func):
            if isinstance(ancestor, ast.ClassDef):
                return ancestor.name
            if isinstance(ancestor, _FUNCTION_NODES):
                return None
        return None

    # -- name resolution ----------------------------------------------

    def resolve(self, node: ast.AST) -> Optional[str]:
        """Canonical dotted path of a Name/Attribute chain, or None.

        Resolution folds module aliases: with ``import numpy as np``,
        ``np.random.default_rng`` resolves to
        ``"numpy.random.default_rng"``; with ``from time import sleep as
        zzz``, ``zzz`` resolves to ``"time.sleep"``.  Chains rooted in
        anything but a plain name (call results, subscripts) resolve to
        None — use :func:`attr_name` for "method called on *something*".
        """
        parts: List[str] = []
        current = node
        while isinstance(current, ast.Attribute):
            parts.append(current.attr)
            current = current.value
        if not isinstance(current, ast.Name):
            return None
        root = self.aliases.get(current.id, current.id)
        parts.append(root)
        return ".".join(reversed(parts))


def attr_name(func: ast.AST) -> Optional[str]:
    """Trailing attribute name of a call target (``x.y.close`` -> ``close``)."""
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _collect_aliases(tree: ast.Module) -> Dict[str, str]:
    """Local name -> canonical dotted path, from every import statement.

    Collection is flat (function-local imports land in the same map):
    precise per-scope shadowing is not worth the complexity for lint
    purposes, and the repo convention of module-style imports keeps
    collisions theoretical.
    """
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for item in node.names:
                local = item.asname or item.name.split(".")[0]
                aliases[local] = item.name if item.asname else local
        elif isinstance(node, ast.ImportFrom):
            if node.level:  # relative import: keep the local name
                continue
            module = node.module or ""
            for item in node.names:
                if item.name == "*":
                    continue
                local = item.asname or item.name
                aliases[local] = f"{module}.{item.name}" if module else item.name
    return aliases


_FUNCTION_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)


class Walker:
    """Single-pass dispatcher: one tree walk feeds every active rule."""

    def __init__(self, ctx: ModuleContext, rules: Sequence):
        self.ctx = ctx
        self._hooks: Dict[type, List] = {}
        for rule in rules:
            for node_type, hook in rule.hooks().items():
                self._hooks.setdefault(node_type, []).append(hook)

    def run(self) -> None:
        self._visit(self.ctx.tree)

    def _dispatch(self, node: ast.AST) -> None:
        for hook in self._hooks.get(type(node), ()):
            hook(node, self.ctx)

    def _visit(self, node: ast.AST) -> None:
        frame = self._frame_for(node)
        if frame is not None:
            self.ctx.scopes.append(frame)
        self._dispatch(node)
        for child in ast.iter_child_nodes(node):
            self._visit(child)
        if frame is not None:
            self.ctx.scopes.pop()

    @staticmethod
    def _frame_for(node: ast.AST) -> Optional[ScopeFrame]:
        if isinstance(node, _FUNCTION_NODES):
            return ScopeFrame(
                "function",
                node.name,
                node,
                is_async=isinstance(node, ast.AsyncFunctionDef),
            )
        if isinstance(node, ast.ClassDef):
            return ScopeFrame("class", node.name, node)
        if isinstance(node, ast.Lambda):
            return ScopeFrame("lambda", "<lambda>", node)
        return None
