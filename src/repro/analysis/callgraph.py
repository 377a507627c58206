"""The project's parsed-module table and symbol index.

:class:`ProjectIndex` reads and parses every linted file exactly once.
Per file it keeps a :class:`ModuleInfo`: the source, the tree, the
module's import-alias map and its indexed functions.  The runner lints
each file from this table, and the flow-aware rules ask it what a
single file cannot answer: *what does this dotted name refer to,
project-wide?* (``pools.spawn_pool`` under ``from repro import pools``
→ ``repro.pools.spawn_pool``), and *is the referent a module-level def,
a method, or a name bound to a lambda?*

The alias map resolves relative imports against the module's package
(``from ..pools import spawn_pool`` in ``repro.api.batch`` →
``repro.pools.spawn_pool``), so every rule sees one spelling per name.
A file that cannot be read or parsed gets no :class:`ModuleInfo`; its
``parse-error`` finding waits in :attr:`ProjectIndex.errors`.

Rules attach derived per-function facts (e.g. the determinism rule's
return/sink summaries) through :meth:`ProjectIndex.get_summary` /
:meth:`set_summary`; they live as long as the index, one run.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from .findings import Finding
from .rules import PARSE_ERROR


def module_name_for(rel_path: str) -> str:
    """Dotted module name of a repo-relative file path.

    ``src/repro/api/cache.py`` → ``repro.api.cache``;
    ``benchmarks/bench_x.py`` → ``benchmarks.bench_x``;
    package ``__init__.py`` files name the package itself.
    """
    parts = rel_path.split("/")
    if parts and parts[0] == "src":
        parts = parts[1:]
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


@dataclass
class FunctionInfo:
    """One indexed callable: a def, a method, or a name-bound lambda."""

    qualname: str  # module.func / module.Class.method
    module: str
    rel_path: str
    name: str
    kind: str  # "function" | "method" | "lambda"
    lineno: int
    params: Tuple[str, ...]
    node: ast.AST


@dataclass
class ModuleInfo:
    """One parsed file: its source, tree, aliases and functions."""

    rel_path: str
    module: str
    source: str
    tree: ast.Module
    aliases: Dict[str, str]
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)


def collect_module_aliases(tree: ast.Module, module: str) -> Dict[str, str]:
    """Local name → canonical dotted path, from every import statement.

    Relative imports resolve against *module*'s package.  Collection is
    flat (function-local imports land in the same map): precise
    per-scope shadowing is not worth the complexity for lint purposes,
    and the repo convention of module-style imports keeps collisions
    theoretical.
    """
    package_parts = module.split(".")[:-1] if module else []
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for item in node.names:
                local = item.asname or item.name.split(".")[0]
                aliases[local] = item.name if item.asname else local
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                # from .x import y / from .. import z
                up = node.level - 1
                if up > len(package_parts):
                    continue
                base_parts = package_parts[:-up] if up else list(package_parts)
                base = ".".join(base_parts)
                prefix = f"{base}.{node.module}" if node.module else base
            else:
                prefix = node.module or ""
            for item in node.names:
                if item.name == "*":
                    continue
                local = item.asname or item.name
                aliases[local] = f"{prefix}.{item.name}" if prefix else item.name
    return aliases


class ProjectIndex:
    """Parsed modules + symbol table over every linted file."""

    def __init__(self, root: Path):
        self.root = Path(root)
        self.modules: Dict[str, ModuleInfo] = {}  # rel_path -> info
        self.functions: Dict[str, FunctionInfo] = {}  # qualname -> info
        self.errors: Dict[str, Finding] = {}  # rel_path -> parse-error
        self._summaries: Dict[str, Dict[str, object]] = {}

    # -- construction --------------------------------------------------

    @classmethod
    def build(
        cls, root: Path, files: Sequence[Tuple[Path, str]]
    ) -> "ProjectIndex":
        index = cls(root)
        for path, rel in sorted(files, key=lambda item: item[1]):
            index._add_file(path, rel)
        return index

    def _add_file(self, path: Path, rel_path: str) -> None:
        try:
            source = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as err:
            self.errors[rel_path] = Finding(
                rule=PARSE_ERROR, path=rel_path, line=1, col=1,
                message=f"cannot read file: {err}", snippet="",
            )
            return
        try:
            tree = ast.parse(source, filename=rel_path)
        except SyntaxError as err:
            self.errors[rel_path] = Finding(
                rule=PARSE_ERROR, path=rel_path,
                line=err.lineno or 1, col=(err.offset or 1),
                message=f"syntax error: {err.msg}", snippet="",
            )
            return
        module = module_name_for(rel_path)
        info = ModuleInfo(
            rel_path=rel_path, module=module, source=source, tree=tree,
            aliases=collect_module_aliases(tree, module),
        )
        self.modules[rel_path] = info
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._add_function(info, stmt, kind="function")
            elif isinstance(stmt, ast.ClassDef):
                for member in stmt.body:
                    if isinstance(
                        member, (ast.FunctionDef, ast.AsyncFunctionDef)
                    ):
                        self._add_function(
                            info, member, kind="method", cls=stmt.name
                        )
            elif isinstance(stmt, ast.Assign) and isinstance(
                stmt.value, ast.Lambda
            ):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        qualname = f"{module}.{target.id}"
                        fn = FunctionInfo(
                            qualname=qualname, module=module,
                            rel_path=rel_path, name=target.id,
                            kind="lambda", lineno=stmt.lineno,
                            params=tuple(
                                a.arg for a in stmt.value.args.args
                            ),
                            node=stmt.value,
                        )
                        info.functions[qualname] = fn
                        self.functions[qualname] = fn

    def _add_function(
        self, info: ModuleInfo, node, kind: str, cls: Optional[str] = None
    ) -> None:
        qualname = (
            f"{info.module}.{cls}.{node.name}" if cls
            else f"{info.module}.{node.name}"
        )
        args = node.args
        params = tuple(
            a.arg for a in (list(args.posonlyargs) + list(args.args))
        )
        fn = FunctionInfo(
            qualname=qualname, module=info.module, rel_path=info.rel_path,
            name=node.name, kind=kind, lineno=node.lineno, params=params,
            node=node,
        )
        info.functions[qualname] = fn
        self.functions[qualname] = fn

    # -- resolution ----------------------------------------------------

    def resolve_name(
        self,
        module: str,
        dotted: str,
        *,
        aliases: Dict[str, str],
        current_class: Optional[str] = None,
    ) -> Optional[FunctionInfo]:
        """The :class:`FunctionInfo` a dotted name denotes, if any.

        Tries, in order: ``self.x`` → method of *current_class*; the
        module's import *aliases*; a module-local name; the name taken
        as an absolute path.
        """
        parts = dotted.split(".")
        if parts[0] == "self" and current_class and len(parts) == 2:
            return self.functions.get(f"{module}.{current_class}.{parts[1]}")
        if parts[0] in aliases:
            expanded = ".".join([aliases[parts[0]], *parts[1:]])
            hit = self.functions.get(expanded)
            if hit is not None:
                return hit
            return None
        local = f"{module}.{dotted}"
        hit = self.functions.get(local)
        if hit is not None:
            return hit
        return self.functions.get(dotted)

    def resolve_call_target(
        self,
        module: str,
        func: ast.AST,
        *,
        aliases: Dict[str, str],
        current_class: Optional[str] = None,
    ) -> Optional[FunctionInfo]:
        """Resolve a ``Call.func`` expression to an indexed function."""
        parts: List[str] = []
        current = func
        while isinstance(current, ast.Attribute):
            parts.append(current.attr)
            current = current.value
        if not isinstance(current, ast.Name):
            return None
        parts.append(current.id)
        dotted = ".".join(reversed(parts))
        return self.resolve_name(
            module, dotted, aliases=aliases, current_class=current_class
        )

    def module_info(self, rel_path: str) -> Optional[ModuleInfo]:
        return self.modules.get(rel_path)

    # -- summaries (rule-attached, one run) ----------------------------

    def get_summary(self, namespace: str, qualname: str):
        return self._summaries.get(f"{namespace}:{qualname}")

    def set_summary(self, namespace: str, qualname: str, data) -> None:
        self._summaries[f"{namespace}:{qualname}"] = data


__all__ = [
    "ProjectIndex",
    "ModuleInfo",
    "FunctionInfo",
    "module_name_for",
    "collect_module_aliases",
]
