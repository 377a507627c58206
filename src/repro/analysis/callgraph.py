"""Project-wide function index and call graph for flow-aware rules.

The :class:`ProjectIndex` answers the questions the intraprocedural
rules cannot: *what does this dotted name refer to, project-wide?*
(``pools.spawn_pool`` under ``from repro import pools`` →
``repro.pools.spawn_pool``), *is the referent a module-level def, a
method, a name bound to a lambda?*, and *who calls whom?* (one edge set
per indexed function, callee names fully resolved through each module's
import aliases — including relative imports, which the per-file
alias map in :mod:`repro.analysis.visitor` deliberately skips).

Rules attach derived per-function facts (e.g. the determinism rule's
return/sink summaries) through :meth:`ProjectIndex.get_summary` /
:meth:`set_summary`; summaries are plain JSON data so they persist in
the on-disk cache.

The whole index serialises to one JSON file keyed on a hash of every
``(path, sha256(source))`` pair — ``repro lint --callgraph-cache FILE``
reloads it when no source changed (CI caches the file across runs) and
rebuilds it otherwise.  AST nodes are never serialised: a cache-loaded
index re-parses a module lazily only when a rule asks for a function's
body (:meth:`func_node`), which the summary cache makes rare.
"""

from __future__ import annotations

import ast
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import LintError

CALLGRAPH_SCHEMA = 1


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
    params: Tuple[str, ...] = ()
    node: Optional[ast.AST] = None  # absent when loaded from cache

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "kind": self.kind,
            "lineno": self.lineno,
            "params": list(self.params),
        }


@dataclass
class ModuleInfo:
    """Per-module slice of the index."""

    rel_path: str
    module: str
    aliases: Dict[str, str] = field(default_factory=dict)
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    edges: Dict[str, List[str]] = field(default_factory=dict)


def collect_module_aliases(tree: ast.Module, module: str) -> Dict[str, str]:
    """Local name → canonical dotted path, resolving relative imports
    against *module* (unlike the visitor's flat map)."""
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
    """Symbol table + call graph over every linted file."""

    def __init__(self, root: Path):
        self.root = Path(root)
        self.modules: Dict[str, ModuleInfo] = {}  # rel_path -> info
        self.functions: Dict[str, FunctionInfo] = {}  # qualname -> info
        self.key: str = ""
        self._summaries: Dict[str, Dict[str, object]] = {}
        self._parsed: Dict[str, Optional[ast.Module]] = {}

    # -- construction --------------------------------------------------

    @classmethod
    def build(
        cls, root: Path, files: Sequence[Tuple[Path, str]]
    ) -> "ProjectIndex":
        index = cls(root)
        hash_parts: List[str] = []
        for path, rel in sorted(files, key=lambda item: item[1]):
            try:
                source = path.read_text(encoding="utf-8")
            except (OSError, UnicodeDecodeError):
                continue
            hash_parts.append(
                f"{rel} {hashlib.sha256(source.encode('utf-8')).hexdigest()}"
            )
            try:
                tree = ast.parse(source, filename=rel)
            except SyntaxError:
                continue  # the runner reports parse errors itself
            index._index_module(rel, tree)
        index.key = hashlib.sha256(
            "\n".join(hash_parts).encode("utf-8")
        ).hexdigest()
        return index

    @classmethod
    def source_key(cls, files: Sequence[Tuple[Path, str]]) -> str:
        """The cache key :meth:`build` would compute for *files*."""
        hash_parts: List[str] = []
        for path, rel in sorted(files, key=lambda item: item[1]):
            try:
                source = path.read_text(encoding="utf-8")
            except (OSError, UnicodeDecodeError):
                continue
            hash_parts.append(
                f"{rel} {hashlib.sha256(source.encode('utf-8')).hexdigest()}"
            )
        return hashlib.sha256("\n".join(hash_parts).encode("utf-8")).hexdigest()

    def _index_module(self, rel_path: str, tree: ast.Module) -> None:
        module = module_name_for(rel_path)
        info = ModuleInfo(
            rel_path=rel_path,
            module=module,
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
        for fn in info.functions.values():
            if fn.node is not None and not isinstance(fn.node, ast.Lambda):
                info.edges[fn.qualname] = self._edges_for(info, fn)

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

    def _edges_for(self, info: ModuleInfo, fn: FunctionInfo) -> List[str]:
        current_class = None
        if fn.kind == "method":
            current_class = fn.qualname.rsplit(".", 2)[-2]
        callees = set()
        for node in ast.walk(fn.node):
            if not isinstance(node, ast.Call):
                continue
            target = self.resolve_call_target(
                info.module, node.func, aliases=info.aliases,
                current_class=current_class,
            )
            if target is not None:
                callees.add(target.qualname)
        return sorted(callees)

    # -- resolution ----------------------------------------------------

    def resolve_name(
        self,
        module: str,
        dotted: str,
        *,
        aliases: Optional[Dict[str, str]] = None,
        current_class: Optional[str] = None,
    ) -> Optional[FunctionInfo]:
        """The :class:`FunctionInfo` a dotted name denotes, if any.

        Tries, in order: ``self.x`` → method of *current_class*; the
        module's import aliases; a module-local name; the name taken as
        an absolute path.
        """
        if aliases is None:
            info = next(
                (m for m in self.modules.values() if m.module == module), None
            )
            aliases = info.aliases if info else {}
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
        aliases: Optional[Dict[str, str]] = None,
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

    def func_node(self, info: FunctionInfo) -> Optional[ast.AST]:
        """The def node for *info*, re-parsing its module if needed."""
        if info.node is not None:
            return info.node
        tree = self._module_ast(info.rel_path)
        if tree is None:
            return None
        wanted = info.qualname.split(".")
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if stmt.name == wanted[-1] and info.kind == "function":
                    info.node = stmt
                    return stmt
            elif isinstance(stmt, ast.ClassDef) and info.kind == "method":
                if len(wanted) >= 2 and stmt.name == wanted[-2]:
                    for member in stmt.body:
                        if (
                            isinstance(
                                member,
                                (ast.FunctionDef, ast.AsyncFunctionDef),
                            )
                            and member.name == wanted[-1]
                        ):
                            info.node = member
                            return member
            elif (
                isinstance(stmt, ast.Assign)
                and isinstance(stmt.value, ast.Lambda)
                and info.kind == "lambda"
            ):
                for target in stmt.targets:
                    if (
                        isinstance(target, ast.Name)
                        and target.id == wanted[-1]
                    ):
                        info.node = stmt.value
                        return stmt.value
        return None

    def _module_ast(self, rel_path: str) -> Optional[ast.Module]:
        if rel_path not in self._parsed:
            try:
                source = (self.root / rel_path).read_text(encoding="utf-8")
                self._parsed[rel_path] = ast.parse(source, filename=rel_path)
            except (OSError, UnicodeDecodeError, SyntaxError):
                self._parsed[rel_path] = None
        return self._parsed[rel_path]

    # -- summaries (rule-attached, cached) -----------------------------

    def get_summary(self, namespace: str, qualname: str):
        return self._summaries.get(f"{namespace}:{qualname}")

    def set_summary(self, namespace: str, qualname: str, data) -> None:
        self._summaries[f"{namespace}:{qualname}"] = data

    # -- persistence ---------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        return {
            "schema": CALLGRAPH_SCHEMA,
            "key": self.key,
            "modules": {
                rel: {
                    "module": m.module,
                    "aliases": dict(sorted(m.aliases.items())),
                    "functions": {
                        q: f.to_dict()
                        for q, f in sorted(m.functions.items())
                    },
                    "edges": {
                        q: list(edges)
                        for q, edges in sorted(m.edges.items())
                    },
                }
                for rel, m in sorted(self.modules.items())
            },
            "summaries": {
                k: self._summaries[k] for k in sorted(self._summaries)
            },
        }

    def save(self, path: Path) -> None:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(self.to_dict(), indent=1, sort_keys=True) + "\n"
        )

    @classmethod
    def from_dict(cls, root: Path, doc: Dict[str, object]) -> "ProjectIndex":
        if doc.get("schema") != CALLGRAPH_SCHEMA:
            raise LintError(
                f"call-graph cache has schema {doc.get('schema')!r}; "
                f"this engine writes schema {CALLGRAPH_SCHEMA}"
            )
        index = cls(root)
        index.key = str(doc.get("key", ""))
        for rel, m in doc.get("modules", {}).items():
            info = ModuleInfo(
                rel_path=rel,
                module=m["module"],
                aliases=dict(m.get("aliases", {})),
            )
            for qualname, f in m.get("functions", {}).items():
                fn = FunctionInfo(
                    qualname=qualname, module=info.module, rel_path=rel,
                    name=f["name"], kind=f["kind"], lineno=int(f["lineno"]),
                    params=tuple(f.get("params", ())),
                )
                info.functions[qualname] = fn
                index.functions[qualname] = fn
            info.edges = {
                q: list(edges) for q, edges in m.get("edges", {}).items()
            }
            index.modules[rel] = info
        index._summaries = dict(doc.get("summaries", {}))
        return index

    @classmethod
    def load_or_build(
        cls,
        root: Path,
        files: Sequence[Tuple[Path, str]],
        cache_path: Optional[Path] = None,
    ) -> "ProjectIndex":
        """Reload a cached index when no source changed, else rebuild.

        A corrupt or stale cache file is never an error — it is simply
        rebuilt and overwritten.
        """
        key = None
        if cache_path is not None and Path(cache_path).exists():
            try:
                doc = json.loads(Path(cache_path).read_text())
                key = cls.source_key(files)
                if doc.get("key") == key:
                    return cls.from_dict(root, doc)
            except (OSError, json.JSONDecodeError, LintError, KeyError,
                    TypeError, ValueError):
                pass
        index = cls.build(root, files)
        if cache_path is not None:
            try:
                index.save(Path(cache_path))
            except OSError:
                pass  # cache is best-effort; the run itself proceeds
        return index


__all__ = [
    "ProjectIndex",
    "ModuleInfo",
    "FunctionInfo",
    "module_name_for",
    "collect_module_aliases",
]
