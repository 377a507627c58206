"""Lint configuration: defaults + ``[tool.repro.lint]`` in pyproject.toml.

Everything path-like is repo-relative with posix separators.  The
defaults describe *this* repository (they are what ``repro lint`` uses
when run from a checkout without a pyproject section), and the pyproject
table overrides any subset — tests inject hand-built configs to point
rules at fixture files instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import LintError

try:  # Python >= 3.11
    import tomllib
except ModuleNotFoundError:  # pragma: no cover - 3.10 path
    try:
        import tomli as tomllib  # type: ignore[no-redef]
    except ModuleNotFoundError:
        tomllib = None  # type: ignore[assignment]


@dataclass(frozen=True)
class CacheGuard:
    """One cache-discipline contract: who must invalidate what.

    *guarded* names the source-of-truth attributes; a method of one of
    *classes* in *file* that mutates a guarded attribute must also
    invalidate — assign/pop a *caches* attribute, bump a ``*version*``
    counter, or (transitively, within the class) call one of
    *invalidators*.
    """

    file: str
    classes: Tuple[str, ...]
    guarded: Tuple[str, ...]
    caches: Tuple[str, ...]
    invalidators: Tuple[str, ...] = ()


#: The invariants the current tree actually maintains (PR 3's caches).
DEFAULT_CACHE_GUARDS: Tuple[CacheGuard, ...] = (
    CacheGuard(
        file="src/repro/ir/ddg.py",
        classes=("DDG",),
        guarded=("_ops", "_out", "_in"),
        caches=(
            "_out_cache", "_in_cache", "_refs_cache", "_ref_edges_cache",
            "_op_ids_cache", "_adj_version",
        ),
        invalidators=("_touch_endpoints", "_insert_edge", "_remove_edge",
                      "_derive_flow_in_edges"),
    ),
    CacheGuard(
        file="src/repro/scheduling/mrt.py",
        classes=("ModuloReservationTable", "_Lane"),
        guarded=("rows", "counts"),
        caches=("cached",),
    ),
)

#: Modules whose outputs feed fingerprints / cache hashes / schedules:
#: the bit-identity contract bans ambient nondeterminism here.
DEFAULT_DETERMINISM_PATHS: Tuple[str, ...] = (
    "src/repro/scheduling",
    "src/repro/ir",
    "src/repro/registers",
    "src/repro/codegen",
    "src/repro/machine",
    "src/repro/targets",
    "src/repro/api/cache.py",
)

#: API-boundary modules: only repro.errors types may cross them.
DEFAULT_API_PATHS: Tuple[str, ...] = (
    "src/repro/api",
    "src/repro/service",
    "src/repro/bench.py",
)

DEFAULT_PATHS: Tuple[str, ...] = ("src", "benchmarks")
DEFAULT_BASELINE = "LINT_baseline.json"

#: Extra taint *sources* for the flow-sensitive determinism rule (the
#: ambient ones — clocks, unseeded RNG, id()/hash() — are built in).
DEFAULT_TAINT_SOURCES: Tuple[str, ...] = ()

#: Taint *sinks*: calls whose arguments must be bit-identical across
#: runs.  Dotted names are matched after import-alias resolution.
DEFAULT_TAINT_SINKS: Tuple[str, ...] = (
    "hashlib.sha256",
    "hashlib.sha1",
    "hashlib.md5",
    "hashlib.blake2b",
    "hashlib.blake2s",
    "hashlib.new",
    "repro.scheduling.fingerprint.schedule_fingerprint",
    "repro.scheduling.fingerprint.fingerprint_map",
    "repro.api.cache.content_hash",
)


@dataclass
class LintConfig:
    """Resolved configuration for one ``repro lint`` run."""

    root: Path = field(default_factory=Path.cwd)
    paths: Tuple[str, ...] = DEFAULT_PATHS
    exclude: Tuple[str, ...] = ()
    baseline: str = DEFAULT_BASELINE
    determinism_paths: Tuple[str, ...] = DEFAULT_DETERMINISM_PATHS
    api_paths: Tuple[str, ...] = DEFAULT_API_PATHS
    cache_guards: Tuple[CacheGuard, ...] = DEFAULT_CACHE_GUARDS
    taint_sources: Tuple[str, ...] = DEFAULT_TAINT_SOURCES
    taint_sinks: Tuple[str, ...] = DEFAULT_TAINT_SINKS

    def baseline_path(self) -> Path:
        return Path(self.root) / self.baseline

    def guards_for(self, rel_path: str) -> List[CacheGuard]:
        return [g for g in self.cache_guards if g.file == rel_path]


def path_in(rel_path: str, prefixes: Sequence[str]) -> bool:
    """True when *rel_path* is one of *prefixes* or inside one."""
    for prefix in prefixes:
        clean = prefix.rstrip("/")
        if rel_path == clean or rel_path.startswith(clean + "/"):
            return True
    return False


def load_config(root: Path) -> LintConfig:
    """Config for *root*: defaults overridden by ``[tool.repro.lint]``."""
    root = Path(root)
    table = _pyproject_table(root)
    config = LintConfig(root=root)
    if not table:
        return config
    simple = {
        "paths": "paths",
        "exclude": "exclude",
        "baseline": "baseline",
        "determinism-paths": "determinism_paths",
        "api-paths": "api_paths",
        "taint-sources": "taint_sources",
        "taint-sinks": "taint_sinks",
    }
    known = set(simple) | {"cache-guards"}
    unknown = sorted(set(table) - known)
    if unknown:
        raise LintError(
            f"[tool.repro.lint] has unknown key(s): {', '.join(unknown)}; "
            f"known keys: {', '.join(sorted(known))}"
        )
    for key, attr in simple.items():
        if key not in table:
            continue
        value = table[key]
        if key == "baseline":
            if not isinstance(value, str):
                raise LintError("[tool.repro.lint] baseline must be a string")
            setattr(config, attr, value)
        else:
            if not isinstance(value, list) or not all(
                isinstance(item, str) for item in value
            ):
                raise LintError(
                    f"[tool.repro.lint] {key} must be a list of strings"
                )
            setattr(config, attr, tuple(value))
    if "cache-guards" in table:
        config.cache_guards = tuple(
            _parse_guard(entry) for entry in table["cache-guards"]
        )
    return config


def _parse_guard(entry: Dict[str, object]) -> CacheGuard:
    if not isinstance(entry, dict):
        raise LintError("[tool.repro.lint] cache-guards entries must be tables")
    try:
        return CacheGuard(
            file=str(entry["file"]),
            classes=tuple(entry["classes"]),
            guarded=tuple(entry["guarded"]),
            caches=tuple(entry["caches"]),
            invalidators=tuple(entry.get("invalidators", ())),
        )
    except KeyError as err:
        raise LintError(
            f"cache-guards entry is missing required key {err.args[0]!r} "
            "(needs file, classes, guarded, caches)"
        ) from None


def _pyproject_table(root: Path) -> Optional[Dict[str, object]]:
    path = root / "pyproject.toml"
    if not path.exists():
        return None
    if tomllib is None:  # pragma: no cover - Python 3.10 without tomli
        return None
    with open(path, "rb") as handle:
        doc = tomllib.load(handle)
    tool = doc.get("tool", {})
    if not isinstance(tool, dict):
        return None
    repro = tool.get("repro", {})
    if not isinstance(repro, dict):
        return None
    lint = repro.get("lint")
    return lint if isinstance(lint, dict) else None
