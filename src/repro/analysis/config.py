"""Lint configuration: which files ``repro lint`` reads and which rules
apply where.

Everything path-like is repo-relative with posix separators.  The
defaults describe *this* repository and are the only configuration
``repro lint`` has; tests inject hand-built configs to point rules at
fixture files instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Sequence, Tuple


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
        caches=("_refs_cache", "_ref_edges_cache", "_op_ids_cache", "_adj_version"),
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
    determinism_paths: Tuple[str, ...] = DEFAULT_DETERMINISM_PATHS
    api_paths: Tuple[str, ...] = DEFAULT_API_PATHS
    cache_guards: Tuple[CacheGuard, ...] = DEFAULT_CACHE_GUARDS
    taint_sources: Tuple[str, ...] = DEFAULT_TAINT_SOURCES
    taint_sinks: Tuple[str, ...] = DEFAULT_TAINT_SINKS

    def guards_for(self, rel_path: str) -> List[CacheGuard]:
        return [g for g in self.cache_guards if g.file == rel_path]


def path_in(rel_path: str, prefixes: Sequence[str]) -> bool:
    """True when *rel_path* is one of *prefixes* or inside one."""
    for prefix in prefixes:
        clean = prefix.rstrip("/")
        if rel_path == clean or rel_path.startswith(clean + "/"):
            return True
    return False
