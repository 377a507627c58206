"""Content-addressed on-disk memoisation for compilation results.

The cache key is a SHA-256 over a canonical serialisation of everything a
compilation depends on: the DDG (operations, operands, explicit edges),
the loop metadata, the machine specification, the latency model, the
scheduler configuration and the request knobs.  Two requests with the
same key are guaranteed to produce bit-identical schedules (compilation
is deterministic), so re-running a figure sweep against a warm cache is
near-instant.

Entries are pickled :class:`~repro.api.request.CompilationReport` objects
written atomically (tmp file + rename), so a cache directory can be
shared by the worker processes of a :class:`~repro.api.batch.BatchCompiler`.
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import json
import os
import pickle
import tempfile
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Tuple

from .. import faults
from ..errors import CacheError
from ..ir.ddg import DDG
from ..machine.machine import MachineSpec
from ..scheduling.result import ScheduleResult
from ..targets.spec import LATENCY_FIELDS
from .request import CompilationReport, CompilationRequest

#: Bump when the canonical serialisation (or result semantics) change, so
#: stale cache directories invalidate themselves instead of lying.
#: v2: machine signatures carry topology parameters and per-target
#: latency models (declarative target-description API).
#: v3: scheduler configs carry the II-search policy fields (search,
#: pool width, thrash_cap_ratio) and the default policy is adaptive,
#: whose emitted schedules may differ bit-wise from the ladder's.
#: v4: scheduler configs drop the II-search pool width.
CACHE_SCHEMA_VERSION = 4


# ----------------------------------------------------------------------
# Canonical content hashing
# ----------------------------------------------------------------------


def ddg_signature(ddg: DDG) -> Tuple:
    """Canonical, order-independent description of a dependence graph."""
    ops = tuple(
        (
            op.op_id,
            op.opcode.value,
            tuple((s.producer, s.omega, s.symbol) for s in op.srcs),
            op.tag,
        )
        for op in ddg.operations()
    )
    explicit = tuple(
        (e.src, e.dst, e.kind.value, e.omega, e.latency)
        for e in ddg.edges()
        if not e.is_flow
    )
    return (ddg.name, ops, explicit)


def machine_signature(machine: MachineSpec) -> Tuple:
    """Canonical description of a machine (or serialised target) spec.

    The signature covers everything that can change a schedule: cluster
    FU mixes, queue-file shapes, and the full interconnect description
    (kind *and* parameters — a 3x3 and a 1x9 mesh are different
    machines).  A target's own latency model rides along so editing a
    machine file always invalidates its batch-cache entries, even though
    requests also hash their effective latencies separately.
    """
    latencies: Tuple = ()
    target_latencies = getattr(machine, "latencies", None)
    if target_latencies is not None:
        latencies = tuple(
            getattr(target_latencies, name) for name in LATENCY_FIELDS
        )
    return (
        machine.name,
        machine.topology_kind,
        tuple(machine.topology_params),
        (machine.cqrf.n_queues, machine.cqrf.queue_depth),
        tuple(
            (c.mem, c.alu, c.mul, c.copy, c.lrf.n_queues, c.lrf.queue_depth)
            for c in machine.clusters
        ),
        latencies,
    )


def content_hash(
    request: CompilationRequest, pipeline: Optional[Tuple[str, ...]] = None
) -> str:
    """SHA-256 content hash identifying *request*'s compilation result.

    *pipeline* is the pass-name tuple of the toolchain that will run the
    request (``None`` = the default pipeline): two toolchains with
    different pipelines must never share a cache entry, or a baseline
    sweep could silently read its competitor's schedules.  Pass names
    are the identity here because the registry enforces one pass per
    name.
    """
    from .toolchain import DEFAULT_PASSES

    loop = request.loop
    latencies = request.latencies
    config = request.config
    payload = {
        "schema": CACHE_SCHEMA_VERSION,
        "pipeline": list(pipeline if pipeline is not None else DEFAULT_PASSES),
        "loop": {
            "name": loop.name,
            "trip_count": loop.trip_count,
            "unroll_factor": loop.unroll_factor,
            "ddg": ddg_signature(loop.ddg),
        },
        "machine": machine_signature(request.machine),
        "latencies": [getattr(latencies, name) for name in LATENCY_FIELDS],
        "config": [
            [f.name, getattr(config, f.name)]
            for f in dataclasses.fields(config)
            if f.init
        ],
        "unroll": request.unroll,
        "equivalent_k": request.equivalent_k,
        "allocate": request.allocate,
        "validate": request.validate,
        "scheduler": request.scheduler,
    }
    blob = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def schedule_fingerprint(result: ScheduleResult) -> Tuple:
    """Canonical deep value of a schedule, for bit-identity comparisons.

    Two results with equal fingerprints encode the same schedule: same
    loop, machine, II/bounds, final graph and per-op placements.
    """
    return (
        result.loop_name,
        machine_signature(result.machine),
        result.scheduler,
        result.ii,
        result.res_mii,
        result.rec_mii,
        ddg_signature(result.ddg),
        tuple(
            (op_id, p.time, p.cluster)
            for op_id, p in sorted(result.placements.items())
        ),
    )


# ----------------------------------------------------------------------
# On-disk store
# ----------------------------------------------------------------------


@dataclass
class CacheStats:
    """Hit/miss/write counters for one cache handle."""

    hits: int = 0
    misses: int = 0
    writes: int = 0
    #: Entries that existed but could not be loaded (corrupt/unreadable).
    #: These also count as misses; a rising value means the cache
    #: directory is being damaged faster than it is repopulated.
    errors: int = 0

    def summary(self) -> str:
        text = f"cache: {self.hits} hits, {self.misses} misses, {self.writes} writes"
        if self.errors:
            text += f", {self.errors} errors"
        return text


class CompilationCache:
    """A directory of pickled compilation reports, keyed by content hash."""

    def __init__(self, root: os.PathLike):
        self.root = Path(root).expanduser()
        try:
            self.root.mkdir(parents=True, exist_ok=True)
        except OSError as err:
            raise CacheError(f"cannot create cache directory {self.root}: {err}")
        self.stats = CacheStats()

    def path_for(self, key: str) -> Path:
        """Entry path for *key* (two-level fan-out to keep dirs small)."""
        return self.root / key[:2] / f"{key}.pkl"

    def get(self, key: str) -> Optional[CompilationReport]:
        """Load the report for *key*, or ``None`` on a miss.

        Read-repair: a corrupt or unreadable entry counts as a miss
        *and is deleted*, so a damaged cache degrades to recompilation
        (whose ``put`` rewrites the entry) instead of failing the same
        way on every future lookup.
        """
        path = self.path_for(key)
        faults.damage_cache_entry(path)
        try:
            with open(path, "rb") as handle:
                report = pickle.load(handle)
        except FileNotFoundError:
            self.stats.misses += 1
            return None
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError,
                ImportError, IndexError, ValueError, TypeError):
            # Everything a truncated/corrupt/stale-schema pickle can
            # throw.  Anything outside this set (MemoryError, a bug in
            # CompilationReport.__setstate__) propagates — swallowing it
            # here hid real failures before the `errors` counter existed.
            self.stats.errors += 1
            try:
                path.unlink()
            except OSError:
                pass
            self.stats.misses += 1
            return None
        if not isinstance(report, CompilationReport):
            # Unpickled cleanly but is the wrong thing (e.g. an entry
            # written by foreign tooling): just as corrupt for our
            # purposes — repair it away too.
            self.stats.errors += 1
            try:
                path.unlink()
            except OSError:
                pass
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        report.cache_hit = True
        report.cache_key = key
        return report

    def put(self, key: str, report: CompilationReport) -> None:
        """Store *report* under *key* atomically."""
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        report.cache_key = key
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                pickle.dump(report, handle, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self.stats.writes += 1

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        removed = 0
        for entry in self.root.glob("*/*.pkl"):
            entry.unlink()
            removed += 1
        return removed

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*/*.pkl"))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<CompilationCache {str(self.root)!r} entries={len(self)}>"


# ----------------------------------------------------------------------
# In-memory tier
# ----------------------------------------------------------------------


class MemoryCache:
    """A bounded in-memory LRU of compilation reports, keyed like the
    disk cache.

    Entries are kept un-flagged (``cache_hit=False``); :meth:`get`
    returns a shallow copy with the provenance flags set, so handing the
    same entry to many callers never lets one caller's flag mutation
    leak into another's report (the disk tier gets the same isolation
    for free from unpickling).

    The capacity bound is an entry count, not bytes: reports for the
    kernel suite are small and uniform, and a count keeps eviction O(1).
    """

    def __init__(self, capacity: int = 256):
        if capacity < 1:
            raise CacheError(f"MemoryCache capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._entries: "OrderedDict[str, CompilationReport]" = OrderedDict()
        self.stats = CacheStats()
        self.evictions = 0

    def get(self, key: str) -> Optional[CompilationReport]:
        entry = self._entries.get(key)
        if entry is None:
            self.stats.misses += 1
            return None
        self._entries.move_to_end(key)
        self.stats.hits += 1
        report = copy.copy(entry)
        report.cache_hit = True
        report.cache_key = key
        return report

    def put(self, key: str, report: CompilationReport) -> None:
        stored = copy.copy(report)
        stored.cache_hit = False
        stored.cache_key = key
        self._entries[key] = stored
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1
        self.stats.writes += 1

    def clear(self) -> int:
        removed = len(self._entries)
        self._entries.clear()
        return removed

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<MemoryCache entries={len(self)}/{self.capacity} "
            f"hits={self.stats.hits} evictions={self.evictions}>"
        )


class TieredCache:
    """Memory LRU in front of an (optional) disk cache, one interface.

    Lookup order is memory first, then disk; a disk hit is promoted into
    the memory tier so a warm daemon stops touching the filesystem for
    its working set.  Writes go to both tiers.  The object satisfies the
    same ``get``/``put``/``stats`` duck type as :class:`CompilationCache`,
    so a :class:`~repro.api.batch.BatchCompiler` can ride a tiered cache
    unchanged.
    """

    def __init__(
        self,
        memory: Optional[MemoryCache] = None,
        disk: Optional[CompilationCache] = None,
    ):
        self.memory = memory if memory is not None else MemoryCache()
        self.disk = disk
        self.stats = CacheStats()  # aggregate over both tiers

    def get(self, key: str) -> Optional[CompilationReport]:
        return self.get_tiered(key)[0]

    def get_tiered(
        self, key: str
    ) -> Tuple[Optional[CompilationReport], Optional[str]]:
        """Lookup that also names the tier that answered.

        Returns ``(report, tier)`` with tier ``"memory"``, ``"disk"`` or
        ``None`` on a miss.  Membership checks after the fact can't tell
        the tiers apart (a disk hit is promoted into memory), so callers
        that report provenance — the service's ``served_from`` field —
        need the answer from the lookup itself.
        """
        report = self.memory.get(key)
        if report is not None:
            self.stats.hits += 1
            return report, "memory"
        if self.disk is not None:
            report = self.disk.get(key)
            if report is not None:
                self.memory.put(key, report)
                self.stats.hits += 1
                return report, "disk"
        self.stats.misses += 1
        return None, None

    def put(self, key: str, report: CompilationReport) -> None:
        self.memory.put(key, report)
        if self.disk is not None:
            self.disk.put(key, report)
        self.stats.writes += 1

    def counters(self) -> Dict[str, object]:
        """Per-tier hit/miss/eviction counters (for ``/metrics``)."""
        lookups = self.stats.hits + self.stats.misses
        disk_stats = self.disk.stats if self.disk is not None else CacheStats()
        return {
            "lookups": lookups,
            "memory_hits": self.memory.stats.hits,
            "disk_hits": disk_stats.hits,
            "misses": self.stats.misses,
            "memory_hit_ratio": (
                self.memory.stats.hits / lookups if lookups else 0.0
            ),
            "disk_hit_ratio": (disk_stats.hits / lookups if lookups else 0.0),
            "hit_ratio": (self.stats.hits / lookups if lookups else 0.0),
            "evictions": self.memory.evictions,
            "memory_entries": len(self.memory),
            "memory_capacity": self.memory.capacity,
            "disk_errors": disk_stats.errors,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<TieredCache memory={self.memory!r} disk={self.disk!r}>"
