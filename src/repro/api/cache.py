"""Content-addressed on-disk memoisation for compilation results.

The cache key is a SHA-256 over a canonical serialisation of everything a
compilation depends on: the DDG (operations, operands, explicit edges),
the loop metadata, the machine specification, the latency model, the
scheduler configuration and the request knobs.  Two requests with the
same key are guaranteed to produce bit-identical schedules (compilation
is deterministic), so re-running a figure sweep against a warm cache is
near-instant.

An entry is an :class:`EncodedReport`: the pickled
:class:`~repro.api.request.CompilationReport` plus a JSON-safe summary
of it, the form both cache tiers and the compilation service hold.  On
disk it is one file (a check line, the summary as a JSON line, then the
pickle), written atomically (tmp file + rename), so a cache directory
can be shared by the worker processes of a
:class:`~repro.api.batch.BatchCompiler`.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import os
import pickle
import tempfile
import zlib
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, Optional, Tuple, Union

from .. import faults
from ..errors import CacheError
from ..ir.ddg import DDG
from ..machine.machine import MachineSpec
from ..scheduling.fingerprint import schedule_fingerprint
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
#: v5: an entry file is a check line (schema, crc32), the reply summary
#: as one JSON line, then the pickled report (:class:`EncodedReport`).
#: v6: pickled graphs key their edges by ``DepKind.code`` and latency
#: models hold an opcode-indexed tuple, so a v5 report no longer loads.
CACHE_SCHEMA_VERSION = 6


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


# ----------------------------------------------------------------------
# The stored form of a report
# ----------------------------------------------------------------------


def _first_line(body: bytes) -> bytes:
    """An entry file's first line for *body*: format, schema version and
    a damage check (the cache directory is trusted: crc32, not a MAC)."""
    return b"repro-cache %d %d" % (CACHE_SCHEMA_VERSION, zlib.crc32(body))


def _split_entry(data: bytes) -> Tuple[bytes, bytes]:
    """``(summary JSON, blob)`` of an entry file's bytes.

    Raises :class:`CacheError` for anything else: another schema version
    (a v4 entry is a bare pickle) or a damaged file.
    """
    head, _, body = data.partition(b"\n")
    if head != _first_line(body):
        raise CacheError("not a current cache entry")
    summary, _, blob = body.partition(b"\n")
    return summary, blob


class EncodedReport:
    """A compiled report held as bytes plus the summary its replies need.

    *summary* is JSON-safe: ``report`` is :meth:`CompilationReport.to_dict`
    without the per-lookup ``cache_hit``/``cache_key`` fields,
    and ``fingerprint`` the schedule's hash
    (:func:`repro.scheduling.fingerprint.schedule_fingerprint`).
    *blob* is the pickled report.  The report is pickled once, by
    :meth:`encode`, and :attr:`report` unpickles a fresh copy only when
    a caller asks, so no object graph is kept or shared.
    """

    __slots__ = ("summary", "blob")

    def __init__(self, summary: Dict[str, object], blob: bytes):
        self.summary = summary
        self.blob = blob

    @classmethod
    def encode(cls, report: CompilationReport) -> "EncodedReport":
        described = report.to_dict()
        del described["cache_hit"], described["cache_key"]
        summary = {
            "report": described,
            "fingerprint": schedule_fingerprint(report.result),
        }
        return cls(summary, pickle.dumps(report, protocol=pickle.HIGHEST_PROTOCOL))

    @property
    def fingerprint(self) -> str:
        return self.summary["fingerprint"]

    @property
    def ii(self) -> int:
        return self.summary["report"]["ii"]

    @property
    def report(self) -> CompilationReport:
        """A freshly unpickled copy of the report."""
        return pickle.loads(self.blob)

    def describe(self, cache_hit: bool, cache_key: Optional[str]) -> Dict[str, object]:
        """``report.to_dict()`` as one lookup of *cache_key* sees it."""
        return dict(self.summary["report"], cache_hit=cache_hit, cache_key=cache_key)

    def to_bytes(self) -> bytes:
        """The disk form: a check line, the summary as one JSON line,
        then the blob."""
        body = json.dumps(self.summary, separators=(",", ":")).encode("utf-8") + b"\n" + self.blob
        return _first_line(body) + b"\n" + body

    @classmethod
    def from_bytes(cls, data: bytes) -> "EncodedReport":
        """Parse :meth:`to_bytes` output without unpickling the blob;
        :class:`CacheError` when *data* is not a current, intact entry."""
        text, blob = _split_entry(data)
        return cls(json.loads(text), blob)


def _as_entry(key: str, value: Union[EncodedReport, CompilationReport]) -> EncodedReport:
    """*value* as a stored entry; a report is stamped with *key* first."""
    if isinstance(value, EncodedReport):
        return value
    value.cache_key = key
    return EncodedReport.encode(value)


# ----------------------------------------------------------------------
# On-disk store
# ----------------------------------------------------------------------


@contextmanager
def gc_paused() -> Iterator[None]:
    """Hold off the cyclic collector while cached reports are unpickled.

    A report unpickles into thousands of small, live objects; every few
    hundred allocations would otherwise trigger a collection that frees
    nothing, and on a warm sweep those collections cost more than the
    unpickling itself.  Wrap a whole run of :meth:`CompilationCache.get`
    calls, not each one.  On exit the objects the block allocated go
    straight to the oldest generation (``gc.freeze`` then
    ``gc.unfreeze``): the reports live on with the caller, so the
    young-generation passes that would otherwise walk them once each
    (~20% of a warm 280-hit sweep) free nothing.  Both the pause and the
    promotion are process-wide: every thread runs without the collector
    until the block exits, and young objects of other threads are
    promoted too, left to the next full collection.  The promotion is
    skipped while the host program holds frozen objects, which
    ``gc.unfreeze`` would release.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            if gc.get_freeze_count() == 0:
                gc.freeze()
                gc.unfreeze()
            gc.enable()


@dataclass
class CacheStats:
    """Hit/miss/write counters for one cache handle."""

    hits: int = 0
    misses: int = 0
    writes: int = 0
    #: Entries that existed but could not be loaded (corrupt/unreadable);
    #: these also count as misses.  A :class:`TieredCache` also counts
    #: its disk tier's failed writes here.  A rising value means the
    #: cache directory is damaged or unwritable.
    errors: int = 0

    def summary(self) -> str:
        text = f"cache: {self.hits} hits, {self.misses} misses, {self.writes} writes"
        if self.errors:
            text += f", {self.errors} errors"
        return text


class CompilationCache:
    """A directory of encoded compilation reports, keyed by content hash."""

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

        Read-repair: a corrupt, unreadable or stale-schema entry counts
        as a miss *and is deleted*, so a damaged cache degrades to
        recompilation (whose ``put`` rewrites the entry) instead of
        failing the same way on every future lookup.
        """
        data = self._read(key)
        if data is None:
            return None
        try:
            report = pickle.loads(_split_entry(data)[1])
        except (pickle.UnpicklingError, EOFError, AttributeError, ImportError,
                IndexError, ValueError, TypeError, CacheError):
            # A damaged or stale-schema file fails the check line; an
            # intact blob can still name classes this code no longer
            # has.  Anything else (MemoryError, a bug in
            # CompilationReport.__setstate__) propagates.
            self._repair(self.path_for(key))
            return None
        self.stats.hits += 1
        report.cache_hit = True
        report.cache_key = key
        return report

    def get_encoded(self, key: str) -> Optional[EncodedReport]:
        """The stored entry for *key* without unpickling it, or ``None``
        (with the same read-repair as :meth:`get`)."""
        data = self._read(key)
        if data is None:
            return None
        try:
            entry = EncodedReport.from_bytes(data)
        except CacheError:
            self._repair(self.path_for(key))
            return None
        self.stats.hits += 1
        return entry

    def _read(self, key: str) -> Optional[bytes]:
        """The bytes of *key*'s entry file; counts misses and unreadable
        entries, not hits."""
        path = self.path_for(key)
        faults.damage_cache_entry(path)
        try:
            with open(path, "rb") as handle:
                return handle.read()
        except FileNotFoundError:
            self.stats.misses += 1
        except OSError:
            self._repair(path)
        return None

    def _repair(self, path: Path) -> None:
        """Count and delete an entry that could not be used."""
        self.stats.errors += 1
        self.stats.misses += 1
        try:
            path.unlink()
        except OSError:
            pass

    def put(self, key: str, value: Union[EncodedReport, CompilationReport]) -> EncodedReport:
        """Store *value* (an entry, or a report to encode) under *key*
        atomically; returns the stored entry."""
        entry = _as_entry(key, value)
        data = entry.to_bytes()
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(data)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self.stats.writes += 1
        return entry

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
    """A bounded in-memory LRU of :class:`EncodedReport` entries, keyed
    like the disk cache.

    An entry is bytes plus a JSON-safe summary: callers that want the
    report unpickle their own copy, so nothing one caller does to it
    reaches another, and the cyclic collector has no report graphs to
    walk.

    The capacity bound is an entry count, not bytes: reports for the
    kernel suite are small and uniform, and a count keeps eviction O(1).
    """

    def __init__(self, capacity: int = 256):
        if capacity < 1:
            raise CacheError(f"MemoryCache capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._entries: "OrderedDict[str, EncodedReport]" = OrderedDict()
        self.stats = CacheStats()
        self.evictions = 0

    def get(self, key: str) -> Optional[EncodedReport]:
        entry = self._entries.get(key)
        if entry is None:
            self.stats.misses += 1
            return None
        self._entries.move_to_end(key)
        self.stats.hits += 1
        return entry

    def put(self, key: str, entry: EncodedReport) -> None:
        self._entries[key] = entry
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
    unchanged; :meth:`get_tiered` is the service's lookup, which hands
    back the :class:`EncodedReport` itself.
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
        """The report for *key* (unpickled from its entry), or ``None``."""
        entry = self.get_tiered(key)[0]
        if entry is None:
            return None
        report = entry.report
        report.cache_hit = True
        report.cache_key = key
        return report

    def get_tiered(
        self, key: str
    ) -> Tuple[Optional[EncodedReport], Optional[str]]:
        """Lookup that also names the tier that answered.

        Returns ``(entry, tier)`` with tier ``"memory"``, ``"disk"`` or
        ``None`` on a miss.  Membership checks after the fact can't tell
        the tiers apart (a disk hit is promoted into memory), so callers
        that report provenance — the service's ``served_from`` field —
        need the answer from the lookup itself.  Neither tier unpickles.
        """
        entry = self.memory.get(key)
        if entry is not None:
            self.stats.hits += 1
            return entry, "memory"
        if self.disk is not None:
            entry = self.disk.get_encoded(key)
            if entry is not None:
                self.memory.put(key, entry)
                self.stats.hits += 1
                return entry, "disk"
        self.stats.misses += 1
        return None, None

    def put(self, key: str, value: Union[EncodedReport, CompilationReport]) -> None:
        """Store *value* in both tiers.

        A failed disk write (a full disk, an unwritable directory) is
        counted in the disk tier's ``errors`` — ``disk_errors`` in
        :meth:`counters` — and not raised: the memory tier holds the
        entry, and the compile that produced it has succeeded.
        """
        entry = _as_entry(key, value)
        self.memory.put(key, entry)
        if self.disk is not None:
            try:
                self.disk.put(key, entry)
            except (OSError, CacheError):
                self.disk.stats.errors += 1
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
