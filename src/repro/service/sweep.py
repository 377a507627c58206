"""Distributed sweeps: many-entry ledger groups claimed in chunks.

A **sweep** is a list of compile payloads (:mod:`repro.service.jobs`),
each compiled by the default toolchain, submitted as one
:class:`Sweep` group of the work ledger (:mod:`repro.service.ledger`)
and run by pull-based workers (:mod:`repro.service.worker`) under
distributed chunk-calculation self-scheduling: the daemon only
advertises the remaining work and the active workers, and each worker
computes its own decreasing chunk (:func:`chunk_size`) and claims that
many entries under one lease.

Faults follow the ledger: an expired lease requeues its unfinished
entries at the queue front, quarantining those past ``max_requeues``.
A completion for a lease the ledger no longer holds is an **orphan**
and still accepted; one for a finished entry is a **duplicate** (the
first result wins; compilation is deterministic).  Workers ship reports
as base64 pickles (on a trusted network); the coordinator unpickles
each, recomputes its request content hash, rejects a report whose hash
is not its entry's key, and stores the report re-encoded from the
decoded object (:class:`~repro.api.cache.EncodedReport`), never the
bytes the worker sent.
"""

from __future__ import annotations

import base64
import functools
import hashlib
import json
import math
import pickle
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..api import CompilationReport, EncodedReport, content_hash
from ..errors import ServiceError
from .jobs import parse_compile_payload
from .ledger import Entry, Group, Ledger, finished_record

#: Default lease: long enough for a handful of ladder compiles, short
#: enough that a vanished worker's chunk requeues within a test.
DEFAULT_LEASE_SECONDS = 10.0

#: Lost leases one sweep entry survives before it is quarantined.
DEFAULT_MAX_REQUEUES = 3

#: Lease jitter: a lease lasts ``lease * (1 + LEASE_JITTER * u)`` with
#: ``u`` from a sweep-seeded RNG, so requeues do not synchronize.
LEASE_JITTER = 0.25

#: Hard bound on jobs per sweep (the 840-program verify matrix fits).
MAX_SWEEP_JOBS = 4096

#: Finished sweeps kept around for status queries.
SWEEP_HISTORY = 16

#: A worker is active while it was seen within this many leases.
STALE_WORKER_LEASES = 3.0

#: Self-scheduling divisor: a chunk is the remaining work over
#: ``workers * CHUNK_FACTOR``, so each worker takes about half its share.
CHUNK_FACTOR = 2.0

#: Per-index job states a sweep reports (quarantine counts as failed).
SWEEP_JOB_STATES = ("pending", "leased", "done", "failed")


def chunk_size(remaining: int, workers: int, max_chunk: int = 32) -> int:
    """The self-scheduling chunk a worker should claim, computed locally.

    Guided self-scheduling: early chunks are large (low coordination
    overhead), later ones shrink toward one entry (load balance on the
    irregular tail).  The coordinator never computes this.
    """
    if remaining <= 0:
        return 0
    share = math.ceil(remaining / max(1.0, workers * CHUNK_FACTOR))
    return max(1, min(share, max_chunk, remaining))


@dataclass
class SweepPlan:
    """A validated, enumerated sweep spec (built off the event loop)."""

    id: str
    spec: Dict[str, object]
    label: Optional[str]
    lease_seconds: float
    max_requeues: int
    seed: int
    payloads: List[Dict[str, object]]
    keys: List[str]
    #: key -> entry found durable in the disk cache at planning time.
    prefilled: Dict[str, EncodedReport] = field(default_factory=dict)


class Sweep(Group):
    """One sweep: a many-entry ledger group plus its worker bookkeeping."""

    def __init__(self, plan: SweepPlan):
        super().__init__(f"sweep:{plan.id}", budget=plan.max_requeues, payload=plan.spec)
        self.id = plan.id
        self.label = plan.label
        self.lease_seconds = plan.lease_seconds
        digest = hashlib.sha256(f"{plan.seed}:{plan.id}".encode("utf-8")).digest()
        self.rng = random.Random(int.from_bytes(digest[:8], "big"))
        self.workers: Dict[str, Dict[str, object]] = {}
        self.counters = dict.fromkeys(
            ("granted", "completed", "lease_expiries",
             "duplicate", "orphan", "invalid", "cache_prefills"), 0
        )

    @property
    def state(self) -> str:
        if not self.finished:
            return "open"
        states = self.job_states()
        return "failed" if states["failed"] and not states["done"] else "done"

    def job_states(self) -> Dict[str, int]:
        counts = dict.fromkeys(SWEEP_JOB_STATES, 0)
        for entry in self.entries:
            counts["failed" if entry.state == "quarantined" else entry.state] += 1
        return counts

    @functools.cached_property
    def index_of(self) -> Dict[str, int]:
        """Entry key -> its first index in the job space."""
        return {entry.key: i for i, entry in reversed(list(enumerate(self.entries)))}

    def active_workers(self, now: float) -> int:
        horizon = STALE_WORKER_LEASES * self.lease_seconds
        return sum(now - float(info["last_seen"]) <= horizon for info in self.workers.values())

    def touch_worker(self, name: str, now: float) -> Dict[str, object]:
        info = self.workers.setdefault(
            name, {"last_seen": now, "claims": 0, "jobs_done": 0, "lease_expiries": 0}
        )
        info["last_seen"] = now
        return info

    def describe_job(self, index: int) -> Dict[str, object]:
        entry = self.entries[index]
        info: Dict[str, object] = {
            "index": index,
            "key": entry.key,
            "state": "failed" if entry.state == "quarantined" else entry.state,
        }
        if entry.requeues:
            info["requeues"] = entry.requeues
        if entry.worker is not None:
            info["worker"] = entry.worker
        if entry.state == "done":
            info.update(fingerprint=entry.report.fingerprint, ii=entry.report.ii,
                        served_from=entry.served_from)
            if entry.seconds is not None:
                info["seconds"] = entry.seconds
        elif entry.terminal:
            info["error"] = entry.error
        return info

    def status(self, ledger: Ledger) -> Dict[str, object]:
        states = self.job_states()
        doc: Dict[str, object] = {
            "sweep": self.id,
            "state": self.state,
            "total": len(self.entries),
            **states,
            # What a worker's local chunk math consumes.
            "remaining": len(self.queue),
            "active_workers": self.active_workers(ledger.clock()),
            "chunks_outstanding": sum(lease.group == self.id for lease in ledger.leases.values()),
            "lease_seconds": self.lease_seconds,
            "max_requeues": self.budget,
        }
        if self.label is not None:
            doc["label"] = self.label
        if self.recovered:
            doc["recovered"] = True
        return doc


# ----------------------------------------------------------------------
# Spec enumeration and result decoding (both run off the event loop)
# ----------------------------------------------------------------------


def enumerate_sweep(spec: object, disk_cache=None) -> SweepPlan:
    """Validate a sweep spec into a :class:`SweepPlan`.

    A spec is ``{"jobs": [payload, ...]}`` plus the optional ``lease``,
    ``max_requeues``, ``seed`` and ``label``.  The sweep id is a content
    hash of the normalized spec, so re-submitting an identical spec
    returns the existing sweep.  Keys
    already durable in *disk_cache* come back prefilled, so a re-run
    starts (partially) done without unpickling anything; the memory LRU
    belongs to the event loop and is not probed here.
    """
    if not isinstance(spec, dict):
        raise ServiceError("sweep spec must be a JSON object", status=400)
    jobs = spec.get("jobs")
    if not isinstance(jobs, list) or not all(isinstance(job, dict) for job in jobs):
        raise ServiceError("sweep spec needs 'jobs': a list of compile payload objects",
                           status=400)
    payloads = [dict(job) for job in jobs]
    if not payloads or len(payloads) > MAX_SWEEP_JOBS:
        raise ServiceError(
            f"sweep enumerates {len(payloads)} jobs; 1..{MAX_SWEEP_JOBS} allowed",
            status=400,
        )
    try:
        lease_seconds = float(spec.get("lease", DEFAULT_LEASE_SECONDS))
        max_requeues = int(spec.get("max_requeues", DEFAULT_MAX_REQUEUES))
        seed = int(spec.get("seed", 0))
    except (TypeError, ValueError):
        raise ServiceError("'lease' must be a number, 'max_requeues'/'seed' integers",
                           status=400)
    if lease_seconds <= 0 or max_requeues < 0:
        raise ServiceError("'lease' must be > 0 seconds and 'max_requeues' >= 0", status=400)
    label = spec.get("label")
    label = str(label) if label is not None else None
    keys = [content_hash(parse_compile_payload(payload).request) for payload in payloads]
    normalized = {"jobs": payloads, "lease": lease_seconds, "max_requeues": max_requeues,
                  "seed": seed, "label": label}
    canonical = json.dumps(normalized, sort_keys=True, separators=(",", ":"))
    prefilled: Dict[str, EncodedReport] = {}
    for key in dict.fromkeys(keys) if disk_cache is not None else ():
        stored = disk_cache.get_encoded(key)
        if stored is not None:
            prefilled[key] = stored
    if label is None:
        del normalized["label"]
    return SweepPlan(
        id="sw-" + hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12],
        spec=normalized, label=label, lease_seconds=lease_seconds,
        max_requeues=max_requeues, seed=seed, payloads=payloads, keys=keys,
        prefilled=prefilled,
    )


def encode_report(report: CompilationReport) -> str:
    """The wire form of one worker-shipped report (base64 pickle)."""
    return encode_blob(pickle.dumps(report, protocol=pickle.HIGHEST_PROTOCOL))


def encode_blob(blob: bytes) -> str:
    """The wire form of an already pickled report, such as a stored
    entry's :attr:`~repro.api.cache.EncodedReport.blob`."""
    return base64.b64encode(blob).decode("ascii")


def decode_worker_results(results: object) -> List[Dict[str, object]]:
    """Validate and decode one completion's result list.

    Each item carries either ``stored`` (the unpickled report encoded
    afresh, with its request's content hash recomputed as
    ``request_key``), or ``error`` (a deterministic compile failure),
    or ``invalid`` when it cannot be used.
    """
    if not isinstance(results, list) or len(results) > MAX_SWEEP_JOBS:
        raise ServiceError("'results' must be a list of at most one per job", status=400)
    decoded: List[Dict[str, object]] = []
    for entry in results:
        if not isinstance(entry, dict) or "index" not in entry:
            raise ServiceError("each result needs at least an 'index'", status=400)
        try:
            item: Dict[str, object] = {"index": int(entry["index"]),
                                       "key": str(entry.get("key", ""))}
        except (TypeError, ValueError):
            raise ServiceError("result 'index' must be an integer", status=400)
        decoded.append(item)
        blob = entry.get("report")
        if entry.get("error") is not None:
            item["error"] = str(entry["error"])[:1000]
        elif not isinstance(blob, str):
            item["invalid"] = "result carries neither 'error' nor 'report'"
        else:
            try:
                report = pickle.loads(base64.b64decode(blob.encode("ascii")))
                if not isinstance(report, CompilationReport):
                    raise ServiceError("decoded object is not a CompilationReport")
                item.update(
                    stored=EncodedReport.encode(report),
                    request_key=content_hash(report.request),
                )
            except Exception as err:  # repro: lint-ignore[exception-discipline]: untrusted-bytes boundary - unpickling a worker-shipped report can raise nearly anything; a bad entry must requeue that one job, not fail the whole completion
                item["invalid"] = f"undecodable report: {type(err).__name__}: {err}"
            else:
                if isinstance(entry.get("seconds"), (int, float)):
                    item["seconds"] = round(float(entry["seconds"]), 4)
    return decoded


# ----------------------------------------------------------------------
# Worker verbs: claim / heartbeat / complete, and lease expiry
# ----------------------------------------------------------------------


def grant(ledger: Ledger, sweep: Sweep, worker: str, count: int) -> Dict[str, object]:
    """Lease up to *count* of the sweep's pending entries to *worker*."""
    now = ledger.clock()
    info = sweep.touch_worker(worker, now)
    reply: Dict[str, object] = {"sweep": sweep.id, "state": sweep.state, "chunk": None,
                                "jobs": []}
    lease = None
    if reply["state"] == "open":
        # Seeded jitter: deterministic per (sweep, chunk) sequence, yet
        # decorrelated across chunks.
        seconds = sweep.lease_seconds * (1.0 + LEASE_JITTER * sweep.rng.random())
        lease = ledger.claim(worker, count, sweep.queue, seconds, sweep.id)
    if lease is not None:
        info["claims"] += 1
        sweep.counters["granted"] += 1
        reply.update(chunk=lease.id, lease_seconds=round(lease.lease_seconds, 3), jobs=[
            {"index": sweep.index_of[key], "key": key, "payload": ledger.live[key].payload}
            for key in lease.keys
        ])
    reply.update(remaining=len(sweep.queue), active_workers=sweep.active_workers(now))
    return reply


def heartbeat(ledger: Ledger, sweep: Sweep, worker: str, chunk: str) -> Dict[str, object]:
    """Extend one chunk's lease; tells the worker if the lease was lost."""
    sweep.touch_worker(worker, ledger.clock())
    lease = ledger.heartbeat(chunk, worker)
    if lease is None:
        # Expired and requeued, or stolen: the worker may still complete,
        # and the first result wins.
        return {"sweep": sweep.id, "chunk": chunk, "ok": False,
                "reason": "lease not held (expired, requeued or unknown)"}
    return {"sweep": sweep.id, "chunk": chunk, "ok": True,
            "lease_seconds": round(lease.lease_seconds, 3)}


def merge(ledger: Ledger, cache, sweep: Sweep, worker: str, chunk: str,
          decoded: List[Dict[str, object]]):
    """Fold one completion into the ledger: ``(ack, records, finishes)``.

    The records are one ``finished`` for every entry the completion
    finishes and, when part of the lease came back unreported or
    invalid, one ``requeued`` for the lease lost on those entries.  The
    *finishes* are ``(entry, state, fields)`` for :meth:`Ledger.finish`,
    which the caller applies once the records are durable: a client
    waiting on a shared entry sees its result only after the journal.
    """
    info = sweep.touch_worker(worker, ledger.clock())
    lease = ledger.held(chunk, worker)
    if lease is not None and lease.group != sweep.id:
        lease = None
    sweep.counters["orphan" if lease is None else "completed"] += 1
    if lease is not None:
        ledger.release(lease)
    finishes: List[Tuple[Entry, str, Dict[str, object]]] = []
    taken = set()  # entries this completion finishes
    reported: List[str] = []
    lost: List[str] = []
    duplicates = invalid = 0
    for item in decoded:
        if not 0 <= item["index"] < len(sweep.entries):
            invalid += 1
            continue
        entry = sweep.entries[item["index"]]
        reported.append(entry.key)
        if item["key"] not in ("", entry.key) or item.get("request_key", entry.key) != entry.key:
            item["invalid"] = "the report is for another request"
        if item.get("invalid"):
            invalid += 1
            if lease is not None and entry.lease == lease.id:
                lost.append(entry.key)
        elif entry.terminal or entry in taken:
            duplicates += 1
        elif item.get("error") is not None:
            taken.add(entry)
            finishes.append((entry, "failed", dict(worker=worker, error=item["error"],
                                                   status=422)))
        else:
            stored, _tier = cache.get_tiered(entry.key)
            served_from = "cache"
            if stored is None:
                stored, served_from = item["stored"], worker
                cache.put(entry.key, stored)
            taken.add(entry)
            finishes.append((entry, "done", dict(
                worker=worker, report=stored, seconds=item.get("seconds"),
                served_from=served_from,
            )))
            info["jobs_done"] += 1
    sweep.counters["invalid"] += invalid
    sweep.counters["duplicate"] += duplicates
    records = [finished_record(chunk, [(entry.key, state, fields.get("error"))
                                       for entry, state, fields in finishes])]
    if lease is not None:
        # Granted but unreported (a partial completion) goes back too.
        lost += [key for key in lease.keys if key not in reported]
        records.append(ledger.lose(lease, "partial or invalid completion", lost))
    ack = {"sweep": sweep.id, "chunk": chunk, "accepted": len(finishes),
           "duplicates": duplicates, "invalid": invalid, "orphan": lease is None}
    return ack, records, finishes


def expire(ledger: Ledger, sweeps: Dict[str, Sweep]) -> list:
    """Lose every lease whose deadline passed; their ``requeued`` records."""
    records = []
    for lease in ledger.expired():
        sweep = sweeps.get(lease.group)
        if sweep is not None:
            sweep.counters["lease_expiries"] += 1
            if lease.worker in sweep.workers:
                sweep.workers[lease.worker]["lease_expiries"] += 1
        records.append(ledger.lose(lease, "lease expired"))
    return records


def counters(sweeps: Dict[str, Sweep], ledger: Ledger, recovered: int) -> Optional[Dict[str, object]]:
    """The ``/metrics`` sweep section (``None`` before any sweep)."""
    if not sweeps:
        return None
    now = ledger.clock()
    states = {"open": 0, "done": 0, "failed": 0}
    jobs = dict.fromkeys(SWEEP_JOB_STATES, 0)
    totals = dict.fromkeys(next(iter(sweeps.values())).counters, 0)
    workers: Dict[str, Dict[str, object]] = {}
    for sweep in sweeps.values():
        states[sweep.state] += 1
        for state, count in sweep.job_states().items():
            jobs[state] += count
        for name, count in sweep.counters.items():
            totals[name] += count
        for name, info in sweep.workers.items():
            age = round(now - float(info["last_seen"]), 3)
            merged = workers.setdefault(name, {"heartbeat_age_seconds": age, "claims": 0,
                                               "jobs_done": 0, "lease_expiries": 0})
            merged["heartbeat_age_seconds"] = min(merged["heartbeat_age_seconds"], age)
            for counter in ("claims", "jobs_done", "lease_expiries"):
                merged[counter] += info[counter]
    jobs["total"] = sum(jobs[state] for state in SWEEP_JOB_STATES)
    chunks = {name: totals[name] for name in ("granted", "completed", "lease_expiries")}
    chunks["requeued"] = totals["lease_expiries"]  # each expiry requeues its chunk
    chunks["outstanding"] = sum(lease.group in sweeps for lease in ledger.leases.values())
    return {
        "sweeps": states,
        "jobs": jobs,
        "chunks": chunks,
        "completions": {name: totals[name]
                        for name in ("duplicate", "orphan", "invalid", "cache_prefills")},
        "workers": dict(sorted(workers.items())),
        "recovered_sweeps": recovered,
    }
