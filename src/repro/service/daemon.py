"""The compilation daemon: ``repro serve``.

A :class:`CompileService` is a long-lived asyncio process that keeps a
compile session's expensive state resident between requests: a warm,
pre-spawned process pool and an in-memory LRU in front of the
content-hash disk cache, so a warm repeat compile touches neither the
scheduler nor the filesystem.

Everything it runs goes through one **work ledger**
(:mod:`repro.service.ledger`).  A ``/compile`` cache miss is a one-entry
group, a sweep (:mod:`repro.service.sweep`) a many-entry group; an
identical request attaches to the live entry instead of compiling twice,
and a request's ``high``/``normal``/``low`` priority is its entry's
claim order.  The process pool is a **local worker** on the ledger: it
claims the entries a ``/compile`` waits on through the same claim /
complete / lost-lease code that ``repro worker`` processes use through
``/sweeps/<id>/claim``.  A ``BrokenExecutor`` is a lost lease on every
entry the pool held: the pool is respawned (at most
:data:`MAX_RESPAWNS` times, then the daemon drains) and the entries are
requeued, or quarantined once they spend their requeue budget.

Around that: admission control (a full queue sheds a lower-priority
queued compile, else answers 429 with ``Retry-After``), per-job event
streams, ``/healthz`` and ``/metrics``, a graceful drain on SIGTERM, a
journal (:mod:`repro.service.journal`) that makes every acknowledged
submission survive a ``kill -9``, and deterministic fault injection
(:mod:`repro.faults`) at the ``worker-crash``/``slow-compile``/
``conn-reset`` points.

The HTTP surface (framing in :mod:`repro.service.http`):

=======  ==========================  =====================================
method   path                        meaning
=======  ==========================  =====================================
GET      ``/healthz``                liveness + drain state
GET      ``/metrics``                full metrics JSON
POST     ``/compile``                compile payload
                                     (:mod:`repro.service.jobs`); blocks
                                     until done unless ``"wait": false``
GET      ``/jobs/<id>``              job status / result
GET      ``/jobs/<id>/events``       chunked event stream until terminal
                                     (``?since=N`` resumes at offset N)
GET      ``/sweeps``                 list sweeps
POST     ``/sweeps``                 submit a sweep spec (idempotent)
GET      ``/sweeps/<id>``            sweep status (``?jobs=1`` for detail)
GET      ``/sweeps/<id>/results``    per-job results page
POST     ``/sweeps/<id>/claim``      worker: claim a chunk under a lease
POST     ``/sweeps/<id>/heartbeat``  worker: extend a chunk lease
POST     ``/sweeps/<id>/complete``   worker: deliver chunk results
=======  ==========================  =====================================
"""

from __future__ import annotations

import asyncio
import functools
import json
import signal
import sys
import time
from collections import deque
from concurrent.futures import BrokenExecutor, Executor, ProcessPoolExecutor, ThreadPoolExecutor
from pathlib import Path
from typing import Deque, Dict, List, Optional, Tuple

from .. import faults
from ..api import CompilationReport, CompilationRequest, Toolchain, content_hash
from ..api.cache import CompilationCache, MemoryCache, TieredCache
from ..errors import ReproError, ServiceError
from ..scheduling.fingerprint import schedule_fingerprint
from . import http as h
from . import ledger as lg
from . import sweep as sw
from .jobs import PRIORITY_LANES, ParsedJob, parse_compile_payload
from .journal import JobJournal, JournalEntry, JournalState
from .ledger import COMPILE_REQUEUES, Entry, Group, Lease, Ledger
from .metrics import ServiceMetrics

#: Terminal job states (a job is ``queued`` or ``running`` before).
_TERMINAL = frozenset({"done", "failed", "shed", "quarantined"})

#: Jobs to retain in the id registry after completion (for /jobs/<id>).
_JOB_HISTORY = 1024

#: ``Retry-After`` seconds sent with 429 rejections: long enough for a
#: dispatch slot to open without idling the client.
RETRY_AFTER_HINT = 0.25

#: Pool respawns before the daemon gives up and drains (crash-loop bound).
MAX_RESPAWNS = 8

#: Seconds between scans for expired sweep leases.
LEASE_CHECK_SECONDS = 0.2

#: The worker name the daemon's own pool claims entries under.
LOCAL_WORKER = "pool"


def _execute_request(toolchain: Toolchain, request: CompilationRequest) -> CompilationReport:
    """Executor-side compile entry point (module-level: picklable)."""
    faults.slowpoint("slow-compile")
    faults.crashpoint("worker-crash")
    return toolchain.compile(request)


def _warm_probe(hold_seconds: float) -> int:
    """Pool pre-warm task: spin up a worker and hold it briefly."""
    time.sleep(hold_seconds)
    return 0


def _worker_and_count(body: object, need_count: bool = True) -> Tuple[str, int]:
    if not isinstance(body, dict):
        raise ServiceError("request body must be an object", status=400)
    worker = body.get("worker")
    if not worker or not isinstance(worker, str):
        raise ServiceError("'worker' (a non-empty name) is required", status=400)
    if not need_count:
        return worker, 1
    try:
        count = int(body.get("count", 1))
    except (TypeError, ValueError):
        raise ServiceError("'count' must be an integer", status=400)
    if count < 1:
        raise ServiceError("'count' must be >= 1", status=400)
    return worker, min(count, sw.MAX_SWEEP_JOBS)


def _chunk_id(body: object) -> str:
    if not isinstance(body, dict) or not body.get("chunk"):
        raise ServiceError("'chunk' (a chunk id) is required", status=400)
    return str(body["chunk"])


def _int_query(request: h.HTTPRequest, name: str, default: int) -> int:
    raw = request.query.get(name)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise ServiceError(f"query parameter {name!r} must be an integer", status=400)


class CompileJob(Group):
    """A ``/compile`` submission: a one-entry ledger group and its observers."""

    def __init__(self, service: "CompileService", job_id: int, key: str, parsed: ParsedJob):
        super().__init__(
            key, budget=COMPILE_REQUEUES, rank=PRIORITY_LANES.index(parsed.priority),
            local=True, payload=parsed.raw, wait=parsed.wait, priority=parsed.priority,
        )
        self.service = service
        self.id = job_id
        self.parsed = parsed
        self.state = "queued"
        self.subscribers = 1
        self.events: list = []
        self.future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._signal = asyncio.Event()

    @property
    def request(self) -> CompilationRequest:
        return self.parsed.request

    @property
    def crashes(self) -> int:
        return self.entries[0].requeues if self.entries else 0

    def emit(self, event: str, **fields) -> None:
        self.events.append({"event": event, "job": self.id, "t": round(time.time(), 3), **fields})
        self._signal.set()

    def notify(self, entry: Entry, event: str, **fields) -> None:
        if self.state in _TERMINAL:
            return
        if event == "started":
            self.state = "running"
            self.emit("started", attempt=fields["attempt"])
        elif event == "retrying":
            self.state = "queued"
            self.service.pool_counters["jobs_retried"] += 1
            self.emit("retrying", crashes=entry.requeues)
        elif event == "done":
            report = entry.report
            for timing in report.timings:
                self.emit("pass", name=timing.pass_name, ms=round(1e3 * timing.seconds, 3))
            self.emit("ii_trajectory", trajectory=list(report.ii_trajectory))
            self.emit("done", ii=report.result.ii, seconds=entry.seconds)
            self.state = "done"
            self.future.set_result(self.service.result_payload(self, report, "compile", entry.key))
        elif event == "quarantined":
            self.service.pool_counters["jobs_quarantined"] += 1
            self.fail("quarantined", ServiceError(
                f"job {self.id} quarantined as poison: its compile crashed "
                f"{entry.requeues} workers ({entry.error})", status=500,
            ), crashes=entry.requeues)
        else:
            self.fail("failed", ServiceError(str(entry.error), status=entry.status))

    def fail(self, state: str, err: ServiceError, **fields) -> None:
        if state != "shed":
            self.service.metrics.compiles_failed += 1
        self.state = state
        self.emit(state, error=str(err), **fields)
        self.future.set_exception(err)
        self.future.exception()  # fire-and-forget jobs must not warn

    def describe(self) -> Dict[str, object]:
        info: Dict[str, object] = {
            "job": self.id, "status": self.state, "priority": self.priority,
            "loop": self.request.loop.name, "machine": self.request.machine.name,
            "subscribers": self.subscribers, "events": len(self.events),
        }
        if self.crashes:
            info["crashes"] = self.crashes
        if self.recovered:
            info["recovered"] = True
        if self.state == "done":
            info["result"] = self.future.result()
        elif self.state in _TERMINAL:
            info["error"] = str(self.future.exception())
        return info

    async def stream_events(self, start: int = 0):
        """Yield events in order until the job is terminal.

        *start* skips already-consumed events, so a client whose stream
        died can resume with ``?since=N`` instead of replaying from zero.
        """
        index = max(0, start)
        while True:
            while index < len(self.events):
                yield self.events[index]
                index += 1
            if self.state in _TERMINAL:
                return
            self._signal.clear()
            await self._signal.wait()


class CompileService:
    """The resident compile daemon (see module docstring)."""

    def __init__(
        self, toolchain: Optional[Toolchain] = None, workers: Optional[int] = None,
        lru_capacity: int = 256, disk_cache: Optional[object] = None,
        max_queue_depth: int = 64, executor: Optional[Executor] = None,
        compile_fn=None, journal: Optional[object] = None,
    ):
        """*workers* is the pool width (``0``: a small in-process thread
        pool for tests; ``None``: cores - 1).  An injected *executor* is
        never shut down or respawned, so a ``BrokenExecutor`` drains the
        daemon.  *compile_fn* replaces the executor-side compile callable
        (a test hook); *journal* is a :class:`JobJournal` or a path.
        """
        self.toolchain = toolchain or Toolchain.default()
        if disk_cache is not None and not hasattr(disk_cache, "get"):
            disk_cache = CompilationCache(disk_cache)
        self.cache = TieredCache(MemoryCache(lru_capacity), disk_cache)
        if max_queue_depth < 1:
            raise ServiceError("max_queue_depth must be >= 1")
        self.max_queue_depth = max_queue_depth
        self.metrics = ServiceMetrics()
        self._compile_fn = compile_fn or _execute_request
        self._owns_executor = executor is None
        self._workers = workers
        if executor is not None:
            self.executor = executor
            self._executor_width = max(1, getattr(executor, "_max_workers", 1))
        else:
            self.executor = self.build_executor()
        self._max_concurrency = self._executor_width
        self._pool_generation = 0
        self._pool_lock = asyncio.Lock()
        self.pool_counters = dict.fromkeys(
            ("pool_respawns", "worker_crashes", "jobs_retried", "jobs_quarantined"), 0
        )
        self._owns_journal = journal is not None and not hasattr(journal, "append")
        self.journal: Optional[JobJournal] = JobJournal(journal) if self._owns_journal else journal
        # All journal I/O funnels through one thread: appends land in
        # await order and the event loop never blocks on an fsync.
        self._journal_pool = None
        if journal is not None:
            self._journal_pool = ThreadPoolExecutor(max_workers=1, thread_name_prefix="repro-journal")
        self._recovered_jobs = 0
        self._replay_stats = None
        self.ledger = Ledger()
        self._jobs: Dict[int, CompileJob] = {}  # id -> job (bounded history)
        self._job_order: Deque[int] = deque()
        self._next_id = 1
        self.sweeps: Dict[str, sw.Sweep] = {}  # id -> sweep (bounded history)
        self._recovered_sweeps = 0
        self._tasks: set = set()
        self._running = 0
        self._draining = False
        self._drained = asyncio.Event()
        self._server: Optional[asyncio.AbstractServer] = None
        self._expiry_task: Optional[asyncio.Task] = None

    # ------------------------------------------------------------------
    # The pool
    # ------------------------------------------------------------------

    def build_executor(self) -> Executor:
        """A fresh executor of the configured shape (startup and respawn)."""
        if self._workers == 0:
            self._executor_width = 2
            return ThreadPoolExecutor(max_workers=2, thread_name_prefix="repro-serve")
        from ..api.batch import DEFAULT_WORKERS
        from ..pools import spawn_pool

        width = self._workers if self._workers is not None else DEFAULT_WORKERS
        self._executor_width = max(1, width)
        # Spawn, never fork: a worker forked from a live multi-threaded
        # asyncio process can inherit a held call-queue lock and wedge
        # the pool.  :meth:`warm_pool` pays the spawn imports up front.
        return spawn_pool(width)

    async def warm_pool(self) -> None:
        """Spin up every worker of the owned pool before traffic (each
        probe holds its worker briefly, so the pool launches them all)."""
        if not (self._owns_executor and isinstance(self.executor, ProcessPoolExecutor)):
            return
        loop = asyncio.get_running_loop()
        await asyncio.gather(*(
            loop.run_in_executor(self.executor, _warm_probe, 0.05)
            for _ in range(self._max_concurrency)
        ))

    async def _ensure_pool(self, generation: int) -> bool:
        """A healthy pool after a crash on pool *generation*: the first
        victim of a collapse respawns it, the others see the new
        generation.  ``False`` when it cannot be respawned."""
        async with self._pool_lock:
            if generation < self._pool_generation:
                return True
            if not self._owns_executor or self.pool_counters["pool_respawns"] >= MAX_RESPAWNS:
                return False
            self._pool_generation += 1
            self.pool_counters["pool_respawns"] += 1
            old, self.executor = self.executor, self.build_executor()
            old.shutdown(wait=False, cancel_futures=True)  # already broken
            await self.warm_pool()
            return True

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> Tuple[str, int]:
        """Bind and start serving; returns the actual (host, port)."""
        await self.warm_pool()
        await self._recover()
        self._expiry_task = asyncio.get_running_loop().create_task(self._expire_leases())
        self._server = await asyncio.start_server(self._handle_connection, host, port)
        self.address = self._server.sockets[0].getsockname()[:2]
        return self.address

    def request_drain(self) -> None:
        """Stop admitting; finish in-flight work, then report drained."""
        if not self._draining:
            self._draining = True
            self._check_drained()

    async def wait_drained(self) -> None:
        await self._drained.wait()

    def _check_drained(self) -> None:
        """Drained once no entry a ``/compile`` waits on is queued, running
        on the pool or leased to a sweep worker."""
        if self._draining and self._running == 0 and not len(self.ledger.local) and not any(
            entry.local for entry in self.ledger.live.values() if entry.state == "leased"
        ):
            self._drained.set()

    async def close(self) -> None:
        """Stop the server and release owned resources."""
        # Claim the server before the first await: a concurrent close()
        # then sees None instead of racing the wait_closed() suspension.
        server, self._server = self._server, None
        if server is not None:
            server.close()
            await server.wait_closed()
        task, self._expiry_task = self._expiry_task, None
        if task is not None:
            task.cancel()
            try:
                await task
            except asyncio.CancelledError:
                pass
        if self._owns_executor:
            self.executor.shutdown(wait=False, cancel_futures=True)
        if self._journal_pool is not None:
            # wait=True: an in-flight append must reach the disk first.
            self._journal_pool.shutdown(wait=True)
        if self.journal is not None and self._owns_journal:
            self.journal.close()

    def final_metrics(self) -> Dict[str, object]:
        """The closing metrics snapshot (flushed on drain)."""
        return self.metrics_snapshot()

    # ------------------------------------------------------------------
    # Journal and crash recovery
    # ------------------------------------------------------------------

    async def _journal(self, records: List[Optional[lg.Record]]) -> None:
        """Durably append ledger *records* on the journal thread."""
        if self.journal is not None and any(records):
            await asyncio.get_running_loop().run_in_executor(
                self._journal_pool, lg.write, self.journal, records
            )

    async def _close(self, key: str, error: str) -> None:
        await self._journal([("closed", key, {"error": error})])

    async def _recover(self) -> None:
        """Replay the journal into the ledger, then compact it.

        Live ``wait=false`` compiles are re-submitted with their requeue
        counts; live ``wait=true`` ones are closed (their connection died
        with the previous daemon); open sweeps are re-enumerated.
        """
        if self.journal is None:
            return
        loop = asyncio.get_running_loop()
        state, self._replay_stats = await loop.run_in_executor(
            self._journal_pool, functools.partial(self.journal.replay, True)
        )
        for group in state.live():
            if group.is_sweep:
                await self._recover_sweep(group, state)
            elif group.wait or group.payload is None:
                await self._close(group.key, "daemon restarted; waiting client connection lost"
                                  if group.wait else "journal record carries no payload")
            else:
                try:
                    job, _, immediate = await self.submit(group.payload, recovered=state)
                except ServiceError as err:
                    await self._close(group.key, f"replay rejected: {err}")
                    continue
                if immediate is not None:  # the result is durable already
                    await self._journal([("finished", group.key, {"done": [group.key]})])
                elif job.key != group.key:  # e.g. a different toolchain
                    await self._close(group.key, f"re-keyed on replay to {job.key}")
                else:
                    self._recovered_jobs += 1
        await loop.run_in_executor(self._journal_pool, self.journal.compact)

    async def _recover_sweep(self, group: JournalEntry, state: JournalState) -> None:
        """Rebuild an open sweep: cached results count as done, journaled
        failures stay failed, and everything else is queued again."""
        if group.payload is None:
            return await self._close(group.key, "journal record carries no sweep spec")
        try:
            plan = await asyncio.get_running_loop().run_in_executor(None, self._plan, group.payload)
        except ServiceError as err:
            return await self._close(group.key, f"replay rejected: {err}")
        plan.id = group.key.split(":", 1)[1]  # the id it was journaled as
        sweep = sw.Sweep(plan)
        records = self.ledger.resume(
            sweep, list(zip(plan.keys, plan.payloads)), group, state.requeues, plan.prefilled.get
        )
        if plan.keys != group.keys:  # re-keyed: journal the new key list
            records.insert(0, sweep.submitted_record())
        self._install(sweep)
        self._recovered_sweeps += 1
        await self._journal(records)

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------

    def queue_depths(self) -> Dict[str, int]:
        depths = dict.fromkeys(PRIORITY_LANES, 0)
        for entry in self.ledger.local.members.values():
            depths[PRIORITY_LANES[entry.order[0]]] += 1
        return depths

    def metrics_snapshot(self) -> Dict[str, object]:
        plan = faults.active()
        journal = None
        if self.journal is not None:
            journal = dict(self.journal.counters(), recovered_jobs=self._recovered_jobs)
            if self._replay_stats is not None:
                journal["replay"] = self._replay_stats.to_dict()
        return self.metrics.snapshot(
            queue_depths=self.queue_depths(),
            in_flight=self._running,
            cache_counters=self.cache.counters(),
            draining=self._draining,
            supervisor=dict(
                self.pool_counters, pool_generation=self._pool_generation,
                max_job_crashes=COMPILE_REQUEUES + 1, max_respawns=MAX_RESPAWNS,
            ),
            journal=journal,
            faults=plan.counters() if plan is not None else None,
            sweep=sw.counters(self.sweeps, self.ledger, self._recovered_sweeps),
        )

    # ------------------------------------------------------------------
    # /compile: admission
    # ------------------------------------------------------------------

    async def submit(
        self, payload: object, recovered: Optional[JournalState] = None
    ) -> Tuple[Optional[CompileJob], bool, Optional[Dict[str, object]]]:
        """Admit one compile payload: ``(job, created, immediate)``.

        *immediate* is the result when a cache tier answered (*job* is
        then ``None``); *created* says whether this call created *job*.
        The ``submitted`` record is durable before this returns.  A
        *recovered* journal replay skips admission control and inherits
        the journaled requeue counts.
        """
        if self._draining:
            raise ServiceError("service is draining; not admitting", status=503)
        parsed = parse_compile_payload(payload)
        self.metrics.record_request(parsed.priority)
        started = time.perf_counter()
        key = content_hash(parsed.request, pipeline=self.toolchain.pass_names)
        report, tier = self.cache.get_tiered(key)
        if report is not None:
            self.metrics.latency.observe(time.perf_counter() - started)
            return None, False, self.result_payload(None, report, tier, key)

        entry = self.ledger.live.get(key)
        if entry is not None:
            existing = self._job_of(entry)
            if existing is not None:
                self.metrics.coalesced += 1
                existing.subscribers += 1
                existing.emit("coalesced", subscribers=existing.subscribers)
                return existing, False, None
        records = [] if recovered is not None else self._admit_or_reject(parsed)
        job = CompileJob(self, self._next_id, key, parsed)
        self._next_id += 1
        job.recovered = recovered is not None
        self._register(job)
        records += self.ledger.submit(
            job, [(key, parsed.raw)], requeues=recovered and recovered.requeues
        )
        self.metrics.admission_accepted += 1
        job.emit("admitted", lane=parsed.priority, queue_depth=sum(self.queue_depths().values()))
        await self._journal(records)
        # Claim on the next loop turn: the caller acknowledges it queued.
        asyncio.get_running_loop().call_soon(self._dispatch)
        return job, True, None

    @staticmethod
    def _job_of(entry: Entry) -> Optional[CompileJob]:
        """The live ``/compile`` job waiting on *entry*, if any."""
        for group in entry.groups:
            if isinstance(group, CompileJob) and group.state not in _TERMINAL:
                return group
        return None

    def _admit_or_reject(self, parsed: ParsedJob) -> List[lg.Record]:
        """Make room for *parsed*: the records of a shed victim, if any.

        A full queue sheds a strictly lower-priority queued job — lowest
        lane first, newest first (its waiters invested the least) — or
        rejects the newcomer.
        """
        queued = list(self.ledger.local.members.values())
        if len(queued) < self.max_queue_depth:
            return []
        rank = PRIORITY_LANES.index(parsed.priority)
        lower = [entry for entry in queued if entry.order[0] > rank]
        if not lower:
            self.metrics.admission_rejected += 1
            raise ServiceError(
                f"queue full ({len(queued)}/{self.max_queue_depth}); "
                f"{parsed.priority}-priority request rejected",
                status=429, retry_after=RETRY_AFTER_HINT,
            )
        victim = self._job_of(max(lower, key=lambda entry: entry.order))
        self.metrics.admission_shed += 1
        self.ledger.detach(victim)
        victim.fail("shed", ServiceError(
            f"job {victim.id} shed by admission control (queue full)", status=503,
        ), reason="admission control: queue full")
        return [("closed", victim.key, {"error": "shed"})]

    def _register(self, job: CompileJob) -> None:
        self._jobs[job.id] = job
        self._job_order.append(job.id)
        while len(self._job_order) > _JOB_HISTORY:
            old = self._jobs[self._job_order[0]]
            if old.state not in _TERMINAL:
                break  # still live: keep it, trim later
            self._job_order.popleft()
            del self._jobs[old.id]
            self.ledger.detach(old)

    def result_payload(self, job: Optional[CompileJob], report: CompilationReport,
                       served_from: str, key: Optional[str] = None) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "job": job.id if job is not None else None, "status": "done",
            "served_from": served_from, "cache_key": key, "report": report.to_dict(),
            "fingerprint": schedule_fingerprint(report.result),
        }
        if job is not None and job.parsed.want_assembly:
            from ..codegen import assembly_for

            try:
                payload["assembly"] = assembly_for(report.result, report.compiled.allocation)
            except ReproError as err:  # pragma: no cover - defensive
                payload["assembly_error"] = str(err)
        return payload

    # ------------------------------------------------------------------
    # The local worker: the pool claims what a /compile waits on
    # ------------------------------------------------------------------

    def _dispatch(self) -> None:
        while self._running < self._max_concurrency:
            lease = self.ledger.claim(LOCAL_WORKER, 1, self.ledger.local)
            if lease is None:
                return
            self._running += 1
            entry = self.ledger.live[lease.keys[0]]
            task = asyncio.get_running_loop().create_task(
                self._run_lease(lease, entry, self._job_of(entry).request)
            )
            self._tasks.add(task)
            task.add_done_callback(self._tasks.discard)

    async def _run_lease(self, lease: Lease, entry: Entry, request: CompilationRequest) -> None:
        generation = self._pool_generation
        self.metrics.compiles_started += 1
        started = time.perf_counter()
        try:
            report = await asyncio.get_running_loop().run_in_executor(
                self.executor, self._compile_fn, self.toolchain, request
            )
        except ReproError as err:
            await self._fail_entry(lease, entry, err, status=422)
        except MemoryError:
            # Process-level trouble, not this job's: fail the request,
            # then let the error reach the loop's exception handler.
            await self._fail_entry(
                lease, entry, ReproError("compile worker ran out of memory"), status=503
            )
            raise
        except BrokenExecutor as err:
            # A lost lease on the entry the crashed pool held.
            self.pool_counters["worker_crashes"] += 1
            if await self._ensure_pool(generation):
                await self._journal([
                    self.ledger.lose(lease, f"worker crash: {type(err).__name__}")
                ])
            else:
                await self._fail_entry(lease, entry, ServiceError(
                    f"worker pool broken and not respawnable: {err}"), status=503)
                self.request_drain()
        except Exception as err:  # repro: lint-ignore[exception-discipline]: job isolation boundary - one failed compile must not kill the daemon; the error is surfaced as this job's 500 response and counted in compiles_failed
            await self._fail_entry(lease, entry, err, status=500)
        else:
            elapsed = time.perf_counter() - started
            self.cache.put(entry.key, report)
            self.metrics.compiles_completed += 1
            self.metrics.latency.observe(elapsed)
            # Journal first: once a client sees the result, the journal
            # already knows the entry is done.
            await self._journal([("finished", lease.id, {"done": [entry.key]})])
            self.ledger.finish(
                entry, "done", LOCAL_WORKER, report,
                fingerprint=schedule_fingerprint(report.result), ii=report.result.ii,
                seconds=round(elapsed, 4), served_from=LOCAL_WORKER,
            )
        finally:
            self.ledger.release(lease)
            self._running -= 1
            self._dispatch()
            self._check_drained()

    async def _fail_entry(self, lease: Lease, entry: Entry, err: BaseException,
                          status: int) -> None:
        if entry.terminal:  # a sweep worker finished it meanwhile: its result stands
            return
        error = f"{type(err).__name__}: {err}"
        await self._journal([("finished", lease.id, {"failed": {entry.key: error}})])
        self.ledger.finish(entry, "failed", LOCAL_WORKER, error=error, status=status)

    # ------------------------------------------------------------------
    # Sweeps: many-entry groups claimed by remote workers
    # ------------------------------------------------------------------

    def _plan(self, spec: object) -> sw.SweepPlan:
        """Enumerate + validate *spec* (blocking; run in an executor)."""
        return sw.enumerate_sweep(spec, self.toolchain, self.cache.disk)

    def _sweep(self, sweep_id: str) -> sw.Sweep:
        sweep = self.sweeps.get(str(sweep_id))
        if sweep is None:
            raise ServiceError(f"unknown sweep {sweep_id!r}", status=404)
        return sweep

    def _install(self, sweep: sw.Sweep) -> None:
        sweep.counters["cache_prefills"] = sum(e.served_from == "cache" for e in sweep.entries)
        self.sweeps[sweep.id] = sweep
        while len(self.sweeps) > sw.SWEEP_HISTORY:
            oldest = next(iter(self.sweeps.values()))
            if oldest.state == "open":
                break  # still open: keep it, trim later
            del self.sweeps[oldest.id]
            self.ledger.detach(oldest)

    async def submit_sweep(self, spec: object) -> Dict[str, object]:
        """Admit one sweep spec; idempotent on the spec's content hash."""
        if self._draining:
            raise ServiceError("service is draining; not admitting sweeps", status=503)
        plan = await asyncio.get_running_loop().run_in_executor(None, self._plan, spec)
        sweep = self.sweeps.get(plan.id)
        if sweep is None:
            sweep = sw.Sweep(plan)
            records = self.ledger.submit(sweep, list(zip(plan.keys, plan.payloads)), plan.prefilled)
            self._install(sweep)
            # Durable before acknowledged, like a compile.
            await self._journal(records)
        return sweep.status(self.ledger)

    async def _expire_leases(self) -> None:
        """Periodic lease scan; owned as a task by the daemon."""
        while True:
            await asyncio.sleep(LEASE_CHECK_SECONDS)
            await self._journal(sw.expire(self.ledger, self.sweeps))
            self._requeued()

    def _requeued(self) -> None:
        """Entries went back to the queues: a ``/compile`` may wait on one."""
        self._dispatch()
        self._check_drained()

    # ------------------------------------------------------------------
    # HTTP surface: a route table of handlers answering (status, body)
    # ------------------------------------------------------------------

    async def _handle_connection(self, reader, writer) -> None:
        try:
            await self._serve_one(reader, writer)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # peer went away mid-exchange; nothing to answer
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    async def _serve_one(self, reader, writer) -> None:
        """Read one request, route it, and write its answer or error."""
        try:
            request = await h.read_request(reader)
            if request is None:  # a bare port probe
                return
            route = request.route
            shape, arg = route, None  # /jobs/<id>/..., /sweeps/<id>/...
            if len(route) >= 2 and route[0] in ("jobs", "sweeps"):
                shape, arg = (route[0], "*") + route[2:], route[1]
            methods = _ROUTES.get(shape)
            if methods is None:
                raise ServiceError(f"no route {request.path!r}", status=404)
            if request.method not in methods:
                raise ServiceError(f"use {' or '.join(methods)} {request.path}", status=405)
            if shape == ("jobs", "*", "events"):
                job = self._job_for(arg)
                since = _int_query(request, "since", 0)
                return await h.write_event_stream(writer, job.stream_events(start=since))
            status, body = await methods[request.method](self, request, arg)
            await h.write_response(writer, h.json_response(status, body))
        except ServiceError as err:
            headers = None
            if err.retry_after is not None:
                headers = {"Retry-After": f"{err.retry_after:g}"}
            await h.write_response(writer, h.json_response(
                err.status, {"error": str(err)}, extra_headers=headers
            ))

    def _job_for(self, token: str) -> CompileJob:
        try:
            job_id = int(token)
        except ValueError:
            raise ServiceError(f"bad job id {token!r}", status=400)
        job = self._jobs.get(job_id)
        if job is None:
            raise ServiceError(f"unknown job {job_id}", status=404)
        return job

    async def _get_healthz(self, request, _arg):
        return (503 if self._draining else 200), {
            "status": "draining" if self._draining else "ok",
            "uptime_seconds": round(time.time() - self.metrics.started_at, 3),
        }

    async def _get_metrics(self, request, _arg):
        return 200, self.metrics_snapshot()

    async def _post_compile(self, request, _arg):
        payload = request.json()
        wait = not (isinstance(payload, dict) and payload.get("wait") is False)
        job, created, immediate = await self.submit(payload)
        if immediate is not None:
            return 200, immediate
        if not wait:
            return 202, {"job": job.id, "status": job.state, "coalesced": not created}
        try:
            result = await asyncio.shield(job.future)
        except ServiceError as err:
            return err.status, {"error": str(err), "job": job.id}
        return 200, result if created else dict(result, served_from="coalesced")

    async def _get_job(self, request, job_id):
        return 200, self._job_for(job_id).describe()

    async def _get_sweeps(self, request, _arg):
        return 200, {"sweeps": [s.status(self.ledger) for s in self.sweeps.values()]}

    async def _post_sweeps(self, request, _arg):
        return 200, await self.submit_sweep(request.json())

    async def _get_sweep(self, request, sweep_id):
        include_jobs = request.query.get("jobs") not in (None, "0")
        return 200, self._sweep(sweep_id).status(self.ledger, include_jobs)

    async def _get_results(self, request, sweep_id):
        sweep = self._sweep(sweep_id)
        start = max(0, _int_query(request, "start", 0))
        stop = min(len(sweep.entries), _int_query(request, "stop", len(sweep.entries)))
        rows = [sweep.describe_job(index) for index in range(start, stop)]
        reports = [sweep.entries[index].report for index in range(start, stop)]
        if request.query.get("pickle") not in (None, "0"):
            # Described before the executor encodes: a row and its blob
            # cannot disagree.
            blobs = await asyncio.get_running_loop().run_in_executor(
                None, lambda: [None if r is None else sw.encode_report(r) for r in reports]
            )
            for row, blob in zip(rows, blobs):
                if blob is not None:
                    row["report"] = blob
        return 200, {"sweep": sweep.id, "state": sweep.state, "start": start, "results": rows}

    async def _post_claim(self, request, sweep_id):
        if self._draining:
            raise ServiceError("service is draining; not granting chunks", status=503)
        worker, count = _worker_and_count(request.json())
        return 200, sw.grant(self.ledger, self._sweep(sweep_id), worker, count)

    async def _post_heartbeat(self, request, sweep_id):
        body = request.json()
        worker, _ = _worker_and_count(body, need_count=False)
        return 200, sw.heartbeat(self.ledger, self._sweep(sweep_id), worker, _chunk_id(body))

    async def _post_complete(self, request, sweep_id):
        """Merge one chunk's results; idempotent under duplicates/orphans."""
        body = request.json()
        worker, _ = _worker_and_count(body, need_count=False)
        chunk = _chunk_id(body)
        decoded = await asyncio.get_running_loop().run_in_executor(
            None, sw.decode_worker_results, body.get("results"), self.toolchain.pass_names
        )
        sweep = self._sweep(sweep_id)
        ack, records, finishes = sw.merge(self.ledger, self.cache, sweep, worker, chunk, decoded)
        await self._journal(records)  # durable before any waiter sees a result
        for entry, state, fields in finishes:
            self.ledger.finish(entry, state, **fields)
        self._requeued()
        return 200, dict(ack, state=sweep.state, remaining=len(sweep.queue))


#: route shape -> method -> handler (``*`` stands for the id argument).
_ROUTES = {
    ("healthz",): {"GET": CompileService._get_healthz},
    ("metrics",): {"GET": CompileService._get_metrics},
    ("compile",): {"POST": CompileService._post_compile},
    ("jobs", "*"): {"GET": CompileService._get_job},
    ("jobs", "*", "events"): {"GET": None},  # streamed by _serve_one itself
    ("sweeps",): {"GET": CompileService._get_sweeps, "POST": CompileService._post_sweeps},
    ("sweeps", "*"): {"GET": CompileService._get_sweep},
    ("sweeps", "*", "results"): {"GET": CompileService._get_results},
    ("sweeps", "*", "claim"): {"POST": CompileService._post_claim},
    ("sweeps", "*", "heartbeat"): {"POST": CompileService._post_heartbeat},
    ("sweeps", "*", "complete"): {"POST": CompileService._post_complete},
}


async def run_service(
    host: str = "127.0.0.1", port: int = 0, workers: Optional[int] = None,
    lru_capacity: int = 256, disk_cache: Optional[object] = None, max_queue_depth: int = 64,
    port_file: Optional[str] = None, metrics_out: Optional[str] = None,
    toolchain: Optional[Toolchain] = None, quiet: bool = False,
    journal: Optional[object] = None, fault_spec: Optional[str] = None, fault_seed: int = 0,
) -> Dict[str, object]:
    """Run a :class:`CompileService` until SIGTERM/SIGINT drains it.

    Writes the bound ``host:port`` to *port_file* (for callers using an
    ephemeral port), serves until a drain signal, finishes in-flight
    work and returns the final metrics snapshot (also written to
    *metrics_out*).  *fault_spec* arms the fault plane
    (:meth:`repro.faults.FaultPlan.from_spec`) before the pool is built,
    so workers inherit the plan.
    """
    if fault_spec:
        faults.install(faults.FaultPlan.from_spec(fault_spec, seed=fault_seed))
    service = CompileService(
        toolchain=toolchain, workers=workers, lru_capacity=lru_capacity,
        disk_cache=disk_cache, max_queue_depth=max_queue_depth, journal=journal,
    )
    bound_host, bound_port = await service.start(host, port)
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(sig, service.request_drain)
        except NotImplementedError:  # pragma: no cover - non-POSIX loops
            pass
    if port_file:  # file I/O off the loop: a slow disk would stall accepts
        await loop.run_in_executor(
            None, Path(port_file).write_text, f"{bound_host}:{bound_port}\n"
        )
    if not quiet:
        print(f"repro serve listening on {bound_host}:{bound_port} "
              f"(workers={service._max_concurrency}, lru={service.cache.memory.capacity}, "
              f"queue={service.max_queue_depth})", flush=True)
    try:
        await service.wait_drained()
        # Let handlers waiting on just-finished jobs flush their replies.
        await asyncio.sleep(0.1)
    finally:
        snapshot = service.final_metrics()
        if metrics_out:
            await loop.run_in_executor(
                None, Path(metrics_out).write_text,
                json.dumps(snapshot, indent=2, sort_keys=True) + "\n",
            )
        if not quiet:
            summary = {"requests": snapshot["requests"]["total"],
                       "compiles": snapshot["compiles"],
                       "cache_hit_ratio": snapshot["cache"]["hit_ratio"]}
            print("repro serve drained: " + json.dumps(summary, sort_keys=True),
                  file=sys.stderr, flush=True)
        await service.close()
    return snapshot
