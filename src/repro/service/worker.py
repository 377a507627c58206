"""The pull-based sweep worker behind ``repro worker``.

A :class:`SweepWorker` is the distributed half of the self-scheduling
story in :mod:`repro.service.sweep`: it polls the coordinator for open
sweeps, computes its own decreasing chunk size locally from the
advertised remaining count (:func:`~repro.service.sweep.chunk_size` —
the coordinator never plans chunks), claims that many jobs under a
lease, compiles them through ``Toolchain.default()`` (the pipeline the
coordinator keys every job by), and ships the results back.

The loop is software-pipelined, like the modulo schedules it computes:
once chunk N is compiled the worker *claims chunk N+1 first*, then
hands N's completion to one background sender (a single thread with
its own client) and compiles N+1 while the coordinator decodes N.  At
most one completion is in flight — handing off the next one waits for
the last one's reply — and a held completion is shipped before the
worker sleeps for lack of work and before :meth:`SweepWorker.run`
returns, however it returns.  Only the main thread writes
:attr:`SweepWorker.stats`: the sender and the heartbeat thread hand
their outcomes back.  A SIGKILL loses the chunk being compiled (or,
during a claim, the computed one not yet handed off) plus at most one
completion in flight; their leases expire and requeue like any lost
lease.

While a chunk is compiled a daemon thread heartbeats the lease at a
third of its duration using its *own* client (the compute loop may be
deep inside a scheduler when the beat is due).  A heartbeat answered
``ok: false`` means the lease expired and was requeued — the worker
notes it and keeps computing anyway: its completion still lands, either
as the first durable result or as an idempotent duplicate.  Losing the
coordinator entirely (connection refused mid-sweep: it crashed and is
restarting) is survivable too — the worker just polls until the
coordinator answers again.  Every field of a coordinator reply is
checked where it is read: a reply of the wrong shape is counted as
``malformed`` and treated like a refused claim, so the worker polls on
and any lease that reply granted expires.

Workers share the compile-side fault points: ``worker-vanish`` makes
the worker claim a chunk and then return without ever heartbeating
(the lease-expiry path's test double for SIGKILL), and ``slow-worker``
makes it a straggler by sleeping before every job.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Dict, List, Optional, Tuple, Union

from .. import faults
from ..api import Toolchain
from ..api.cache import CompilationCache
from ..errors import ReproError, ServiceError, ServiceUnavailable
from .client import NO_RETRY, RetryPolicy, ServiceClient, TransportError
from .http import ProtocolError
from .jobs import parse_compile_payload
from .sweep import chunk_size, encode_blob, encode_report

#: How many heartbeats fit in one lease (beat interval = lease / this).
HEARTBEATS_PER_LEASE = 3.0

_Completion = Tuple[str, str, List[Dict[str, object]]]  # (sweep, chunk, results)


def _field(document: object, name: str, kind, default: object = None):
    """``document[name]`` when *document* is an object and it is a *kind*.

    The coordinator's replies are JSON this process did not write, so
    each field is checked where it is read (a bool is never a number
    here); anything else raises :class:`ProtocolError`.
    """
    if not isinstance(document, dict):
        raise ProtocolError(f"coordinator sent a {type(document).__name__}, not an object")
    value = document.get(name, default)
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ProtocolError(f"coordinator sent {name}={value!r}")
    return value


class SweepWorker:
    """One pull-based worker process draining sweeps from a coordinator."""

    def __init__(
        self,
        coordinator: str,
        name: Optional[str] = None,
        cache: Union[CompilationCache, str, os.PathLike, None] = None,
        policy: Optional[RetryPolicy] = None,
        max_chunk: int = 32,
        poll_interval: float = 0.5,
        idle_exit: Optional[float] = None,
    ):
        """
        Args:
            coordinator: the daemon's ``host:port``.
            name: worker name for leases/metrics (default ``w<pid>``).
            cache: optional :class:`CompilationCache` or directory — a
                local content-hash cache consulted before compiling and
                updated after (sharing the coordinator's cache directory
                makes completions pure bookkeeping).
            policy: client retry policy (claims/completions ride it).
            max_chunk: the local self-scheduling cap fed to
                :func:`~repro.service.sweep.chunk_size`.
            poll_interval: sleep between polls when no work is granted.
            idle_exit: return from :meth:`run` after this many seconds
                without work (``None`` runs until interrupted).
        """
        self.coordinator = coordinator
        self.name = name or f"w{os.getpid()}"
        self.toolchain = Toolchain.default()
        if cache is not None and not isinstance(cache, CompilationCache):
            cache = CompilationCache(cache)
        self.cache = cache
        self.policy = policy or RetryPolicy()
        self.max_chunk = max_chunk
        self.poll_interval = poll_interval
        self.idle_exit = idle_exit
        self.client = ServiceClient(coordinator, policy=self.policy)
        # The background sender's own client: only its thread uses it.
        self._sender_client = ServiceClient(coordinator, policy=self.policy)
        self._sender: Optional[ThreadPoolExecutor] = None  # while run() runs
        self._held: Optional[_Completion] = None
        self._sending: Optional[Future] = None
        self.stats: Dict[str, int] = {
            "chunks": 0,
            "jobs": 0,
            "compiled": 0,
            "cache_hits": 0,
            "errors": 0,
            "lease_lost": 0,
            "vanished": 0,
            "coordinator_unreachable": 0,
            "malformed": 0,
        }

    # ------------------------------------------------------------------

    def run(self) -> Dict[str, object]:
        """Pull chunks until the sweeps drain (or ``idle_exit`` fires).

        Returns the worker's final stats dict.
        """
        last_work = time.monotonic()
        self._sender = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix=f"{self.name}-sender"
        )
        try:
            while True:
                try:
                    granted = self._poll_once()
                except ProtocolError:
                    # A reply of the wrong shape: like a refused claim,
                    # count it and poll on; a lease it granted expires.
                    self.stats["malformed"] += 1
                    granted = False
                if self.stats["vanished"]:
                    # A vanish fault fired: this worker is "dead" — stop
                    # pulling so the lease genuinely expires.
                    break
                now = time.monotonic()
                if granted:
                    last_work = now
                    continue
                self._flush()
                if (
                    self.idle_exit is not None
                    and now - last_work >= self.idle_exit
                ):
                    break
                time.sleep(self.poll_interval)
        finally:
            try:
                self._flush()
            finally:
                self._sender.shutdown()
                self._sender_client.close()
                self.client.close()
        return dict(self.stats, worker=self.name)

    def _poll_once(self) -> bool:
        """One pass over the open sweeps; True when a chunk was worked."""
        try:
            listing = self.client.sweeps()
        except (TransportError, ServiceUnavailable):
            # Coordinator down (restarting after a crash, most likely):
            # keep polling — its journal will bring the sweep back.
            self.stats["coordinator_unreachable"] += 1
            return False
        except ProtocolError:
            raise  # malformed: counted by run()
        except ServiceError:
            return False
        for status in _field(listing, "sweeps", list, []):
            if _field(status, "state", str) != "open":
                continue
            remaining = _field(status, "remaining", int, 0)
            if remaining <= 0:
                continue
            count = chunk_size(
                remaining,
                max(1, _field(status, "active_workers", int, 1)),
                max_chunk=self.max_chunk,
            )
            if self._work_one_chunk(_field(status, "sweep", str), count):
                return True
        return False

    def _work_one_chunk(self, sweep_id: str, count: int) -> bool:
        try:
            grant = self.client.sweep_claim(sweep_id, self.name, count)
        except (TransportError, ServiceUnavailable):
            self.stats["coordinator_unreachable"] += 1
            return False
        except ProtocolError:
            raise
        except ServiceError:
            return False  # sweep finished/draining between list and claim
        chunk = _field(grant, "chunk", (str, type(None)))
        if not chunk:
            return False
        jobs = _field(grant, "jobs", list, [])
        lease = float(_field(grant, "lease_seconds", (int, float), 1.0))
        # Claimed first, so the coordinator decodes the previous chunk
        # while this one compiles (claiming after the hand-off queued
        # the claim behind that decode).
        self._ship()
        self.stats["chunks"] += 1
        if faults.fire("worker-vanish"):
            # Claimed, now gone: never heartbeat, never complete.  The
            # coordinator's lease expiry requeues these jobs.
            self.stats["vanished"] += 1
            return True
        stop, lost = threading.Event(), threading.Event()
        beat = threading.Thread(
            target=self._heartbeat_loop,
            args=(sweep_id, chunk, lease, stop, lost),
            name=f"{self.name}-heartbeat",
            daemon=True,
        )
        beat.start()
        try:
            results = [self._run_job(job) for job in jobs]
        finally:
            stop.set()
            beat.join(timeout=2.0)
            if lost.is_set():
                self.stats["lease_lost"] += 1
        self._held = (sweep_id, chunk, results)
        return True

    def _ship(self) -> None:
        """Hand the held completion to the sender, once the one in
        flight has its reply (at most one completion is in flight)."""
        self._settle()
        if self._held is not None:
            self._sending = self._sender.submit(self._send, self._held)
            self._held = None

    def _settle(self) -> None:
        """Wait for the completion in flight and count its outcome."""
        sending, self._sending = self._sending, None
        if sending is not None:
            outcome = sending.result()
            if outcome is not None:
                self.stats[outcome] += 1

    def _flush(self) -> None:
        """Ship the held completion and wait for every reply."""
        self._ship()
        self._settle()

    def _send(self, completion: _Completion) -> Optional[str]:
        """Deliver one completion (sender thread); the stat it costs."""
        sweep_id, chunk, results = completion
        try:
            self._sender_client.sweep_complete(sweep_id, self.name, chunk, results)
        except (TransportError, ServiceUnavailable):
            # The completion is lost; the lease will expire and another
            # worker recomputes bit-identical results. Nothing to undo.
            return "coordinator_unreachable"
        except ProtocolError:
            return "malformed"
        except ServiceError:
            pass  # coordinator rejected (sweep gone); nothing to undo
        return None

    def _run_job(self, job: Dict[str, object]) -> Dict[str, object]:
        """Compile one granted job into a completion entry."""
        index = _field(job, "index", int)
        key = _field(job, "key", str, "")
        faults.slowpoint("slow-worker")
        self.stats["jobs"] += 1
        started = time.perf_counter()
        try:
            # A local hit ships the stored pickle as is; a miss pickles
            # its report once, into the cache entry when there is one.
            stored = self.cache.get_encoded(key) if self.cache is not None else None
            if stored is not None:
                self.stats["cache_hits"] += 1
                shipped = encode_blob(stored.blob)
            else:
                parsed = parse_compile_payload(job.get("payload"))
                report = self.toolchain.compile(parsed.request)
                self.stats["compiled"] += 1
                if self.cache is not None:
                    shipped = encode_blob(self.cache.put(key, report).blob)
                else:
                    shipped = encode_report(report)
        except ReproError as err:
            self.stats["errors"] += 1
            return {"index": index, "key": key, "error": str(err)}
        return {
            "index": index,
            "key": key,
            "report": shipped,
            "seconds": round(time.perf_counter() - started, 4),
        }

    def _heartbeat_loop(
        self,
        sweep_id: str,
        chunk: str,
        lease_seconds: float,
        stop: threading.Event,
        lost: threading.Event,
    ) -> None:
        """Extend the chunk's lease until told to stop (daemon thread).

        Uses its own single-attempt client: the compute loop may hold
        the main client deep in a compile, and a heartbeat that cannot
        land *now* is not worth retrying — the next beat comes soon.
        Sets *lost* when the lease is gone.
        """
        client = ServiceClient(self.coordinator, policy=NO_RETRY)
        interval = max(0.05, lease_seconds / HEARTBEATS_PER_LEASE)
        try:
            while not stop.wait(interval):
                try:
                    answer = client.sweep_heartbeat(sweep_id, self.name, chunk)
                except ServiceError:
                    continue  # coordinator busy/restarting; try next beat
                if isinstance(answer, dict) and not answer.get("ok", False):
                    # Lease expired under us (we were too slow): the
                    # chunk is requeued.  Keep computing — completion
                    # resolves idempotently — but count the loss.
                    lost.set()
                    return
        finally:
            client.close()
