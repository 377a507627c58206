"""The pull-based sweep worker behind ``repro worker``.

A :class:`SweepWorker` is the distributed half of the self-scheduling
story in :mod:`repro.service.sweep`: it polls the coordinator for open
sweeps, computes its own decreasing chunk size locally from the
advertised remaining count (:func:`~repro.service.sweep.chunk_size` —
the coordinator never plans chunks), claims that many jobs under a
lease, compiles them, and ships the results back.

While a chunk is in flight a daemon thread heartbeats the lease at a
third of its duration using its *own* client (the compute loop may be
deep inside a scheduler when the beat is due).  A heartbeat answered
``ok: false`` means the lease expired and was requeued — the worker
notes it and keeps computing anyway: its completion still lands, either
as the first durable result or as an idempotent duplicate.  Losing the
coordinator entirely (connection refused mid-sweep: it crashed and is
restarting) is survivable too — the worker just polls until the
coordinator answers again.

Workers share the compile-side fault points: ``worker-vanish`` makes
the worker claim a chunk and then return without ever heartbeating
(the lease-expiry path's test double for SIGKILL), and ``slow-worker``
makes it a straggler by sleeping before every job.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Dict, Optional, Union

from .. import faults
from ..api import Toolchain
from ..api.cache import CompilationCache
from ..errors import ReproError, ServiceError, ServiceUnavailable
from .client import RetryPolicy, ServiceClient, TransportError
from .jobs import parse_compile_payload
from .sweep import chunk_size, encode_blob, encode_report

#: How many heartbeats fit in one lease (beat interval = lease / this).
HEARTBEATS_PER_LEASE = 3.0


class SweepWorker:
    """One pull-based worker process draining sweeps from a coordinator."""

    def __init__(
        self,
        coordinator: str,
        name: Optional[str] = None,
        toolchain: Optional[Toolchain] = None,
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
            toolchain: pass pipeline (must match the coordinator's for
                content-hash keys to agree; default pipeline does).
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
        self.toolchain = toolchain or Toolchain.default()
        if cache is not None and not isinstance(cache, CompilationCache):
            cache = CompilationCache(cache)
        self.cache = cache
        self.policy = policy or RetryPolicy()
        self.max_chunk = max_chunk
        self.poll_interval = poll_interval
        self.idle_exit = idle_exit
        self.client = ServiceClient(coordinator, policy=self.policy)
        self.stats: Dict[str, int] = {
            "chunks": 0,
            "jobs": 0,
            "compiled": 0,
            "cache_hits": 0,
            "errors": 0,
            "lease_lost": 0,
            "vanished": 0,
            "coordinator_unreachable": 0,
        }

    # ------------------------------------------------------------------

    def run(self) -> Dict[str, object]:
        """Pull chunks until the sweeps drain (or ``idle_exit`` fires).

        Returns the worker's final stats dict.
        """
        last_work = time.monotonic()
        try:
            while True:
                granted = self._poll_once()
                if self.stats["vanished"]:
                    # A vanish fault fired: this worker is "dead" — stop
                    # pulling so the lease genuinely expires.
                    break
                now = time.monotonic()
                if granted:
                    last_work = now
                    continue
                if (
                    self.idle_exit is not None
                    and now - last_work >= self.idle_exit
                ):
                    break
                time.sleep(self.poll_interval)
        finally:
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
        except ServiceError:
            return False
        for status in listing.get("sweeps", []):
            if status.get("state") != "open":
                continue
            remaining = int(status.get("remaining", 0))
            if remaining <= 0:
                continue
            count = chunk_size(
                remaining,
                max(1, int(status.get("active_workers", 1))),
                max_chunk=self.max_chunk,
            )
            if self._work_one_chunk(str(status["sweep"]), count):
                return True
        return False

    def _work_one_chunk(self, sweep_id: str, count: int) -> bool:
        try:
            grant = self.client.sweep_claim(sweep_id, self.name, count)
        except (TransportError, ServiceUnavailable):
            self.stats["coordinator_unreachable"] += 1
            return False
        except ServiceError:
            return False  # sweep finished/draining between list and claim
        chunk = grant.get("chunk")
        if not chunk:
            return False
        self.stats["chunks"] += 1
        if faults.fire("worker-vanish"):
            # Claimed, now gone: never heartbeat, never complete.  The
            # coordinator's lease expiry requeues these jobs.
            self.stats["vanished"] += 1
            return True
        lease = float(grant.get("lease_seconds") or 1.0)
        stop = threading.Event()
        beat = threading.Thread(
            target=self._heartbeat_loop,
            args=(sweep_id, str(chunk), lease, stop),
            name=f"{self.name}-heartbeat",
            daemon=True,
        )
        beat.start()
        try:
            results = [self._run_job(job) for job in grant.get("jobs", [])]
        finally:
            stop.set()
            beat.join(timeout=2.0)
        try:
            self.client.sweep_complete(sweep_id, self.name, str(chunk), results)
        except (TransportError, ServiceUnavailable):
            # The completion is lost; the lease will expire and another
            # worker recomputes bit-identical results. Nothing to undo.
            self.stats["coordinator_unreachable"] += 1
        except ServiceError:
            pass  # coordinator rejected (sweep gone); nothing to undo
        return True

    def _run_job(self, job: Dict[str, object]) -> Dict[str, object]:
        """Compile one granted job into a completion entry."""
        faults.slowpoint("slow-worker")
        self.stats["jobs"] += 1
        index = int(job["index"])
        key = str(job.get("key", ""))
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
    ) -> None:
        """Extend the chunk's lease until told to stop (daemon thread).

        Uses its own single-attempt client: the compute loop may hold
        the main client deep in a compile, and a heartbeat that cannot
        land *now* is not worth retrying — the next beat comes soon.
        """
        client = ServiceClient(
            self.coordinator,
            policy=RetryPolicy(max_attempts=1, total_deadline=None),
        )
        interval = max(0.05, lease_seconds / HEARTBEATS_PER_LEASE)
        try:
            while not stop.wait(interval):
                try:
                    answer = client.sweep_heartbeat(sweep_id, self.name, chunk)
                except (TransportError, ServiceError):
                    continue  # coordinator busy/restarting; try next beat
                if not answer.get("ok", False):
                    # Lease expired under us (we were too slow): the
                    # chunk is requeued.  Keep computing — completion
                    # resolves idempotently — but count the loss.
                    self.stats["lease_lost"] += 1
                    return
        finally:
            client.close()
