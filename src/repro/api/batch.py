"""Batch compilation: fan jobs across processes, memoise on disk.

``compile_many`` takes a list of :class:`CompilationRequest` jobs and
returns their reports in the same order.  Jobs found in the cache are
answered immediately; the misses are compiled either serially or across
a process pool (pure-Python scheduling is CPU-bound, so processes — not
threads — are the unit of parallelism).

Compilation is a deterministic pure function of the request, so parallel
results are bit-identical to serial ones; ``tests/test_api_batch.py``
holds that property over the whole kernel suite.

With ``coordinator="host:port"`` the misses are not compiled locally at
all: they are submitted as one sweep to a ``repro serve`` daemon acting
as sweep coordinator (:mod:`repro.service.sweep`) and executed by
whatever ``repro worker`` fleet is attached to it; the results merge
back through the same content-hash cache, bit-identical to a local run
by the same determinism argument.
"""

from __future__ import annotations

import base64
import os
import pickle
import time
from typing import Callable, List, Optional, Sequence, Union

from ..errors import ReproError
from ..pools import job_map
from .cache import CompilationCache, content_hash, gc_paused
from .request import CompilationReport, CompilationRequest
from .toolchain import Toolchain

ProgressFn = Callable[[str], None]

#: Default worker count: leave one core for the parent process.
DEFAULT_WORKERS = max(1, (os.cpu_count() or 2) - 1)


def _compile_job(job) -> CompilationReport:
    """Pool worker: compile one request (module-level for picklability)."""
    toolchain, request = job
    return toolchain.compile(request)


class BatchCompiler:
    """Compile many requests through one toolchain, cache and pool.

    *cache* may be a :class:`CompilationCache` or a directory, which is
    wrapped in one.
    """

    def __init__(
        self,
        toolchain: Optional[Toolchain] = None,
        cache: Union[CompilationCache, os.PathLike, None] = None,
        workers: Optional[int] = None,
        coordinator: Optional[str] = None,
    ):
        self.toolchain = toolchain or Toolchain.default()
        if cache is not None and not isinstance(cache, CompilationCache):
            cache = CompilationCache(cache)
        self.cache = cache
        self.workers = workers
        self.coordinator = coordinator

    def compile_many(
        self,
        requests: Sequence[CompilationRequest],
        progress: Optional[ProgressFn] = None,
    ) -> List[CompilationReport]:
        """Compile every request; results come back in request order.

        A job that fails with a :class:`~repro.errors.ReproError` (e.g.
        the two-phase baseline hitting its II ceiling) aborts the batch.

        While the cache is probed, the cyclic garbage collector is paused
        for the whole process (:func:`~repro.api.cache.gc_paused`): other
        threads of a host program run without it until every request has
        been looked up.  The compiles themselves run with it on.
        """
        requests = list(requests)
        reports: List[Optional[CompilationReport]] = [None] * len(requests)
        keys: List[Optional[str]] = [None] * len(requests)
        pending: List[int] = []
        pipeline = self.toolchain.pass_names
        with gc_paused():
            for index, request in enumerate(requests):
                if self.cache is not None:
                    keys[index] = content_hash(request, pipeline=pipeline)
                    hit = self.cache.get(keys[index])
                    if hit is not None:
                        reports[index] = hit
                        continue
                pending.append(index)
        done = len(requests) - len(pending)
        if progress and done:
            progress(f"{done}/{len(requests)} jobs served from cache")

        if self.coordinator is not None and pending:
            self._compile_remote(requests, keys, reports, pending, progress)
            return reports

        jobs = [(self.toolchain, requests[i]) for i in pending]
        with job_map(self.workers, len(jobs)) as map_jobs:
            for index, outcome in zip(pending, map_jobs(_compile_job, jobs)):
                reports[index] = self._finish(keys[index], outcome)
                done += 1
                if progress and done % 50 == 0:
                    progress(f"compiled {done}/{len(requests)} jobs")
        return reports

    def _finish(
        self, key: Optional[str], report: CompilationReport
    ) -> CompilationReport:
        if self.cache is not None:
            report.cache_key = key
            self.cache.put(key, report)
        return report

    #: Results fetched per page when merging a distributed sweep.
    REMOTE_PAGE = 64

    def _compile_remote(
        self,
        requests: Sequence[CompilationRequest],
        keys: List[Optional[str]],
        reports: List[Optional[CompilationReport]],
        pending: List[int],
        progress: Optional[ProgressFn],
    ) -> None:
        """Run the cache misses as one sweep on the coordinator fleet.

        Sweep job *i* is ``requests[pending[i]]``, so the merge is pure
        index bookkeeping; every finished report also lands in the local
        cache via :meth:`_finish`, making the next run incremental.
        """
        # Imported lazily: repro.api must stay importable without
        # dragging the service package (and its asyncio surface) in.
        from ..service.client import ServiceClient
        from ..service.jobs import request_to_payload

        payloads = [request_to_payload(requests[i]) for i in pending]
        with ServiceClient(self.coordinator) as client:
            status = client.submit_sweep({"jobs": payloads})
            sweep_id = str(status["sweep"])
            if progress:
                progress(
                    f"sweep {sweep_id}: {len(pending)} jobs submitted to "
                    f"{self.coordinator}"
                )
            reported = -1
            while status.get("state") == "open":
                time.sleep(0.25)
                status = client.sweep(sweep_id)
                finished = int(status.get("done", 0)) + int(
                    status.get("failed", 0)
                )
                if progress and finished != reported:
                    reported = finished
                    progress(
                        f"sweep {sweep_id}: {finished}/{status['total']} "
                        f"jobs finished "
                        f"({status.get('active_workers', 0)} workers)"
                    )
            for start in range(0, len(pending), self.REMOTE_PAGE):
                page = client.sweep_results(
                    sweep_id,
                    start=start,
                    stop=start + self.REMOTE_PAGE,
                    pickle=True,
                )
                for row in page["results"]:
                    index = pending[int(row["index"])]
                    if row.get("state") == "done":
                        report = pickle.loads(
                            base64.b64decode(str(row["report"]).encode("ascii"))
                        )
                        reports[index] = self._finish(keys[index], report)
                    else:
                        raise ReproError(
                            str(
                                row.get("error")
                                or f"sweep job {row['index']} ended "
                                f"{row.get('state')!r}"
                            )
                        )


def compile_many(
    requests: Sequence[CompilationRequest],
    toolchain: Optional[Toolchain] = None,
    cache: Union[CompilationCache, os.PathLike, None] = None,
    workers: Optional[int] = None,
    progress: Optional[ProgressFn] = None,
    coordinator: Optional[str] = None,
) -> List[CompilationReport]:
    """One-shot convenience wrapper around :class:`BatchCompiler`.

    Pauses the process-wide cyclic garbage collector while the cache is
    probed; see :meth:`BatchCompiler.compile_many`.
    """
    compiler = BatchCompiler(
        toolchain=toolchain,
        cache=cache,
        workers=workers,
        coordinator=coordinator,
    )
    return compiler.compile_many(requests, progress=progress)
