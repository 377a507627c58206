"""Batch compilation: fan jobs across processes, memoise on disk.

``compile_many`` takes a list of :class:`CompilationRequest` jobs and
returns their reports in the same order, each compiled by
``Toolchain.default()``, the one pipeline the content-hash cache keys.
Jobs found in the cache are answered immediately; the misses are
compiled either serially or across a process pool (pure-Python
scheduling is CPU-bound, so processes — not threads — are the unit of
parallelism).

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


def _compile_job(request: CompilationRequest) -> CompilationReport:
    """Pool worker: compile one request (module-level for picklability)."""
    return Toolchain.default().compile(request)


#: Results fetched per page when merging a distributed sweep.
REMOTE_PAGE = 64


def compile_many(
    requests: Sequence[CompilationRequest],
    cache: Union[CompilationCache, os.PathLike, None] = None,
    workers: Optional[int] = None,
    progress: Optional[ProgressFn] = None,
    coordinator: Optional[str] = None,
) -> List[CompilationReport]:
    """Compile every request through the default toolchain; results
    come back in request order.

    *cache* may be a :class:`CompilationCache` or a directory, which is
    wrapped in one.  A job that fails with a
    :class:`~repro.errors.ReproError` (e.g. the two-phase baseline
    hitting its II ceiling) aborts the batch.

    While the cache is probed, the cyclic garbage collector is paused
    for the whole process (:func:`~repro.api.cache.gc_paused`): other
    threads of a host program run without it until every request has
    been looked up.  The compiles themselves run with it on.
    """
    if cache is not None and not isinstance(cache, CompilationCache):
        cache = CompilationCache(cache)
    requests = list(requests)
    reports: List[Optional[CompilationReport]] = [None] * len(requests)
    keys: List[Optional[str]] = [None] * len(requests)
    pending: List[int] = []
    with gc_paused():
        for index, request in enumerate(requests):
            if cache is not None:
                keys[index] = content_hash(request)
                hit = cache.get(keys[index])
                if hit is not None:
                    reports[index] = hit
                    continue
            pending.append(index)
    done = len(requests) - len(pending)
    if progress and done:
        progress(f"{done}/{len(requests)} jobs served from cache")

    def finish(index: int, report: CompilationReport) -> None:
        if cache is not None:
            report.cache_key = keys[index]
            cache.put(keys[index], report)
        reports[index] = report

    if coordinator is not None and pending:
        _compile_remote(coordinator, requests, pending, finish, progress)
        return reports

    with job_map(workers, len(pending)) as map_jobs:
        outcomes = map_jobs(_compile_job, [requests[i] for i in pending])
        for index, outcome in zip(pending, outcomes):
            finish(index, outcome)
            done += 1
            if progress and done % 50 == 0:
                progress(f"compiled {done}/{len(requests)} jobs")
    return reports


def _compile_remote(
    coordinator: str,
    requests: Sequence[CompilationRequest],
    pending: List[int],
    finish: Callable[[int, CompilationReport], None],
    progress: Optional[ProgressFn],
) -> None:
    """Run the cache misses as one sweep on the coordinator fleet.

    Sweep job *i* is ``requests[pending[i]]``, so the merge is pure
    index bookkeeping; every finished report also lands in the local
    cache via *finish*, making the next run incremental.
    """
    # Imported lazily: repro.api must stay importable without
    # dragging the service package (and its asyncio surface) in.
    from ..service.client import ServiceClient
    from ..service.jobs import request_to_payload

    payloads = [request_to_payload(requests[i]) for i in pending]
    with ServiceClient(coordinator) as client:
        status = client.submit_sweep({"jobs": payloads})
        sweep_id = str(status["sweep"])
        if progress:
            progress(
                f"sweep {sweep_id}: {len(pending)} jobs submitted to "
                f"{coordinator}"
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
        for start in range(0, len(pending), REMOTE_PAGE):
            page = client.sweep_results(
                sweep_id,
                start=start,
                stop=start + REMOTE_PAGE,
                pickle=True,
            )
            for row in page["results"]:
                if row.get("state") != "done":
                    raise ReproError(
                        str(
                            row.get("error")
                            or f"sweep job {row['index']} ended "
                            f"{row.get('state')!r}"
                        )
                    )
                report = pickle.loads(
                    base64.b64decode(str(row["report"]).encode("ascii"))
                )
                finish(pending[int(row["index"])], report)
