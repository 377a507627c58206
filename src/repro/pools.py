"""Process-pool construction with a pinned spawn start method.

Every process pool in this codebase must use the ``spawn`` start
method: the CLI, the daemon and the batch driver all run pools from
processes that already own threads (asyncio loops, metrics writers),
and a forked worker can inherit a held call-queue lock and wedge the
pool forever.  ``spawn`` workers start from a clean interpreter and
re-import work functions by qualified name — which also forces the
discipline the ``pool-safety`` lint rule checks: work functions must be
module-level and their inputs explicit.

Use :func:`spawn_pool` instead of constructing
``ProcessPoolExecutor`` directly; the lint rule flags direct
constructions without an ``mp_context``.

Spawned workers start from a clean interpreter, so process-wide state
armed in the parent — in particular an installed
:class:`repro.faults.FaultPlan` — would silently vanish in the pool.
:func:`spawn_pool` therefore forwards the parent's active fault plan
through the worker initializer, so a fault-armed daemon's workers crash
on schedule too.

Every pool here parallelises across loops — batch compiles, figure
sweeps, the daemon's compile pool, the oracle's matrix — never across
the attempts of one loop's II search.  All but the daemon's fan out
through one :func:`job_map`.
"""

from __future__ import annotations

import contextlib
import functools
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Iterator, Optional

from . import faults


def spawn_context() -> multiprocessing.context.SpawnContext:
    """The multiprocessing spawn context (safe under threaded parents)."""
    return multiprocessing.get_context("spawn")


def spawn_pool(max_workers: int) -> ProcessPoolExecutor:
    """A ``ProcessPoolExecutor`` pinned to the spawn start method."""
    plan = faults.active()
    initializer, initargs = None, ()
    if plan is not None and plan.rules:
        initializer, initargs = faults.install_from_spec, (plan.spec, plan.seed)
    return ProcessPoolExecutor(
        max_workers=max_workers,
        mp_context=spawn_context(),
        initializer=initializer,
        initargs=initargs,
    )


@contextlib.contextmanager
def job_map(workers: Optional[int], n_jobs: int) -> Iterator[Callable]:
    """A ``map`` for *n_jobs* jobs: over a spawn pool of *workers*
    processes when there is work to share, else the builtin.

    Either way results come back in job order.  The pool hands each
    worker chunks of ``n_jobs // (workers * 4)`` jobs; the job function
    must be module-level, and its arguments and results picklable.
    """
    if workers is not None and workers > 1 and n_jobs > 1:
        with spawn_pool(workers) as pool:
            chunksize = max(1, n_jobs // (workers * 4))
            yield functools.partial(pool.map, chunksize=chunksize)
    else:
        yield map
