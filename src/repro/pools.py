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
armed in the parent — in particular a programmatically installed
:class:`repro.faults.FaultPlan` — would silently vanish in the pool.
:func:`spawn_pool` therefore forwards the parent's active fault plan
through the worker initializer, so a fault-armed daemon's workers crash
on schedule too.

Every pool here parallelises across loops — batch compiles, the
daemon's compile pool, the oracle's matrix — never across the attempts
of one loop's II search.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor

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
