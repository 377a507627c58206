"""The machine-sweep runner behind figures 4-6.

For every loop and every cluster count ``k`` the runner schedules the loop
twice — IMS on the unclustered 3k-FU machine and DMS on the k-cluster
machine — sharing one unroll factor chosen on the unclustered model, then
reads a :class:`~repro.experiments.metrics.LoopRun` off each compile's
record (:meth:`~repro.api.request.CompilationReport.to_dict`).

Since the compilation-session redesign the runner is a thin client of
:mod:`repro.api`: it expands the sweep into
:class:`~repro.api.CompilationRequest` jobs and hands them to a
:class:`~repro.api.BatchCompiler`, which gives every sweep process-level
parallelism (``SweepConfig.workers``) and on-disk memoisation
(``SweepConfig.cache_dir``) for free.  (The old in-loop reuse of
unrolled/single-use DDGs across cluster counts is gone with the shared
driver; the transforms are <6% of sweep wall-clock — scheduling
dominates — and the cache more than buys it back on reruns.)

Schedules are validated with the independent checker as they are
produced; a reproduction harness that silently accepts broken schedules
would be worthless.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from ..api.batch import BatchCompiler
from ..api.request import CompilationRequest
from ..api.toolchain import Toolchain
from ..config import DEFAULT_CONFIG, SchedulerConfig
from ..ir.loop import Loop
from ..ir.opcodes import DEFAULT_LATENCIES, LatencyModel
from ..machine.cluster import ClusterSpec, PAPER_CLUSTER
from ..machine.machine import clustered_vliw, unclustered_vliw
from .metrics import LoopRun

ProgressFn = Callable[[str], None]


@dataclass
class SweepConfig:
    """Parameters of one experiment sweep."""

    cluster_counts: Sequence[int] = tuple(range(1, 11))
    latencies: LatencyModel = DEFAULT_LATENCIES
    scheduler_config: SchedulerConfig = DEFAULT_CONFIG
    cluster_spec: ClusterSpec = PAPER_CLUSTER
    #: Interconnect of the clustered twin: any registered topology kind
    #: (ring, linear, mesh, torus, crossbar, graph, ...).
    topology: str = "ring"
    #: Optional topology parameters (e.g. ``{"rows": 3, "cols": 3}``);
    #: ``None`` lets each topology pick its default shape per k.
    topology_params: Optional[dict] = None
    validate: bool = True
    #: Process-pool width for the batch compiler (None/1 = serial).
    workers: Optional[int] = None
    #: On-disk compilation cache directory (None = no memoisation).
    cache_dir: Optional[str] = None


def sweep_requests(
    loops: Sequence[Loop], sweep: SweepConfig
) -> List[Tuple[int, CompilationRequest]]:
    """Expand a sweep into ``(clusters, request)`` jobs, loop-major.

    Per (loop, k) pair: the unclustered IMS twin first, then the
    clustered machine — always scheduled with DMS, even at one cluster
    where DMS degenerates to IMS (the paper's comparison pairs figure-4
    labels by scheduler, so the k=1 clustered run must stay ``"dms"``).
    Both twins pass ``equivalent_k=k`` so they share one unroll factor.
    """
    jobs: List[Tuple[int, CompilationRequest]] = []
    machines = {
        k: (
            unclustered_vliw(k),
            clustered_vliw(
                k,
                cluster=sweep.cluster_spec,
                topology=sweep.topology,
                topology_params=sweep.topology_params,
            ),
        )
        for k in sweep.cluster_counts
    }
    for loop in loops:
        for k in sweep.cluster_counts:
            unclustered, clustered = machines[k]
            common = dict(
                loop=loop,
                latencies=sweep.latencies,
                config=sweep.scheduler_config,
                equivalent_k=k,
                allocate=False,
                validate=sweep.validate,
            )
            jobs.append((k, CompilationRequest(machine=unclustered, scheduler="ims", **common)))
            jobs.append((k, CompilationRequest(machine=clustered, scheduler="dms", **common)))
    return jobs


def run_sweep(
    loops: Sequence[Loop],
    sweep: Optional[SweepConfig] = None,
    progress: Optional[ProgressFn] = None,
) -> List[LoopRun]:
    """Schedule every loop on every machine pair of the sweep."""
    sweep = sweep or SweepConfig()
    jobs = sweep_requests(loops, sweep)
    compiler = BatchCompiler(
        toolchain=Toolchain.default(),
        cache=sweep.cache_dir,
        workers=sweep.workers,
    )
    per_loop = 2 * len(sweep.cluster_counts)
    reports = compiler.compile_many(
        [request for _k, request in jobs], progress=progress
    )
    runs: List[LoopRun] = []
    for (k, _request), report in zip(jobs, reports):
        runs.append(LoopRun.from_record(report.to_dict(), k))
        if progress is not None and per_loop and len(runs) % (25 * per_loop) == 0:
            progress(f"scheduled {len(runs) // per_loop}/{len(loops)} loops")
    return runs
