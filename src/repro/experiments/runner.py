"""The machine-sweep runner behind figures 4-6.

For every loop and every cluster count ``k`` the runner schedules the loop
twice — IMS on the unclustered 3k-FU machine and DMS on the k-cluster
machine — sharing one unroll factor chosen on the unclustered model, then
reads a :class:`~repro.experiments.metrics.LoopRun` off each compile's
record (:meth:`~repro.api.request.CompilationReport.to_dict`).

The runner expands the sweep into :class:`~repro.api.CompilationRequest`
jobs and maps one module-level job over them
(:func:`repro.pools.job_map`): compile the request with the default
toolchain and return its record.  With ``SweepConfig.workers`` > 1 the
jobs run in a spawn pool and only the records come back to the parent,
which turns each into a ``LoopRun`` as it arrives; no report is kept or
unpickled there.  A sweep has no cache of its own: ``repro batch`` and
the service memoise compiles, a figure sweep recompiles.

Every schedule is validated with the independent checker as it is
produced; a reproduction harness that silently accepts broken schedules
would be worthless.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..api.request import CompilationRequest
from ..api.toolchain import Toolchain
from ..config import DEFAULT_CONFIG, SchedulerConfig
from ..ir.loop import Loop
from ..ir.opcodes import DEFAULT_LATENCIES, LatencyModel
from ..machine.cluster import ClusterSpec, PAPER_CLUSTER
from ..machine.machine import clustered_vliw, unclustered_vliw
from ..pools import job_map
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
    #: Process-pool width (None/1 = serial).
    workers: Optional[int] = None


def sweep_requests(
    loops: Sequence[Loop], sweep: SweepConfig
) -> List[Tuple[int, CompilationRequest]]:
    """Expand a sweep into ``(clusters, request)`` jobs, loop-major.

    Per (loop, k) pair: the unclustered IMS twin first, then the
    clustered machine — always scheduled with DMS, even at one cluster
    where DMS degenerates to IMS (the paper's comparison pairs figure-4
    labels by scheduler, so the k=1 clustered run must stay ``"dms"``).
    Both twins pass ``equivalent_k=k`` so they share one unroll factor,
    and every request validates its schedule.
    """
    jobs: List[Tuple[int, CompilationRequest]] = []
    machines = {
        k: (
            unclustered_vliw(k),
            clustered_vliw(k, cluster=sweep.cluster_spec, topology=sweep.topology),
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
                validate=True,
            )
            jobs.append((k, CompilationRequest(machine=unclustered, scheduler="ims", **common)))
            jobs.append((k, CompilationRequest(machine=clustered, scheduler="dms", **common)))
    return jobs


def _sweep_record(request: CompilationRequest) -> Dict[str, object]:
    """The sweep's one job: compile *request* and return its record
    (module-level, so a spawn worker imports it by name)."""
    return Toolchain.default().compile(request).to_dict()


def run_sweep(
    loops: Sequence[Loop],
    sweep: Optional[SweepConfig] = None,
    progress: Optional[ProgressFn] = None,
) -> List[LoopRun]:
    """Schedule every loop on every machine pair of the sweep."""
    sweep = sweep or SweepConfig()
    jobs = sweep_requests(loops, sweep)
    per_loop = 2 * len(sweep.cluster_counts)
    runs: List[LoopRun] = []
    with job_map(sweep.workers, len(jobs)) as map_jobs:
        records = map_jobs(_sweep_record, [request for _k, request in jobs])
        for (k, _request), record in zip(jobs, records):
            runs.append(LoopRun.from_record(record, k))
            if progress is not None and len(runs) % (25 * per_loop) == 0:
                progress(f"scheduled {len(runs) // per_loop}/{len(loops)} loops")
    return runs
