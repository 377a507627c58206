"""Baseline comparison: single-phase DMS vs partition-then-schedule.

The paper positions DMS against two-phase approaches from the related
work (partitioning and scheduling as separate passes).  This experiment
schedules the suite with both on the same machines and reports the
figure-4 metric (fraction of loops whose II exceeds the unclustered IMS
II) side by side — the measured version of the paper's integration
argument.

The IMS reference and the DMS runs are the figure sweep's own twins
(:func:`~repro.experiments.runner.run_sweep`).  The baseline is each
DMS request with ``scheduler="two_phase"``: the same default toolchain,
unroll factor, single-use insertion, validation and II-search policy,
with only the schedule phase differing — IMS pinned to a partition
chosen before scheduling (:mod:`repro.scheduling.twophase`).  Both
fan out through :func:`repro.pools.job_map`, and each two-phase job
ships back only its II.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional, Sequence

from ..api import CompilationRequest, Toolchain
from ..config import DEFAULT_CONFIG, SchedulerConfig
from ..errors import IIOverflowError
from ..ir.loop import Loop
from ..ir.opcodes import DEFAULT_LATENCIES, LatencyModel
from ..pools import job_map
from .figures import FigureData
from .runner import SweepConfig, run_sweep, sweep_requests


def _two_phase_ii(request: CompilationRequest) -> Optional[int]:
    """The baseline's one job: the two-phase II of *request*, or ``None``
    when its II search overflows (module-level, so a spawn worker
    imports it by name)."""
    try:
        return Toolchain.default().compile(request).result.ii
    except IIOverflowError:
        return None


def two_phase_comparison(
    loops: Sequence[Loop],
    cluster_counts: Sequence[int] = (4, 6, 8, 10),
    latencies: LatencyModel = DEFAULT_LATENCIES,
    config: SchedulerConfig = DEFAULT_CONFIG,
    workers: Optional[int] = None,
) -> FigureData:
    """II-overhead fractions for DMS and the two-phase baseline."""
    sweep = SweepConfig(
        cluster_counts=tuple(cluster_counts),
        latencies=latencies,
        scheduler_config=config,
        workers=workers,
    )
    # Loop-major, per k: the IMS twin's run, then the DMS twin's.
    twins = run_sweep(loops, sweep)
    # The two-phase scheduler can exhaust its II search on loops DMS
    # handles; such failures come back as None and count as overhead
    # (the baseline simply cannot schedule the loop).
    two_phase = [
        replace(request, scheduler="two_phase")
        for _k, request in sweep_requests(loops, sweep)
        if request.scheduler == "dms"
    ]
    with job_map(workers, len(two_phase)) as map_jobs:
        two_phase_iis = list(map_jobs(_two_phase_ii, two_phase))

    dms_worse = {k: 0 for k in cluster_counts}
    twophase_worse = {k: 0 for k in cluster_counts}
    twophase_failures = 0
    for reference, dms, ii in zip(twins[0::2], twins[1::2], two_phase_iis):
        k = reference.clusters
        if dms.ii > reference.ii:
            dms_worse[k] += 1
        if ii is None:
            twophase_failures += 1
            twophase_worse[k] += 1
        elif ii > reference.ii:
            twophase_worse[k] += 1
    notes = [
        "two-phase = ring partition + static move chains + pinned IMS "
        "(related-work style, refs [1][6][12])",
    ]
    if twophase_failures:
        notes.append(
            f"two-phase failed to find any II for {twophase_failures} "
            "(loop, machine) pairs (counted as overhead)"
        )
    return FigureData(
        name="baseline_two_phase",
        title="Single-phase DMS vs two-phase partition+schedule "
        "(% loops with II overhead)",
        x_label="clusters",
        x=[float(k) for k in cluster_counts],
        series={
            "dms_single_phase": [
                100.0 * dms_worse[k] / len(loops) for k in cluster_counts
            ],
            "two_phase": [
                100.0 * twophase_worse[k] / len(loops) for k in cluster_counts
            ],
        },
        notes=notes,
    )

