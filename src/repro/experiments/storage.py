"""Storage-requirement analysis (the paper's section-1 motivation).

The paper's premise: "the scalability of VLIW architectures is still
constrained by the size and number of ports of the register file required
by a large number of functional units".  This module quantifies that
premise on the reproduction's own schedules:

* **unclustered machines** — MaxLive, the peak number of simultaneously
  live values a central multi-ported register file must hold (its port
  count grows with the FU count by construction: 2 reads + 1 write per
  FU);
* **clustered machines** — the per-cluster storage DMS schedules
  actually need: LRF queues, CQRF queues, and their depths, each file
  with a fixed small port count (one FU trio reads/writes the LRF; one
  neighbour writes and one reads each CQRF).

The output is the quantitative version of the paper's argument: total
storage stays comparable while the *per-file* requirements — what
determines access time — stay flat for the clustered machine and grow
linearly for the unclustered one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..api.request import CompilationRequest
from ..api.toolchain import Toolchain
from ..config import DEFAULT_CONFIG, SchedulerConfig
from ..ir.loop import Loop
from ..ir.opcodes import DEFAULT_LATENCIES, LatencyModel
from ..machine.cqrf import LRFId
from ..machine.machine import clustered_vliw, unclustered_vliw
from ..registers.lifetimes import register_pressure
from ..registers.queues import allocate_queues
from .figures import FigureData


@dataclass(frozen=True)
class StoragePoint:
    """Storage demand of one loop at one cluster count."""

    loop_name: str
    clusters: int
    unclustered_maxlive: int
    lrf_queues_max: int  # largest LRF queue count of any single cluster
    lrf_depth_max: int
    cqrf_queues_max: int  # largest queue count of any single CQRF
    cqrf_depth_max: int

    @property
    def largest_clustered_file(self) -> int:
        """Queue count of the biggest storage structure any cluster owns."""
        return max(self.lrf_queues_max, self.cqrf_queues_max)


def storage_point(
    loop: Loop,
    k: int,
    latencies: LatencyModel = DEFAULT_LATENCIES,
    config: SchedulerConfig = DEFAULT_CONFIG,
) -> StoragePoint:
    """Measure the storage demands of *loop* on the k-cluster pair."""
    toolchain = Toolchain.default()
    unclustered, clustered = (
        toolchain.compile(CompilationRequest(
            loop=loop, machine=machine, latencies=latencies, config=config,
            equivalent_k=k, allocate=False,
        )).result
        for machine in (unclustered_vliw(k), clustered_vliw(k))
    )
    maxlive = register_pressure(unclustered)
    allocation = allocate_queues(clustered)
    lrf_queues = [0]
    lrf_depths = [0]
    cqrf_queues = [0]
    cqrf_depths = [0]
    for usage in allocation.files:
        if isinstance(usage.file_id, LRFId):
            lrf_queues.append(usage.queues_used)
            lrf_depths.append(usage.max_depth)
        else:
            cqrf_queues.append(usage.queues_used)
            cqrf_depths.append(usage.max_depth)
    return StoragePoint(
        loop_name=loop.name,
        clusters=k,
        unclustered_maxlive=maxlive,
        lrf_queues_max=max(lrf_queues),
        lrf_depth_max=max(lrf_depths),
        cqrf_queues_max=max(cqrf_queues),
        cqrf_depth_max=max(cqrf_depths),
    )


def storage_sweep(
    loops: Sequence[Loop],
    cluster_counts: Sequence[int] = (1, 2, 4, 6, 8, 10),
    latencies: LatencyModel = DEFAULT_LATENCIES,
    config: SchedulerConfig = DEFAULT_CONFIG,
) -> List[StoragePoint]:
    """Measure storage for every loop/cluster-count combination."""
    points: List[StoragePoint] = []
    for loop in loops:
        for k in cluster_counts:
            points.append(storage_point(loop, k, latencies, config))
    return points


def storage_report(points: Sequence[StoragePoint]) -> FigureData:
    """Aggregate a storage sweep into a renderable figure.

    Series are means across loops: the central file's MaxLive vs the
    largest single queue file any cluster owns.
    """
    cluster_counts = sorted({p.clusters for p in points})
    maxlive: List[float] = []
    largest_file: List[float] = []
    cqrf_depth: List[float] = []
    for k in cluster_counts:
        at_k = [p for p in points if p.clusters == k]
        maxlive.append(sum(p.unclustered_maxlive for p in at_k) / len(at_k))
        largest_file.append(
            sum(p.largest_clustered_file for p in at_k) / len(at_k)
        )
        cqrf_depth.append(sum(p.cqrf_depth_max for p in at_k) / len(at_k))
    return FigureData(
        name="storage",
        title=(
            "Storage requirements: central RF MaxLive vs largest clustered "
            "queue file (means per loop)"
        ),
        x_label="clusters",
        x=[float(k) for k in cluster_counts],
        series={
            "central_rf_maxlive": maxlive,
            "largest_cluster_file": largest_file,
            "cqrf_depth_max": cqrf_depth,
        },
        notes=[
            "paper section 1: central register file size/ports constrain "
            "wide VLIWs; clustering keeps every individual file small",
        ],
    )
