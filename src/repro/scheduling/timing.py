"""The single source of truth for dependence-edge timing.

The schedule checker and the execution oracle both judge edge timing:
the checker statically, from the placements; the oracle dynamically, on
the issue cycles of the emitted program (operand readiness for flow
edges, instance order for explicit ordering edges).  Two independent
derivations of an edge's cost would let them silently disagree about
the same schedule, for example under explicit edge latencies, per-link
communication cost or an asymmetric interconnect.

Both call :func:`edge_ready_latency`: the per-edge latency (explicit for
ordering edges, producer latency for flow edges) plus the topology's
per-link communication cost whenever the edge actually moves a value
between two distinct clusters.
"""

from __future__ import annotations

from typing import Mapping, Optional

from ..ir.ddg import DDG
from ..ir.edges import DepEdge
from ..ir.opcodes import LatencyModel
from ..machine.machine import MachineSpec
from .schedule import Placement


def edge_ready_latency(
    ddg: DDG,
    edge: DepEdge,
    latencies: LatencyModel,
    *,
    src_cluster: Optional[int] = None,
    dst_cluster: Optional[int] = None,
    machine: Optional[MachineSpec] = None,
) -> int:
    """Cycles between issuing ``edge.src`` and ``edge.dst`` being allowed
    to consume it (before the ``- II * omega`` modulo adjustment).

    For flow edges this is the producer latency plus the interconnect's
    per-link cost when the value crosses clusters; ordering edges carry
    their own explicit latency and never communicate.
    """
    latency = ddg.edge_latency(edge, latencies)
    if (
        edge.communicates
        and machine is not None
        and src_cluster is not None
        and dst_cluster is not None
        and src_cluster != dst_cluster
    ):
        latency += machine.topology.comm_latency(src_cluster, dst_cluster)
    return latency


def dependence_slack(
    ddg: DDG,
    edge: DepEdge,
    placements: Mapping[int, Placement],
    ii: int,
    latencies: LatencyModel,
    machine: Optional[MachineSpec] = None,
) -> int:
    """Slack of *edge* under *placements*: ``t(dst) - (t(src) + latency -
    II * omega)``.  Negative slack is a dependence violation: the checker
    rejects it here, the oracle on the issue cycles, both through
    :func:`edge_ready_latency`.
    """
    src = placements[edge.src]
    dst = placements[edge.dst]
    latency = edge_ready_latency(
        ddg,
        edge,
        latencies,
        src_cluster=src.cluster,
        dst_cluster=dst.cluster,
        machine=machine,
    )
    return dst.time - (src.time + latency - ii * edge.omega)
