"""Two-phase baseline: partition first, then modulo-schedule.

The paper's related work (section 2) describes schemes that "partition
prior to scheduling, ensuring that no communication conflicts arise when
operations are scheduled" (refs [1], [6], [12]) — the design DMS argues
against by integrating both decisions.  This module implements that
baseline so the integration claim can be measured:

1. **Partition** — operations are laid out over the clusters in
   dependence order, balancing the bottleneck FU kind per cluster; every
   flow edge spanning more than one hop is bridged *statically* with
   pinned move operations along the topology's first (shortest) path.
2. **Schedule** — IMS itself, given the partition as its pin map: the
   same search policy (``config.search``), priorities, window scan and
   forced ejection, but each operation may only ever sit on its
   pre-assigned cluster.

Because cluster assignment can no longer adapt to scheduling conflicts,
every imbalance or badly placed chain becomes II overhead — exactly the
phenomenon DMS's single-phase design removes.
"""

from __future__ import annotations

from typing import Dict, Tuple

from ..errors import SchedulingError
from ..ir.ddg import DDG
from ..ir.opcodes import FUKind, LatencyModel, OpCode
from ..ir.operations import ValueUse
from ..machine.machine import MachineSpec
from .heights import compute_heights
from .ims import IterativeModuloScheduler
from .mii import rec_mii
from .result import ScheduleResult


def partition_clusters(
    ddg: DDG, machine: MachineSpec, latencies: LatencyModel
) -> Dict[int, int]:
    """Assign every operation to a cluster before any scheduling.

    Operations are visited in dependence-height order (critical chains
    first) and greedily placed on the cluster that minimises topology
    distance to already-assigned flow partners, then per-kind load,
    preferring contiguous cluster regions.  The result is a total map
    op id -> cluster.
    """
    n = machine.n_clusters
    if n == 1:
        return {op_id: 0 for op_id in ddg.op_ids}
    # Height computation only converges at II >= RecMII; a tight
    # recurrence (e.g. a two-op div circuit) can push RecMII past the
    # op count, so the partition-order heuristic must respect it too.
    ii_floor = max(1, len(ddg), rec_mii(ddg, latencies))
    heights = compute_heights(ddg, latencies, ii=ii_floor)
    order = sorted(ddg.op_ids, key=lambda i: (-heights[i], i))
    assignment: Dict[int, int] = {}
    load: Dict[Tuple[int, FUKind], int] = {}
    topology = machine.topology

    for position, op_id in enumerate(order):
        op = ddg.op(op_id)
        partners = [
            assignment[e.src]
            for e in ddg.in_edges(op_id)
            if e.is_flow and e.src in assignment and e.src != op_id
        ] + [
            assignment[e.dst]
            for e in ddg.out_edges(op_id)
            if e.is_flow and e.dst in assignment and e.dst != op_id
        ]
        candidates = [
            c for c in range(n) if machine.fu_in_cluster(c, op.fu_kind) > 0
        ]
        if not candidates:
            raise SchedulingError(
                f"machine {machine.name!r} cannot execute {op.fu_kind.value}"
            )
        spread = (position * n) // max(1, len(order))

        def cost(cluster: int) -> Tuple[int, int, int]:
            distance = sum(topology.distance(cluster, p) for p in partners)
            kind_load = load.get((cluster, op.fu_kind), 0)
            return (distance, kind_load, (cluster - spread) % n)

        chosen = min(candidates, key=cost)
        assignment[op_id] = chosen
        load[chosen, op.fu_kind] = load.get((chosen, op.fu_kind), 0) + 1
    return assignment


def insert_static_chains(
    ddg: DDG, assignment: Dict[int, int], machine: MachineSpec
) -> Dict[int, int]:
    """Bridge far flow references with pinned moves (first topology path).

    Mutates *ddg* in place and returns the extended assignment including
    the new move operations.  After this pass every flow reference spans
    at most one hop, so the scheduling phase faces no communication
    decisions at all — the two-phase premise.
    """
    topology = machine.topology
    extended = dict(assignment)
    for consumer_id in list(ddg.op_ids):
        consumer = ddg.op(consumer_id)
        for index, src in enumerate(consumer.srcs):
            if src.is_external or src.producer == consumer_id:
                continue
            producer_cluster = extended[src.producer]
            consumer_cluster = extended[consumer_id]
            if topology.distance(producer_cluster, consumer_cluster) <= 1:
                continue
            path = topology.paths(producer_cluster, consumer_cluster)[0]
            previous = ValueUse(src.producer, src.omega)
            for hop_cluster in path.intermediates:
                move = ddg.new_operation(
                    OpCode.MOVE,
                    (previous,),
                    tag=f"mv2p(v{src.producer}->v{consumer_id})",
                )
                extended[move.op_id] = hop_cluster
                previous = ValueUse(move.op_id, 0)
            ddg.replace_operand(consumer_id, index, previous)
    return extended


class TwoPhaseScheduler(IterativeModuloScheduler):
    """Partition-then-schedule baseline (related-work style): IMS with
    every operation pinned to its partition cluster."""

    name = "two-phase"

    def schedule(self, ddg: DDG) -> ScheduleResult:
        """Partition *ddg*, insert static chains, then pinned-IMS it."""
        work = ddg.copy()
        assignment = partition_clusters(work, self.machine, self.latencies)
        pins = insert_static_chains(work, assignment, self.machine)
        return super().schedule(work, pins)
