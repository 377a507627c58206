"""Lifetime extraction from a modulo schedule.

A **lifetime** here is one operand reference: the span between the cycle a
value becomes available (producer issue + latency) and the cycle its
consumer reads it (consumer issue, adjusted by ``omega * II`` for
loop-carried references).  With single-use rewriting every reference is an
independent FIFO stream across iterations, which is exactly what one queue
of a queue register file holds (the authors' EuroPar'97 allocation model).

The module also computes **MaxLive**, the classic register-pressure bound
of a central register file, used to quantify the paper's motivation: the
storage the unclustered machine would need.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..errors import AllocationError
from ..machine.cqrf import QueueFileId, queue_file_for
from ..scheduling.result import ScheduleResult


@dataclass(frozen=True, slots=True)
class Lifetime:
    """One value stream: producer -> (consumer, operand index)."""

    producer: int
    consumer: int
    operand_index: int
    omega: int
    src_cluster: int
    dst_cluster: int
    birth: int  # cycle the value is written (producer issue + latency)
    death: int  # cycle the value is read (consumer issue + omega * II)
    ii: int

    def __reduce__(self):
        return type(self), (
            self.producer, self.consumer, self.operand_index, self.omega,
            self.src_cluster, self.dst_cluster, self.birth, self.death, self.ii,
        )

    @property
    def duration(self) -> int:
        """Cycles the value stays live (0 = read the cycle it is written)."""
        return self.death - self.birth

    @property
    def depth(self) -> int:
        """Maximum simultaneously live instances of this stream.

        One value enters every II cycles, so a stream live for D cycles
        keeps ``floor(D / II) + 1`` instances in flight.
        """
        return self.duration // self.ii + 1

    @property
    def file_id(self) -> QueueFileId:
        """The queue file this stream occupies (LRF or CQRF)."""
        return queue_file_for(self.src_cluster, self.dst_cluster)


def extract_lifetimes(result: ScheduleResult) -> List[Lifetime]:
    """All operand-reference lifetimes of a final schedule.

    Raises :class:`AllocationError` when a flow reference crosses
    indirectly connected clusters (the schedule checker should have caught
    this already).
    """
    ddg = result.ddg
    placements = result.placements
    topology = result.machine.topology
    lifetimes: List[Lifetime] = []
    for consumer in ddg.operations():
        consumer_placement = placements.get(consumer.op_id)
        if consumer_placement is None:
            raise AllocationError(f"op {consumer.op_id} has no placement")
        for index, src in enumerate(consumer.srcs):
            if src.is_external:
                continue
            producer_placement = placements.get(src.producer)
            if producer_placement is None:
                raise AllocationError(f"op {src.producer} has no placement")
            if (
                src.producer != consumer.op_id
                and topology.distance(
                    producer_placement.cluster, consumer_placement.cluster
                )
                > 1
            ):
                raise AllocationError(
                    f"flow reference v{src.producer} -> op {consumer.op_id} "
                    "crosses indirectly connected clusters"
                )
            latency = result.latencies.latency(ddg.op(src.producer).opcode)
            birth = producer_placement.time + latency
            death = consumer_placement.time + src.omega * result.ii
            if death < birth:
                raise AllocationError(
                    f"negative lifetime for v{src.producer} -> "
                    f"op {consumer.op_id} (birth {birth}, death {death})"
                )
            lifetimes.append(
                Lifetime(
                    producer=src.producer,
                    consumer=consumer.op_id,
                    operand_index=index,
                    omega=src.omega,
                    src_cluster=producer_placement.cluster,
                    dst_cluster=consumer_placement.cluster,
                    birth=birth,
                    death=death,
                    ii=result.ii,
                )
            )
    return lifetimes


def register_pressure(result: ScheduleResult) -> int:
    """MaxLive of the schedule under a central multi-read register file.

    Each *value* (producer) is live from its write until its last read;
    the pressure at MRT row ``r`` counts live instances across overlapped
    iterations.  This is the storage bound motivating the paper's clustered
    design (section 1).
    """
    ddg = result.ddg
    placements = result.placements
    ii = result.ii
    # Last read per producer, in steady-state cycle terms.
    last_read: Dict[int, int] = {}
    birth: Dict[int, int] = {}
    for consumer in ddg.operations():
        for src in consumer.srcs:
            if src.is_external:
                continue
            read = placements[consumer.op_id].time + src.omega * ii
            last_read[src.producer] = max(last_read.get(src.producer, read), read)
    for producer in ddg.operations():
        if producer.op_id in last_read:
            latency = result.latencies.latency(producer.opcode)
            birth[producer.op_id] = placements[producer.op_id].time + latency
    max_live = 0
    for row in range(ii):
        live = 0
        for producer_id, start in birth.items():
            end = last_read[producer_id]
            if end < start:
                continue
            # Instances m with start <= row + m*II <= end.
            first = -(-(start - row) // ii)  # ceil
            last = (end - row) // ii  # floor
            live += max(0, last - first + 1)
        max_live = max(max_live, live)
    return max_live
