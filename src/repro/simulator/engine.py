"""Cycle-accurate execution of a pipelined schedule.

The simulator issues every instance ``(operation, iteration)`` of the
modulo schedule at ``t(op) + iteration * II`` and dynamically re-checks
everything the static model promises:

* functional-unit occupancy never exceeds cluster capacity,
* every operand is ready when read, with the readiness delay resolved
  *per dependence edge* through the same shared helper the checker uses
  (:func:`repro.scheduling.timing.edge_ready_latency`: explicit latency
  for ordering edges, producer latency plus per-link communication cost
  for flow edges), so the simulator and checker can never silently
  disagree on edge cost,
* explicit (memory/anti/output) ordering edges are honoured,
* every queue pops values in FIFO order with the expected instance,
* queue occupancy stays within the allocated depth, and
* values entering any directed CQRF link per cycle fit the file's
  ``write_ports`` budget (when the machine declares one).

It reports the measured makespan next to the analytic ramp model
``(n + SC - 1) * II`` used by the experiments; the two are asserted to
agree within one operation latency (the drain of the last results).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..errors import AllocationError, SimulationError
from ..ir.opcodes import FUKind, is_useful
from ..registers.queues import QueueAllocation, allocate_queues
from ..scheduling.result import ScheduleResult
from ..scheduling.timing import dependence_slack, edge_ready_latency

StreamKey = Tuple[int, int]  # (consumer op id, operand index)


@dataclass
class SimReport:
    """Outcome of one simulation run."""

    loop_name: str
    ii: int
    iterations: int
    stage_count: int
    cycles_model: int
    cycles_span: int
    issued_total: int
    issued_useful: int
    fu_busy: Dict[FUKind, int] = field(default_factory=dict)
    max_queue_occupancy: int = 0
    problems: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems

    @property
    def ipc_model(self) -> float:
        """Useful IPC against the analytic cycle model (paper metric)."""
        return self.issued_useful / self.cycles_model

    def utilization(self, kind: FUKind, capacity: int) -> float:
        """Busy fraction of all *kind* units over the measured span."""
        total = capacity * max(1, self.cycles_span)
        return self.fu_busy.get(kind, 0) / total


def simulate(
    result: ScheduleResult,
    iterations: int,
    allocation: Optional[QueueAllocation] = None,
    strict: bool = True,
) -> SimReport:
    """Execute *iterations* overlapped iterations of *result*.

    With ``strict=True`` (default) any dynamic violation raises
    :class:`SimulationError`; otherwise it is recorded in the report.
    """
    if iterations < 1:
        raise SimulationError(f"iterations must be >= 1, got {iterations}")
    ddg = result.ddg
    placements = result.placements
    ii = result.ii
    machine = result.machine
    latencies = result.latencies
    allocation_problem = None
    if allocation is None and machine.is_clustered:
        try:
            allocation = allocate_queues(result)
        except AllocationError as err:
            # A schedule whose lifetimes cannot be mapped to queues is a
            # dynamic failure too; record it and run the other checks.
            allocation_problem = str(err)
    report = SimReport(
        loop_name=result.loop_name,
        ii=ii,
        iterations=iterations,
        stage_count=result.stage_count,
        cycles_model=result.cycles(iterations),
        cycles_span=0,
        issued_total=0,
        issued_useful=0,
    )
    if allocation_problem is not None:
        report.problems.append(f"queue allocation failed: {allocation_problem}")

    # Per-reference FIFO streams, seeded with the loop-carried initial
    # values (instances -omega .. -1 exist before the loop starts).
    streams: Dict[StreamKey, deque] = {}
    expected_next: Dict[StreamKey, int] = {}
    for consumer in ddg.operations():
        for index, src in enumerate(consumer.srcs):
            if src.is_external:
                continue
            key = (consumer.op_id, index)
            seeded = deque(range(-src.omega, 0))
            streams[key] = seeded
            expected_next[key] = -src.omega
            if len(seeded) > report.max_queue_occupancy:
                report.max_queue_occupancy = len(seeded)

    # Event lists: writes (value ready) and reads (operand consumed).
    write_events: List[Tuple[int, StreamKey, int]] = []
    read_events: List[Tuple[int, StreamKey, int]] = []
    issue_events: List[Tuple[int, int, FUKind]] = []  # (cycle, cluster, kind)
    link_writes: List[Tuple[int, int, int]] = []  # (cycle, writer, reader)

    for op in ddg.operations():
        placement = placements[op.op_id]
        latency = latencies.latency(op.opcode)
        refs = [
            ((op.op_id, index), src)
            for index, src in enumerate(op.srcs)
            if not src.is_external
        ]
        for iteration in range(iterations):
            issue = placement.time + iteration * ii
            completion = issue + latency
            report.cycles_span = max(report.cycles_span, completion)
            report.issued_total += 1
            if is_useful(op.opcode):
                report.issued_useful += 1
            issue_events.append((issue, placement.cluster, op.fu_kind))
            for key, src in refs:
                read_events.append((issue, key, iteration - src.omega))
        # The producer side: this op's value feeds streams of consumers;
        # readiness is resolved per flow edge (shared with the checker).
        for consumer_key, edge in _consumer_refs(ddg, op.op_id):
            consumer_placement = placements[edge.dst]
            ready_delay = edge_ready_latency(
                ddg,
                edge,
                latencies,
                src_cluster=placement.cluster,
                dst_cluster=consumer_placement.cluster,
                machine=machine,
            )
            crosses = placement.cluster != consumer_placement.cluster
            for iteration in range(iterations):
                ready = placement.time + iteration * ii + ready_delay
                write_events.append((ready, consumer_key, iteration))
                if crosses:
                    link_writes.append(
                        (ready, placement.cluster, consumer_placement.cluster)
                    )

    _check_resources(issue_events, machine, report)
    _check_ordering_edges(result, iterations, report)
    _check_link_writes(link_writes, machine, report)
    _run_fifo(write_events, read_events, streams, expected_next, report)
    if allocation is not None:
        _check_depths(allocation, report)
    if strict and report.problems:
        raise SimulationError(
            f"simulation of {result.loop_name!r} failed: "
            + "; ".join(report.problems[:5])
        )
    return report


def _consumer_refs(ddg, producer_id: int):
    """(consumer stream key, flow edge) pairs fed by *producer_id*.

    One pair per operand reference: an edge whose consumer reads the
    value at several operand positions yields one entry per position.
    """
    for (consumer_id, index, _omega), edge in ddg.flow_succ_ref_edges(
        producer_id
    ):
        yield (consumer_id, index), edge


def _check_resources(
    issue_events: List[Tuple[int, int, FUKind]],
    machine,
    report: SimReport,
) -> None:
    per_cycle: Dict[Tuple[int, int, FUKind], int] = {}
    for cycle, cluster, kind in issue_events:
        slot = (cycle, cluster, kind)
        per_cycle[slot] = per_cycle.get(slot, 0) + 1
        report.fu_busy[kind] = report.fu_busy.get(kind, 0) + 1
    for (cycle, cluster, kind), count in sorted(
        per_cycle.items(), key=lambda item: (item[0][0], item[0][1], item[0][2].value)
    ):
        capacity = machine.fu_in_cluster(cluster, kind)
        if count > capacity:
            report.problems.append(
                f"cycle {cycle}: {count} {kind.value} issues on cluster "
                f"{cluster} (capacity {capacity})"
            )


def _check_ordering_edges(
    result: ScheduleResult,
    iterations: int,
    report: SimReport,
) -> None:
    """Honour explicit (non-flow) ordering edges.

    Memory/anti/output edges carry no value, so the FIFO machinery never
    sees them; before this check the simulator silently accepted
    schedules that reorder aliasing memory operations.  The slack
    arithmetic is shared with the checker's dependence rule.
    """
    ddg = result.ddg
    for edge in ddg.edges():
        if edge.is_flow:
            continue
        if edge.src not in result.placements or edge.dst not in result.placements:
            continue
        slack = dependence_slack(
            ddg,
            edge,
            result.placements,
            result.ii,
            result.latencies,
            result.machine,
        )
        if slack < 0:
            # First offending instance pair: dst iteration omega reads
            # "before" src iteration 0 has retired.
            first = min(edge.omega, max(0, iterations - 1))
            cycle = result.placements[edge.dst].time + first * result.ii
            report.problems.append(
                f"cycle {cycle}: ordering violated on {edge!r} "
                f"(slack {slack})"
            )


def _check_link_writes(
    link_writes: List[Tuple[int, int, int]],
    machine,
    report: SimReport,
) -> None:
    """Per-cycle mirror of the checker's link-bandwidth rule: values
    entering one directed CQRF per cycle must fit its write ports."""
    ports = machine.cqrf.write_ports if machine.is_clustered else 0
    if ports <= 0:
        return
    per_cycle: Dict[Tuple[int, int, int], int] = {}
    for event in link_writes:
        per_cycle[event] = per_cycle.get(event, 0) + 1
    for (cycle, writer, reader), count in sorted(per_cycle.items()):
        if count > ports:
            report.problems.append(
                f"cycle {cycle}: {count} values enter cqrf[c{writer}->"
                f"c{reader}] (write ports {ports})"
            )


def _run_fifo(
    write_events: List[Tuple[int, StreamKey, int]],
    read_events: List[Tuple[int, StreamKey, int]],
    streams: Dict[StreamKey, deque],
    expected_next: Dict[StreamKey, int],
    report: SimReport,
) -> None:
    # Merge events in time order; writes land before reads of the same
    # cycle (a value written at T can be consumed at T: full bypass, as
    # guaranteed by the latency model).
    events = [(*w, 0) for w in write_events] + [(*r, 1) for r in read_events]
    events.sort(key=lambda e: (e[0], e[3]))
    for cycle, key, instance, is_read in events:
        queue = streams[key]
        if not is_read:
            queue.append(instance)
            if len(queue) > report.max_queue_occupancy:
                report.max_queue_occupancy = len(queue)
            continue
        if not queue:
            report.problems.append(
                f"cycle {cycle}: read from empty stream {key} "
                f"(expected instance {instance})"
            )
            continue
        front = queue.popleft()
        if front != instance:
            report.problems.append(
                f"cycle {cycle}: FIFO order broken on stream {key}: "
                f"popped instance {front}, expected {instance}"
            )


def _check_depths(allocation: QueueAllocation, report: SimReport) -> None:
    for violation in allocation.violations:
        report.problems.append(f"queue overflow: {violation}")
