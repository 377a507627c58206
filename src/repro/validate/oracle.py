"""The differential execution oracle.

This module executes an emitted :class:`~repro.codegen.kernel.VLIWProgram`
value by value — prologue listing, kernel re-issues, epilogue listing —
routing every operand through the FIFO queue the
:class:`~repro.registers.queues.QueueAllocation` actually assigned to it,
and compares the resulting store-value streams against
:func:`~repro.simulator.semantics.sequential_run` on the *original*
(pre-unroll, pre-single-use, pre-scheduling) loop.  Both executors share
one :class:`~repro.simulator.semantics.ValueModel`, so the comparison is
exact (``==`` on floats): any mismatch is a machine-model, scheduler,
allocator or codegen bug, never numeric noise.

What one ``verify_compiled`` call proves:

* the ramp listings and kernel re-issues cover every ``(op, iteration)``
  instance exactly once (no double-issue, no omission);
* every operand value is in its queue when the consumer issues (per-edge
  latency honoured, loop-carried seeds included);
* queue traffic respects the hardware: assignments exist for every
  lifetime, no two lifetimes share a queue, occupancy stays within both
  the allocated depth and the file's ``queue_depth``, producers respect
  the single-use fan-out discipline, and per-cycle CQRF writes fit the
  declared ``write_ports``;
* the values stored by the pipelined program bit-equal the sequential
  reference on the original iteration space (unroll mapping applied).

:func:`execute_program` is linear in the issues it executes.  It first
compiles the program into a dense plan: the issue list, sorted once by
``(cycle, FU order)``; integer queue ids, with one list of deques and
one list of depth limits; and per op its value function, a tuple of
operand reads (queue id or constant) and a tuple of fan-out targets
``(queue id, delay, link)``.  One loop then runs the issues.  Values in
flight wait in per-cycle arrival lists, delivered in cycle order and,
within a cycle, in production order.  Every check reports the same
problem text, in the same order, as a lazy walk of the program would:
the problem strings are what the fuzzer compares.
"""

from __future__ import annotations

import heapq
import sys
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..api.request import CompiledLoop
from ..codegen.kernel import SlotBinding, VLIWProgram, build_program
from ..errors import (
    AllocationError,
    CodegenError,
    DDGError,
    SimulationError,
    ValidationError,
)
from ..ir.ddg import DDG
from ..ir.opcodes import LatencyModel, OpCode
from ..ir.transforms import base_op_of
from ..machine.cqrf import LRFId
from ..machine.machine import MachineSpec
from ..registers.queues import QueueAllocation, QueueAssignment, allocate_queues
from ..scheduling.result import ScheduleResult
from ..scheduling.timing import edge_ready_latency
from ..simulator.semantics import (
    ValueModel,
    default_load_token,
    sequential_run,
)

#: Poison operand value substituted when a queue pop fails; keeps the
#: execution going so one bug yields one problem, not a cascade of crashes.
_POISON = float("nan")

#: Depth limit of a queue no hardware file bounds.
_UNBOUNDED = sys.maxsize


@dataclass
class OracleReport:
    """Outcome of one value-level program execution."""

    loop_name: str
    machine_name: str
    ii: int
    stage_count: int
    iterations: int
    issued: int = 0
    #: Measured makespan: the last completion cycle of the run.
    cycles_span: int = 0
    max_queue_occupancy: int = 0
    store_streams: Dict[int, List[float]] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems

    @property
    def cycles_model(self) -> int:
        """The analytic ramp model ``(n + SC - 1) * II`` the figures use."""
        return (self.iterations + self.stage_count - 1) * self.ii

    def raise_if_failed(self) -> None:
        if self.problems:
            summary = "; ".join(self.problems[:8])
            more = (
                f" (+{len(self.problems) - 8} more)"
                if len(self.problems) > 8
                else ""
            )
            raise ValidationError(
                f"execution oracle rejected {self.loop_name!r}: {summary}{more}"
            )


#: One issue of the run: ``(cycle, FU order, enumeration index,
#: iteration, op id)``.  Tuple order is execution order; the enumeration
#: index keeps ties (two bindings on one FU in one cycle) in listing order.
Issue = Tuple[int, Tuple[int, int, int], int, int, int]


def _enumerate_issues(
    program: VLIWProgram,
    ddg: DDG,
    iterations: int,
    report: OracleReport,
) -> Tuple[List[Issue], Dict[int, int]]:
    """All issues of an *iterations*-deep run, in execution order, with
    each op's cluster (from its first listed binding).

    The prologue and epilogue come from the program's ramp listings (the
    epilogue pattern shifts with the run depth in steady state); the
    kernel block re-issues for every steady-state cycle in between.
    Listing errors and exactness violations (an ``(op, iteration)``
    instance issued twice, never, or for an op outside the graph) are
    recorded as problems.
    """
    ii = program.ii
    sc = program.stage_count
    problems = report.problems
    issues: List[Issue] = []
    cluster_of: Dict[int, int] = {}
    # counts[op_id][i]: how often instance i of op_id issues.
    counts: Dict[int, List[int]] = {op_id: [0] * iterations for op_id in ddg.op_ids}

    # op id -> (binding, issue time, FU order, per-iteration counts) of
    # the last binding seen for it; listings reuse the kernel's bindings.
    last_seen: Dict[int, tuple] = {}

    def binding_info(binding: SlotBinding) -> tuple:
        op_id = binding.op_id
        fu = binding.fu
        cluster_of.setdefault(op_id, fu.cluster)
        seen = counts.get(op_id)
        if seen is None:
            seen = counts[op_id] = [0] * iterations
        info = last_seen[op_id] = (
            binding,
            binding.stage * ii + binding.row,
            fu.sort_key,
            seen,
        )
        return info

    def listing(words, phase: str) -> None:
        for cycle, bindings in words:
            for binding in bindings:
                info = last_seen.get(binding.op_id)
                if info is None or info[0] is not binding:
                    info = binding_info(binding)
                _, issue_time, order, seen = info
                iteration, rest = divmod(cycle - issue_time, ii)
                if rest or not 0 <= iteration < iterations:
                    problems.append(
                        f"{phase} lists v{binding.op_id} at cycle {cycle}, "
                        f"which is no iteration of a {iterations}-iteration "
                        f"run (t={issue_time}, II={ii})"
                    )
                    continue
                seen[iteration] += 1
                issues.append(
                    (cycle, order, len(issues), iteration, binding.op_id)
                )

    ramp = program.ramp_iterations or min(sc, iterations)
    if ramp != min(sc, iterations):
        # Nothing is listed: every instance is then reported missing.
        problems.append(
            f"program ramp listings cover {ramp} iteration(s); a "
            f"{iterations}-iteration run needs {min(sc, iterations)}"
        )
    else:
        shift = (iterations - ramp) * ii
        listing(((c.cycle, c.bindings) for c in program.prologue), "prologue")
        listing(
            (
                (reissue * ii + row, bindings)
                for reissue in range(sc - 1, iterations)
                for row, bindings in enumerate(program.kernel)
            ),
            "kernel",
        )
        listing(
            ((c.cycle + shift, c.bindings) for c in program.epilogue), "epilogue"
        )

    # Exactness: every op of the graph issues once per iteration.
    for op_id in sorted(counts):
        seen = counts[op_id]
        in_graph = op_id in ddg
        if in_graph and max(seen) <= 1:
            continue
        for iteration, count in enumerate(seen):
            if not count:
                continue
            if not in_graph:
                problems.append(
                    f"program issues v{op_id}, which is not in the graph"
                )
            elif count > 1:
                problems.append(
                    f"v{op_id} iteration {iteration} issued {count} times"
                )
    for op_id in ddg.op_ids:
        seen = counts[op_id]
        if 0 in seen:
            problems.extend(
                f"v{op_id} iteration {iteration} never issued"
                for iteration, count in enumerate(seen)
                if not count
            )
    issues.sort()
    return issues, cluster_of


def _check_ordering_edges(
    issues: List[Issue],
    ddg: DDG,
    latencies: LatencyModel,
    iterations: int,
    problems: List[str],
) -> None:
    """Check every explicit (non-flow) edge on the run's issue cycles.

    Memory, anti and output edges carry no value, so no queue pop and no
    store comparison can see them.  Every dst instance ``i`` whose src
    instance ``i - omega`` ran must issue at least the edge latency after
    it.  A violated edge gets one problem, at its first offending
    instance.  Runs only on an exact issue list: every instance of every
    op issued once.  Ordering edges never pay a link cost, so the
    clusters do not enter.
    """
    edges = ddg.explicit_edges()
    if not edges:
        return
    ends = {op_id for edge in edges for op_id in (edge.src, edge.dst)}
    issued_at: Dict[int, List[int]] = {op_id: [0] * iterations for op_id in ends}
    for cycle, _order, _index, iteration, op_id in issues:
        cycles = issued_at.get(op_id)
        if cycles is not None:
            cycles[iteration] = cycle
    for edge in edges:
        latency = edge_ready_latency(ddg, edge, latencies)
        src_at = issued_at[edge.src]
        dst_at = issued_at[edge.dst]
        for iteration in range(edge.omega, iterations):
            src = src_at[iteration - edge.omega]
            dst = dst_at[iteration]
            if dst < src + latency:
                problems.append(
                    f"cycle {dst}: ordering violated on {edge!r}: "
                    f"v{edge.dst} iteration {iteration} issues "
                    f"{src + latency - dst} cycle(s) early (v{edge.src} "
                    f"iteration {iteration - edge.omega} at cycle {src})"
                )
                break


def execute_program(
    program: VLIWProgram,
    ddg: DDG,
    latencies: LatencyModel,
    iterations: int,
    allocation: Optional[QueueAllocation] = None,
    machine: Optional[MachineSpec] = None,
    model: Optional[ValueModel] = None,
) -> OracleReport:
    """Execute *program* for *iterations* iterations, value by value.

    With an *allocation*, every operand reference flows through its
    assigned LRF/CQRF queue; without one (unclustered machines) each
    reference gets an anonymous FIFO.  Returns the report with the store
    value streams keyed by store op id; all violations are recorded as
    problems rather than raised.
    """
    if iterations < 1:
        raise SimulationError(f"iterations must be >= 1, got {iterations}")
    model = model or ValueModel(ddg)
    report = OracleReport(
        loop_name=program.loop_name,
        machine_name=program.machine_name,
        ii=program.ii,
        stage_count=program.stage_count,
        iterations=iterations,
    )
    problems = report.problems

    # The program's advertised stage count drives ramp length and stage
    # predication in hardware; it must agree with the kernel's own stage
    # annotations (a consistently shifted ramp still *executes* exactly,
    # so enumeration alone cannot see the lie).
    stages = [b.stage for row in program.kernel for b in row]
    if stages and program.stage_count != max(stages) + 1:
        problems.append(
            f"program stage count {program.stage_count} != 1 + max kernel "
            f"stage {max(stages)}"
        )

    issues, cluster_of = _enumerate_issues(program, ddg, iterations, report)
    if problems:
        return report
    _check_ordering_edges(issues, ddg, latencies, iterations, problems)

    # --- plan: dense queue ids, seeds, per-op reads and fan-out ------
    # Every operand reference (producer, consumer, operand index) maps
    # to a queue id: its assigned (file, queue) slot, shared if two
    # lifetimes were given one queue, or an anonymous queue of its own.
    queues: List[deque] = []
    labels: List[Optional[QueueAssignment]] = []  # named in depth problems
    limits: List[int] = []
    max_occupancy = 0

    def new_queue(assignment: Optional[QueueAssignment], limit: int) -> int:
        queues.append(deque())
        labels.append(assignment)
        limits.append(limit)
        return len(queues) - 1

    def push(qid: int, value: float) -> None:
        nonlocal max_occupancy
        queue = queues[qid]
        queue.append(value)
        held = len(queue)
        if held > max_occupancy:
            max_occupancy = held
        if held > limits[qid]:
            problems.append(
                f"queue {labels[qid].label} holds {held} values "
                f"(depth {limits[qid]})"
            )

    by_lifetime = allocation.by_lifetime() if allocation is not None else None
    queue_of: Dict[Tuple[int, int, int], int] = {}
    # slot -> (queue id, the last lifetime assigned to it)
    slots: Dict[Tuple[object, int], Tuple[int, Tuple[int, int, int]]] = {}
    for ref, assignment in (by_lifetime or {}).items():
        slot = (assignment.file_id, assignment.queue_index)
        owner = slots.get(slot)
        if owner is not None:
            problems.append(
                f"queue {assignment.label} assigned to two lifetimes: "
                f"{owner[1]} and {ref}"
            )
            qid = owner[0]
        elif machine is None:
            qid = new_queue(assignment, _UNBOUNDED)
        else:
            spec = (
                machine.cluster(assignment.file_id.cluster).lrf
                if isinstance(assignment.file_id, LRFId)
                else machine.cqrf
            )
            qid = new_queue(assignment, spec.queue_depth)
        slots[slot] = (qid, ref)
        queue_of[ref] = qid

    # A missing assignment is reported where its reference is first
    # used: a seed push, an operand read or its producer's first value.
    unreported: Dict[int, str] = {}

    def touch(qid: int) -> None:
        if qid in unreported:
            problems.append(unreported.pop(qid))

    # Per op, its operand reads: (queue id, constant, producer, operand
    # index), the queue id None for an external whose value is the
    # constant.  Loop-carried seeds (instances -omega .. -1) are pushed
    # before cycle 0, in operand order.
    reads_of: Dict[int, tuple] = {}
    # (queue id, producer, consumer, operand index, omega) per reference
    streams: List[Tuple[int, int, int, int, int]] = []
    for consumer in ddg.operations():
        reads = []
        for index, src in enumerate(consumer.srcs):
            if src.is_external:
                value = model.external_value(src.symbol)
                reads.append((None, value, None, index))
                continue
            ref = (src.producer, consumer.op_id, index)
            qid = queue_of.get(ref)
            if qid is None:
                qid = queue_of[ref] = new_queue(None, _UNBOUNDED)
                if by_lifetime is not None:
                    unreported[qid] = (
                        f"no queue assigned for v{src.producer} -> op "
                        f"{consumer.op_id} operand {index}"
                    )
            if src.omega:
                touch(qid)
                for instance in range(-src.omega, 0):
                    push(qid, model.seed_value(src.producer, instance))
            reads.append((qid, None, src.producer, index))
            streams.append((qid, src.producer, consumer.op_id, index, src.omega))
        reads_of[consumer.op_id] = tuple(reads)

    # Per op, its evaluator and fan-out: (queue id, delay, crossed link)
    # per consumer reference, the link only where write ports are
    # counted.  ``first_issue`` holds what an op's first value-producing
    # issue reports: a single-use fan-out violation, then its fan-out
    # queues' missing assignments.
    clustered = machine is not None and machine.is_clustered
    ports = machine.cqrf.write_ports if clustered else 0
    plans: Dict[int, tuple] = {}
    first_issue: Dict[int, Tuple[Optional[str], List[int]]] = {}
    for op in ddg.operations():
        op_id = op.op_id
        if op.opcode == OpCode.STORE:
            plans[op_id] = (reads_of[op_id], None, ())
            continue
        # Every op issued, so every op has a cluster.
        producer_cluster = cluster_of[op_id]
        refs = ddg.flow_succ_ref_edges(op_id)
        fanout = []
        for (consumer_id, index, _omega), edge in refs:
            consumer_cluster = cluster_of[consumer_id]
            delay = edge_ready_latency(
                ddg,
                edge,
                latencies,
                src_cluster=producer_cluster,
                dst_cluster=consumer_cluster,
                machine=machine,
            )
            link = None
            if ports and producer_cluster != consumer_cluster:
                link = (producer_cluster, consumer_cluster)
            fanout.append((queue_of[(op_id, consumer_id, index)], delay, link))
        wide = None
        if clustered and len(refs) > 2:
            wide = (
                f"v{op_id} fans out to {len(refs)} queues "
                "(single-use discipline allows at most 2)"
            )
        missing = [qid for qid, _, _ in fanout if qid in unreported]
        if wide or missing:
            first_issue[op_id] = (wide, missing)
        plans[op_id] = (reads_of[op_id], model.evaluator(op), tuple(fanout))

    # --- execution -----------------------------------------------------
    # Values in flight wait in per-cycle arrival lists; ``due`` is a heap
    # of the cycles that have one.  Within a cycle, values arrive in the
    # order they were produced.
    arrivals: Dict[int, List[Tuple[int, float, Optional[Tuple[int, int]]]]] = {}
    due: List[int] = []
    link_load: Dict[Tuple[int, int, int], int] = {}
    store_streams = report.store_streams

    def deliver(ready: int) -> None:
        for qid, value, link in arrivals.pop(ready):
            push(qid, value)
            if link is not None:
                slot = (ready, link[0], link[1])
                load = link_load[slot] = link_load.get(slot, 0) + 1
                if load == ports + 1:
                    problems.append(
                        f"cycle {ready}: {ports + 1}+ values enter "
                        f"cqrf[c{link[0]}->c{link[1]}] "
                        f"(write ports {ports})"
                    )

    for cycle, _order, _index, iteration, op_id in issues:
        while due and due[0] <= cycle:
            deliver(heapq.heappop(due))
        reads, evaluate, fanout = plans[op_id]
        args: List[float] = []
        for qid, constant, producer, index in reads:
            if qid is None:
                args.append(constant)
                continue
            if unreported:
                touch(qid)
            try:
                args.append(queues[qid].popleft())
            except IndexError:
                problems.append(
                    f"cycle {cycle}: v{op_id} iteration {iteration} reads "
                    f"v{producer} (operand {index}) before it is ready"
                )
                args.append(_POISON)
        if evaluate is None:
            store_streams.setdefault(op_id, []).append(args[0])
            continue
        value = evaluate(args, iteration)
        if first_issue and op_id in first_issue:
            wide, pending_queues = first_issue.pop(op_id)
            if wide:
                problems.append(wide)
            for qid in pending_queues:
                touch(qid)
        for qid, delay, link in fanout:
            ready = cycle + delay
            arriving = arrivals.get(ready)
            if arriving is None:
                arriving = arrivals[ready] = []
                heapq.heappush(due, ready)
            arriving.append((qid, value, link))
    while due:
        deliver(heapq.heappop(due))
    report.issued = len(issues)
    last_issue: Dict[int, int] = {}
    for cycle, _order, _index, _iteration, op_id in issues:
        last_issue[op_id] = cycle
    report.cycles_span = max(
        (
            cycle + latencies.latency(ddg.op(op_id).opcode)
            for op_id, cycle in last_issue.items()
        ),
        default=0,
    )
    report.max_queue_occupancy = max_occupancy

    # --- end-state audit ----------------------------------------------
    # After n iterations every reference queue must hold exactly its
    # omega values (the carried state iteration n would consume).
    for qid, producer, consumer_id, index, omega in streams:
        touch(qid)
        left = len(queues[qid])
        if left != omega:
            problems.append(
                f"stream v{producer} -> op {consumer_id} operand "
                f"{index} drains to {left} values (expected {omega})"
            )
    return report


# ----------------------------------------------------------------------
# Differential comparison against the original loop
# ----------------------------------------------------------------------


@dataclass
class DifferentialReport:
    """Oracle execution + store-stream comparison vs the original loop."""

    oracle: OracleReport
    matched_stores: int = 0
    problems: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.oracle.ok and not self.problems

    @property
    def all_problems(self) -> List[str]:
        return list(self.oracle.problems) + list(self.problems)

    def raise_if_failed(self) -> None:
        if not self.ok:
            summary = "; ".join(self.all_problems[:8])
            more = (
                f" (+{len(self.all_problems) - 8} more)"
                if len(self.all_problems) > 8
                else ""
            )
            raise ValidationError(
                f"differential oracle rejected "
                f"{self.oracle.loop_name!r}: {summary}{more}"
            )


def _unroll_hooks(base: DDG, factor: int):
    """(load_token, iteration_of) mapping a scheduled graph's original
    ops back to the base loop's streams and iteration space.

    Each op id is mapped to its ``(base op, copy)`` once.  Copy/move
    operations inserted by single-use rewriting or DMS chains never
    reach these hooks: the value model resolves identity chains to the
    original producer first.
    """
    span = factor * len(base.op_ids)
    origin: Dict[int, Tuple[int, int]] = {}

    def ensure_original(op) -> Tuple[int, int]:
        found = origin.get(op.op_id)
        if found is None:
            if op.op_id >= span:
                raise SimulationError(
                    f"op {op.op_id} ({op.opcode.value}) has no base-loop "
                    "counterpart (identity resolution should have removed it)"
                )
            found = origin[op.op_id] = base_op_of(base, op.op_id, factor)
        return found

    def token(op) -> str:
        base_id, _copy = ensure_original(op)
        return default_load_token(base.op(base_id))

    def iteration(op, j: int) -> int:
        return j * factor + ensure_original(op)[1]

    return token, iteration


def _failed_report(compiled: CompiledLoop, iterations: int, message: str) -> DifferentialReport:
    result = compiled.result
    oracle = OracleReport(
        loop_name=compiled.loop.name,
        machine_name=compiled.machine.name,
        ii=result.ii,
        stage_count=result.stage_count if result.ii >= 1 else 0,
        iterations=iterations,
        problems=[message],
    )
    return DifferentialReport(oracle=oracle)


def verify_compiled(
    compiled: CompiledLoop,
    iterations: Optional[int] = None,
) -> DifferentialReport:
    """Differentially verify one compiled loop, end to end.

    Builds the VLIW program (ramp listings sized to the run), executes it
    through the oracle, and bit-compares every store stream against
    ``sequential_run`` on the original loop body.  Never raises for
    schedule defects — they land in the report — but still raises for
    misuse (bad ``iterations``).
    """
    result = compiled.result
    base = compiled.loop.ddg
    factor = compiled.unroll_factor
    if result.ii < 1:
        return _failed_report(
            compiled,
            iterations or 1,
            f"initiation interval {result.ii} < 1",
        )
    if iterations is None:
        # Cover fill, at least two steady-state kernel re-issues and the
        # full drain, plus the largest distance of any edge: every
        # loop-carried seed is consumed, and every ordering edge relates
        # at least two instance pairs.
        ddg = result.ddg
        max_omega = max(
            max(
                (src.omega for op in ddg.operations() for src in op.srcs
                 if not src.is_external),
                default=0,
            ),
            max((edge.omega for edge in ddg.explicit_edges()), default=0),
        )
        iterations = max(result.stage_count + 2, max_omega + 2)
    if iterations < 1:
        raise SimulationError(f"iterations must be >= 1, got {iterations}")

    allocation = compiled.allocation
    if allocation is None and result.machine.is_clustered:
        try:
            allocation = allocate_queues(result)
        except AllocationError as err:
            return _failed_report(
                compiled, iterations, f"queue allocation failed: {err}"
            )
    # Depth violations are real but the program can still execute; carry
    # them into the report so value bugs surface alongside them.
    oracle_problems: List[str] = []
    if allocation is not None and allocation.violations:
        oracle_problems.append(
            "queue allocation exceeds hardware limits: "
            + "; ".join(allocation.violations[:4])
        )

    try:
        program = build_program(
            result, allocation, ramp_iterations=iterations
        )
    except (CodegenError, DDGError) as err:
        return _failed_report(compiled, iterations, f"codegen failed: {err}")

    token, iteration_of = _unroll_hooks(base, factor)
    model = ValueModel(result.ddg, load_token=token, iteration_of=iteration_of)
    oracle = execute_program(
        program,
        result.ddg,
        result.latencies,
        iterations,
        allocation=allocation,
        machine=result.machine,
        model=model,
    )
    oracle.problems = oracle_problems + oracle.problems
    report = DifferentialReport(oracle=oracle)

    reference = sequential_run(base, iterations * factor)
    base_stores = sorted(
        op.op_id for op in base.operations() if op.opcode == OpCode.STORE
    )
    final_stores = sorted(
        op.op_id for op in result.ddg.operations() if op.opcode == OpCode.STORE
    )
    span = factor * len(base.op_ids)
    seen_replicas: Dict[int, set] = {s: set() for s in base_stores}
    for store_id in final_stores:
        if store_id >= span:
            report.problems.append(
                f"store v{store_id} has no base-loop counterpart"
            )
            continue
        base_id, copy = base_op_of(base, store_id, factor)
        if base_id not in seen_replicas:
            report.problems.append(
                f"store v{store_id} maps to base op {base_id}, which is "
                "not a store"
            )
            continue
        seen_replicas[base_id].add(copy)
        expected = [
            reference.store_streams[base_id][j * factor + copy]
            for j in range(iterations)
        ]
        got = oracle.store_streams.get(store_id, [])
        if got == expected:
            report.matched_stores += 1
            continue
        if len(got) != len(expected):
            report.problems.append(
                f"store v{store_id}: {len(got)} values stored, "
                f"expected {len(expected)}"
            )
            continue
        index = next(
            i for i, (x, y) in enumerate(zip(got, expected)) if x != y
        )
        report.problems.append(
            f"store v{store_id} diverges at kernel iteration {index} "
            f"(original iteration {index * factor + copy}): "
            f"stored {got[index]!r}, expected {expected[index]!r}"
        )
    for base_id, copies in sorted(seen_replicas.items()):
        missing = sorted(set(range(factor)) - copies)
        if missing:
            report.problems.append(
                f"base store {base_id}: unrolled copies {missing} missing "
                "from the scheduled graph"
            )
    return report


def verify_loop(
    loop,
    machine: MachineSpec,
    iterations: Optional[int] = None,
    **request_kwargs,
) -> DifferentialReport:
    """Compile *loop* for *machine* with the default toolchain, then
    differentially verify the emitted program (convenience entry)."""
    from ..api import CompilationRequest, Toolchain

    report = Toolchain.default().compile(
        CompilationRequest(loop=loop, machine=machine, **request_kwargs)
    )
    return verify_compiled(report.compiled, iterations=iterations)


def _verify_job(job: Tuple[CompiledLoop, Optional[int]]) -> DifferentialReport:
    """Worker-side entry for :func:`verify_many` (module-level: picklable)."""
    compiled, iterations = job
    return verify_compiled(compiled, iterations=iterations)


def verify_many(
    jobs: Sequence[Tuple[CompiledLoop, Optional[int]]],
    workers: Optional[int] = None,
) -> List[DifferentialReport]:
    """Differentially verify many compiled loops, optionally in parallel.

    *jobs* is a sequence of ``(compiled, iterations)`` pairs (iterations
    ``None`` = the :func:`verify_compiled` default sizing).  With
    ``workers`` > 1 the verification fans across a process pool — the
    oracle phase of ``repro verify`` gets the same ``--workers`` speedup
    its compile phase already has.  Reports come back in job order.
    """
    from ..pools import job_map

    jobs = list(jobs)
    with job_map(workers, len(jobs)) as map_jobs:
        return list(map_jobs(_verify_job, jobs))
