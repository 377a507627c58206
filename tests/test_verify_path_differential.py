"""Differential test: the linear-time verify path against the loops it replaced.

The reference implementations below are the verify path as first
written: ramp listings that scan every (cycle x op x iteration) triple,
an oracle loop that routes operands through closures and hashes
``(file id, queue index)`` keys and checks ordering edges on a hashed
``(op, iteration)`` issue map, and a sequential run that re-resolves
every operand and opcode per instance.  The production path must agree
with them exactly:

* :func:`build_program` returns an equal :class:`VLIWProgram`;
* :func:`execute_program` reports the same ``issued``,
  ``max_queue_occupancy``, ``store_streams`` and ``problems`` (in order:
  the problem strings are the fuzzer's kill signal);
* :func:`verify_compiled` matches the same number of stores;

over the kernel suite x every topology x {2, 4, 8} clusters at full and
short ramp, over seeded fuzz mutants of those schedules and of the fuzz
population's memory-edge loops, and over hand-broken programs and
allocations that reach the problem paths the mutants cannot.
"""

from __future__ import annotations

import contextlib
import dataclasses
import heapq
import math
from collections import deque
from typing import Dict, List, Optional, Tuple

import numpy as np
import pytest

from repro.api import CompilationRequest, CompiledLoop, Toolchain
from repro.codegen.kernel import CycleIssue, SlotBinding, VLIWProgram, build_program
from repro.errors import CodegenError, SimulationError
from repro.ir import LoopBuilder
from repro.ir.opcodes import OpCode
from repro.machine import clustered_vliw, unclustered_vliw
from repro.machine.cqrf import LRFId, QueueFileSpec
from repro.machine.fu import FUSlot
from repro.registers.queues import QueueAllocation, allocate_queues
from repro.scheduling.checker import check_schedule
from repro.scheduling.result import ScheduleResult
from repro.scheduling.schedule import Placement
from repro.scheduling.timing import dependence_slack, edge_ready_latency
from repro.simulator.semantics import (
    SequentialRun,
    ValueModel,
    _evaluation_order,
    _hash_unit,
    default_load_token,
)
from repro.validate import oracle
from repro.validate.fuzz import FUZZ_SPEC, MUTATIONS
from repro.validate.oracle import OracleReport, execute_program, verify_compiled
from repro.workloads import KERNELS, make_kernel
from repro.workloads.synthetic import synthetic_loop

from .conftest import build_fanout_loop, build_reduction_loop, build_stream_loop

TOPOLOGIES = ("ring", "linear", "mesh", "torus", "crossbar")
CLUSTER_COUNTS = (2, 4, 8)
_POISON = float("nan")


# ----------------------------------------------------------------------
# Reference codegen: per-op lifetime lookups, triple-scan ramp listings
# ----------------------------------------------------------------------


def _operand_labels(result, op_id, allocation) -> Tuple[str, ...]:
    lookup = allocation.by_lifetime() if allocation is not None else {}
    op = result.ddg.op(op_id)
    labels = []
    for index, src in enumerate(op.srcs):
        if src.is_external:
            labels.append(src.symbol)
            continue
        base = f"v{src.producer}"
        if src.omega:
            base += f"@-{src.omega}"
        assignment = lookup.get((src.producer, op_id, index))
        if assignment is not None:
            base += f"<{assignment.label}>"
        labels.append(base)
    return tuple(labels)


def _ramp_cycles(result, bindings, cycles, first_iteration, iterations):
    issues = []
    for cycle in cycles:
        row = []
        for op_id, placement in sorted(result.placements.items()):
            for iteration in range(first_iteration, iterations):
                if placement.time + iteration * result.ii == cycle:
                    row.append(bindings[op_id])
        if row:
            issues.append(CycleIssue(cycle, tuple(row)))
    return issues


def _drain_cycles(result, bindings, iterations):
    ii = result.ii
    start = iterations * ii
    end = (iterations + result.stage_count - 1) * ii
    issues = []
    for cycle in range(start, end):
        row = []
        for op_id, placement in sorted(result.placements.items()):
            for iteration in range(iterations):
                if placement.time + iteration * ii == cycle:
                    row.append(bindings[op_id])
        if row:
            issues.append(CycleIssue(cycle, tuple(row)))
    return issues


def reference_build_program(result, allocation=None, ramp_iterations=None):
    ii = result.ii
    stage_count = result.stage_count
    cell_ops = {}
    for op_id, placement in sorted(result.placements.items()):
        op = result.ddg.op(op_id)
        cell = (placement.cluster, op.fu_kind, placement.time % ii)
        cell_ops.setdefault(cell, []).append(op_id)
    bindings = {}
    for (cluster, kind, row), op_ids in cell_ops.items():
        capacity = result.machine.fu_in_cluster(cluster, kind)
        if len(op_ids) > capacity:
            raise CodegenError(
                f"row {row} cluster {cluster} {kind.value}: "
                f"{len(op_ids)} ops for {capacity} units"
            )
        for fu_index, op_id in enumerate(op_ids):
            placement = result.placements[op_id]
            bindings[op_id] = SlotBinding(
                op_id=op_id,
                opcode=result.ddg.op(op_id).opcode.value,
                fu=FUSlot(cluster, kind, fu_index),
                row=row,
                stage=placement.time // ii,
                operands=_operand_labels(result, op_id, allocation),
            )
    kernel = [[] for _ in range(ii)]
    for binding in bindings.values():
        kernel[binding.row].append(binding)
    for row in kernel:
        row.sort(key=lambda b: b.fu.sort_key)
    if ramp_iterations is not None and ramp_iterations < 1:
        raise CodegenError(f"ramp_iterations must be >= 1, got {ramp_iterations}")
    ramp = stage_count if ramp_iterations is None else min(stage_count, ramp_iterations)
    prologue = _ramp_cycles(
        result, bindings, range(min(stage_count - 1, ramp) * ii), 0, ramp
    )
    epilogue = _drain_cycles(result, bindings, ramp)
    return VLIWProgram(
        loop_name=result.loop_name,
        machine_name=result.machine.name,
        ii=ii,
        stage_count=stage_count,
        kernel=kernel,
        prologue=prologue,
        epilogue=epilogue,
        ramp_iterations=ramp,
    )


# ----------------------------------------------------------------------
# Reference values: per-instance opcode dispatch and operand resolution
# ----------------------------------------------------------------------

_TWO_ARG = {
    OpCode.ADD: lambda a, b: a + b,
    OpCode.SUB: lambda a, b: a - b,
    OpCode.MUL: lambda a, b: a * b,
    OpCode.DIV: lambda a, b: a / b,
    OpCode.MIN: min,
    OpCode.MAX: max,
    OpCode.CMP: lambda a, b: 1.0 if a > b else 0.0,
    OpCode.AND: lambda a, b: (a * b) / (a + b),
    OpCode.OR: lambda a, b: a + b - (a * b) / (a + b),
    OpCode.XOR: lambda a, b: abs(a - b) + 1.0,
    OpCode.SHL: lambda a, b: a * (1.0 + b / 8.0),
    OpCode.SHR: lambda a, b: a / (1.0 + b / 8.0),
}

_ONE_ARG = {
    OpCode.NEG: lambda a: -a,
    OpCode.ABS: abs,
    OpCode.SQRT: lambda a: math.sqrt(abs(a)),
    OpCode.COPY: lambda a: a,
    OpCode.MOVE: lambda a: a,
}


def reference_compute(model: ValueModel, op, args, iteration):
    if op.opcode == OpCode.LOAD:
        return _hash_unit(
            model.load_token(op), model.iteration_of(op, iteration), model.input_salt
        )
    if op.opcode in _ONE_ARG:
        return _ONE_ARG[op.opcode](args[0])
    if op.opcode in _TWO_ARG:
        return _TWO_ARG[op.opcode](args[0], args[1])
    if op.opcode == OpCode.SELECT:
        return args[1] if args[0] > 0.5 else args[2]
    raise SimulationError(f"no semantics for {op.opcode}")


def reference_sequential_run(ddg, iterations):
    model = ValueModel(ddg)
    values = {}
    run = SequentialRun(iterations)

    def operand_value(op, index, iteration):
        src = op.srcs[index]
        if src.is_external:
            return model.external_value(src.symbol)
        producer_iter = iteration - src.omega
        if producer_iter < 0:
            return model.seed_value(src.producer, producer_iter)
        return values[(src.producer, producer_iter)]

    for iteration in range(iterations):
        for op_id in _evaluation_order(ddg):
            op = ddg.op(op_id)
            args = [operand_value(op, i, iteration) for i in range(len(op.srcs))]
            if op.opcode == OpCode.STORE:
                run.store_streams.setdefault(op_id, []).append(args[0])
                run.store_tokens[op_id] = default_load_token(op)
                continue
            values[(op_id, iteration)] = reference_compute(model, op, args, iteration)
    return run


# ----------------------------------------------------------------------
# Reference oracle: closure routing over hashed queue keys
# ----------------------------------------------------------------------


def reference_enumerate_issues(program, iterations, report):
    ii = program.ii
    sc = program.stage_count
    ramp = program.ramp_iterations or min(sc, iterations)
    if ramp != min(sc, iterations):
        report.problems.append(
            f"program ramp listings cover {ramp} iteration(s); a "
            f"{iterations}-iteration run needs {min(sc, iterations)}"
        )
        return []
    issues = []

    def place(cycle, binding, phase):
        issue_time = binding.stage * ii + binding.row
        offset = cycle - issue_time
        if offset % ii or not 0 <= offset // ii < iterations:
            report.problems.append(
                f"{phase} lists v{binding.op_id} at cycle {cycle}, which is "
                f"no iteration of a {iterations}-iteration run "
                f"(t={issue_time}, II={ii})"
            )
            return
        issues.append((cycle, offset // ii, binding))

    for cycle_issue in program.prologue:
        for binding in cycle_issue.bindings:
            place(cycle_issue.cycle, binding, "prologue")
    for reissue in range(sc - 1, iterations):
        for row, bindings in enumerate(program.kernel):
            for binding in bindings:
                place(reissue * ii + row, binding, "kernel")
    shift = (iterations - ramp) * ii
    for cycle_issue in program.epilogue:
        for binding in cycle_issue.bindings:
            place(cycle_issue.cycle + shift, binding, "epilogue")
    return issues


def reference_check_exactness(issues, ddg, iterations, report):
    seen = {}
    for _cycle, iteration, binding in issues:
        key = (binding.op_id, iteration)
        seen[key] = seen.get(key, 0) + 1
    for (op_id, iteration), count in sorted(seen.items()):
        if op_id not in ddg:
            report.problems.append(f"program issues v{op_id}, which is not in the graph")
        elif count > 1:
            report.problems.append(f"v{op_id} iteration {iteration} issued {count} times")
    for op_id in ddg.op_ids:
        for iteration in range(iterations):
            if (op_id, iteration) not in seen:
                report.problems.append(f"v{op_id} iteration {iteration} never issued")


def reference_check_ordering(issues, ddg, latencies, iterations, report):
    issued_at = {
        (binding.op_id, iteration): cycle for cycle, iteration, binding in issues
    }
    for edge in ddg.edges():
        if edge.is_flow:
            continue
        latency = ddg.edge_latency(edge, latencies)
        for iteration in range(edge.omega, iterations):
            src = issued_at[(edge.src, iteration - edge.omega)]
            dst = issued_at[(edge.dst, iteration)]
            if dst - src < latency:
                report.problems.append(
                    f"cycle {dst}: ordering violated on {edge!r}: "
                    f"v{edge.dst} iteration {iteration} issues "
                    f"{latency - (dst - src)} cycle(s) early (v{edge.src} "
                    f"iteration {iteration - edge.omega} at cycle {src})"
                )
                break


def reference_execute_program(
    program, ddg, latencies, iterations, allocation=None, machine=None, model=None
):
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
    stages = [b.stage for row in program.kernel for b in row]
    if stages and program.stage_count != max(stages) + 1:
        report.problems.append(
            f"program stage count {program.stage_count} != 1 + max kernel "
            f"stage {max(stages)}"
        )
    issues = reference_enumerate_issues(program, iterations, report)
    reference_check_exactness(issues, ddg, iterations, report)
    if report.problems:
        return report
    reference_check_ordering(issues, ddg, latencies, iterations, report)

    by_lifetime = allocation.by_lifetime() if allocation is not None else None
    queue_of = {}
    depth_limit = {}
    clustered = machine is not None and machine.is_clustered

    def resolve_queue(producer, consumer, index):
        ref = (producer, consumer, index)
        key = queue_of.get(ref)
        if key is not None:
            return key
        if by_lifetime is None:
            key = ref
        else:
            assignment = by_lifetime.get(ref)
            if assignment is None:
                report.problems.append(
                    f"no queue assigned for v{producer} -> op {consumer} "
                    f"operand {index}"
                )
                key = ref
            else:
                key = (assignment.file_id, assignment.queue_index)
                if machine is not None:
                    spec = (
                        machine.cluster(assignment.file_id.cluster).lrf
                        if isinstance(assignment.file_id, LRFId)
                        else machine.cqrf
                    )
                    depth_limit[key] = spec.queue_depth
        queue_of[ref] = key
        return key

    if by_lifetime is not None:
        taken = {}
        for ref, assignment in by_lifetime.items():
            slot = (assignment.file_id, assignment.queue_index)
            if slot in taken:
                report.problems.append(
                    f"queue {assignment.label} assigned to two lifetimes: "
                    f"{taken[slot]} and {ref}"
                )
            taken[slot] = ref

    queues = {}

    def push(key, value):
        queue = queues.setdefault(key, deque())
        queue.append(value)
        if len(queue) > report.max_queue_occupancy:
            report.max_queue_occupancy = len(queue)
        limit = depth_limit.get(key)
        if limit is not None and len(queue) > limit:
            report.problems.append(
                f"queue {key[0]}:q{key[1]} holds {len(queue)} values (depth {limit})"
            )

    for consumer in ddg.operations():
        for index, src in enumerate(consumer.srcs):
            if src.is_external or not src.omega:
                continue
            key = resolve_queue(src.producer, consumer.op_id, index)
            for instance in range(-src.omega, 0):
                push(key, model.seed_value(src.producer, instance))

    bindings_cluster = {}
    for _cycle, _iteration, binding in issues:
        bindings_cluster.setdefault(binding.op_id, binding.fu.cluster)
    fanout_plan = {}

    def plan_for(op_id):
        plan = fanout_plan.get(op_id)
        if plan is not None:
            return plan
        producer_cluster = bindings_cluster.get(op_id)
        refs = ddg.flow_succ_ref_edges(op_id)
        if clustered and len(refs) > 2:
            report.problems.append(
                f"v{op_id} fans out to {len(refs)} queues "
                "(single-use discipline allows at most 2)"
            )
        plan = []
        for (consumer_id, index, _omega), edge in refs:
            key = resolve_queue(op_id, consumer_id, index)
            consumer_cluster = bindings_cluster.get(consumer_id)
            delay = edge_ready_latency(
                ddg,
                edge,
                latencies,
                src_cluster=producer_cluster,
                dst_cluster=consumer_cluster,
                machine=machine,
            )
            link = None
            if (
                producer_cluster is not None
                and consumer_cluster is not None
                and producer_cluster != consumer_cluster
            ):
                link = (producer_cluster, consumer_cluster)
            plan.append((key, delay, link))
        fanout_plan[op_id] = plan
        return plan

    issues.sort(key=lambda item: (item[0], item[2].fu.sort_key))
    pending = []
    sequence = 0
    ports = machine.cqrf.write_ports if clustered else 0
    link_load = {}

    def drain_until(cycle):
        while pending and pending[0][0] <= cycle:
            ready, _seq, key, value, link = heapq.heappop(pending)
            push(key, value)
            if link is not None and ports > 0:
                slot = (ready, link[0], link[1])
                link_load[slot] = link_load.get(slot, 0) + 1
                if link_load[slot] == ports + 1:
                    report.problems.append(
                        f"cycle {ready}: {ports + 1}+ values enter "
                        f"cqrf[c{link[0]}->c{link[1]}] "
                        f"(write ports {ports})"
                    )

    for cycle, iteration, binding in issues:
        drain_until(cycle)
        op = ddg.op(binding.op_id)
        report.issued += 1
        args = []
        for index, src in enumerate(op.srcs):
            if src.is_external:
                args.append(model.external_value(src.symbol))
                continue
            key = resolve_queue(src.producer, op.op_id, index)
            queue = queues.get(key)
            if not queue:
                report.problems.append(
                    f"cycle {cycle}: v{op.op_id} iteration {iteration} reads "
                    f"v{src.producer} (operand {index}) before it is ready"
                )
                args.append(_POISON)
                continue
            args.append(queue.popleft())
        if op.opcode == OpCode.STORE:
            report.store_streams.setdefault(op.op_id, []).append(args[0])
            continue
        value = reference_compute(model, op, args, iteration)
        for key, delay, link in plan_for(op.op_id):
            sequence += 1
            heapq.heappush(pending, (cycle + delay, sequence, key, value, link))
    drain_until(float("inf"))

    for consumer in ddg.operations():
        for index, src in enumerate(consumer.srcs):
            if src.is_external:
                continue
            key = resolve_queue(src.producer, consumer.op_id, index)
            left = len(queues.get(key, ()))
            if left != src.omega:
                report.problems.append(
                    f"stream v{src.producer} -> op {consumer.op_id} operand "
                    f"{index} drains to {left} values (expected {src.omega})"
                )
    return report


@contextlib.contextmanager
def reference_layers():
    """Route :func:`verify_compiled` through the reference layers."""
    saved = (oracle.build_program, oracle.execute_program, oracle.sequential_run)
    oracle.build_program = reference_build_program
    oracle.execute_program = reference_execute_program
    oracle.sequential_run = reference_sequential_run
    try:
        yield
    finally:
        oracle.build_program, oracle.execute_program, oracle.sequential_run = saved


# ----------------------------------------------------------------------
# Comparison helpers
# ----------------------------------------------------------------------


def _oracle_fields(report: OracleReport):
    # repr() compares floats bit-exactly and treats poisoned (NaN)
    # stores as equal to each other.
    streams = {k: [repr(v) for v in vs] for k, vs in report.store_streams.items()}
    return (
        report.issued,
        report.max_queue_occupancy,
        streams,
        list(report.problems),
    )


def assert_same_verify(compiled: CompiledLoop, iterations: Optional[int]):
    """Production and reference verify agree; returns the production report."""
    got = verify_compiled(compiled, iterations)
    with reference_layers():
        want = verify_compiled(compiled, iterations)
    assert _oracle_fields(got.oracle) == _oracle_fields(want.oracle)
    assert got.matched_stores == want.matched_stores
    assert got.problems == want.problems
    return got


def assert_same_execution(program, result, iterations, allocation, **kwargs):
    args = (program, result.ddg, result.latencies, iterations)
    kwargs = dict(allocation=allocation, machine=result.machine, **kwargs)
    got = execute_program(*args, **kwargs)
    want = reference_execute_program(*args, **kwargs)
    assert _oracle_fields(got) == _oracle_fields(want)
    return got


def _iterations(compiled: CompiledLoop, short: bool) -> int:
    result = compiled.result
    if short:
        return max(1, result.stage_count - 1)
    max_omega = max((edge.omega for edge in result.ddg.edges()), default=0)
    return max(result.stage_count + 2, max_omega + 2)


@pytest.fixture(scope="module")
def matrix() -> List[CompiledLoop]:
    toolchain = Toolchain.default()
    compiled = []
    for name in sorted(KERNELS):
        loop = make_kernel(name)
        for topology in TOPOLOGIES:
            for k in CLUSTER_COUNTS:
                machine = clustered_vliw(k, topology=topology)
                report = toolchain.compile(CompilationRequest(loop=loop, machine=machine))
                compiled.append(report.compiled)
    return compiled


def test_matrix_covers_every_kernel_topology_and_size(matrix):
    assert len(matrix) == len(KERNELS) * len(TOPOLOGIES) * len(CLUSTER_COUNTS) == 420


@pytest.mark.parametrize("short", [False, True], ids=["full-ramp", "short-ramp"])
def test_programs_equal_the_triple_scan_listings(matrix, short):
    for compiled in matrix:
        iterations = _iterations(compiled, short)
        got = build_program(compiled.result, compiled.allocation, ramp_iterations=iterations)
        want = reference_build_program(
            compiled.result, compiled.allocation, ramp_iterations=iterations
        )
        assert got == want, compiled.result.loop_name


@pytest.mark.parametrize("short", [False, True], ids=["full-ramp", "short-ramp"])
def test_verify_reports_equal_the_reference(matrix, short):
    matched = 0
    for compiled in matrix:
        report = assert_same_verify(compiled, _iterations(compiled, short))
        assert report.ok, report.all_problems
        matched += report.matched_stores
    assert matched > 0


def test_fuzz_mutants_get_the_same_verdicts(matrix):
    """Seeded schedule mutants reach the read-before-ready, depth,
    drain and divergence problem paths; every one must read the same."""
    kills: Dict[str, int] = {name: 0 for name in MUTATIONS}
    for position, compiled in enumerate(matrix[::6]):
        for offset, (name, mutate) in enumerate(sorted(MUTATIONS.items())):
            produced = mutate(np.random.default_rng([1999, position, offset]), compiled.result)
            if produced is None:
                continue
            mutant, _detail = produced
            loop = CompiledLoop(
                loop=compiled.loop,
                machine=mutant.machine,
                unroll_factor=compiled.unroll_factor,
                result=mutant,
                allocation=None,
            )
            report = assert_same_verify(loop, _iterations(compiled, short=False))
            kills[name] += not report.ok
    # Every mutation kind reached a problem path at least once.
    assert all(kills.values()), kills


def _past_slack(result, edge):
    """*result* with *edge*'s src moved past the edge's slack, on the
    first MRT row that keeps codegen possible (no cell over capacity)."""
    slack = dependence_slack(
        result.ddg,
        edge,
        result.placements,
        result.ii,
        result.latencies,
        result.machine,
    )
    old = result.placements[edge.src]
    for extra in range(result.ii):
        placements = dict(result.placements)
        placements[edge.src] = Placement(old.time + slack + 1 + extra, old.cluster)
        mutant = dataclasses.replace(result, placements=placements)
        if not any("MRT cell" in p for p in check_schedule(mutant).problems):
            return mutant
    return None


def test_memory_edge_mutants_get_the_same_verdicts():
    """The fuzz population's loops carry memory edges, which the kernel
    matrix has none of.  Each edge's src, pushed past the edge's slack,
    reaches the ordering problems."""
    ordering = 0
    for index in range(24):
        loop = synthetic_loop(index, seed=1999 + 7919, spec=FUZZ_SPEC)
        machine = clustered_vliw(2 + 2 * (index % 2))
        compiled = Toolchain.default().compile(
            CompilationRequest(loop=loop, machine=machine)
        ).compiled
        assert assert_same_verify(compiled, None).ok
        for edge in compiled.result.ddg.explicit_edges():
            mutant = _past_slack(compiled.result, edge)
            if mutant is None:
                continue
            report = assert_same_verify(
                dataclasses.replace(compiled, result=mutant, allocation=None),
                None,
            )
            ordering += any(
                f"ordering violated on {edge!r}" in p
                for p in report.oracle.problems
            )
    assert ordering >= 10, ordering


# ----------------------------------------------------------------------
# Hand-broken programs and allocations
# ----------------------------------------------------------------------


def _compiled(loop, machine):
    report = Toolchain.default().compile(CompilationRequest(loop=loop, machine=machine))
    return report.compiled


@pytest.fixture(scope="module")
def fir():
    return _compiled(make_kernel("fir_filter", taps=8), clustered_vliw(2))


def test_double_issue_and_omission_read_the_same(fir):
    result = fir.result
    n = 2
    program = build_program(result, fir.allocation, ramp_iterations=n)
    bindings = {b.op_id: b for row in program.kernel for b in row}
    doubled = dataclasses.replace(
        program,
        prologue=_ramp_cycles(result, bindings, range((result.stage_count - 1) * result.ii), 0, n),
    )
    assert not assert_same_execution(doubled, result, n, fir.allocation).ok
    victim = program.prologue[0]
    omitted = dataclasses.replace(
        program,
        prologue=[CycleIssue(victim.cycle, victim.bindings[1:])] + program.prologue[1:],
    )
    assert not assert_same_execution(omitted, result, n, fir.allocation).ok


def test_ramp_mismatch_and_stage_lie_read_the_same(fir):
    result = fir.result
    program = build_program(result, fir.allocation, ramp_iterations=2)
    assert not assert_same_execution(program, result, 6, fir.allocation).ok
    lying = dataclasses.replace(program, stage_count=program.stage_count + 1)
    assert not assert_same_execution(lying, result, 2, fir.allocation).ok


def test_misplaced_listing_entry_reads_the_same(fir):
    result = fir.result
    program = build_program(result, fir.allocation, ramp_iterations=4)
    first = program.epilogue[0]
    shifted = dataclasses.replace(
        program,
        epilogue=[CycleIssue(first.cycle + 1, first.bindings)] + program.epilogue[1:],
    )
    assert not assert_same_execution(shifted, result, 4, fir.allocation).ok


def test_allocation_faults_read_the_same():
    compiled = _compiled(build_reduction_loop(), clustered_vliw(4))
    result = compiled.result
    allocation = allocate_queues(result)
    iterations = _iterations(compiled, short=False)
    program = build_program(result, allocation, ramp_iterations=iterations)
    # A lifetime the allocation forgot: reported where it is first used.
    for dropped in range(len(allocation.assignments)):
        missing = dataclasses.replace(
            allocation,
            assignments=allocation.assignments[:dropped] + allocation.assignments[dropped + 1:],
        )
        assert not assert_same_execution(program, result, iterations, missing).ok
    # Two lifetimes on one queue.
    first, *rest = allocation.assignments
    if rest:
        shared = dataclasses.replace(
            rest[0], file_id=first.file_id, queue_index=first.queue_index
        )
        doubled = dataclasses.replace(allocation, assignments=[first, shared] + rest[1:])
        assert not assert_same_execution(program, result, iterations, doubled).ok


def test_missing_assignments_report_at_first_use(matrix):
    """With every assignment dropped, each reference is reported where it
    is first used: a seed push, a read ahead of its producer (mutants pull
    consumers early), or its producer's first value."""
    for position, compiled in enumerate(matrix[::5]):
        iterations = _iterations(compiled, short=False)
        results = [compiled.result]
        for seed in range(4):
            rng = np.random.default_rng([17, position, seed])
            results.append(MUTATIONS["shift"](rng, compiled.result)[0])
        empty = QueueAllocation(compiled.loop.name, assignments=[], files=[])
        for result in results:
            try:
                program = build_program(result, empty, ramp_iterations=iterations)
            except CodegenError:
                continue
            assert not assert_same_execution(program, result, iterations, empty).ok


def _manual(loop, machine, ii, placements) -> CompiledLoop:
    latencies = _compiled(build_stream_loop(), machine).result.latencies
    result = ScheduleResult(
        loop_name=loop.name,
        machine=machine,
        scheduler="manual",
        ii=ii,
        res_mii=ii,
        rec_mii=1,
        ddg=loop.ddg.copy(),
        placements=placements,
        latencies=latencies,
    )
    return CompiledLoop(
        loop=loop, machine=machine, unroll_factor=1, result=result, allocation=None
    )


def test_fanout_violation_reads_the_same():
    b = LoopBuilder("fanout3")
    x = b.load("x")
    for j in range(3):
        b.store(b.mul(x, f"c{j}"), f"y{j}")
    times = {0: (0, 0), 1: (2, 0), 3: (3, 1), 5: (4, 1), 2: (5, 0), 4: (6, 1), 6: (7, 1)}
    placements = {op: Placement(time=t, cluster=c) for op, (t, c) in times.items()}
    compiled = _manual(b.build(64), clustered_vliw(2), 3, placements)
    report = assert_same_verify(compiled, None)
    assert any("fans out" in p for p in report.all_problems)


def test_link_bandwidth_reads_the_same():
    b = LoopBuilder("two_flows")
    x = b.load("x")
    a = b.add("p", "q")
    b.store(b.add(x, "k"), "sx")
    b.store(b.add(a, "m"), "sa")
    times = {0: (0, 0), 1: (1, 0), 2: (2, 1), 3: (3, 1), 4: (3, 1), 5: (6, 1)}
    placements = {op: Placement(time=t, cluster=c) for op, (t, c) in times.items()}
    machine = clustered_vliw(2, cqrf=QueueFileSpec(write_ports=1))
    report = assert_same_verify(_manual(b.build(64), machine, 2, placements), None)
    assert any("write ports" in p for p in report.all_problems)


def test_unclustered_and_unallocated_runs_read_the_same():
    stream = _compiled(build_stream_loop(), unclustered_vliw(2))
    assert assert_same_verify(stream, None).ok
    compiled = _compiled(build_fanout_loop(consumers=3), clustered_vliw(2))
    result = compiled.result
    iterations = _iterations(compiled, short=False)
    program = build_program(result, compiled.allocation, ramp_iterations=iterations)
    assert assert_same_execution(program, result, iterations, None).ok
