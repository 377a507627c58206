"""VLIW program construction from a modulo schedule.

A modulo schedule with initiation interval II and stage count SC executes
as:

* **prologue** — cycles ``0 .. (SC-1)*II - 1``: the pipeline fills, one new
  iteration entering every II cycles;
* **kernel** — II instruction words issued repeatedly; the word at row
  ``r`` holds every operation with ``time % II == r``, each annotated with
  its stage ``time // II`` (the iteration offset it belongs to);
* **epilogue** — ``(SC-1)*II`` cycles draining the last SC-1 iterations.

Functional-unit instances are bound per (cluster, kind, row) in op-id
order; the schedule checker has already guaranteed capacity.

:func:`build_program` is linear in the instances it lists.  The
allocation's lifetime lookup is built once for all operand labels, and
each ramp listing is one pass over the ``(op, iteration)`` instances of
the run: instance ``i`` of an op placed at ``t`` issues at
``t + i * II``, so it is binned straight into that cycle's word.  Ops
are visited in id order, so every word lists its bindings in op-id
order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..errors import CodegenError
from ..ir.operations import Operation
from ..machine.fu import FUSlot
from ..registers.queues import QueueAllocation, QueueAssignment
from ..scheduling.result import ScheduleResult


@dataclass(frozen=True)
class SlotBinding:
    """One operation bound to a functional unit in the kernel."""

    op_id: int
    opcode: str
    fu: FUSlot
    row: int
    stage: int
    operands: Tuple[str, ...] = ()

    def render(self) -> str:
        args = ", ".join(self.operands)
        return f"{self.fu}: v{self.op_id} = {self.opcode}({args}) .s{self.stage}"


@dataclass(frozen=True)
class CycleIssue:
    """Operations issued in one ramp (prologue/epilogue) cycle."""

    cycle: int
    bindings: Tuple[SlotBinding, ...]


@dataclass
class VLIWProgram:
    """Complete pipelined program for one loop.

    ``ramp_iterations`` records how many iterations the prologue/epilogue
    listings were generated for (``min(stage_count, requested)``); the
    execution oracle replays the program for any run depth by reusing the
    steady-state ramp pattern, but the listings themselves are exact only
    for a run of that many iterations.
    """

    loop_name: str
    machine_name: str
    ii: int
    stage_count: int
    kernel: List[List[SlotBinding]]  # one list per row 0..II-1
    prologue: List[CycleIssue] = field(default_factory=list)
    epilogue: List[CycleIssue] = field(default_factory=list)
    ramp_iterations: int = 0

    @property
    def kernel_ops(self) -> int:
        return sum(len(row) for row in self.kernel)

    @property
    def prologue_cycles(self) -> int:
        return min(self.stage_count - 1, self.ramp_iterations or self.stage_count) * self.ii

    def row(self, index: int) -> List[SlotBinding]:
        if not 0 <= index < self.ii:
            raise CodegenError(f"kernel row {index} out of range [0, {self.ii})")
        return self.kernel[index]


def _operand_labels(
    op: Operation,
    lookup: Dict[Tuple[int, int, int], QueueAssignment],
) -> Tuple[str, ...]:
    labels = []
    for index, src in enumerate(op.srcs):
        if src.is_external:
            labels.append(src.symbol)
            continue
        base = f"v{src.producer}"
        if src.omega:
            base += f"@-{src.omega}"
        assignment = lookup.get((src.producer, op.op_id, index))
        if assignment is not None:
            base += f"<{assignment.label}>"
        labels.append(base)
    return tuple(labels)


def build_program(
    result: ScheduleResult,
    allocation: Optional[QueueAllocation] = None,
    ramp_iterations: Optional[int] = None,
) -> VLIWProgram:
    """Build the VLIW program (kernel + ramp listings) for *result*.

    ``ramp_iterations`` bounds how many iterations the prologue/epilogue
    listings assume; by default the full stage count is used.
    """
    ii = result.ii
    stage_count = result.stage_count
    lookup = allocation.by_lifetime() if allocation is not None else {}
    # Bind FU instances: per (cluster, kind, row), op-id order.
    cell_ops: Dict[Tuple[int, int, int], List[Operation]] = {}
    for op_id, placement in sorted(result.placements.items()):
        op = result.ddg.op(op_id)
        cell = (placement.cluster, op.fu_kind.index, placement.time % ii)
        cell_ops.setdefault(cell, []).append(op)

    bindings: Dict[int, SlotBinding] = {}
    units: Dict[Tuple[int, int, int], FUSlot] = {}  # one per unit, shared by rows
    for (cluster, kind_index, row), ops in cell_ops.items():
        kind = ops[0].fu_kind
        capacity = result.machine.fu_in_cluster(cluster, kind)
        if len(ops) > capacity:
            raise CodegenError(
                f"row {row} cluster {cluster} {kind.value}: "
                f"{len(ops)} ops for {capacity} units"
            )
        for fu_index, op in enumerate(ops):
            fu = units.get((cluster, kind_index, fu_index))
            if fu is None:
                fu = units[(cluster, kind_index, fu_index)] = FUSlot(
                    cluster, kind, fu_index
                )
            bindings[op.op_id] = SlotBinding(
                op_id=op.op_id,
                opcode=op.opcode.value,
                fu=fu,
                row=row,
                stage=result.placements[op.op_id].time // ii,
                operands=_operand_labels(op, lookup),
            )

    # Visiting cells in (cluster, kind) order lists each word in FU
    # order (``FUSlot.sort_key``).
    kernel: List[List[SlotBinding]] = [[] for _ in range(ii)]
    for cell in sorted(cell_ops):
        kernel[cell[2]].extend(bindings[op.op_id] for op in cell_ops[cell])

    if ramp_iterations is not None and ramp_iterations < 1:
        raise CodegenError(
            f"ramp_iterations must be >= 1, got {ramp_iterations}"
        )
    ramp = stage_count if ramp_iterations is None else min(stage_count, ramp_iterations)
    # For a run of n iterations the fill phase ends where the drain phase
    # begins: at cycle min(SC - 1, n) * II.  Spanning the full
    # (SC - 1) * II prologue when n < SC - 1 would re-list issues the
    # drain phase (which starts at n * II) also covers — the short-run
    # double-issue bug the execution oracle flushed out.
    prologue = _ramp_listing(
        result, bindings, ramp, 0, min(stage_count - 1, ramp) * ii
    )
    epilogue = _ramp_listing(
        result, bindings, ramp, ramp * ii, (ramp + stage_count - 1) * ii
    )
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


def _ramp_listing(
    result: ScheduleResult,
    bindings: Dict[int, SlotBinding],
    iterations: int,
    start: int,
    end: int,
) -> List[CycleIssue]:
    """Issue listing of cycles ``start .. end - 1`` for a run of
    *iterations* iterations: every instance ``t + i * II`` in the window,
    binned by cycle in one pass over the ``(op, iteration)`` instances."""
    ii = result.ii
    words: Dict[int, List[SlotBinding]] = {}
    for op_id, placement in sorted(result.placements.items()):
        binding = bindings[op_id]
        # First iteration whose instance reaches the window.
        iteration = max(0, -((placement.time - start) // ii))
        cycle = placement.time + iteration * ii
        while iteration < iterations and cycle < end:
            words.setdefault(cycle, []).append(binding)
            iteration += 1
            cycle += ii
    return [CycleIssue(cycle, tuple(words[cycle])) for cycle in sorted(words)]
