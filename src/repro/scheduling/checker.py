"""Independent schedule validation.

The checker re-derives every constraint from scratch (it shares no state
with the schedulers), so scheduler bugs cannot hide behind their own
bookkeeping.  It enforces:

1. completeness — every operation placed exactly once, at time >= 0;
2. capability — each operation sits on a cluster that has a unit of its
   functional-unit kind;
3. resources — no MRT cell over capacity;
4. dependences — ``t(dst) >= t(src) + latency - II * omega`` for every
   edge, with the latency resolved through the *shared* timing helper
   (:func:`repro.scheduling.timing.dependence_slack`), so the checker and
   the execution oracle can never silently disagree on edge cost;
5. communication — every flow edge connects clusters the machine's
   topology deems adjacent (any registered interconnect);
6. fan-out — at most 2 consumer references per value on clustered machines
   (the single-use property DMS relies on for queue mapping).

Two derived-shape rules ride along:

* II/stage-count consistency — ``II >= 1`` and the result's advertised
  ``stage_count`` equals ``max(t) // II + 1`` recomputed from the
  placements (a result object whose metadata disagrees with its own
  placements poisons every downstream cycle model);
* link bandwidth — when the machine's CQRF declares a finite
  ``write_ports`` count, the flow values entering any directed cluster
  link per MRT row must fit it (mirrored per cycle by the oracle).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..errors import ValidationError
from ..ir.opcodes import FUKind
from .result import ScheduleResult
from .timing import dependence_slack, edge_ready_latency


@dataclass
class ValidationReport:
    """Outcome of a schedule check."""

    loop_name: str
    problems: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems

    def raise_if_failed(self) -> None:
        if self.problems:
            summary = "; ".join(self.problems[:10])
            more = f" (+{len(self.problems) - 10} more)" if len(self.problems) > 10 else ""
            raise ValidationError(
                f"schedule for {self.loop_name!r} invalid: {summary}{more}"
            )


def check_schedule(result: ScheduleResult) -> ValidationReport:
    """Validate *result* and return a report (never raises)."""
    report = ValidationReport(result.loop_name)
    ddg = result.ddg
    machine = result.machine
    ii = result.ii
    placements = result.placements

    # 0. Shape: II and the advertised stage count must agree with the
    # placements themselves.  For a plain ScheduleResult the stage count
    # is derived and always consistent; the rule exists for subclasses
    # and deserialised/stale result metadata, where a wrong SC silently
    # corrupts every downstream ramp/cycle model (see the LyingResult
    # mutant in the mutation-kill suite).
    if ii < 1:
        report.problems.append(f"initiation interval {ii} < 1")
        return report
    if placements:
        max_time = max(p.time for p in placements.values())
        expected_sc = max_time // ii + 1
        if result.stage_count != expected_sc:
            report.problems.append(
                f"stage count {result.stage_count} != max(t)//II + 1 = "
                f"{expected_sc} (max time {max_time}, II {ii})"
            )

    # 1. Completeness.
    scheduled = set(placements)
    ops = set(ddg.op_ids)
    for missing in sorted(ops - scheduled):
        report.problems.append(f"op {missing} not scheduled")
    for phantom in sorted(scheduled - ops):
        report.problems.append(f"placement for unknown op {phantom}")

    # MRT cells keyed by FUKind.index: keying a cell hashes no enum.
    kinds = tuple(FUKind)
    usage: Dict[Tuple[int, int, int], int] = {}
    for op_id in sorted(scheduled & ops):
        placement = placements[op_id]
        op = ddg.op(op_id)
        if placement.time < 0:
            report.problems.append(f"op {op_id} at negative time {placement.time}")
        if not 0 <= placement.cluster < machine.n_clusters:
            report.problems.append(
                f"op {op_id} on invalid cluster {placement.cluster}"
            )
            continue
        # 2. Capability.
        if machine.fu_in_cluster(placement.cluster, op.fu_kind) == 0:
            report.problems.append(
                f"op {op_id} ({op.fu_kind.value}) on cluster "
                f"{placement.cluster} without such a unit"
            )
        cell = (placement.cluster, op.fu_kind.index, placement.time % ii)
        usage[cell] = usage.get(cell, 0) + 1

    # 3. Resources.
    for (cluster, index, row), count in sorted(
        usage.items(), key=lambda item: (item[0][0], kinds[item[0][1]].value, item[0][2])
    ):
        kind = kinds[index]
        capacity = machine.fu_in_cluster(cluster, kind)
        if count > capacity:
            report.problems.append(
                f"MRT cell (c{cluster}, {kind.value}, row {row}) holds "
                f"{count} ops, capacity {capacity}"
            )

    # 4. Dependences and 5. communication.
    topology = machine.topology

    def in_range(placement) -> bool:
        return 0 <= placement.cluster < machine.n_clusters

    for edge in ddg.edges():
        if edge.src not in placements or edge.dst not in placements:
            continue
        src, dst = placements[edge.src], placements[edge.dst]
        if not (in_range(src) and in_range(dst)):
            continue  # already reported as an invalid cluster
        if dependence_slack(
            ddg, edge, placements, ii, result.latencies, machine
        ) < 0:
            report.problems.append(
                f"dependence violated: {edge!r} with t({edge.src})={src.time}, "
                f"t({edge.dst})={dst.time}, II={ii}"
            )
        if edge.communicates and edge.src != edge.dst:
            if not topology.adjacent(src.cluster, dst.cluster):
                report.problems.append(
                    f"communication conflict: flow {edge.src}->{edge.dst} "
                    f"between clusters {src.cluster} and {dst.cluster}"
                )

    # 6. Fan-out discipline on clustered machines.
    if machine.is_clustered:
        for op_id in ddg.op_ids:
            fanout = ddg.flow_fanout(op_id)
            if fanout > 2:
                report.problems.append(
                    f"op {op_id} has fan-out {fanout} > 2 on a clustered machine"
                )

    # 7. Per-link communication bandwidth (CQRF write ports).
    _check_link_bandwidth(result, report)
    return report


def _check_link_bandwidth(result: ScheduleResult, report: ValidationReport) -> None:
    """Flow values entering a directed cluster link per MRT row must fit
    the CQRF's write-port count (0 ports = unconstrained).

    In steady state every cross-cluster flow edge delivers one value per
    II cycles, landing in the CQRF at ``(t(src) + latency) % II``; rows
    with more landings than ports cannot be sustained by the hardware.
    The execution oracle mirrors this per actual cycle.
    """
    machine = result.machine
    ports = machine.cqrf.write_ports
    if not machine.is_clustered or ports <= 0:
        return
    ddg = result.ddg
    placements = result.placements
    ii = result.ii
    landings: Dict[Tuple[int, int, int], int] = {}
    for op_id in ddg.op_ids:
        if op_id not in placements:
            continue
        src = placements[op_id]
        # One landing per operand *reference* (each reference is its own
        # queue), matching the oracle's per-cycle count exactly.
        for (consumer_id, _index, _omega), edge in ddg.flow_succ_ref_edges(
            op_id
        ):
            if consumer_id not in placements:
                continue
            dst = placements[consumer_id]
            if src.cluster == dst.cluster:
                continue
            latency = edge_ready_latency(
                ddg,
                edge,
                result.latencies,
                src_cluster=src.cluster,
                dst_cluster=dst.cluster,
                machine=machine,
            )
            row = (src.time + latency) % ii
            key = (src.cluster, dst.cluster, row)
            landings[key] = landings.get(key, 0) + 1
    for (writer, reader, row), count in sorted(landings.items()):
        if count > ports:
            report.problems.append(
                f"link bandwidth exceeded: {count} values enter "
                f"cqrf[c{writer}->c{reader}] at row {row} "
                f"(write ports {ports})"
            )


def validate_schedule(result: ScheduleResult) -> None:
    """Validate *result*, raising :class:`ValidationError` on any problem."""
    check_schedule(result).raise_if_failed()
