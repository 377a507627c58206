"""The oracle's timing view of a run: issue counts, the measured span
against the analytic cycle model, the default run depth, the ordering-edge
check and the violations it reports."""

import dataclasses

import pytest

from repro.errors import SimulationError, ValidationError
from repro.ir import LoopBuilder
from repro.ir.transforms import single_use_ddg
from repro.machine import clustered_vliw, unclustered_vliw
from repro.scheduling import (
    DistributedModuloScheduler,
    IterativeModuloScheduler,
)
from repro.scheduling.result import ScheduleResult
from repro.scheduling.schedule import Placement
from repro.scheduling.timing import dependence_slack
from repro.validate import verify_compiled
from repro.workloads import make_kernel

from .conftest import (
    build_mem_edge_loop,
    build_reduction_loop,
    build_stream_loop,
    compile_for,
    compiled_from,
    mem_edge_mutant,
)


def ims_compiled(loop, k=2):
    result = IterativeModuloScheduler(unclustered_vliw(k)).schedule(loop.ddg.copy())
    return compiled_from(loop, result)


def dms_compiled(loop, clusters=4, transform=False):
    ddg = single_use_ddg(loop.ddg) if transform else loop.ddg.copy()
    result = DistributedModuloScheduler(clustered_vliw(clusters)).schedule(ddg)
    return compiled_from(loop, result)


def with_placements(compiled, placements):
    result = compiled.result
    broken = ScheduleResult(**{**result.__dict__, "placements": placements})
    return compiled_from(compiled.loop, broken)


class TestExecution:
    def test_cycle_model_agrees_with_span(self):
        compiled = ims_compiled(build_stream_loop())
        for iterations in (1, 3, 10, 50):
            report = verify_compiled(compiled, iterations).oracle
            assert report.ok, report.problems
            # The analytic ramp model and the measured makespan agree to
            # within one (drain) latency.
            assert report.cycles_span <= report.cycles_model + 8
            assert report.cycles_model >= report.cycles_span - 8

    def test_issue_counts(self):
        loop = build_stream_loop()
        compiled = ims_compiled(loop)
        report = verify_compiled(compiled, 10).oracle
        assert report.issued == 10 * loop.n_ops
        assert compiled.result.n_useful_ops == loop.n_ops  # no copies/moves

    def test_issues_include_moves_and_copies(self):
        loop = make_kernel("fir_filter", taps=6)
        compiled = dms_compiled(loop, clusters=6, transform=True)
        result = compiled.result
        report = verify_compiled(compiled, 8).oracle
        assert report.issued == 8 * len(result.ddg) > 8 * result.n_useful_ops

    def test_recurrence_streams_seeded(self):
        compiled = ims_compiled(build_reduction_loop())
        report = verify_compiled(compiled, 20)
        assert report.ok, report.all_problems

    def test_clustered_schedule_passes_fifo_checks(self):
        loop = make_kernel("iir_biquad")
        compiled = dms_compiled(loop, clusters=5, transform=True)
        report = verify_compiled(compiled, 16)
        assert report.ok, report.all_problems
        assert report.oracle.max_queue_occupancy >= 1

    def test_cycle_model_matches_result(self):
        compiled = ims_compiled(build_stream_loop())
        iterations = 25
        report = verify_compiled(compiled, iterations).oracle
        assert report.cycles_model == compiled.result.cycles(iterations)

    def test_invalid_iterations(self):
        compiled = ims_compiled(build_stream_loop())
        with pytest.raises(SimulationError):
            verify_compiled(compiled, 0)

    def test_span_of_one_iteration_is_the_flat_schedule(self):
        compiled = ims_compiled(build_stream_loop())
        result = compiled.result
        flat = max(
            placement.time + result.latencies.latency(result.ddg.op(op_id).opcode)
            for op_id, placement in result.placements.items()
        )
        assert verify_compiled(compiled, 1).oracle.cycles_span == flat

    def test_span_grows_by_ii_per_iteration(self):
        compiled = ims_compiled(build_stream_loop())
        ii = compiled.result.ii
        one = verify_compiled(compiled, 1).oracle.cycles_span
        for iterations in (2, 5, 12):
            report = verify_compiled(compiled, iterations).oracle
            assert report.cycles_span == one + (iterations - 1) * ii


class TestDefaultDepth:
    """``verify_compiled`` without *iterations* runs fill, two kernel
    re-issues and the drain, or longer when an edge reaches further."""

    def test_acyclic_loop_runs_stage_count_plus_two(self):
        compiled = ims_compiled(build_stream_loop())
        report = verify_compiled(compiled)
        assert report.ok, report.all_problems
        assert report.oracle.iterations == compiled.result.stage_count + 2

    def test_carried_flow_distance_extends_the_depth(self):
        b = LoopBuilder("far_reduction")
        acc = b.placeholder()
        total = b.add(b.load("x[i]"), b.carried(acc, 10), tag="acc")
        b.bind(acc, total)
        compiled = ims_compiled(b.build(64))
        assert compiled.result.stage_count + 2 < 12
        report = verify_compiled(compiled)
        assert report.ok, report.all_problems
        assert report.oracle.iterations == 12

    def test_ordering_edge_distance_extends_the_depth(self):
        loop = build_mem_edge_loop(omega=8)
        compiled = compile_for(loop, clustered_vliw(2), validate=False, unroll=1)
        assert compiled.result.stage_count + 2 < 10
        report = verify_compiled(compiled)
        assert report.ok, report.all_problems
        assert report.oracle.iterations == 10


class TestOrderingCheck:
    """Memory edges carry no value: the oracle checks them on the issue
    cycles, one problem per violated edge."""

    def mutant(self):
        compiled = compile_for(
            build_mem_edge_loop(), clustered_vliw(2), validate=False
        )
        _compiled, mutant, edge = mem_edge_mutant(compiled)
        broken = dataclasses.replace(compiled, result=mutant, allocation=None)
        return broken, edge

    @staticmethod
    def ordering_problems(report, edge):
        return [
            p for p in report.all_problems
            if f"ordering violated on {edge!r}" in p
        ]

    def test_one_problem_per_violated_edge(self):
        broken, edge = self.mutant()
        # Every instance pair of the periodic schedule is violated alike.
        assert len(self.ordering_problems(verify_compiled(broken, 10), edge)) == 1

    def test_problem_names_the_first_offending_instance(self):
        broken, edge = self.mutant()
        result = broken.result
        slack = dependence_slack(
            result.ddg, edge, result.placements, result.ii, result.latencies
        )
        assert slack < 0
        (problem,) = self.ordering_problems(verify_compiled(broken, 10), edge)
        assert (
            f"v{edge.dst} iteration {edge.omega} issues {-slack} cycle(s) "
            f"early (v{edge.src} iteration 0 at cycle"
        ) in problem

    def test_instances_without_a_source_are_not_checked(self):
        broken, edge = self.mutant()
        assert not self.ordering_problems(
            verify_compiled(broken, edge.omega), edge
        )
        assert self.ordering_problems(
            verify_compiled(broken, edge.omega + 1), edge
        )

    def test_valid_schedule_passes_at_every_depth(self):
        compiled = compile_for(
            build_mem_edge_loop(), clustered_vliw(2), validate=False
        )
        for iterations in range(1, 9):
            report = verify_compiled(compiled, iterations)
            assert report.ok, (iterations, report.all_problems)


class TestViolationDetection:
    def broken(self):
        compiled = ims_compiled(build_stream_loop())
        placements = dict(compiled.result.placements)
        placements[2] = Placement(0, 0)  # add before its loads complete
        return with_placements(compiled, placements)

    def test_broken_dependence_caught(self):
        with pytest.raises(ValidationError):
            verify_compiled(self.broken(), 4).raise_if_failed()

    def test_violations_are_reported(self):
        report = verify_compiled(self.broken(), 4)
        assert not report.ok
        assert report.all_problems

    def test_resource_overflow_caught(self):
        compiled = ims_compiled(build_stream_loop())
        placements = dict(compiled.result.placements)
        p0 = placements[0]
        placements[1] = Placement(p0.time, p0.cluster)
        placements[4] = Placement(p0.time, p0.cluster)
        report = verify_compiled(with_placements(compiled, placements), 2)
        assert any(
            "codegen failed" in p and "units" in p for p in report.all_problems
        ), report.all_problems
