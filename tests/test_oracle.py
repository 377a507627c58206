"""The differential execution oracle: value-level VLIW program execution.

The strongest end-to-end statement in the repository: the *emitted*
program (prologue listing, kernel re-issue, epilogue listing, queue pops
through the actual allocation) must store bit-identical values to a
sequential execution of the original loop.  These tests cover the
executor's discipline checks, the exactness of the ramp listings against
the schedule's own instance times, and the acceptance sweep across the
full kernel suite x every concrete topology x {2, 4, 8} clusters.
"""

import dataclasses

import pytest

from repro.api import CompiledLoop
from repro.codegen.kernel import CycleIssue, _ramp_listing, build_program
from repro.errors import CodegenError, SimulationError
from repro.machine import clustered_vliw, unclustered_vliw
from repro.scheduling.schedule import Placement
from repro.validate import execute_program, verify_compiled, verify_loop
from repro.validate.oracle import _enumerate_issues, OracleReport
from repro.workloads import KERNELS, make_kernel

from .conftest import (
    build_fanout_loop,
    build_reduction_loop,
    build_stream_loop,
    compile_for,
)

TOPOLOGIES = ("ring", "linear", "mesh", "torus", "crossbar")
CLUSTER_COUNTS = (2, 4, 8)


class TestExecuteProgram:
    def test_valid_program_executes_clean(self):
        compiled = compile_for(build_stream_loop(), clustered_vliw(4))
        result = compiled.result
        program = build_program(result, compiled.allocation, ramp_iterations=6)
        report = execute_program(
            program,
            result.ddg,
            result.latencies,
            6,
            allocation=compiled.allocation,
            machine=result.machine,
        )
        assert report.ok, report.problems
        assert report.issued == 6 * len(result.ddg)
        assert report.store_streams

    def test_unclustered_runs_without_allocation(self):
        compiled = compile_for(build_stream_loop(), unclustered_vliw(2))
        result = compiled.result
        program = build_program(result, ramp_iterations=5)
        report = execute_program(program, result.ddg, result.latencies, 5)
        assert report.ok, report.problems

    def test_invalid_iterations_rejected(self):
        compiled = compile_for(build_stream_loop(), clustered_vliw(2))
        program = build_program(compiled.result, compiled.allocation)
        with pytest.raises(SimulationError):
            execute_program(
                program, compiled.result.ddg, compiled.result.latencies, 0
            )

    def test_ramp_mismatch_reported(self):
        """A program whose ramp listings were built for a different run
        depth must be rejected, not silently mis-executed."""
        compiled = compile_for(
            make_kernel("fir_filter", taps=8), clustered_vliw(2)
        )
        result = compiled.result
        assert result.stage_count >= 3
        program = build_program(result, compiled.allocation, ramp_iterations=2)
        report = execute_program(
            program, result.ddg, result.latencies, result.stage_count + 2
        )
        assert not report.ok
        assert any("ramp listings" in p for p in report.problems)


class TestRampExactness:
    """Prologue + kernel re-issues + epilogue must equal the schedule's
    instance times exactly — for deep *and* short runs."""

    @pytest.mark.parametrize("kernel", ["fir_filter", "stencil5", "lms_update"])
    @pytest.mark.parametrize("short", [False, True])
    def test_issue_multiset_matches_schedule(self, kernel, short):
        compiled = compile_for(make_kernel(kernel), clustered_vliw(4))
        result = compiled.result
        iterations = (
            max(1, result.stage_count - 1)
            if short
            else result.stage_count + 3
        )
        program = build_program(
            result, compiled.allocation, ramp_iterations=iterations
        )
        report = OracleReport(
            loop_name=result.loop_name,
            machine_name=result.machine.name,
            ii=result.ii,
            stage_count=result.stage_count,
            iterations=iterations,
        )
        issues, _clusters = _enumerate_issues(
            program, result.ddg, iterations, report
        )
        assert report.ok, report.problems
        got = sorted((cycle, op_id) for cycle, _fu, _n, _it, op_id in issues)
        expected = sorted(
            (placement.time + i * result.ii, op_id)
            for op_id, placement in result.placements.items()
            for i in range(iterations)
        )
        assert got == expected
        # Cross-check the totals against a full execution.
        executed = execute_program(
            program,
            result.ddg,
            result.latencies,
            iterations,
            allocation=compiled.allocation,
            machine=result.machine,
        )
        assert executed.ok, executed.problems
        assert executed.issued == len(issues)

    def test_short_run_double_issue_is_caught(self):
        """Regression: ramp listings used to span the full (SC-1)*II
        prologue even when ramp_iterations < SC, re-listing issues the
        drain phase also covers.  The oracle flags the double issue."""
        compiled = compile_for(
            make_kernel("fir_filter", taps=8), clustered_vliw(2)
        )
        result = compiled.result
        assert result.stage_count >= 3
        n = 2
        program = build_program(result, compiled.allocation, ramp_iterations=n)
        # Reconstruct the pre-fix prologue span.
        bindings = {b.op_id: b for row in program.kernel for b in row}
        buggy = dataclasses.replace(
            program,
            prologue=_ramp_listing(
                result,
                bindings,
                n,
                0,
                (result.stage_count - 1) * result.ii,
            ),
        )
        report = execute_program(
            buggy,
            result.ddg,
            result.latencies,
            n,
            allocation=compiled.allocation,
            machine=result.machine,
        )
        assert not report.ok
        assert any("issued 2 times" in p for p in report.problems)
        # The fixed listings are exact.
        fixed = execute_program(
            program,
            result.ddg,
            result.latencies,
            n,
            allocation=compiled.allocation,
            machine=result.machine,
        )
        assert fixed.ok, fixed.problems

    def test_omitted_issue_is_caught(self):
        compiled = compile_for(build_stream_loop(), clustered_vliw(2))
        result = compiled.result
        program = build_program(result, compiled.allocation, ramp_iterations=4)
        victim = program.prologue[0]
        program.prologue[0] = CycleIssue(victim.cycle, victim.bindings[1:])
        report = execute_program(
            program, result.ddg, result.latencies, 4,
            allocation=compiled.allocation, machine=result.machine,
        )
        assert not report.ok
        assert any("never issued" in p for p in report.problems)


class TestDifferential:
    @pytest.mark.parametrize(
        "kernel", ["fir_filter", "stencil5", "iir_biquad", "complex_fir"]
    )
    def test_kernels_bit_equal(self, kernel):
        report = verify_loop(make_kernel(kernel), clustered_vliw(4))
        assert report.ok, report.all_problems
        assert report.matched_stores >= 1

    def test_unrolled_program_maps_back_to_base_iterations(self):
        loop = build_stream_loop()
        compiled = compile_for(loop, clustered_vliw(4), unroll=3)
        assert compiled.unroll_factor == 3
        report = verify_compiled(compiled)
        assert report.ok, report.all_problems
        # One base store -> three unrolled replicas, all compared.
        assert report.matched_stores == 3

    def test_fanout_loop_after_single_use(self):
        report = verify_loop(build_fanout_loop(consumers=5), clustered_vliw(4))
        assert report.ok, report.all_problems

    def test_recurrence_loop(self):
        report = verify_loop(build_reduction_loop(), clustered_vliw(2))
        assert report.ok, report.all_problems

    def test_short_ramp_run(self):
        """Runs shorter than the pipeline depth (trip count < SC)."""
        loop = make_kernel("fir_filter", taps=8)
        compiled = compile_for(loop, clustered_vliw(2))
        assert compiled.result.stage_count >= 3
        report = verify_compiled(compiled, iterations=2)
        assert report.ok, report.all_problems

    def test_unclustered_ims_program(self):
        report = verify_loop(make_kernel("daxpy"), unclustered_vliw(3))
        assert report.ok, report.all_problems

    def test_value_corruption_is_caught(self):
        """A schedule whose store reads the wrong producer executes with
        perfect queue discipline — only the differential value compare
        can see it, and it must."""
        from repro.ir import OpCode
        from repro.ir.operations import use

        loop = build_stream_loop()
        compiled = compile_for(loop, clustered_vliw(2))
        result = compiled.result
        ddg = result.ddg.copy()
        store = next(
            op for op in ddg.operations() if op.opcode == OpCode.STORE
        )
        load = next(op for op in ddg.operations() if op.opcode == OpCode.LOAD)
        assert store.srcs[0].producer != load.op_id
        ddg.replace_operand(store.op_id, 0, use(load.op_id))
        mutant = dataclasses.replace(result, ddg=ddg)
        report = verify_compiled(
            dataclasses.replace(compiled, result=mutant, allocation=None)
        )
        assert not report.ok
        assert any("diverges" in p for p in report.all_problems)

    def test_store_shift_by_ii_is_value_preserving(self):
        """Counterpoint: delaying a store by a full II keeps every FIFO
        pop aligned — the oracle must accept it (no false alarms)."""
        loop = build_stream_loop()
        compiled = compile_for(loop, clustered_vliw(2))
        result = compiled.result
        store_id = max(
            op_id
            for op_id in result.placements
            if result.ddg.op(op_id).opcode.value == "store"
        )
        placements = dict(result.placements)
        old = placements[store_id]
        placements[store_id] = Placement(
            time=old.time + result.ii, cluster=old.cluster
        )
        mutant = dataclasses.replace(result, placements=placements)
        report = verify_compiled(
            dataclasses.replace(compiled, result=mutant, allocation=None)
        )
        assert report.ok, report.all_problems

    def test_dependence_violation_pops_empty_queue(self):
        """On an unclustered machine (no allocation layer to catch it
        first) a dependence-violating mutant must fail in the value
        execution itself."""
        compiled = compile_for(build_stream_loop(), unclustered_vliw(2))
        result = compiled.result
        # Pull the first consumer of a load to cycle 0.
        victim = next(
            op.op_id
            for op in result.ddg.operations()
            if any(
                not s.is_external
                and result.ddg.op(s.producer).opcode.value == "load"
                for s in op.srcs
            )
        )
        placements = dict(result.placements)
        placements[victim] = Placement(
            time=0, cluster=placements[victim].cluster
        )
        mutant = dataclasses.replace(result, placements=placements)
        report = verify_compiled(
            dataclasses.replace(compiled, result=mutant, allocation=None)
        )
        assert not report.ok
        assert any(
            "before it is ready" in p or "never issued" in p or "diverges" in p
            for p in report.all_problems
        )


class TestAcceptanceSweep:
    """The ISSUE's acceptance bar: the full kernel suite across all five
    topology kinds x {2, 4, 8} clusters, every program value-equivalent
    to the sequential reference."""

    @pytest.mark.parametrize("topology", TOPOLOGIES)
    def test_full_suite_on_topology(self, topology):
        failures = []
        for name in sorted(KERNELS):
            loop = make_kernel(name)
            for k in CLUSTER_COUNTS:
                report = verify_loop(loop, clustered_vliw(k, topology=topology))
                if not report.ok:
                    failures.append((name, k, report.all_problems[:2]))
        assert not failures, failures
