"""Tests for the two-phase partition-then-schedule baseline."""

import pytest

from repro.errors import IIOverflowError
from repro.ir import DEFAULT_LATENCIES, OpCode
from repro.ir.transforms import single_use_ddg
from repro.machine import clustered_vliw
from repro.scheduling import (
    TwoPhaseScheduler,
    insert_static_chains,
    partition_clusters,
    validate_schedule,
)
from repro.simulator import assert_same_semantics
from repro.validate import verify_compiled
from repro.workloads import make_kernel

from .conftest import (
    build_fanout_loop,
    build_reduction_loop,
    build_stream_loop,
    compiled_from,
)


class TestPartition:
    def test_total_assignment(self):
        loop = build_stream_loop()
        machine = clustered_vliw(4)
        assignment = partition_clusters(loop.ddg, machine, DEFAULT_LATENCIES)
        assert set(assignment) == set(loop.ddg.op_ids)
        assert all(0 <= c < 4 for c in assignment.values())

    def test_single_cluster_trivial(self):
        loop = build_stream_loop()
        assignment = partition_clusters(
            loop.ddg, clustered_vliw(1), DEFAULT_LATENCIES
        )
        assert set(assignment.values()) == {0}

    def test_respects_capability(self):
        from repro.machine import ClusterSpec, MachineSpec

        # Cluster 1 has no multiplier: muls must avoid it.
        machine = MachineSpec(
            name="hetero",
            clusters=(ClusterSpec(), ClusterSpec(mem=1, alu=1, mul=0)),
        )
        loop = build_stream_loop()
        assignment = partition_clusters(loop.ddg, machine, DEFAULT_LATENCIES)
        for op in loop.ddg.operations():
            if op.opcode == OpCode.MUL:
                assert assignment[op.op_id] == 0


class TestStaticChains:
    def test_far_references_bridged(self):
        loop = build_stream_loop()
        ddg = loop.ddg.copy()
        machine = clustered_vliw(6)
        # Force a far pair by construction.
        assignment = {op_id: 0 for op_id in ddg.op_ids}
        assignment[2] = 3  # the add sits across the ring from its loads
        extended = insert_static_chains(ddg, assignment, machine)
        moves = [op for op in ddg.operations() if op.opcode == OpCode.MOVE]
        assert moves
        topology = machine.topology
        for edge in ddg.edges():
            if edge.is_flow and edge.src != edge.dst:
                assert topology.distance(
                    extended[edge.src], extended[edge.dst]
                ) <= 1

    def test_chain_semantics_preserved(self):
        loop = build_stream_loop()
        before = loop.ddg.copy()
        ddg = loop.ddg.copy()
        machine = clustered_vliw(6)
        assignment = {op_id: 0 for op_id in ddg.op_ids}
        assignment[2] = 3
        insert_static_chains(ddg, assignment, machine)
        assert_same_semantics(before, ddg, iterations=5)


class TestScheduling:
    @pytest.mark.parametrize("clusters", [1, 2, 4, 6])
    def test_valid_schedules(self, clusters):
        loop = build_stream_loop()
        ddg = single_use_ddg(loop.ddg) if clusters > 1 else loop.ddg.copy()
        scheduler = TwoPhaseScheduler(clustered_vliw(clusters))
        result = scheduler.schedule(ddg)
        validate_schedule(result)
        assert result.scheduler == "two-phase"

    def test_recurrent_kernel(self):
        loop = make_kernel("iir_biquad")
        result = TwoPhaseScheduler(clustered_vliw(4)).schedule(
            single_use_ddg(loop.ddg)
        )
        validate_schedule(result)
        report = verify_compiled(compiled_from(loop, result), iterations=6)
        assert report.ok, report.all_problems

    def test_fanout_loop_schedules_and_executes(self):
        loop = build_fanout_loop(consumers=6)
        result = TwoPhaseScheduler(clustered_vliw(5)).schedule(
            single_use_ddg(loop.ddg)
        )
        validate_schedule(result)
        report = verify_compiled(compiled_from(loop, result), iterations=5)
        assert report.ok, report.all_problems

    def test_pinning_respected(self):
        loop = build_reduction_loop()
        machine = clustered_vliw(4)
        ddg = single_use_ddg(loop.ddg)
        work = ddg.copy()
        assignment = partition_clusters(work, machine, DEFAULT_LATENCIES)
        result = TwoPhaseScheduler(machine).schedule(ddg)
        # Original (non-move) ops must sit on their partition cluster:
        # the partition is deterministic, so recompute and compare.
        for op_id, cluster in assignment.items():
            assert result.placements[op_id].cluster == cluster


class TestBaselineFigure:
    def test_series_hold_their_recorded_values(self):
        # Pinned values: any change to the partition, the static chains
        # or the pinned IMS phase that moves an II shows up here.
        from repro.experiments.baselines import two_phase_comparison
        from repro.workloads import perfect_club_surrogate

        loops = perfect_club_surrogate(24)
        figure = two_phase_comparison(loops, (4, 8))
        assert figure.x == [4.0, 8.0]
        assert figure.series == {
            "dms_single_phase": [100.0 * 0 / 24, 100.0 * 2 / 24],
            "two_phase": [100.0 * 15 / 24, 100.0 * 18 / 24],
        }
        assert len(figure.notes) == 1  # no two-phase II overflow

    def test_a_baseline_job_ships_the_ii_or_none_on_overflow(self):
        # An II ceiling of exactly MII overflows the two-phase search on
        # several kernels of an 8-wide ring; the others keep their II.
        from repro.api import CompilationRequest, Toolchain
        from repro.config import SchedulerConfig
        from repro.experiments.baselines import _two_phase_ii
        from repro.workloads.kernels import KERNELS

        tight = SchedulerConfig(max_ii_factor=1, max_ii_extra=0)
        outcomes = []
        for name in sorted(KERNELS):
            request = CompilationRequest(
                loop=make_kernel(name), machine=clustered_vliw(8), config=tight,
                equivalent_k=8, allocate=False, scheduler="two_phase",
            )
            try:
                expected = Toolchain.default().compile(request).result.ii
            except IIOverflowError:
                expected = None
            outcomes.append(_two_phase_ii(request))
            assert outcomes[-1] == expected, name
        assert None in outcomes and any(ii is not None for ii in outcomes)
