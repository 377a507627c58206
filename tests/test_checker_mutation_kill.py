"""Mutation-kill suite: no checker rule is dead code.

Each of the checker's rules is violated by a *minimal* mutant of a valid
schedule, and every mutant must be caught twice over — by
``check_schedule`` (the static layer) and by the differential execution
oracle (the dynamic layer).  A rule only one layer can see would let a
scheduler bug slip through whichever layer an experiment happens to run.

The two derived-shape rules (II/stage-count consistency, link bandwidth)
are covered the same way.
"""

import dataclasses

import pytest

from repro.api import CompiledLoop
from repro.ir import LoopBuilder, OpCode
from repro.ir.loop import Loop
from repro.machine import MachineSpec, clustered_vliw
from repro.machine.cluster import ClusterSpec, PAPER_CLUSTER
from repro.machine.cqrf import QueueFileSpec
from repro.scheduling.checker import check_schedule
from repro.scheduling.result import ScheduleResult
from repro.scheduling.schedule import Placement
from repro.scheduling.timing import dependence_slack
from repro.validate import verify_compiled
from repro.workloads import make_kernel

from .conftest import build_stream_loop, compile_for


def oracle_rejects(compiled: CompiledLoop, mutant: ScheduleResult) -> bool:
    report = verify_compiled(
        dataclasses.replace(compiled, result=mutant, allocation=None)
    )
    return not report.ok


@pytest.fixture(scope="module")
def baseline():
    """One valid compiled loop on the paper's 4-cluster ring."""
    compiled = compile_for(make_kernel("fir_filter", taps=6), clustered_vliw(4))
    assert check_schedule(compiled.result).ok
    assert verify_compiled(compiled).ok
    return compiled


class TestRuleMutants:
    """The six documented rules, one minimal mutant each."""

    def test_rule1_completeness(self, baseline):
        result = baseline.result
        placements = dict(result.placements)
        victim = sorted(placements)[0]
        del placements[victim]
        mutant = dataclasses.replace(result, placements=placements)
        report = check_schedule(mutant)
        assert any("not scheduled" in p for p in report.problems)
        assert oracle_rejects(baseline, mutant)

    def test_rule1_phantom_placement(self, baseline):
        result = baseline.result
        placements = dict(result.placements)
        phantom = max(placements) + 1000
        placements[phantom] = Placement(time=0, cluster=0)
        mutant = dataclasses.replace(result, placements=placements)
        report = check_schedule(mutant)
        assert any("unknown op" in p for p in report.problems)
        assert oracle_rejects(baseline, mutant)

    def test_rule2_capability(self):
        """A MUL op on a cluster without a multiplier."""
        no_mul = ClusterSpec(mem=1, alu=1, mul=0, copy=1)
        machine = MachineSpec(
            name="hetero-no-mul",
            clusters=(PAPER_CLUSTER, no_mul),
        )
        loop = build_stream_loop()
        compiled = compile_for(loop, machine)
        result = compiled.result
        mul_id = next(
            op.op_id
            for op in result.ddg.operations()
            if op.opcode == OpCode.MUL
        )
        placements = dict(result.placements)
        placements[mul_id] = Placement(
            time=placements[mul_id].time, cluster=1
        )
        mutant = dataclasses.replace(result, placements=placements)
        report = check_schedule(mutant)
        assert any("without such a unit" in p for p in report.problems)
        assert oracle_rejects(compiled, mutant)

    def test_rule3_resources(self, baseline):
        """Two same-kind ops forced into one MRT cell of a 1-FU cluster."""
        result = baseline.result
        ddg = result.ddg
        by_kind = {}
        for op in ddg.operations():
            by_kind.setdefault(op.fu_kind, []).append(op.op_id)
        kind, ops = next(
            (kind, ops) for kind, ops in by_kind.items() if len(ops) >= 2
        )
        a, b = ops[0], ops[1]
        pa = result.placements[a]
        placements = dict(result.placements)
        # Same cluster, same row as op a: the cell now holds two ops.
        pb = placements[b]
        delta = (pa.time - pb.time) % result.ii
        placements[b] = Placement(time=pb.time + delta + result.ii, cluster=pa.cluster)
        mutant = dataclasses.replace(result, placements=placements)
        report = check_schedule(mutant)
        assert any("MRT cell" in p for p in report.problems)
        assert oracle_rejects(baseline, mutant)

    def test_rule4_dependence(self, baseline):
        """Tighten one flow edge exactly one cycle past its slack."""
        result = baseline.result
        edge = next(e for e in result.ddg.edges() if e.is_flow)
        slack = dependence_slack(
            result.ddg,
            edge,
            result.placements,
            result.ii,
            result.latencies,
            result.machine,
        )
        old = result.placements[edge.dst]
        new_time = old.time - (slack + 1)
        if new_time < 0:
            pytest.skip("victim edge too close to cycle 0")
        placements = dict(result.placements)
        placements[edge.dst] = Placement(time=new_time, cluster=old.cluster)
        mutant = dataclasses.replace(result, placements=placements)
        report = check_schedule(mutant)
        assert any("dependence violated" in p for p in report.problems)
        assert oracle_rejects(baseline, mutant)

    def test_rule5_communication(self, baseline):
        """Producer and consumer on non-adjacent ring clusters."""
        result = baseline.result
        edge = next(
            e
            for e in result.ddg.edges()
            if e.communicates and e.src != e.dst
        )
        src = result.placements[edge.src]
        far = (result.placements[edge.dst].cluster + 2) % 4
        placements = dict(result.placements)
        placements[edge.src] = Placement(
            time=src.time, cluster=(far + 2) % 4
        )
        placements[edge.dst] = Placement(
            time=result.placements[edge.dst].time, cluster=far
        )
        mutant = dataclasses.replace(result, placements=placements)
        report = check_schedule(mutant)
        if not any("communication conflict" in p for p in report.problems):
            pytest.skip("mutation did not separate the pair (other rule hit)")
        assert oracle_rejects(baseline, mutant)

    def test_rule6_fanout(self):
        """A fan-out-3 value on a clustered machine (single-use bypassed).

        Hand-built schedule: one load feeding three muls feeding three
        stores, placed legally under every other rule.
        """
        b = LoopBuilder("fanout3")
        x = b.load("x")
        for j in range(3):
            b.store(b.mul(x, f"c{j}"), f"y{j}")
        loop = b.build(64)
        ddg = loop.ddg.copy()
        machine = clustered_vliw(2)
        latencies = compile_for(build_stream_loop(), machine).result.latencies
        # ids: 0 load, (1,2) (3,4) (5,6) = (mul, store) pairs.
        placements = {
            0: Placement(time=0, cluster=0),
            1: Placement(time=2, cluster=0),   # mul row 2 c0
            3: Placement(time=3, cluster=1),   # mul row 0 c1
            5: Placement(time=4, cluster=1),   # mul row 1 c1
            2: Placement(time=5, cluster=0),   # store row 2 c0
            4: Placement(time=6, cluster=1),   # store row 0 c1
            6: Placement(time=7, cluster=1),   # store row 1 c1
        }
        result = ScheduleResult(
            loop_name=loop.name,
            machine=machine,
            scheduler="manual",
            ii=3,
            res_mii=3,
            rec_mii=1,
            ddg=ddg,
            placements=placements,
            latencies=latencies,
        )
        report = check_schedule(result)
        assert any("fan-out" in p for p in report.problems)
        # Every other rule is satisfied: fan-out is the only problem.
        assert all("fan-out" in p for p in report.problems), report.problems
        compiled = CompiledLoop(
            loop=loop,
            machine=machine,
            unroll_factor=1,
            result=result,
            allocation=None,
        )
        oracle = verify_compiled(compiled)
        assert not oracle.ok
        assert any("fans out" in p for p in oracle.all_problems)


class TestDerivedShapeRules:
    def test_ii_below_one_rejected(self, baseline):
        mutant = dataclasses.replace(baseline.result, ii=0)
        report = check_schedule(mutant)
        assert any("initiation interval" in p for p in report.problems)
        assert oracle_rejects(baseline, mutant)

    def test_stage_count_lie_rejected(self, baseline):
        """A result whose stage_count property disagrees with its own
        placements (e.g. a buggy subclass or stale metadata)."""

        class LyingResult(ScheduleResult):
            @property
            def stage_count(self):  # type: ignore[override]
                return super().stage_count + 1

        result = baseline.result
        mutant = LyingResult(
            loop_name=result.loop_name,
            machine=result.machine,
            scheduler=result.scheduler,
            ii=result.ii,
            res_mii=result.res_mii,
            rec_mii=result.rec_mii,
            ddg=result.ddg,
            placements=result.placements,
            latencies=result.latencies,
        )
        report = check_schedule(mutant)
        assert any("stage count" in p for p in report.problems)
        assert oracle_rejects(baseline, mutant)


class TestLinkBandwidthRule:
    """The CQRF write-port rule, in the checker and its oracle mirror.

    Hand-built schedule on a ports-limited 2-cluster ring: two loads on
    cluster 0 whose values land in cqrf[c0->c1] on the same row.
    """

    def _bandwidth_case(self, write_ports):
        # Two producers of *different* FU kinds on cluster 0 whose
        # results become ready the same cycle: load x at t=0 (latency 2)
        # and add p+q at t=1 (latency 1) both land in cqrf[c0->c1] at
        # cycle 2 == row 0 of II=2, without any MRT conflict.
        b = LoopBuilder("two_flows")
        x = b.load("x")
        a = b.add("p", "q")
        b.store(b.add(x, "k"), "sx")
        b.store(b.add(a, "m"), "sa")
        loop = b.build(64)
        machine = clustered_vliw(
            2, cqrf=QueueFileSpec(write_ports=write_ports)
        )
        latencies = compile_for(build_stream_loop(), machine).result.latencies
        # ids: 0 load x, 1 add a, 2 add(x,k), 3 store, 4 add(a,m), 5 store.
        placements = {
            0: Placement(time=0, cluster=0),   # mem c0 row 0, birth 2
            1: Placement(time=1, cluster=0),   # alu c0 row 1, birth 2
            2: Placement(time=2, cluster=1),   # alu c1 row 0
            3: Placement(time=3, cluster=1),   # mem c1 row 1
            4: Placement(time=3, cluster=1),   # alu c1 row 1
            5: Placement(time=6, cluster=1),   # mem c1 row 0
        }
        ddg = loop.ddg.copy()
        result = ScheduleResult(
            loop_name=loop.name,
            machine=machine,
            scheduler="manual",
            ii=2,
            res_mii=2,
            rec_mii=1,
            ddg=ddg,
            placements=placements,
            latencies=latencies,
        )
        compiled = CompiledLoop(
            loop=loop,
            machine=machine,
            unroll_factor=1,
            result=result,
            allocation=None,
        )
        return compiled, result

    def test_checker_flags_oversubscribed_link(self):
        compiled, result = self._bandwidth_case(write_ports=1)
        report = check_schedule(result)
        assert any("link bandwidth" in p for p in report.problems), (
            report.problems
        )

    def test_oracle_mirrors_the_rule_at_six_iterations(self):
        compiled, result = self._bandwidth_case(write_ports=1)
        oracle = verify_compiled(compiled, 6)
        assert any(
            "write ports" in p for p in oracle.all_problems
        ), oracle.all_problems

    def test_oracle_mirrors_the_rule(self):
        compiled, result = self._bandwidth_case(write_ports=1)
        oracle = verify_compiled(compiled)
        assert any(
            "write ports" in p for p in oracle.all_problems
        ), oracle.all_problems

    def test_two_ports_accept_the_same_schedule(self):
        compiled, result = self._bandwidth_case(write_ports=2)
        assert check_schedule(result).ok, check_schedule(result).problems
        six = verify_compiled(compiled, 6)
        assert six.ok, six.all_problems
        assert verify_compiled(compiled).ok

    def test_zero_ports_means_unconstrained(self):
        compiled, result = self._bandwidth_case(write_ports=0)
        assert check_schedule(result).ok
