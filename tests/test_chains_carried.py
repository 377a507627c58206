"""Chain behaviour on loop-carried edges and custom move latencies."""

import pytest

from repro.config import SchedulerConfig
from repro.ir import DDG, DEFAULT_LATENCIES, LatencyModel, OpCode
from repro.ir.operations import Operation, ValueUse, use
from repro.machine import clustered_vliw
from repro.scheduling import (
    ChainPlanner,
    ChainRegistry,
    PartialSchedule,
    check_schedule,
)
from repro.scheduling.result import ScheduleResult

from .conftest import execute_schedule


def carried_far_graph(omega=2):
    """q = add(p1, p2 from `omega` iterations ago), producers far apart."""
    ddg = DDG("carried_far")
    ddg.add_operation(Operation(0, OpCode.LOAD, (), "p1"))
    ddg.add_operation(Operation(1, OpCode.LOAD, (), "p2"))
    ddg.add_operation(
        Operation(2, OpCode.ADD, (use(0), ValueUse(1, omega)), "q")
    )
    return ddg


def plan_and_apply(ddg, ii=4, clusters=6, latencies=DEFAULT_LATENCIES):
    machine = clustered_vliw(clusters)
    schedule = PartialSchedule(ddg, machine, ii, latencies)
    schedule.place(0, 0, 0)
    schedule.place(1, 0, 3)
    planner = ChainPlanner(schedule, SchedulerConfig())
    plan = planner.plan(2)
    assert plan is not None
    registry = ChainRegistry()
    chains = planner.apply(2, plan, registry)
    return machine, schedule, plan, chains


class TestCarriedChains:
    def test_omega_moves_to_first_chain_edge(self):
        ddg = carried_far_graph(omega=2)
        _machine, schedule, plan, chains = plan_and_apply(ddg)
        chain = next(c for c in chains if c.producer == 1)
        first_move = ddg.op(chain.move_ids[0])
        assert first_move.srcs[0].producer == 1
        assert first_move.srcs[0].omega == 2
        # Later hops and the consumer use same-iteration references.
        consumer_srcs = [
            s for s in ddg.op(2).srcs if not s.is_external
        ]
        rewired = next(
            s for s in consumer_srcs if s.producer == chain.move_ids[-1]
        )
        assert rewired.omega == 0

    def test_carried_chain_relaxes_move_start(self):
        # omega * II of slack: the move may issue before the producer in
        # absolute kernel time (it reads an older iteration's value).
        ddg = carried_far_graph(omega=2)
        _machine, schedule, plan, _chains = plan_and_apply(ddg, ii=4)
        planned = next(c for c in plan.chains if c.producer == 1)
        # ready = t(p) + lat - omega*II = 0 + 2 - 8 < 0 -> clamped to 0.
        assert planned.move_times[0] == 0

    def test_end_to_end_schedule_executes(self):
        ddg = carried_far_graph(omega=2)
        machine, schedule, plan, _chains = plan_and_apply(ddg)
        # Place the consumer and package a result for the oracle.
        estart = max(0, schedule.earliest_start(2))
        kind = ddg.op(2).fu_kind
        for t in range(estart, estart + schedule.ii):
            if schedule.mrt.is_free(plan.cluster, kind, t):
                schedule.place(2, t, plan.cluster)
                break
        result = ScheduleResult(
            loop_name="carried_far",
            machine=machine,
            scheduler="dms",
            ii=schedule.ii,
            res_mii=1,
            rec_mii=1,
            ddg=ddg,
            placements=schedule.placements(),
            latencies=DEFAULT_LATENCIES,
        )
        assert check_schedule(result).ok
        report = execute_schedule(result, iterations=8)
        assert report.ok, report.problems


class TestMoveLatency:
    def test_slow_moves_space_the_chain(self):
        latencies = LatencyModel(move=3)
        ddg = DDG("slow_moves")
        ddg.add_operation(Operation(0, OpCode.LOAD, (), "p"))
        ddg.add_operation(Operation(1, OpCode.ADD, (use(0), use(0)), "q"))
        machine = clustered_vliw(8)
        schedule = PartialSchedule(ddg, machine, 4, latencies)
        schedule.place(0, 0, 0)
        planner = ChainPlanner(schedule, SchedulerConfig())
        # Force the consumer far away by only allowing cluster 4: plan for
        # it directly through the planner's internals is private, so pin a
        # scheduled successor there instead.
        ddg.add_operation(Operation(2, OpCode.STORE, (use(1),), "sink"))
        schedule.place(2, 12, 4)
        plan = planner.plan(1)
        assert plan is not None
        chain = plan.chains[0]
        if chain.n_moves >= 2:
            gaps = [
                b - a
                for a, b in zip(chain.move_times, chain.move_times[1:])
            ]
            assert all(g >= 3 for g in gaps)
