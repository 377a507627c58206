"""Differential test: the count-scored chain planner against trial placement.

:class:`TrialPlacementPlanner` is the strategy-2 planner as first written:
for every target cluster and path combination it places each move into
the live MRT under a scratch id, reads the Copy-FU slack off the table,
and removes the moves again.  :meth:`ChainPlanner.plan` must return an
equal :class:`ChainPlan` (cluster, paths, move times and slack) on random
partial schedules, and must leave the MRT exactly as it found it.
"""

from __future__ import annotations

import itertools
import random
from typing import Dict, List, Optional, Set, Tuple

import pytest

from repro.config import SchedulerConfig
from repro.ir import DEFAULT_LATENCIES, FUKind, OpCode
from repro.machine import clustered_vliw
from repro.scheduling import ChainPlan, ChainPlanner, PartialSchedule, PlannedChain
from repro.workloads import KERNELS, make_kernel

TOPOLOGIES = ("ring", "linear", "mesh", "torus", "crossbar")

CONFIGS = {
    "default": SchedulerConfig(),
    "touched-only": SchedulerConfig(chain_score_all_clusters=False),
    "shortest-only": SchedulerConfig(prefer_shortest_chain_only=True),
    "one-combo": SchedulerConfig(chain_combo_cap=1),
}


class TrialPlacementPlanner:
    """Reference planner: score each combination by placing its moves."""

    def __init__(self, schedule: PartialSchedule, config: SchedulerConfig):
        self.schedule = schedule
        self.config = config
        self._scratch_id = -1
        self._move_latency = schedule.latencies.latency(OpCode.MOVE)

    def plan(self, op_id: int) -> Optional[ChainPlan]:
        schedule = self.schedule
        dist = schedule.dist
        op = schedule.ddg.op(op_id)
        succ_clusters = [
            schedule.cluster(s) for s in schedule.scheduled_flow_succs(op_id)
        ]
        groups: Dict[Tuple[int, int], List[int]] = {}
        for index, src in enumerate(op.srcs):
            if src.is_external or src.producer == op_id:
                continue
            if schedule.is_scheduled(src.producer):
                groups.setdefault((src.producer, src.omega), []).append(index)
        best: Optional[ChainPlan] = None
        for cluster in range(schedule.machine.n_clusters):
            if schedule.mrt.capacity(cluster, op.fu_kind) == 0:
                continue
            if any(dist[cluster][sc] > 1 for sc in succ_clusters):
                continue
            far = [
                (producer, omega, tuple(indexes), schedule.cluster(producer))
                for (producer, omega), indexes in sorted(groups.items())
                if dist[schedule.cluster(producer)][cluster] > 1
            ]
            if not far:
                continue
            plan = self._best_plan_for_cluster(cluster, far)
            if plan is not None and (best is None or _key(plan) > _key(best)):
                best = plan
        return best

    def _best_plan_for_cluster(self, cluster, far) -> Optional[ChainPlan]:
        topology = self.schedule.machine.topology
        options_per_pred = []
        for producer, omega, indexes, pred_cluster in far:
            paths = topology.paths_cached(pred_cluster, cluster)
            if self.config.prefer_shortest_chain_only:
                paths = paths[:1]
            options_per_pred.append([(producer, omega, indexes, p) for p in paths])
        best: Optional[ChainPlan] = None
        combos = itertools.islice(
            itertools.product(*options_per_pred), self.config.chain_combo_cap
        )
        for combo in combos:
            plan = self._try_combo(cluster, combo)
            if plan is not None and (best is None or _key(plan) > _key(best)):
                best = plan
        return best

    def _try_combo(self, cluster, combo) -> Optional[ChainPlan]:
        schedule = self.schedule
        mrt = schedule.mrt
        ii = schedule.ii
        occupied: List[Tuple[int, int, int]] = []
        planned: List[PlannedChain] = []
        touched: Set[int] = set()
        feasible = True
        for producer, omega, indexes, path in combo:
            latency = schedule.latencies.latency(schedule.ddg.op(producer).opcode)
            ready = schedule.time(producer) + latency - ii * omega
            move_times = []
            for hop in path.intermediates:
                slot = mrt.first_free_slot(hop, FUKind.COPY, max(0, ready))
                if slot is None:
                    feasible = False
                    break
                scratch = self._scratch_id
                self._scratch_id -= 1
                mrt.place(scratch, hop, FUKind.COPY, slot)
                occupied.append((scratch, hop, slot))
                touched.add(hop)
                move_times.append(slot)
                ready = slot + self._move_latency
            if not feasible:
                break
            planned.append(
                PlannedChain(producer, omega, indexes, path, tuple(move_times))
            )
        plan = None
        if feasible:
            if self.config.chain_score_all_clusters:
                scored = range(schedule.machine.n_clusters)
            else:
                scored = sorted(touched) or [cluster]
            slack = min(schedule.free_slots(c, FUKind.COPY) for c in scored)
            plan = ChainPlan(cluster, tuple(planned), slack)
        for scratch, hop, slot in occupied:
            mrt.remove(scratch, hop, FUKind.COPY, slot)
        return plan


def _key(plan: ChainPlan) -> Tuple[int, int, int]:
    return (plan.bottleneck_slack, -plan.n_moves, -plan.cluster)


def _mrt_snapshot(schedule: PartialSchedule):
    mrt = schedule.mrt
    return [
        (mrt.free_slots(c, kind), [mrt.occupants(c, kind, t) for t in range(mrt.ii)])
        for c in range(schedule.machine.n_clusters)
        for kind in FUKind
    ]


def _random_schedule(rng: random.Random, topology: str, k: int) -> PartialSchedule:
    """A kernel with a random subset of its ops placed, plus Copy-FU filler."""
    loop = make_kernel(rng.choice(sorted(KERNELS)))
    ii = rng.randint(1, 4)
    schedule = PartialSchedule(
        loop.ddg.copy(), clustered_vliw(k, topology=topology), ii, DEFAULT_LATENCIES
    )
    mrt = schedule.mrt
    for op_id in schedule.ddg.op_ids:
        if rng.random() < 0.6:
            cluster = rng.randrange(k)
            time = rng.randrange(3 * ii)
            if mrt.is_free(cluster, schedule.ddg.op(op_id).fu_kind, time):
                schedule.place(op_id, time, cluster)
    # Phantom Copy-FU occupants make move slots scarce (ids far below the
    # reference planner's scratch ids).
    phantom = -1_000_000
    for cluster in range(k):
        for row in range(ii):
            while rng.random() < 0.45 and mrt.is_free(cluster, FUKind.COPY, row):
                mrt.place(phantom, cluster, FUKind.COPY, row)
                phantom -= 1
    return schedule


@pytest.mark.parametrize("config_name", sorted(CONFIGS))
@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_plan_matches_trial_placement(topology, config_name):
    config = CONFIGS[config_name]
    rng = random.Random(f"{topology}/{config_name}")
    compared = planned = 0
    for k in range(4, 11):
        for _ in range(6):
            schedule = _random_schedule(rng, topology, k)
            planner = ChainPlanner(schedule, config)
            reference = TrialPlacementPlanner(schedule, config)
            for op_id in schedule.ddg.op_ids:
                if schedule.is_scheduled(op_id):
                    continue
                before = _mrt_snapshot(schedule)
                plan = planner.plan(op_id)
                assert _mrt_snapshot(schedule) == before
                assert plan == reference.plan(op_id), (topology, k, op_id)
                compared += 1
                planned += plan is not None
    assert compared > 100
    if topology == "crossbar":
        assert planned == 0  # every cluster pair is adjacent
    else:
        assert planned > 20


#: Interconnects the interleaved run shares between every config.
SHARED_MACHINES = (("ring", 4), ("ring", 8), ("ring", 10), ("mesh", 8), ("torus", 9))


def test_configs_interleaved_on_shared_topologies():
    """One seeded sequence switches config op by op on the same topology
    instances, so every chain option table and candidate list is reused
    by whichever config asks next.  A table keyed without the config or
    the target cluster, or a dominance rule that drops a winner, makes
    some plan differ from the trial-placement reference."""
    rng = random.Random("interleaved")
    names = sorted(CONFIGS)
    # One candidate-list memo per (machine, config), reused across
    # schedules as an attempt runner reuses it across attempts.
    memos: Dict[Tuple[str, int, str], dict] = {}
    compared = planned = 0
    phantom = -2_000_000
    for _ in range(6):
        for topology, k in SHARED_MACHINES:
            schedule = _random_schedule(rng, topology, k)
            mrt = schedule.mrt
            for op_id in schedule.ddg.op_ids:
                if schedule.is_scheduled(op_id):
                    continue
                for _round in range(3):
                    for name in rng.sample(names, len(names)):
                        config = CONFIGS[name]
                        memo = memos.setdefault((topology, k, name), {})
                        plan = ChainPlanner(schedule, config, memo).plan(op_id)
                        reference = TrialPlacementPlanner(schedule, config).plan(op_id)
                        assert plan == reference, (topology, k, name, op_id)
                        compared += 1
                        planned += plan is not None
                    # Take one more Copy-FU slot, so the next round scores
                    # the same candidates against a new free-slot snapshot.
                    cluster = rng.randrange(k)
                    row = mrt.first_free_slot(cluster, FUKind.COPY, 0)
                    if row is not None:
                        mrt.place(phantom, cluster, FUKind.COPY, row)
                        phantom -= 1
    assert compared > 1000
    assert planned > 200
