"""Iterative Modulo Scheduling (IMS) — the paper's baseline scheduler.

This is Rau's algorithm ("Iterative Modulo Scheduling", IJPP 1996), used
by the paper to schedule the *unclustered* reference machine: height-based
priority, a time-slot search over one II window, and forced placement with
ejection (backtracking) when no conflict-free slot exists.  The budget
bounds total scheduling effort per II attempt.

The implementation is machine-shape agnostic (a multi-cluster machine is
treated as a flat pool of units with no communication constraints), but in
the experiments IMS always targets single-cluster machines.
"""

from __future__ import annotations

from typing import Dict, Optional, Set

from ..config import DEFAULT_CONFIG, SchedulerConfig
from ..errors import SchedulingError
from ..ir.ddg import DDG
from ..ir.opcodes import DEFAULT_LATENCIES, LatencyModel
from ..machine.machine import MachineSpec
from .heights import compute_heights
from .mii import compute_mii
from .result import ScheduleResult, SchedulerStats
from .schedule import PartialSchedule
from .search import (
    AttemptLimits,
    AttemptOutcome,
    AttemptRunner,
    FailureEvidence,
    get_search_policy,
)


class IterativeModuloScheduler:
    """Rau's IMS for a machine without communication constraints."""

    name = "ims"

    def __init__(
        self,
        machine: MachineSpec,
        latencies: LatencyModel = DEFAULT_LATENCIES,
        config: SchedulerConfig = DEFAULT_CONFIG,
    ):
        self.machine = machine
        self.latencies = latencies
        self.config = config

    def schedule(self, ddg: DDG) -> ScheduleResult:
        """Find the smallest feasible II for *ddg* and schedule it.

        The II walk is delegated to the search policy named by
        ``config.search`` (see :mod:`repro.scheduling.search`).  IMS is
        deterministic per II — there is no restart salt — so a rung is
        one attempt.
        """
        if len(ddg) == 0:
            raise SchedulingError(f"loop {ddg.name!r} has no operations")
        bounds = compute_mii(ddg, self.machine, self.latencies)
        policy = get_search_policy(self.config.search)
        outcome = policy.search(self.attempt_runner(ddg), bounds.mii, self.config)
        return ScheduleResult(
            loop_name=ddg.name,
            machine=self.machine,
            scheduler=self.name,
            ii=outcome.ii,
            res_mii=bounds.res_mii,
            rec_mii=bounds.rec_mii,
            ddg=outcome.work,
            placements=outcome.placements,
            latencies=self.latencies,
            stats=outcome.stats,
            ii_trajectory=outcome.trajectory,
        )

    def attempt_runner(self, ddg: DDG) -> "IMSAttemptRunner":
        """The per-loop attempt server the search policies drive."""
        return IMSAttemptRunner(self, ddg)

    # ------------------------------------------------------------------

    def _attempt(
        self,
        ddg: DDG,
        ii: int,
        stats: SchedulerStats,
        height_terms=None,
        heights=None,
        limits: Optional[AttemptLimits] = None,
    ) -> Optional[PartialSchedule]:
        schedule = PartialSchedule(ddg, self.machine, ii, self.latencies)
        if heights is None:
            heights = compute_heights(ddg, self.latencies, ii, height_terms)
        unscheduled: Set[int] = set(ddg.op_ids)
        last_time: Dict[int, int] = {}
        budget = self.config.budget_ratio * len(ddg)
        thrash_cap = limits.thrash_cap if limits is not None else None
        budget_abort = limits is not None and limits.budget_infeasible_abort
        pop_counts: Dict[int, int] = {}
        while unscheduled and budget > 0:
            if budget_abort and budget < len(unscheduled):
                stats.futility_aborts += 1
                return None
            op_id = min(unscheduled, key=lambda i: (-heights[i], i))
            if thrash_cap is not None:
                count = pop_counts.get(op_id, 0) + 1
                pop_counts[op_id] = count
                if count - 1 > thrash_cap:
                    stats.futility_aborts += 1
                    return None
            budget -= 1
            stats.budget_used += 1
            unscheduled.remove(op_id)
            estart = max(0, schedule.earliest_start(op_id))
            placed = self._find_slot(schedule, op_id, estart)
            if placed is None:
                placed = self._force(schedule, op_id, estart, last_time, stats, unscheduled)
            time, cluster = placed
            # Scheduled consumers whose timing the new placement breaks.
            for victim in schedule.succ_violations(op_id, time):
                schedule.remove(victim)
                unscheduled.add(victim)
                stats.ejections_dependence += 1
            schedule.place(op_id, time, cluster)
            last_time[op_id] = time
            stats.placements += 1
        if unscheduled:
            return None
        return schedule

    def _find_slot(
        self, schedule: PartialSchedule, op_id: int, estart: int
    ) -> Optional[tuple]:
        """First resource-free (time, cluster) in the II window."""
        kind = schedule.ddg.op(op_id).fu_kind
        for time in range(estart, estart + schedule.ii):
            for cluster in range(self.machine.n_clusters):
                if schedule.mrt.is_free(cluster, kind, time):
                    return (time, cluster)
        return None

    def _force(
        self,
        schedule: PartialSchedule,
        op_id: int,
        estart: int,
        last_time: Dict[int, int],
        stats: SchedulerStats,
        unscheduled: Set[int],
    ) -> tuple:
        """Rau's forced placement: evict the occupants of one MRT cell."""
        if op_id in last_time:
            time = max(estart, last_time[op_id] + 1)
        else:
            time = estart
        kind = schedule.ddg.op(op_id).fu_kind
        # Choose the cluster whose cell at this row needs fewest evictions.
        best_cluster = None
        best_evictions = None
        for cluster in range(self.machine.n_clusters):
            if schedule.mrt.capacity(cluster, kind) == 0:
                continue
            occupants = schedule.mrt.occupants(cluster, kind, time)
            if best_evictions is None or len(occupants) < best_evictions:
                best_cluster = cluster
                best_evictions = len(occupants)
        if best_cluster is None:
            raise SchedulingError(
                f"machine {self.machine.name!r} has no {kind.value} unit"
            )
        for victim in schedule.mrt.occupants(best_cluster, kind, time):
            schedule.remove(victim)
            unscheduled.add(victim)
            stats.ejections_resource += 1
        return (time, best_cluster)


class IMSAttemptRunner(AttemptRunner):
    """Serves IMS attempts to a search policy for one loop.

    IMS never mutates the graph and has no restart salt, so the runner
    shares the graph across attempts, declares one restart per rung, and
    ignores both the salt and the (cluster-preference) failure evidence.
    The shared height caches live on :class:`AttemptRunner`.
    """

    def __init__(self, scheduler: IterativeModuloScheduler, ddg: DDG):
        self.scheduler = scheduler
        self.restarts_per_rung = 1
        self._bind(ddg, scheduler.latencies)

    def run(
        self,
        ii: int,
        salt: int,
        limits: Optional[AttemptLimits] = None,
        evidence: Optional[FailureEvidence] = None,
    ) -> AttemptOutcome:
        stats = SchedulerStats()
        schedule = self.scheduler._attempt(
            self.ddg, ii, stats, heights=self.heights_for(ii), limits=limits
        )
        # evidence stays None even on failure: IMS attempts ignore it, so
        # reporting any would only make the adaptive policy treat its
        # (identical) re-probes as distinct attempts and run them twice.
        return AttemptOutcome(
            ii=ii,
            salt=salt,
            placements=schedule.placements() if schedule is not None else None,
            work=self.ddg,
            stats=stats,
        )
