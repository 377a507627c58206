"""Distributed Modulo Scheduling (DMS) — the paper's core contribution.

DMS integrates cluster assignment into iterative modulo scheduling.  Every
operation is scheduled by the first applicable of three strategies
(paper figure 2):

1. **Strategy 1** — find a slot in a *communication-compatible* cluster
   (topology distance <= 1 to every scheduled flow predecessor and
   successor).
   A clean resource-free slot in the II window is preferred; otherwise a
   forced placement ejects the occupants of one MRT cell.  Ejections here
   are only for resource conflicts and dependence conflicts with
   successors — never communication conflicts.
2. **Strategy 2** — when no compatible cluster exists, bridge the far
   predecessors with **chains of move operations** through intermediate
   clusters (one option per topology path, e.g. the two ring
   directions).  Chains need clean
   Copy-FU slots; the chosen option maximises the bottleneck Copy-FU
   slack, tie-broken by fewest moves.  The DDG is updated with the new
   moves, which are scheduled immediately, producer-side first.
3. **Strategy 3** — when chains are impossible too, place the operation in
   an arbitrarily chosen cluster IMS-style and additionally eject the
   communication-conflicting partners.

Backtracking is chain-aware: ejecting a chain's producer, any of its
moves, or its consumer dismantles the chain (moves leave the schedule
*and* the DDG, the original operand reference is restored); if a move is
ejected while both endpoints remain scheduled on indirectly connected
clusters, the consumer is ejected as well.  The partial schedule therefore
never contains a communication conflict — an invariant the checker and the
property tests enforce.

The outer II/restart walk lives in :mod:`repro.scheduling.search`; this
module contributes :class:`DMSAttemptRunner` (one attempt = one salt at
one II on a pristine graph copy) and the per-attempt machinery.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Set, Tuple

from ..config import DEFAULT_CONFIG, SchedulerConfig
from ..errors import SchedulingError
from ..ir.ddg import DDG
from ..ir.opcodes import DEFAULT_LATENCIES, FUKind, LatencyModel
from ..machine.machine import MachineSpec
from .chains import ChainPlanner, ChainRegistry, dismantle_chain
from .heights import compute_heights
from .mii import compute_mii
from .result import ScheduleResult, SchedulerStats
from .schedule import PartialSchedule
from .search import (
    _HOT_POP_THRESHOLD,
    AttemptLimits,
    AttemptOutcome,
    AttemptRunner,
    FailureEvidence,
    get_search_policy,
)

#: Maximum operand references per value DMS accepts on clustered machines.
_MAX_CLUSTERED_FANOUT = 2


class DistributedModuloScheduler:
    """DMS for clustered VLIW machines with any registered topology."""

    name = "dms"

    def __init__(
        self,
        machine: MachineSpec,
        latencies: LatencyModel = DEFAULT_LATENCIES,
        config: SchedulerConfig = DEFAULT_CONFIG,
    ):
        self.machine = machine
        self.latencies = latencies
        self.config = config

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def schedule(self, ddg: DDG) -> ScheduleResult:
        """Find the smallest feasible II for *ddg* and schedule it.

        The II/restart walk itself is delegated to the search policy
        named by ``config.search`` (see :mod:`repro.scheduling.search`);
        this method owns only the per-loop invariants and the result
        assembly.
        """
        if len(ddg) == 0:
            raise SchedulingError(f"loop {ddg.name!r} has no operations")
        self._check_fanout(ddg)
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

    def attempt_runner(self, ddg: DDG) -> "DMSAttemptRunner":
        """The per-loop attempt server the search policies drive."""
        return DMSAttemptRunner(self, ddg)

    def _check_fanout(self, ddg: DDG) -> None:
        if not self.machine.is_clustered:
            return
        for op_id in ddg.op_ids:
            fanout = ddg.flow_fanout(op_id)
            if fanout > _MAX_CLUSTERED_FANOUT:
                raise SchedulingError(
                    f"loop {ddg.name!r}: op {op_id} has fan-out {fanout}; "
                    "apply the single-use transform before DMS "
                    "(repro.ir.transforms.single_use_ddg)"
                )


class DMSAttemptRunner(AttemptRunner):
    """Serves DMS attempts to a search policy for one loop (the shared
    height caches live on :class:`AttemptRunner`)."""

    def __init__(self, scheduler: DistributedModuloScheduler, ddg: DDG):
        self.scheduler = scheduler
        self.restarts_per_rung = scheduler.config.restarts_per_ii
        self._can_mutate = scheduler.machine.is_clustered
        self._bind(ddg, scheduler.latencies)

    def run(
        self,
        ii: int,
        salt: int,
        limits: Optional[AttemptLimits] = None,
        evidence: Optional[FailureEvidence] = None,
    ) -> AttemptOutcome:
        # Each attempt works on a pristine copy: chains from failed
        # attempts must not leak into the next one.  An unclustered
        # machine never builds chains, so the graph cannot mutate and
        # the copy is skipped.  The salt rotates the cluster preference
        # so restarts explore different greedy assignments (see
        # SchedulerConfig).
        work = self.ddg.copy() if self._can_mutate else self.ddg
        stats = SchedulerStats()
        attempt = _Attempt(
            self.scheduler,
            work,
            ii,
            stats,
            salt,
            self.heights_for(ii),
            limits=limits,
            evidence=evidence,
        )
        schedule = attempt.run()
        return AttemptOutcome(
            ii=ii,
            salt=salt,
            placements=schedule.placements() if schedule is not None else None,
            work=work,
            stats=stats,
            evidence=attempt.failure_evidence() if schedule is None else None,
        )


class _Attempt:
    """State of one II attempt (schedule, chains, budget)."""

    def __init__(
        self,
        scheduler: DistributedModuloScheduler,
        work: DDG,
        ii: int,
        stats: SchedulerStats,
        salt: int = 0,
        heights: Optional[Dict[int, int]] = None,
        limits: Optional[AttemptLimits] = None,
        evidence: Optional[FailureEvidence] = None,
    ):
        self.machine = scheduler.machine
        self.latencies = scheduler.latencies
        self.config = scheduler.config
        self.work = work
        self.ii = ii
        self.stats = stats
        self.salt = salt
        self.limits = limits
        self.evidence = evidence
        # Pop counts feed both the thrash cutoff and failure evidence;
        # neither exists on the reference (limits=None) path, which must
        # stay byte-for-byte the seed algorithm.
        self.pop_counts: Optional[Dict[int, int]] = (
            {} if limits is not None else None
        )
        self._evidence_rank: Optional[Dict[int, int]] = (
            {c: i for i, c in enumerate(evidence.cluster_order)}
            if evidence is not None
            else None
        )
        self.schedule = PartialSchedule(work, self.machine, ii, self.latencies)
        self.registry = ChainRegistry()
        self.planner = ChainPlanner(self.schedule, self.config)
        self.unscheduled: Set[int] = set(work.op_ids)
        self.last_time: Dict[int, int] = {}
        self.force_counts: Dict[int, int] = {}
        self.heights = (
            heights
            if heights is not None
            else compute_heights(work, self.latencies, ii)
        )
        # Height-ordered ready queue with lazy deletion: pop_ready()
        # yields exactly min(unscheduled, key=(-height, id)) without the
        # O(n) scan per placement.  Ejected ops are pushed again; stale
        # heap entries (op already popped or still scheduled) are skipped.
        self._ready = [(-self.heights[op_id], op_id) for op_id in work.op_ids]
        heapq.heapify(self._ready)

    # ------------------------------------------------------------------

    def _pop_ready(self) -> int:
        """Highest-height unscheduled op (ties by lowest id)."""
        ready = self._ready
        unscheduled = self.unscheduled
        while ready:
            op_id = heapq.heappop(ready)[1]
            if op_id in unscheduled:
                return op_id
        raise SchedulingError("ready queue exhausted with unscheduled ops")

    def _mark_unscheduled(self, op_id: int) -> None:
        """Return an ejected op to the ready queue."""
        self.unscheduled.add(op_id)
        heapq.heappush(self._ready, (-self.heights[op_id], op_id))

    def run(self) -> Optional[PartialSchedule]:
        budget = self.config.budget_ratio * len(self.work)
        limits = self.limits
        if limits is None:
            # Reference path (ladder): the seed loop, verbatim.
            while self.unscheduled and budget > 0:
                budget -= 1
                self.stats.budget_used += 1
                op_id = self._pop_ready()
                self.unscheduled.remove(op_id)
                self._schedule_op(op_id)
            if self.unscheduled:
                return None
            return self.schedule
        thrash_cap = limits.thrash_cap
        pop_counts = self.pop_counts
        while self.unscheduled and budget > 0:
            if limits.budget_infeasible_abort and budget < len(self.unscheduled):
                # Each placement costs one budget unit and schedules one
                # op: finishing is already impossible (outcome-exact).
                self.stats.futility_aborts += 1
                return None
            op_id = self._pop_ready()
            count = pop_counts.get(op_id, 0) + 1
            pop_counts[op_id] = count
            if thrash_cap is not None and count - 1 > thrash_cap:
                # Livelock: one op is being ejected over and over.  The
                # op stays in the unscheduled set so the evidence report
                # sees it (heuristic cutoff — see AttemptLimits).
                self.stats.futility_aborts += 1
                return None
            budget -= 1
            self.stats.budget_used += 1
            self.unscheduled.remove(op_id)
            self._schedule_op(op_id)
        if self.unscheduled:
            return None
        return self.schedule

    def failure_evidence(self) -> FailureEvidence:
        """What this (failed) attempt learned, for the next probe."""
        hot = set(self.unscheduled)
        if self.pop_counts is not None:
            hot.update(
                op_id
                for op_id, count in self.pop_counts.items()
                if count - 1 >= _HOT_POP_THRESHOLD
            )
        load = [0] * self.machine.n_clusters
        for placement in self.schedule.placements().values():
            load[placement.cluster] += 1
        cluster_order = tuple(
            sorted(range(self.machine.n_clusters), key=lambda c: (load[c], c))
        )
        return FailureEvidence(
            hot_ops=frozenset(hot), cluster_order=cluster_order
        )

    def _schedule_op(self, op_id: int) -> None:
        estart = max(0, self.schedule.earliest_start(op_id))
        kind = self.work.op(op_id).fu_kind
        with_kind = self.schedule.clusters_with(kind)
        compatible = [
            cluster
            for cluster in self.schedule.comm_compatible_clusters(op_id)
            if cluster in with_kind
        ]
        if compatible:
            self.stats.strategy1 += 1
            time, cluster = self._place_in_clusters(op_id, estart, compatible)
        else:
            plan = self.planner.plan(op_id)
            if plan is not None:
                self.stats.strategy2 += 1
                self.stats.chains_built += len(plan.chains)
                self.stats.moves_inserted += plan.n_moves
                self.planner.apply(op_id, plan, self.registry)
                # The moves are now scheduled predecessors of op_id.
                estart = max(0, self.schedule.earliest_start(op_id))
                time, cluster = self._place_in_clusters(
                    op_id, estart, [plan.cluster]
                )
            else:
                self.stats.strategy3 += 1
                time, cluster = self._place_strategy3(op_id, estart, kind)
        for victim in self.schedule.succ_violations(op_id, time):
            self._eject(victim, "dependence")
        self.schedule.place(op_id, time, cluster)
        self.last_time[op_id] = time
        self.stats.placements += 1

    # ------------------------------------------------------------------
    # Placement helpers
    # ------------------------------------------------------------------

    def _place_in_clusters(
        self, op_id: int, estart: int, clusters: List[int]
    ) -> Tuple[int, int]:
        """IMS-style placement restricted to *clusters* (strategies 1-2).

        The clean-slot scan is time-major over the preference order; one
        windowed lane scan per cluster plus a min() reproduces the
        original nested loop without per-(time, cluster) MRT probes.
        """
        kind = self.work.op(op_id).fu_kind
        ordered = self._cluster_preference(op_id, kind, clusters)
        first_free = self.schedule.mrt.first_free_slot
        best: Optional[Tuple[int, int]] = None  # (time, preference index)
        for index, cluster in enumerate(ordered):
            time = first_free(cluster, kind, estart)
            if time == estart:
                # A free slot at estart on the most-preferred cluster so
                # far cannot be beaten by any later preference.
                return (estart, cluster)
            if time is not None and (best is None or (time, index) < best):
                best = (time, index)
        if best is not None:
            return (best[0], ordered[best[1]])
        return self._force_in_clusters(op_id, estart, ordered, kind)

    def _cluster_preference(
        self, op_id: int, kind: FUKind, clusters: List[int]
    ) -> List[int]:
        """Order candidate clusters for the clean-slot scan.

        Operations with scheduled flow partners stay close to them (chains
        of dependent work settle on neighbouring clusters, using the
        near-neighbour CQRFs the machine gives away for free); independent
        operations are spread over the clusters by a deterministic
        rotation so parallel dependence chains claim different regions
        instead of piling onto cluster 0.
        """
        if len(clusters) <= 1:
            return list(clusters)
        dist = self.schedule.dist
        partner_clusters = self.schedule.scheduled_partner_clusters(op_id)
        if partner_clusters:
            free_slots = self.schedule.mrt.free_slots
            keyed = []
            for c in clusters:
                dist_from = dist[c]
                total = 0
                for pc in partner_clusters:
                    total += dist_from[pc]
                keyed.append((total, -free_slots(c, kind), c))
            keyed.sort()
            return [key[2] for key in keyed]
        # Spread partner-free operations proportionally to their position
        # in the graph: parallel dependence chains (whose members have
        # nearby ids) claim evenly spaced cluster regions, leaving each
        # region's units for the chain that starts there.
        n = self.machine.n_clusters
        rotation = (op_id * n) // max(1, len(self.work)) + self.salt
        rank = self._evidence_rank
        if rank is not None and op_id in self.evidence.hot_ops:
            # Evidence seeding: an op that thrashed in the previous
            # failed attempt starts its scan from the clusters that
            # attempt left least loaded, the salt rotation breaking ties
            # so successive probes still diversify.
            return sorted(
                clusters, key=lambda c: (rank.get(c, n), (c - rotation) % n)
            )
        return sorted(clusters, key=lambda c: (c - rotation) % n)

    def _force_in_clusters(
        self, op_id: int, estart: int, clusters: List[int], kind: FUKind
    ) -> Tuple[int, int]:
        """Forced placement: evict the cheapest MRT cell among *clusters*."""
        if op_id in self.last_time:
            time = max(estart, self.last_time[op_id] + 1)
        else:
            time = estart
        # Rotate the eviction target across retries: Rau's `prev + 1` time
        # bump makes progress in *time*, but at small IIs (one or two MRT
        # rows) cluster assignment is the real search space, so a repeated
        # forced placement must not keep evicting the same cell.
        retries = self.force_counts.get(op_id, 0)
        self.force_counts[op_id] = retries + 1
        ranked = sorted(
            clusters,
            key=lambda c: (len(self.schedule.mrt.occupants(c, kind, time)), c),
        )
        best_cluster = ranked[retries % len(ranked)]
        for victim in self.schedule.mrt.occupants(best_cluster, kind, time):
            self._eject(victim, "resource")
        return (time, best_cluster)

    def _place_strategy3(
        self, op_id: int, estart: int, kind: FUKind
    ) -> Tuple[int, int]:
        """Arbitrary-cluster placement with communication ejections."""
        capacity = self.schedule.mrt.capacity
        candidates = [
            c
            for c in range(self.machine.n_clusters)
            if capacity(c, kind) > 0
        ]
        if not candidates:
            raise SchedulingError(
                f"machine {self.machine.name!r} has no {kind.value} unit"
            )
        cluster = max(
            candidates, key=lambda c: (self.schedule.free_slots(c, kind), -c)
        )
        # Communication conflicts do not depend on the slot; eject them now.
        for victim in self.schedule.comm_conflicts(op_id, cluster):
            self._eject(victim, "communication")
        # IMS-like slot search within the chosen cluster.
        time = self.schedule.mrt.first_free_slot(cluster, kind, estart)
        if time is not None:
            return (time, cluster)
        if op_id in self.last_time:
            time = max(estart, self.last_time[op_id] + 1)
        else:
            time = estart
        for victim in self.schedule.mrt.occupants(cluster, kind, time):
            self._eject(victim, "resource")
        return (time, cluster)

    # ------------------------------------------------------------------
    # Chain-aware backtracking
    # ------------------------------------------------------------------

    def _eject(self, op_id: int, cause: str) -> None:
        """Unschedule *op_id*, handling chain membership (paper section 3).

        Distinct actions by role: a *move* dismantles its chain (and the
        consumer follows when the endpoints are left in conflict); an
        *endpoint* (original producer or consumer) dismantles every chain
        it participates in and returns to the unscheduled set.
        """
        if op_id not in self.work:
            # A move already removed by an earlier dismantle this round.
            return
        chain = self.registry.chain_of_move(op_id)
        if chain is not None:
            self._dismantle(chain)
            producer, consumer = chain.producer, chain.consumer
            if self.schedule.is_scheduled(producer) and self.schedule.is_scheduled(
                consumer
            ):
                distance = self.schedule.dist[self.schedule.cluster(producer)][
                    self.schedule.cluster(consumer)
                ]
                if distance > 1:
                    # Keep the partial schedule free of communication
                    # conflicts: the consumer is rescheduled later.
                    self._eject(consumer, "chain")
            return
        if self.schedule.is_scheduled(op_id):
            self.schedule.remove(op_id)
            self._mark_unscheduled(op_id)
            self._count(cause)
        for endpoint_chain in self.registry.chains_of_endpoint(op_id):
            self._dismantle(endpoint_chain)

    def _dismantle(self, chain) -> None:
        dismantle_chain(chain, self.schedule, self.registry)
        self.stats.chains_dismantled += 1
        self.stats.moves_removed += chain.n_moves

    def _count(self, cause: str) -> None:
        if cause == "resource":
            self.stats.ejections_resource += 1
        elif cause == "dependence":
            self.stats.ejections_dependence += 1
        elif cause == "communication":
            self.stats.ejections_communication += 1
        else:
            self.stats.ejections_chain += 1
