"""Move-operation chains: planning, application and the registry.

A **chain** bridges a communication conflict: a string of ``move``
operations, one per intermediate cluster along one of the topology's
candidate paths between a scheduled producer and the cluster chosen for
the consumer (paper figure 3).  Each move reads from the CQRF behind it and
writes to the CQRF ahead of it, occupying the Copy FU of its own cluster.

Planning rules (paper section 3):

* any cluster can be considered for the operation being scheduled;
* chains can be built only if *clean* (ejection-free) Copy-FU slots exist
  for every move;
* among feasible options, pick the one that "maximizes the number of free
  slots left available to schedule move operations in any cluster" —
  interpreted as maximising the bottleneck (minimum over clusters) of
  remaining Copy-FU slack — tie-broken by the smallest number of moves.

Both criteria depend only on how many moves an option puts in each
cluster, not on which MRT rows they take, and so does feasibility: a
move may issue at any row of its window ``[ready, ready + II)``, so it
finds a clean slot exactly when its cluster's Copy FU has one left.
:meth:`ChainPlanner.plan` therefore scores every option from its
per-cluster move counts against one snapshot of the free Copy-FU slots
(count-based scoring), drops the options that need more slots than a
cluster has, and runs the slot search for the first remaining option in
rank order only (first-feasible slot search).  Planning only reads the
MRT.

The counts do not depend on the schedule either.  For a tuple of far
producer clusters and a target cluster, the **chain option table**
(:meth:`Topology.chain_options <repro.machine.topology.Topology.chain_options>`)
holds the path combinations in ``itertools.product`` order, cut at
``chain_combo_cap``, each with its per-cluster move counts and its move
total.  It is built once per topology instance and per
(``chain_combo_cap``, ``prefer_shortest_chain_only``) and shared by every
schedule on that interconnect.  **Dominance rule:** a combination is left
out of the table when an earlier kept one needs at most as many moves in
every cluster.  The earlier one then touches no cluster the later one
does not, so its slack is at least as large, its move total at most as
large, and its combination index smaller: it ranks first whenever the
later one is feasible.  On top of the table, the attempt runner memoizes
each loop's **candidate list** across all its attempts, keyed by the
scheduled producers' clusters, the *set* of scheduled consumers'
clusters and the FU kind: per target cluster, which producers are far
and their table rows.  A call to :meth:`ChainPlanner.plan` then only
takes the free-slot snapshot and scores the rows against it; the winner
per snapshot is memoized with the list (:class:`CandidateList`), since
the ranking reads nothing else and a failing attempt asks again and
again with the Copy FUs in the same state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..config import SchedulerConfig
from ..errors import SchedulingError
from ..ir.ddg import DDG
from ..ir.opcodes import FUKind, OpCode
from ..ir.operations import ValueUse
from ..machine.topology import CommPath, PathCombo
from .schedule import PartialSchedule


@dataclass(frozen=True)
class Chain:
    """A live chain in the partial schedule."""

    chain_id: int
    producer: int
    consumer: int
    omega: int
    operand_indexes: Tuple[int, ...]
    move_ids: Tuple[int, ...]
    path: CommPath

    @property
    def n_moves(self) -> int:
        return len(self.move_ids)


@dataclass(frozen=True)
class PlannedChain:
    """One chain of a :class:`ChainPlan`, with pre-computed move slots."""

    producer: int
    omega: int
    operand_indexes: Tuple[int, ...]
    path: CommPath
    move_times: Tuple[int, ...]

    @property
    def n_moves(self) -> int:
        return len(self.move_times)


@dataclass(frozen=True)
class ChainPlan:
    """A feasible strategy-2 option: target cluster plus its chains."""

    cluster: int
    chains: Tuple[PlannedChain, ...]
    bottleneck_slack: int

    @property
    def n_moves(self) -> int:
        return sum(c.n_moves for c in self.chains)


class ChainRegistry:
    """Tracks live chains and the operations participating in them."""

    def __init__(self) -> None:
        self._chains: Dict[int, Chain] = {}
        self._by_move: Dict[int, int] = {}
        self._by_endpoint: Dict[int, Set[int]] = {}
        self._next_id = 0

    def add(
        self,
        producer: int,
        consumer: int,
        omega: int,
        operand_indexes: Sequence[int],
        move_ids: Sequence[int],
        path: CommPath,
    ) -> Chain:
        chain = Chain(
            chain_id=self._next_id,
            producer=producer,
            consumer=consumer,
            omega=omega,
            operand_indexes=tuple(operand_indexes),
            move_ids=tuple(move_ids),
            path=path,
        )
        self._next_id += 1
        self._chains[chain.chain_id] = chain
        for move_id in chain.move_ids:
            self._by_move[move_id] = chain.chain_id
        for endpoint in (producer, consumer):
            self._by_endpoint.setdefault(endpoint, set()).add(chain.chain_id)
        return chain

    def remove(self, chain_id: int) -> Chain:
        chain = self._chains.pop(chain_id)
        for move_id in chain.move_ids:
            self._by_move.pop(move_id, None)
        for endpoint in (chain.producer, chain.consumer):
            members = self._by_endpoint.get(endpoint)
            if members is not None:
                members.discard(chain_id)
                if not members:
                    self._by_endpoint.pop(endpoint)
        return chain

    def chain_of_move(self, op_id: int) -> Optional[Chain]:
        chain_id = self._by_move.get(op_id)
        return self._chains.get(chain_id) if chain_id is not None else None

    def chains_of_endpoint(self, op_id: int) -> List[Chain]:
        return sorted(
            (self._chains[c] for c in self._by_endpoint.get(op_id, ())),
            key=lambda chain: chain.chain_id,
        )

    def membership(self, op_id: int) -> List[Chain]:
        """All chains *op_id* participates in (as move or endpoint)."""
        chains = {c.chain_id: c for c in self.chains_of_endpoint(op_id)}
        move_chain = self.chain_of_move(op_id)
        if move_chain is not None:
            chains[move_chain.chain_id] = move_chain
        return [chains[c] for c in sorted(chains)]

    @property
    def n_live(self) -> int:
        return len(self._chains)


class CandidateList:
    """A loop's chain candidates for one (scheduled producer clusters,
    scheduled consumer-cluster set, FU kind).

    ``targets`` holds ``(target cluster, far producer indexes, table
    rows)`` per target cluster that needs a chain, targets ascending.
    ``winners`` memoizes :meth:`best` per free Copy-FU snapshot: the
    ranking reads nothing else, and failing attempts ask again and again
    with the same snapshot.
    """

    __slots__ = ("targets", "score_all", "winners")

    def __init__(
        self,
        targets: Tuple[Tuple[int, Tuple[int, ...], Tuple[PathCombo, ...]], ...],
        score_all: bool,
    ):
        self.targets = targets
        self.score_all = score_all
        self.winners: Dict[Tuple[int, ...], Optional[tuple]] = {}

    def best(
        self, free: Tuple[int, ...]
    ) -> Optional[Tuple[int, Tuple[int, ...], Tuple[CommPath, ...], int]]:
        """``(cluster, far producer indexes, paths, slack)`` of the winning
        row against the free Copy-FU slots per cluster, or None."""
        try:
            return self.winners[free]
        except KeyError:
            pass
        # With score_all no slack exceeds the machine-wide floor; without
        # it the cap is never reached.
        cap = min(free) if self.score_all else None
        best = None
        best_slack = best_moves = -1
        for cluster, far, rows in self.targets:
            for row in rows:
                moves = row.moves
                if best_slack == cap and moves >= best_moves:
                    continue  # cannot beat the incumbent's (slack, moves)
                counts = row.counts
                if counts:
                    slack = min([free[c] - n for c, n in counts])
                    if slack < 0:
                        continue  # more moves than free slots in some cluster
                else:
                    slack = free[cluster]
                if cap is not None and slack > cap:
                    slack = cap
                if slack > best_slack or (slack == best_slack and moves < best_moves):
                    best = (cluster, far, row.paths)
                    best_slack, best_moves = slack, moves
        winner = None if best is None else best + (best_slack,)
        self.winners[free] = winner
        return winner


class ChainPlanner:
    """Builds :class:`ChainPlan` options for DMS strategy 2.

    Candidate paths per far predecessor come from the machine topology
    (two ring directions on the paper machine; up to ``max_paths``
    shortest routes on a mesh or torus).  *candidates* is the
    :class:`CandidateList` memo; an attempt runner passes one dict to
    every attempt of a loop (same machine and config), a standalone
    planner keeps its own.
    """

    def __init__(
        self,
        schedule: PartialSchedule,
        config: SchedulerConfig,
        candidates: Optional[Dict[tuple, CandidateList]] = None,
    ):
        self.schedule = schedule
        self.config = config
        self._move_latency = schedule.latencies.latency(OpCode.MOVE)
        self._candidates: Dict[tuple, CandidateList] = (
            {} if candidates is None else candidates
        )

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------

    def plan(self, op_id: int) -> Optional[ChainPlan]:
        """Best feasible chain plan for *op_id*, or None.

        An option is a target cluster plus one path per far predecessor
        (the first ``chain_combo_cap`` path combinations per cluster).
        With ``count[c]`` its moves in cluster *c* and ``free[c]`` the
        free Copy-FU slots at the call, its bottleneck slack is
        ``min(free[c] - count[c])`` over the touched clusters
        (``free[cluster]`` when none is touched), capped by ``min(free)``
        when ``chain_score_all_clusters`` is set.  A negative slack means
        infeasible.  Options rank by (slack desc, moves asc, cluster asc,
        combination order); only the winner's slots are searched.
        """
        schedule = self.schedule
        pred_groups = self._scheduled_pred_groups(op_id)
        if not pred_groups:
            return None
        cluster_of = schedule.cluster
        preds = [
            (producer, omega, indexes, cluster_of(producer))
            for (producer, omega), indexes in pred_groups.items()
        ]
        pred_clusters = tuple(pred[3] for pred in preds)
        succ_clusters = frozenset(
            cluster_of(s) for s in schedule.scheduled_flow_succs(op_id)
        )
        kind = schedule.ddg.op(op_id).fu_kind
        key = (pred_clusters, succ_clusters, kind.index)
        candidates = self._candidates.get(key)
        if candidates is None:
            candidates = self._candidates[key] = self._candidate_list(
                pred_clusters, succ_clusters, kind
            )
        if not candidates.targets:
            return None
        best = candidates.best(tuple(schedule.mrt.free_slot_counts(FUKind.COPY)))
        if best is None:
            return None
        cluster, far, paths, slack = best
        return ChainPlan(
            cluster, self._slot_moves([preds[i] for i in far], paths), slack
        )

    def _candidate_list(
        self, pred_clusters: Tuple[int, ...], succ_clusters: frozenset, kind: FUKind
    ) -> CandidateList:
        """Targets that need a chain, their far producers and table rows.

        A target qualifies when it has a *kind* unit, every scheduled
        consumer sits within distance 1 of it, and some producer does
        not (strategy 1 handles chain-free clusters).
        """
        schedule = self.schedule
        dist = schedule.dist
        capacity = schedule.mrt.capacity
        options = schedule.topology.chain_options
        combo_cap = self.config.chain_combo_cap
        shortest_only = self.config.prefer_shortest_chain_only
        targets = []
        for cluster in range(schedule.machine.n_clusters):
            if capacity(cluster, kind) == 0:
                continue
            dist_from = dist[cluster]
            if any(dist_from[sc] > 1 for sc in succ_clusters):
                continue
            far = tuple(
                i for i, pc in enumerate(pred_clusters) if dist[pc][cluster] > 1
            )
            if not far:
                continue
            rows = options(
                tuple(pred_clusters[i] for i in far), cluster, combo_cap, shortest_only
            )
            if rows:
                targets.append((cluster, far, rows))
        return CandidateList(tuple(targets), self.config.chain_score_all_clusters)

    def _scheduled_pred_groups(
        self, op_id: int
    ) -> Dict[Tuple[int, int], Tuple[int, ...]]:
        """Scheduled producers grouped by (producer, omega) -> operand idxs."""
        groups: Dict[Tuple[int, int], List[int]] = {}
        op = self.schedule.ddg.op(op_id)
        for index, src in enumerate(op.srcs):
            if src.is_external or src.producer == op_id:
                continue
            if not self.schedule.is_scheduled(src.producer):
                continue
            groups.setdefault((src.producer, src.omega), []).append(index)
        return {key: tuple(indexes) for key, indexes in sorted(groups.items())}

    def _slot_moves(
        self,
        far: List[Tuple[int, int, Tuple[int, ...], int]],
        paths: Tuple[CommPath, ...],
    ) -> Tuple[PlannedChain, ...]:
        """Clean Copy-FU slots for every move of a feasible option.

        Each move takes the first free row in ``[ready, ready + II)``;
        ``taken`` overlays the rows this option's earlier moves claimed
        on the live MRT counts.
        """
        schedule = self.schedule
        mrt = schedule.mrt
        ii = schedule.ii
        taken: Dict[Tuple[int, int], int] = {}
        planned: List[PlannedChain] = []
        for (producer, omega, indexes, _cluster), path in zip(far, paths):
            latency = schedule.latencies.latency(schedule.ddg.op(producer).opcode)
            ready = schedule.time(producer) + latency - ii * omega
            move_times: List[int] = []
            for hop in path.intermediates:
                counts = mrt.row_counts(hop, FUKind.COPY)
                capacity = mrt.capacity(hop, FUKind.COPY)
                estart = max(0, ready)
                for slot in range(estart, estart + ii):
                    row = slot % ii
                    if counts[row] + taken.get((hop, row), 0) < capacity:
                        break
                else:
                    raise SchedulingError(f"no free Copy-FU row left in c{hop}")
                taken[hop, row] = taken.get((hop, row), 0) + 1
                move_times.append(slot)
                ready = slot + self._move_latency
            planned.append(
                PlannedChain(producer, omega, indexes, path, tuple(move_times))
            )
        return tuple(planned)

    # ------------------------------------------------------------------
    # Application
    # ------------------------------------------------------------------

    def apply(
        self, op_id: int, plan: ChainPlan, registry: ChainRegistry
    ) -> List[Chain]:
        """Materialise *plan*: create moves in the DDG, schedule them,
        rewire the consumer's operands and register the chains.

        The MRT state must be unchanged since :meth:`plan` returned, so the
        recorded move slots are still free.
        """
        schedule = self.schedule
        ddg = schedule.ddg
        chains: List[Chain] = []
        for planned in plan.chains:
            previous = ValueUse(planned.producer, planned.omega)
            move_ids: List[int] = []
            for hop_cluster, slot in zip(
                planned.path.intermediates, planned.move_times
            ):
                move = ddg.new_operation(
                    OpCode.MOVE,
                    (previous,),
                    tag=f"mv(v{planned.producer}->v{op_id})",
                )
                schedule.place(move.op_id, slot, hop_cluster)
                previous = ValueUse(move.op_id, 0)
                move_ids.append(move.op_id)
            if not move_ids:
                raise SchedulingError("chain plan without moves")
            for index in planned.operand_indexes:
                ddg.replace_operand(op_id, index, previous)
            chains.append(
                registry.add(
                    producer=planned.producer,
                    consumer=op_id,
                    omega=planned.omega,
                    operand_indexes=planned.operand_indexes,
                    move_ids=move_ids,
                    path=planned.path,
                )
            )
        return chains


def dismantle_chain(
    chain: Chain,
    schedule: PartialSchedule,
    registry: ChainRegistry,
) -> None:
    """Remove *chain* from the schedule and the DDG, restoring the direct
    producer -> consumer operand references.

    The caller decides what happens to the endpoints; this helper only
    guarantees the graph is back to its pre-chain shape.
    """
    ddg = schedule.ddg
    registry.remove(chain.chain_id)
    # Restore the consumer's operands to the original producer reference.
    restored = ValueUse(chain.producer, chain.omega)
    for index in chain.operand_indexes:
        ddg.replace_operand(chain.consumer, index, restored)
    # Remove moves consumer-side first so no flow references remain.
    for move_id in reversed(chain.move_ids):
        if schedule.is_scheduled(move_id):
            schedule.remove(move_id)
        ddg.remove_operation(move_id)
