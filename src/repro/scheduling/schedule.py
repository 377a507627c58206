"""Partial schedules: placements plus the queries schedulers need.

A placement binds an operation to an issue ``time`` and a ``cluster``.
The :class:`PartialSchedule` keeps the MRT in sync and answers the three
conflict queries of the DMS paper:

* resource conflicts (MRT cell occupancy),
* dependence conflicts (edge timing),
* communication conflicts (flow partners on indirectly connected clusters).

Communication compatibility is the intersection of the topology's cached
``compat_sets`` over the placed flow partners, computed per query.  It is
not kept up to date on place/remove: DMS asks about an op when it pops it
from the ready queue, and by then a partner has almost always moved since
the last query (on the heaviest fig4 compiles 96% of the queries found a
stale or missing entry), so upkeep on every placement cost more than the
recomputations it saved.

The timing and flow-index views are cached against the DDG's per-op
adjacency versions, so move insertion and chain dismantling invalidate
exactly the operations whose adjacency changed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..errors import SchedulingError
from ..ir.ddg import DDG
from ..ir.opcodes import FUKind, LatencyModel
from ..machine.machine import MachineSpec
from .mrt import ModuloReservationTable


@dataclass(frozen=True, slots=True)
class Placement:
    """Issue time and cluster of one scheduled operation."""

    time: int
    cluster: int

    def __post_init__(self) -> None:
        if self.time < 0:
            raise SchedulingError(f"issue time must be >= 0, got {self.time}")

    def __reduce__(self):
        return type(self), (self.time, self.cluster)


class PartialSchedule:
    """Mutable schedule state for one II attempt.

    The schedule holds a *live* reference to the DDG being scheduled: DMS
    mutates the graph (move insertion, chain dismantling) while scheduling,
    and every query below reads the current graph.
    """

    def __init__(
        self,
        ddg: DDG,
        machine: MachineSpec,
        ii: int,
        latencies: LatencyModel,
    ):
        self.ddg = ddg
        self.machine = machine
        self.ii = ii
        self.latencies = latencies
        self.mrt = ModuloReservationTable(machine, ii)
        self._placements: Dict[int, Placement] = {}
        #: The interconnect, bound once: ``machine.topology`` looks the
        #: memoised instance up again on every access.
        self.topology = topology = machine.topology
        #: ``dist[a][b]`` — cached topology distances (built once per
        #: machine, shared by every schedule targeting it).
        self.dist: Tuple[Tuple[int, ...], ...] = topology.distance_matrix()
        #: ``compat[p]`` — clusters a *consumer* of an op on *p* may use;
        #: ``compat_in[s]`` — clusters a *producer* feeding an op on *s*
        #: may use.  Identical on symmetric interconnects, kept separate
        #: so asymmetric registered topologies are judged per direction.
        self.compat: Tuple[frozenset, ...] = topology.compat_sets()
        self.compat_in: Tuple[frozenset, ...] = topology.compat_sets_in()
        self._all_clusters: List[int] = list(range(machine.n_clusters))
        # op -> (version, ((pred, latency - II*omega), ...)) and the
        # successor-side mirror: the constants of the dependence
        # inequalities, flattened so the timing queries touch no edge
        # objects or latency tables.
        self._pred_info: Dict[int, Tuple[int, Tuple[Tuple[int, int], ...]]] = {}
        self._succ_info: Dict[int, Tuple[int, Tuple[Tuple[int, int], ...]]] = {}
        # FUKind.index -> clusters with at least one unit of that kind.
        self._kind_clusters: Dict[int, frozenset] = {}
        # Flow pred/succ indexes keyed by adjacency version.
        self._pred_pairs_cache: Dict[int, Tuple[int, Tuple[Tuple[int, int], ...]]] = {}
        self._succ_ids_cache: Dict[int, Tuple[int, Tuple[int, ...]]] = {}

    # ------------------------------------------------------------------
    # Placement bookkeeping
    # ------------------------------------------------------------------

    def place(self, op_id: int, time: int, cluster: int) -> None:
        """Schedule *op_id*; the MRT cell must be free."""
        if op_id in self._placements:
            raise SchedulingError(f"op {op_id} already scheduled")
        op = self.ddg.op(op_id)
        self.mrt.place(op_id, cluster, op.fu_kind, time)
        self._placements[op_id] = Placement(time, cluster)

    def remove(self, op_id: int) -> Placement:
        """Unschedule *op_id*, returning its old placement."""
        placement = self._placements.pop(op_id, None)
        if placement is None:
            raise SchedulingError(f"op {op_id} is not scheduled")
        op = self.ddg.op(op_id)
        self.mrt.remove(op_id, placement.cluster, op.fu_kind, placement.time)
        return placement

    def placement(self, op_id: int) -> Optional[Placement]:
        """The placement of *op_id*, or None when unscheduled."""
        return self._placements.get(op_id)

    def is_scheduled(self, op_id: int) -> bool:
        return op_id in self._placements

    def time(self, op_id: int) -> int:
        return self._placements[op_id].time

    def cluster(self, op_id: int) -> int:
        return self._placements[op_id].cluster

    @property
    def n_scheduled(self) -> int:
        return len(self._placements)

    def placements(self) -> Dict[int, Placement]:
        """Snapshot of all placements."""
        return dict(self._placements)

    # ------------------------------------------------------------------
    # Timing queries
    # ------------------------------------------------------------------

    def edge_latency(self, edge) -> int:
        """Latency of *edge* (edge-attached cache, see DDG.edge_latency)."""
        return self.ddg.edge_latency(edge, self.latencies)

    def _timing_info(
        self, op_id: int, cache: Dict, incoming: bool
    ) -> Tuple[Tuple[int, int], ...]:
        """Flattened dependence constants ``(partner, latency - II*omega)``
        for the edges entering (or leaving) *op_id*, self-loops excluded;
        cached against the op's adjacency version."""
        version = self.ddg.adj_version(op_id)
        entry = cache.get(op_id)
        if entry is not None and entry[0] == version:
            return entry[1]
        ii = self.ii
        if incoming:
            info = tuple(
                (edge.src, self.edge_latency(edge) - ii * edge.omega)
                for edge in self.ddg.in_edges(op_id)
                if edge.src != op_id
            )
        else:
            info = tuple(
                (edge.dst, self.edge_latency(edge) - ii * edge.omega)
                for edge in self.ddg.out_edges(op_id)
                if edge.dst != op_id
            )
        cache[op_id] = (version, info)
        return info

    def earliest_start(self, op_id: int) -> int:
        """Earliest issue time satisfying all *scheduled* predecessors."""
        estart = 0
        placements = self._placements
        # Self-recurrences are excluded: bounded by RecMII, not estart.
        for src, const in self._timing_info(op_id, self._pred_info, True):
            src_placement = placements.get(src)
            if src_placement is None:
                continue
            bound = src_placement.time + const
            if bound > estart:
                estart = bound
        return estart

    def succ_violations(self, op_id: int, time: int) -> List[int]:
        """Scheduled consumers whose timing breaks if *op_id* issues at *time*."""
        violated = set()
        placements = self._placements
        for dst, const in self._timing_info(op_id, self._succ_info, False):
            dst_placement = placements.get(dst)
            if dst_placement is None:
                continue
            if dst_placement.time < time + const:
                violated.add(dst)
        return sorted(violated)

    def clusters_with(self, kind: FUKind) -> frozenset:
        """Clusters owning at least one *kind* unit (cached)."""
        clusters = self._kind_clusters.get(kind.index)
        if clusters is None:
            capacity = self.mrt.capacity
            clusters = frozenset(
                c for c in range(self.machine.n_clusters) if capacity(c, kind) > 0
            )
            self._kind_clusters[kind.index] = clusters
        return clusters

    # ------------------------------------------------------------------
    # Communication queries (the DMS-specific part)
    # ------------------------------------------------------------------

    def comm_conflicts(self, op_id: int, cluster: int) -> List[int]:
        """Scheduled flow partners indirectly connected to *cluster*.

        These are the operations that would be in communication conflict
        with *op_id* if it were placed on *cluster*.
        """
        dist = self.dist
        dist_from = dist[cluster]
        placements = self._placements
        conflicts = set()
        for edge in self.ddg.in_edges(op_id):
            if not edge.communicates or edge.src == op_id:
                continue
            partner = placements.get(edge.src)
            if partner is not None and dist[partner.cluster][cluster] > 1:
                conflicts.add(edge.src)
        for edge in self.ddg.out_edges(op_id):
            if not edge.communicates or edge.dst == op_id:
                continue
            partner = placements.get(edge.dst)
            if partner is not None and dist_from[partner.cluster] > 1:
                conflicts.add(edge.dst)
        return sorted(conflicts)

    def comm_compatible_clusters(self, op_id: int) -> List[int]:
        """Clusters where *op_id* conflicts with no scheduled flow partner,
        ascending: the intersection of ``compat[cluster(p)]`` over its
        placed producers *p* and ``compat_in[cluster(s)]`` over its placed
        consumers *s*.  Callers treat the list as read-only.
        """
        compatible = None
        placements = self._placements
        ddg = self.ddg
        for edge in ddg.in_edges(op_id):
            if edge.communicates and edge.src != op_id:
                placement = placements.get(edge.src)
                if placement is not None:
                    if compatible is None:
                        compatible = set(self.compat[placement.cluster])
                    else:
                        compatible &= self.compat[placement.cluster]
        for edge in ddg.out_edges(op_id):
            if edge.communicates and edge.dst != op_id:
                placement = placements.get(edge.dst)
                if placement is not None:
                    if compatible is None:
                        compatible = set(self.compat_in[placement.cluster])
                    else:
                        compatible &= self.compat_in[placement.cluster]
        if compatible is None:
            return self._all_clusters
        return sorted(compatible)

    def _flow_pred_pairs(self, op_id: int) -> Tuple[Tuple[int, int], ...]:
        """Sorted unique (producer, omega) flow pairs (cached, no self)."""
        version = self.ddg.adj_version(op_id)
        entry = self._pred_pairs_cache.get(op_id)
        if entry is not None and entry[0] == version:
            return entry[1]
        pairs = tuple(
            sorted(
                {
                    (edge.src, edge.omega)
                    for edge in self.ddg.in_edges(op_id)
                    if edge.communicates and edge.src != op_id
                }
            )
        )
        self._pred_pairs_cache[op_id] = (version, pairs)
        return pairs

    def _flow_succ_ids(self, op_id: int) -> Tuple[int, ...]:
        """Sorted unique flow consumer ids (cached, no self)."""
        version = self.ddg.adj_version(op_id)
        entry = self._succ_ids_cache.get(op_id)
        if entry is not None and entry[0] == version:
            return entry[1]
        succs = tuple(
            sorted(
                {
                    e.dst
                    for e in self.ddg.out_edges(op_id)
                    if e.communicates and e.dst != op_id
                }
            )
        )
        self._succ_ids_cache[op_id] = (version, succs)
        return succs

    def scheduled_partner_clusters(self, op_id: int) -> List[int]:
        """Clusters of scheduled flow partners, as a multiset.

        One entry per unique scheduled (producer, omega) pred pair plus
        one per unique scheduled consumer — the weighting the cluster
        preference's distance sum uses.  Order is unspecified (callers
        aggregate commutatively), which avoids the sort the individual
        pred/succ queries pay.
        """
        placements = self._placements
        clusters = []
        for src, _omega in self._flow_pred_pairs(op_id):
            placement = placements.get(src)
            if placement is not None:
                clusters.append(placement.cluster)
        for dst in self._flow_succ_ids(op_id):
            placement = placements.get(dst)
            if placement is not None:
                clusters.append(placement.cluster)
        return clusters

    def scheduled_flow_preds(self, op_id: int) -> List[Tuple[int, int]]:
        """Scheduled producers of *op_id* as (producer_id, omega) pairs."""
        placements = self._placements
        return [
            pair for pair in self._flow_pred_pairs(op_id) if pair[0] in placements
        ]

    def scheduled_flow_succs(self, op_id: int) -> List[int]:
        """Scheduled consumers of *op_id*'s value."""
        placements = self._placements
        return [s for s in self._flow_succ_ids(op_id) if s in placements]

    # ------------------------------------------------------------------
    # Derived schedule shape
    # ------------------------------------------------------------------

    @property
    def max_time(self) -> int:
        """Largest issue time (0 when empty)."""
        if not self._placements:
            return 0
        return max(p.time for p in self._placements.values())

    @property
    def stage_count(self) -> int:
        """Number of kernel stages: ``floor(max_time / II) + 1``."""
        return self.max_time // self.ii + 1

    def free_slots(self, cluster: int, kind: FUKind) -> int:
        """Free *kind* slots of *cluster* (MRT passthrough)."""
        return self.mrt.free_slots(cluster, kind)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<PartialSchedule ii={self.ii} scheduled={self.n_scheduled}/"
            f"{len(self.ddg)}>"
        )
