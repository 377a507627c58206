"""The Modulo Reservation Table (MRT).

An operation issued at time ``t`` occupies its functional-unit kind in its
cluster at row ``t mod II``; a schedule is resource-valid when no
(cluster, kind, row) cell holds more operations than the cluster has units
of that kind.  All FUs are fully pipelined with unit occupancy, matching
the paper's machine model.

The table is organised per (cluster, kind) lane: each lane keeps a
row-indexed occupancy count, sorted occupant lists and a cached occupant
tuple per row.  Lanes are indexed by ints, ``lanes[cluster][kind.index]``,
and carry their capacity, so the is_free/place/remove/occupants cycle on
the scheduler's innermost loops hashes no enum, touches no machine-spec
code and allocates nothing on reads.
"""

from __future__ import annotations

from bisect import insort
from typing import List, Optional, Tuple

from ..errors import SchedulingError
from ..ir.opcodes import FUKind
from ..machine.machine import MachineSpec


class _Lane:
    """Occupancy state of one (cluster, kind) pair across all MRT rows."""

    __slots__ = ("capacity", "counts", "rows", "cached")

    def __init__(self, capacity: int, ii: int):
        self.capacity = capacity
        self.counts: List[int] = [0] * ii
        self.rows: List[List[int]] = [[] for _ in range(ii)]
        self.cached: List[Optional[Tuple[int, ...]]] = [None] * ii


class ModuloReservationTable:
    """Tracks FU occupancy modulo the initiation interval."""

    def __init__(self, machine: MachineSpec, ii: int):
        if ii < 1:
            raise SchedulingError(f"ii must be >= 1, got {ii}")
        self.machine = machine
        self.ii = ii
        self._lanes: List[List[_Lane]] = [
            [_Lane(machine.cluster(cluster).fu_count(kind), ii) for kind in FUKind]
            for cluster in range(machine.n_clusters)
        ]
        # _free[kind.index][cluster]: free slots of the lane summed over
        # all rows (the one occupancy total), laid out per kind so a
        # snapshot of every cluster is one copy.
        self._free: List[List[int]] = [
            [ii * lanes[kind.index].capacity for lanes in self._lanes] for kind in FUKind
        ]

    def row(self, time: int) -> int:
        """MRT row of an issue time."""
        return time % self.ii

    def capacity(self, cluster: int, kind: FUKind) -> int:
        """Units of *kind* in *cluster*."""
        return self._lanes[cluster][kind.index].capacity

    def occupants(self, cluster: int, kind: FUKind, time: int) -> Tuple[int, ...]:
        """Operations occupying the cell covering *time* (sorted).

        The tuple is cached per cell and invalidated on place/remove, so
        repeated reads (eviction ranking scans every candidate cell)
        allocate nothing.
        """
        lane = self._lanes[cluster][kind.index]
        row = time % self.ii
        cached = lane.cached[row]
        if cached is None:
            cached = lane.cached[row] = tuple(lane.rows[row])
        return cached

    def row_counts(self, cluster: int, kind: FUKind) -> List[int]:
        """Live per-row occupancy of one lane; read it, never write it."""
        return self._lanes[cluster][kind.index].counts

    def is_free(self, cluster: int, kind: FUKind, time: int) -> bool:
        """True when one more *kind* op fits in *cluster* at *time*."""
        lane = self._lanes[cluster][kind.index]
        return lane.counts[time % self.ii] < lane.capacity

    def first_free_slot(
        self, cluster: int, kind: FUKind, estart: int
    ) -> Optional[int]:
        """First time in ``[estart, estart + II)`` with a free unit.

        One-lane window scan used by the slot searches of IMS/DMS;
        equivalent to calling :meth:`is_free` for each time in the window
        but without the per-call lookups.
        """
        if not self._free[kind.index][cluster]:
            return None
        lane = self._lanes[cluster][kind.index]
        capacity = lane.capacity
        counts = lane.counts
        ii = self.ii
        for time in range(estart, estart + ii):
            if counts[time % ii] < capacity:
                return time
        return None

    def place(self, op_id: int, cluster: int, kind: FUKind, time: int) -> None:
        """Occupy a unit; caller must have ejected conflicts first."""
        lane = self._lanes[cluster][kind.index]
        row = time % self.ii
        if lane.counts[row] >= lane.capacity:
            raise SchedulingError(
                f"MRT cell (c{cluster}, {kind.value}, row {row}) full"
            )
        insort(lane.rows[row], op_id)
        lane.counts[row] += 1
        lane.cached[row] = None
        self._free[kind.index][cluster] -= 1

    def remove(self, op_id: int, cluster: int, kind: FUKind, time: int) -> None:
        """Release the unit *op_id* held."""
        row = time % self.ii
        lane = self._lanes[cluster][kind.index]
        if op_id not in lane.rows[row]:
            cell = (cluster, kind, row)
            raise SchedulingError(f"op {op_id} not in MRT cell {cell}")
        lane.rows[row].remove(op_id)
        lane.counts[row] -= 1
        lane.cached[row] = None
        self._free[kind.index][cluster] += 1

    def used_slots(self, cluster: int, kind: FUKind) -> int:
        """Occupied (kind) slots in *cluster* summed over all rows."""
        total = self.ii * self._lanes[cluster][kind.index].capacity
        return total - self._free[kind.index][cluster]

    def free_slots(self, cluster: int, kind: FUKind) -> int:
        """Free (kind) slots in *cluster* summed over all rows."""
        return self._free[kind.index][cluster]

    def free_slot_counts(self, kind: FUKind) -> List[int]:
        """Live :meth:`free_slots` of *kind* per cluster; read it, never
        write it."""
        return self._free[kind.index]

    def utilization(self, cluster: int, kind: FUKind) -> float:
        """Fraction of (kind) issue slots used in *cluster*."""
        total = self.ii * self._lanes[cluster][kind.index].capacity
        if total == 0:
            return 0.0
        return (total - self._free[kind.index][cluster]) / total

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        used = sum(sum(lane.counts) for lanes in self._lanes for lane in lanes)
        return f"<MRT ii={self.ii} occupied={used}>"
