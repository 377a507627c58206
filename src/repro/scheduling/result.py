"""Schedule results and scheduler statistics."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Tuple

from ..ir.ddg import DDG
from ..ir.opcodes import LatencyModel, OpCode, is_useful
from ..machine.machine import MachineSpec
from .schedule import Placement


@dataclass
class SchedulerStats:
    """Counters accumulated while scheduling one loop.

    ``ejections_*`` follow the paper's three conflict classes, plus the
    chain-dismantling ejections specific to DMS backtracking.

    ``ii_attempts`` counts distinct II rungs visited; ``restart_attempts``
    counts every scheduling attempt actually executed (>= ``ii_attempts``
    whenever restarts or re-probes happen); ``futility_aborts`` counts
    attempts the adaptive search policy cut short.  The search layer
    aggregates per-attempt stats, so every counter is the exact sum over
    the attempt log (see ``tests/test_search_policies.py``).
    """

    ii_attempts: int = 0
    restart_attempts: int = 0
    futility_aborts: int = 0
    placements: int = 0
    budget_used: int = 0
    ejections_resource: int = 0
    ejections_dependence: int = 0
    ejections_communication: int = 0
    ejections_chain: int = 0
    chains_built: int = 0
    chains_dismantled: int = 0
    moves_inserted: int = 0
    moves_removed: int = 0
    strategy1: int = 0
    strategy2: int = 0
    strategy3: int = 0

    @property
    def total_ejections(self) -> int:
        return (
            self.ejections_resource
            + self.ejections_dependence
            + self.ejections_communication
            + self.ejections_chain
        )

    def merge(self, other: "SchedulerStats") -> None:
        """Accumulate *other* into this object (suite aggregation)."""
        for name in vars(other):
            setattr(self, name, getattr(self, name) + getattr(other, name))


@dataclass(frozen=True)
class ScheduleResult:
    """A finished modulo schedule for one loop on one machine.

    Attributes:
        loop_name: the scheduled loop.
        machine: target machine.
        scheduler: ``"ims"``, ``"dms"`` or ``"two-phase"``.
        ii: achieved initiation interval.
        res_mii / rec_mii: lower bounds (on the scheduled DDG).
        ddg: the final graph, including copies and any surviving moves.
        placements: op id -> :class:`Placement`.
        latencies: latency model used.
        stats: scheduling effort counters.
        ii_trajectory: distinct II candidates the search visited, ending
            at the achieved II (empty only for a result built outside a
            scheduler, such as a hand-made or mutated schedule).
    """

    loop_name: str
    machine: MachineSpec
    scheduler: str
    ii: int
    res_mii: int
    rec_mii: int
    ddg: DDG
    placements: Mapping[int, Placement]
    latencies: LatencyModel
    stats: SchedulerStats = field(default_factory=SchedulerStats)
    ii_trajectory: Tuple[int, ...] = ()

    @property
    def mii(self) -> int:
        return max(self.res_mii, self.rec_mii, 1)

    @property
    def ii_overhead(self) -> int:
        """Cycles of II above the lower bound."""
        return self.ii - self.mii

    @property
    def max_time(self) -> int:
        if not self.placements:
            return 0
        return max(p.time for p in self.placements.values())

    @property
    def stage_count(self) -> int:
        """Kernel stages (SC): ``floor(max_time / II) + 1``."""
        return self.max_time // self.ii + 1

    def cycles(self, iterations: int) -> int:
        """Execution cycles for *iterations* kernel iterations.

        Standard modulo-schedule ramp model: ``(n + SC - 1) * II`` covers
        prologue, kernel and epilogue (the oracle reports its measured
        span next to it).
        """
        if iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {iterations}")
        return (iterations + self.stage_count - 1) * self.ii

    @property
    def n_useful_ops(self) -> int:
        """Operations counted by the paper's IPC (copy/move excluded)."""
        return self.ddg.n_useful_ops()

    @property
    def n_moves(self) -> int:
        """Move operations surviving in the final schedule."""
        return sum(1 for op in self.ddg.operations() if op.opcode == OpCode.MOVE)

    @property
    def n_copies(self) -> int:
        """Copy operations in the final schedule."""
        return sum(1 for op in self.ddg.operations() if op.opcode == OpCode.COPY)

    def useful_instances(self, iterations: int) -> int:
        """Useful operation issues over *iterations* kernel iterations."""
        return self.n_useful_ops * iterations

    def ipc(self, iterations: int) -> float:
        """Useful instructions per cycle, ramp included (paper figure 6)."""
        return self.useful_instances(iterations) / self.cycles(iterations)

    def cluster_histogram(self) -> Dict[int, int]:
        """Operations per cluster."""
        hist: Dict[int, int] = {c: 0 for c in range(self.machine.n_clusters)}
        for placement in self.placements.values():
            hist[placement.cluster] += 1
        return hist

    def summary(self) -> str:
        """One-line result description."""
        return (
            f"{self.loop_name}: {self.scheduler.upper()} on {self.machine.name} "
            f"II={self.ii} (MII={self.mii}) SC={self.stage_count} "
            f"moves={self.n_moves} copies={self.n_copies}"
        )
