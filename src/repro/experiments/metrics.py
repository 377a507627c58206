"""Per-loop run records and metric aggregation for the paper's figures."""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

from ..errors import ReproError


@dataclass(frozen=True)
class LoopRun:
    """One (loop, machine, scheduler) measurement.

    ``clusters`` is the cluster count of the comparison point (for the
    unclustered machine it is the k whose clustered twin has 3k FUs).
    """

    loop_name: str
    vectorizable: bool
    clusters: int
    useful_fus: int
    scheduler: str  # "ims" | "dms"
    unroll: int
    ii: int
    mii: int
    res_mii: int
    rec_mii: int
    stage_count: int
    kernel_iterations: int
    cycles: int
    useful_instances: int
    n_moves: int
    n_copies: int
    placements: int
    total_ejections: int
    strategy1: int
    strategy2: int
    strategy3: int

    @classmethod
    def from_record(cls, record: Mapping[str, object], clusters: int) -> "LoopRun":
        """The run at comparison point *clusters* that a compile's record
        describes: ``CompilationReport.to_dict()`` or a stored entry's
        ``summary["report"]``."""
        return cls(
            loop_name=record["loop"],
            clusters=clusters,
            **{name: record[name] for name in _RECORD_FIELDS},
        )

    @property
    def ipc(self) -> float:
        return self.useful_instances / self.cycles

    @property
    def ejections_per_placement(self) -> float:
        """Backtracking intensity (paper section 3's frequency claim)."""
        if self.placements == 0:
            return 0.0
        return self.total_ejections / self.placements


#: LoopRun fields copied verbatim from a compile's record.
_RECORD_FIELDS = tuple(
    f.name for f in fields(LoopRun) if f.name not in ("loop_name", "clusters")
)


def _index_runs(
    runs: Iterable[LoopRun],
) -> Dict[Tuple[str, int, str], LoopRun]:
    indexed: Dict[Tuple[str, int, str], LoopRun] = {}
    for run in runs:
        key = (run.loop_name, run.clusters, run.scheduler)
        if key in indexed:
            raise ReproError(f"duplicate run {key}")
        indexed[key] = run
    return indexed


def ii_overhead_fraction(runs: Sequence[LoopRun], clusters: int) -> float:
    """Fraction of loops with DMS II above the unclustered IMS II.

    This is figure 4's y-axis for one cluster count.
    """
    indexed = _index_runs(runs)
    loops = sorted({r.loop_name for r in runs if r.clusters == clusters})
    if not loops:
        raise ReproError(f"no runs at {clusters} clusters")
    worse = 0
    for name in loops:
        dms = indexed.get((name, clusters, "dms"))
        ims = indexed.get((name, clusters, "ims"))
        if dms is None or ims is None:
            raise ReproError(f"incomplete pair for {name!r} at k={clusters}")
        if dms.ii > ims.ii:
            worse += 1
    return worse / len(loops)


def total_cycles(
    runs: Sequence[LoopRun],
    clusters: int,
    scheduler: str,
    vectorizable_only: bool = False,
) -> int:
    """Suite-wide execution cycles for one machine/scheduler point."""
    total = 0
    found = False
    for run in runs:
        if run.clusters != clusters or run.scheduler != scheduler:
            continue
        if vectorizable_only and not run.vectorizable:
            continue
        total += run.cycles
        found = True
    if not found:
        raise ReproError(
            f"no {scheduler} runs at {clusters} clusters "
            f"(vectorizable_only={vectorizable_only})"
        )
    return total


def aggregate_ipc(
    runs: Sequence[LoopRun],
    clusters: int,
    scheduler: str,
    vectorizable_only: bool = False,
) -> float:
    """Suite-wide IPC: total useful instructions / total cycles."""
    instructions = 0
    cycles = 0
    for run in runs:
        if run.clusters != clusters or run.scheduler != scheduler:
            continue
        if vectorizable_only and not run.vectorizable:
            continue
        instructions += run.useful_instances
        cycles += run.cycles
    if cycles == 0:
        raise ReproError(
            f"no {scheduler} runs at {clusters} clusters "
            f"(vectorizable_only={vectorizable_only})"
        )
    return instructions / cycles


def mean_ejections_per_placement(
    runs: Sequence[LoopRun], clusters: int, scheduler: str
) -> float:
    """Average backtracking intensity across loops (TXT-BT experiment)."""
    values: List[float] = [
        run.ejections_per_placement
        for run in runs
        if run.clusters == clusters and run.scheduler == scheduler
    ]
    if not values:
        raise ReproError(f"no {scheduler} runs at {clusters} clusters")
    return sum(values) / len(values)
