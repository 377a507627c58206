"""Compilation requests and structured reports.

A :class:`CompilationRequest` names everything one compilation depends on
— the loop, the machine, the latency model, the scheduler configuration
and the driver knobs that used to be loose keyword arguments of
``compile_loop``.  Because the request is a plain frozen value it can be
hashed (:meth:`CompilationRequest.cache_key`), pickled across worker
processes, and recorded next to its result.

A :class:`CompilationReport` is what a :class:`~repro.api.toolchain.Toolchain`
returns: the :class:`~repro.scheduling.pipeline.CompiledLoop` plus
per-pass wall-clock timings, the II-search trajectory, diagnostics from
every pass, and cache provenance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from ..config import DEFAULT_CONFIG, SchedulerConfig
from ..errors import ToolchainError
from ..ir.loop import Loop
from ..ir.opcodes import DEFAULT_LATENCIES, LatencyModel
from ..machine.machine import MachineSpec
from ..scheduling.pipeline import CompiledLoop
from ..scheduling.result import ScheduleResult
from ..targets.spec import TargetSpec

#: Scheduler names a request may force (``None`` = pick by machine shape).
SCHEDULER_CHOICES = ("ims", "dms", "two_phase")


@dataclass(frozen=True)
class CompilationRequest:
    """One compilation job: a loop, a machine, and the driver knobs.

    Attributes:
        loop: the base (un-unrolled) loop to compile.
        machine: the target — a :class:`MachineSpec`/:class:`TargetSpec`
            value, a registered target name (``"mesh-3x3"``) or a path to
            a ``.toml``/``.json`` machine file.  Strings are resolved at
            construction.
        latencies: operation latency model.  ``None`` (the default)
            inherits: the machine's own model for a :class:`TargetSpec`,
            :data:`DEFAULT_LATENCIES` otherwise.  Any explicit model —
            including ``DEFAULT_LATENCIES`` itself — wins over the
            target's.
        config: scheduler tunables, including the II-search policy
            (``config.search``: ``"adaptive"`` or ``"ladder"`` — see
            :mod:`repro.scheduling.search`); part
            of the cache key, so reports compiled under different
            policies never alias.
        unroll: explicit unroll factor; ``None`` picks it automatically.
        equivalent_k: per-kind FU count of the unclustered reference used
            by the automatic unroll choice (so a clustered/unclustered
            comparison pair shares one factor).
        allocate: run queue allocation (clustered machines only).
        validate: run the independent schedule checker on the result.
        scheduler: force ``"ims"``, ``"dms"`` or ``"two_phase"``; ``None``
            selects DMS for clustered machines and IMS otherwise.
    """

    loop: Loop
    machine: Union[MachineSpec, str]
    latencies: Optional[LatencyModel] = None
    config: SchedulerConfig = DEFAULT_CONFIG
    unroll: Optional[int] = None
    equivalent_k: Optional[int] = None
    allocate: bool = True
    validate: bool = False
    scheduler: Optional[str] = None

    def __post_init__(self) -> None:
        if isinstance(self.machine, str):
            from ..targets import resolve_target

            object.__setattr__(self, "machine", resolve_target(self.machine))
        if not isinstance(self.machine, MachineSpec):
            raise ToolchainError(
                f"machine must be a MachineSpec or a target name/file, "
                f"got {type(self.machine).__name__}"
            )
        if self.latencies is None:
            inherited = (
                self.machine.latencies
                if isinstance(self.machine, TargetSpec)
                else DEFAULT_LATENCIES
            )
            object.__setattr__(self, "latencies", inherited)
        if self.unroll is not None and self.unroll < 1:
            raise ToolchainError(f"unroll must be >= 1, got {self.unroll}")
        if self.equivalent_k is not None and self.equivalent_k < 1:
            raise ToolchainError(
                f"equivalent_k must be >= 1, got {self.equivalent_k}"
            )
        if self.scheduler is not None and self.scheduler not in SCHEDULER_CHOICES:
            raise ToolchainError(
                f"unknown scheduler {self.scheduler!r}; "
                f"choose from {SCHEDULER_CHOICES} or None"
            )

    def cache_key(self) -> str:
        """Content hash identifying this request's result."""
        from .cache import content_hash

        return content_hash(self)

    def describe(self) -> str:
        """One-line human description."""
        sched = self.scheduler or "auto"
        return (
            f"{self.loop.name} on {self.machine.name} "
            f"(scheduler={sched}, unroll={self.unroll or 'auto'})"
        )


@dataclass(frozen=True)
class PassTiming:
    """Wall-clock cost of one pass in one compilation."""

    pass_name: str
    seconds: float


@dataclass
class CompilationReport:
    """Everything one toolchain run produced, beyond the schedule itself."""

    request: CompilationRequest
    compiled: CompiledLoop
    timings: Tuple[PassTiming, ...] = ()
    ii_trajectory: Tuple[int, ...] = ()
    diagnostics: Tuple[str, ...] = ()
    artifacts: Dict[str, object] = field(default_factory=dict)
    cache_hit: bool = False
    cache_key: Optional[str] = None

    @property
    def result(self) -> ScheduleResult:
        return self.compiled.result

    @property
    def total_seconds(self) -> float:
        """Wall-clock sum over all passes."""
        return sum(t.seconds for t in self.timings)

    def pass_seconds(self) -> Dict[str, float]:
        """Pass name -> wall-clock seconds (summed over repeated names)."""
        totals: Dict[str, float] = {}
        for timing in self.timings:
            totals[timing.pass_name] = (
                totals.get(timing.pass_name, 0.0) + timing.seconds
            )
        return totals

    def summary(self) -> str:
        """One-line report description."""
        result = self.result
        origin = "cache" if self.cache_hit else f"{1e3 * self.total_seconds:.1f}ms"
        return (
            f"{result.loop_name}: {result.scheduler.upper()} on "
            f"{result.machine.name} II={result.ii} (MII={result.mii}) "
            f"unroll={self.compiled.unroll_factor} "
            f"ipc={self.compiled.ipc:.2f} [{origin}]"
        )

    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable summary (metrics only, no graphs)."""
        result = self.result
        return {
            "loop": result.loop_name,
            "machine": result.machine.name,
            "clusters": result.machine.n_clusters,
            "scheduler": result.scheduler,
            "ii": result.ii,
            "mii": result.mii,
            "res_mii": result.res_mii,
            "rec_mii": result.rec_mii,
            "stage_count": result.stage_count,
            "unroll": self.compiled.unroll_factor,
            "cycles": self.compiled.cycles,
            "ipc": self.compiled.ipc,
            "n_moves": result.n_moves,
            "n_copies": result.n_copies,
            "ii_trajectory": list(self.ii_trajectory),
            "timings_ms": {
                name: 1e3 * seconds
                for name, seconds in self.pass_seconds().items()
            },
            "diagnostics": list(self.diagnostics),
            "cache_hit": self.cache_hit,
            "cache_key": self.cache_key,
        }
