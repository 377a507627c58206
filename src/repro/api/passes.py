"""Named compilation passes.

The paper's flow — unroll, single-use copy insertion, DMS/IMS scheduling,
queue allocation — is expressed here as four registered passes, which
:data:`~repro.api.toolchain.DEFAULT_PASSES` names in order.  A
:class:`~repro.api.toolchain.Toolchain` strings passes together by name.
Which scheduler the ``schedule`` pass runs (IMS, DMS or the two-phase
baseline) is the request's ``scheduler`` field.  Assembly is not a pass:
:func:`repro.codegen.assembly_for` emits it from a compiled schedule.

Passes communicate through a mutable :class:`PassContext`.  Every pass is
stateless (all per-compilation state lives on the context), so one pass
instance can serve many concurrent compilations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..config import SchedulerConfig
from ..errors import SchedulingError, ToolchainError
from ..ir.ddg import DDG
from ..ir.loop import Loop
from ..ir.opcodes import LatencyModel, USEFUL_FU_KINDS
from ..ir.transforms import single_use_ddg, unroll_ddg
from ..machine.machine import MachineSpec
from ..registers.queues import QueueAllocation, allocate_queues
from ..scheduling.checker import validate_schedule
from ..scheduling.dms import DistributedModuloScheduler
from ..scheduling.ims import IterativeModuloScheduler
from ..scheduling.mii import choose_unroll_factor
from ..scheduling.result import ScheduleResult
from ..scheduling.twophase import TwoPhaseScheduler
from .request import CompilationRequest


@dataclass
class PassContext:
    """Mutable state threaded through a toolchain run.

    ``ddg`` starts as the request's loop body and is rewritten by the
    transform passes; ``result``/``allocation`` are filled in by the
    later passes.  ``diagnostics`` collects one-line notes from
    every pass for the final report.
    """

    request: CompilationRequest
    ddg: DDG = None
    unroll_factor: int = 1
    result: Optional[ScheduleResult] = None
    allocation: Optional[QueueAllocation] = None
    diagnostics: List[str] = field(default_factory=list)

    @property
    def loop(self) -> Loop:
        return self.request.loop

    @property
    def machine(self) -> MachineSpec:
        return self.request.machine

    @property
    def latencies(self) -> LatencyModel:
        return self.request.latencies

    @property
    def config(self) -> SchedulerConfig:
        return self.request.config

    def note(self, message: str) -> None:
        """Record a diagnostic line for the report."""
        self.diagnostics.append(message)


class Pass:
    """One named stage of the compilation pipeline."""

    #: Registry / pipeline name; subclasses must override.
    name: str = ""

    def run(self, ctx: PassContext) -> None:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<pass {self.name or type(self).__name__}>"


#: Global pass registry: name -> shared (stateless) pass instance.
PASS_REGISTRY: Dict[str, Pass] = {}


def register_pass(pass_: Pass, *, replace: bool = False) -> Pass:
    """Register *pass_* under its :attr:`Pass.name`.

    Registering a name twice is an error unless ``replace=True`` — silent
    shadowing is how copy-pasted drivers drift apart, which this registry
    exists to prevent.
    """
    if not isinstance(pass_, Pass):
        raise ToolchainError(f"register_pass needs a Pass instance, got {pass_!r}")
    if not pass_.name:
        raise ToolchainError(f"pass {pass_!r} has no name")
    if pass_.name in PASS_REGISTRY and not replace:
        raise ToolchainError(
            f"pass {pass_.name!r} is already registered "
            "(pass replace=True to override)"
        )
    PASS_REGISTRY[pass_.name] = pass_
    return pass_


def get_pass(name: str) -> Pass:
    """Look up a registered pass by name."""
    try:
        return PASS_REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(PASS_REGISTRY))
        raise ToolchainError(
            f"unknown pass {name!r}; registered passes: {known}"
        ) from None


# ----------------------------------------------------------------------
# Builtin passes (the paper's flow)
# ----------------------------------------------------------------------


class UnrollPass(Pass):
    """Unroll the loop body to saturate the target issue width.

    The factor is the request's explicit ``unroll`` if given, otherwise
    the projected-II minimiser on the unclustered machine of
    ``equivalent_k`` units per kind (by default, the machine's own
    useful-FU count per kind).
    """

    name = "unroll"

    def run(self, ctx: PassContext) -> None:
        loop = ctx.loop
        if loop.unroll_factor != 1:
            raise SchedulingError(
                f"loop {loop.name!r} is already unrolled; pass the base loop"
            )
        unroll = ctx.request.unroll
        if unroll is None:
            k = ctx.request.equivalent_k
            if k is None:
                k = max(1, ctx.machine.useful_fus // len(USEFUL_FU_KINDS))
            unroll = choose_unroll_factor(
                loop.ddg, k, latencies=ctx.latencies, cap=ctx.config.unroll_cap
            )
        ctx.unroll_factor = unroll
        ctx.ddg = unroll_ddg(loop.ddg, unroll)
        ctx.note(f"unroll: factor {unroll} -> {len(ctx.ddg)} ops")


class SingleUsePass(Pass):
    """Rewrite multiple-use lifetimes into single-use copies.

    Clustered machines only: a central register file needs no copies, so
    the pass is a no-op (with a diagnostic) on unclustered targets.
    """

    name = "single_use"

    def run(self, ctx: PassContext) -> None:
        if not ctx.machine.is_clustered:
            ctx.note("single_use: skipped (unclustered machine)")
            return
        before = len(ctx.ddg)
        ctx.ddg = single_use_ddg(ctx.ddg, strategy=ctx.config.single_use_strategy)
        ctx.note(
            f"single_use: {ctx.config.single_use_strategy} strategy inserted "
            f"{len(ctx.ddg) - before} copies"
        )


class SchedulePass(Pass):
    """Run the modulo scheduler (and the checker, if the request asks).

    The scheduler is the request's forced choice when set (``"ims"``,
    ``"dms"`` or ``"two_phase"``), otherwise DMS on clustered machines
    and IMS on unclustered ones.
    """

    name = "schedule"

    _SCHEDULERS = {
        "ims": IterativeModuloScheduler,
        "dms": DistributedModuloScheduler,
        "two_phase": TwoPhaseScheduler,
    }

    def run(self, ctx: PassContext) -> None:
        choice = ctx.request.scheduler
        if choice is None:
            choice = "dms" if ctx.machine.is_clustered else "ims"
        scheduler = self._SCHEDULERS[choice](
            ctx.machine, ctx.latencies, ctx.config
        )
        result = scheduler.schedule(ctx.ddg)
        ctx.result = result
        if ctx.request.validate:
            validate_schedule(result)
        ctx.note(
            f"schedule: {result.scheduler} II={result.ii} (MII={result.mii}) "
            f"after {result.stats.ii_attempts} II attempt(s)"
        )


class AllocatePass(Pass):
    """Map lifetimes onto LRF/CQRF queues (clustered machines only)."""

    name = "allocate"

    def run(self, ctx: PassContext) -> None:
        if ctx.result is None:
            raise ToolchainError("allocate: no schedule yet (run 'schedule' first)")
        if not (ctx.request.allocate and ctx.machine.is_clustered):
            ctx.note("allocate: skipped")
            return
        ctx.allocation = allocate_queues(ctx.result)
        ctx.note(f"allocate: {len(ctx.allocation.files)} queue files in use")


for _builtin in (
    UnrollPass(),
    SingleUsePass(),
    SchedulePass(),
    AllocatePass(),
):
    register_pass(_builtin)
