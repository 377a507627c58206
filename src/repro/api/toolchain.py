"""The :class:`Toolchain`: an ordered pass pipeline with one entry point.

``Toolchain.default()`` is the paper's flow, and the one pipeline the
cache, :func:`~repro.api.batch.compile_many`, the daemon and the sweep
workers run.  A caller that wants another pipeline builds one from
passes and compiles through it directly, outside any cache::

    class NotedSchedule(SchedulePass):
        def run(self, ctx):
            super().run(ctx)
            ctx.note(f"trajectory {ctx.result.ii_trajectory}")

    noted = Toolchain(["unroll", "single_use", NotedSchedule(), "allocate"])
    report = noted.compile(CompilationRequest(loop, machine))

The scheduler itself is a request field, not a pass: the two-phase
baseline is ``CompilationRequest(loop, machine, scheduler="two_phase")``
through the default toolchain.

Every :meth:`Toolchain.compile` call returns a
:class:`~repro.api.request.CompilationReport` carrying the
:class:`~repro.api.request.CompiledLoop`,
per-pass wall-clock timings, the II-search trajectory and diagnostics.
"""

from __future__ import annotations

import time
from typing import Iterable, Tuple, Union

from ..errors import ToolchainError
from .passes import Pass, PassContext, get_pass
from .request import CompilationReport, CompilationRequest, CompiledLoop, PassTiming

PassLike = Union[str, Pass]

#: The paper's flow: unroll, single-use copies, schedule, allocate.
DEFAULT_PASSES: Tuple[str, ...] = ("unroll", "single_use", "schedule", "allocate")


def _resolve(passes: Iterable[PassLike]) -> Tuple[Pass, ...]:
    resolved = []
    for entry in passes:
        pass_ = get_pass(entry) if isinstance(entry, str) else entry
        if not isinstance(pass_, Pass):
            raise ToolchainError(f"not a pass: {entry!r}")
        resolved.append(pass_)
    names = [p.name for p in resolved]
    if len(set(names)) != len(names):
        raise ToolchainError(f"duplicate pass names in pipeline: {names}")
    return tuple(resolved)


class Toolchain:
    """An immutable, ordered pipeline of named passes."""

    def __init__(self, passes: Iterable[PassLike] = DEFAULT_PASSES, name: str = "toolchain"):
        self.name = name
        self._passes = _resolve(passes)
        if not self._passes:
            raise ToolchainError("a toolchain needs at least one pass")

    @classmethod
    def default(cls) -> "Toolchain":
        """The paper's flow: unroll -> single_use -> schedule -> allocate."""
        return cls(DEFAULT_PASSES, name="default")

    @property
    def passes(self) -> Tuple[Pass, ...]:
        return self._passes

    @property
    def pass_names(self) -> Tuple[str, ...]:
        return tuple(p.name for p in self._passes)

    def compile(self, request: CompilationRequest) -> CompilationReport:
        """Run every pass over *request* and return the report."""
        ctx = PassContext(
            request=request,
            ddg=request.loop.ddg,
            unroll_factor=request.loop.unroll_factor,
        )
        timings = []
        for pass_ in self._passes:
            started = time.perf_counter()
            pass_.run(ctx)
            timings.append(PassTiming(pass_.name, time.perf_counter() - started))
        if ctx.result is None:
            raise ToolchainError(
                f"toolchain {self.name!r} produced no schedule; "
                f"pipeline {self.pass_names} lacks a scheduling pass"
            )
        compiled = CompiledLoop(
            loop=request.loop,
            machine=request.machine,
            unroll_factor=ctx.unroll_factor,
            result=ctx.result,
            allocation=ctx.allocation,
        )
        return CompilationReport(
            request=request,
            compiled=compiled,
            timings=tuple(timings),
            ii_trajectory=ctx.result.ii_trajectory,
            diagnostics=tuple(ctx.diagnostics),
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Toolchain {self.name!r} passes={list(self.pass_names)}>"
