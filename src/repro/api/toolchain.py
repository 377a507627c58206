"""The :class:`Toolchain`: an ordered pass pipeline with one entry point.

``Toolchain.default()`` is the paper's flow, and the one way the
library compiles a loop; variants swap, drop or insert passes::

    class NotedSchedule(SchedulePass):
        def run(self, ctx):
            super().run(ctx)
            ctx.note(f"trajectory {ctx.result.ii_trajectory}")

    noted = Toolchain.default().with_pass("schedule", NotedSchedule())
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

    @classmethod
    def full(cls) -> "Toolchain":
        """The default flow plus assembly emission."""
        return cls(DEFAULT_PASSES + ("codegen",), name="full")

    # ------------------------------------------------------------------
    # Composition
    # ------------------------------------------------------------------

    @property
    def passes(self) -> Tuple[Pass, ...]:
        return self._passes

    @property
    def pass_names(self) -> Tuple[str, ...]:
        return tuple(p.name for p in self._passes)

    def _index_of(self, name: str) -> int:
        for index, pass_ in enumerate(self._passes):
            if pass_.name == name:
                return index
        raise ToolchainError(
            f"toolchain {self.name!r} has no pass {name!r} "
            f"(pipeline: {self.pass_names})"
        )

    def with_pass(self, name: str, replacement: PassLike) -> "Toolchain":
        """Return a copy with the pass named *name* swapped out."""
        index = self._index_of(name)
        passes = list(self._passes)
        passes[index] = replacement
        return Toolchain(passes, name=self.name)

    def without_pass(self, name: str) -> "Toolchain":
        """Return a copy with the pass named *name* removed."""
        index = self._index_of(name)
        passes = list(self._passes)
        del passes[index]
        return Toolchain(passes, name=self.name)

    def insert_after(self, name: str, new_pass: PassLike) -> "Toolchain":
        """Return a copy with *new_pass* inserted right after *name*."""
        index = self._index_of(name)
        passes = list(self._passes)
        passes.insert(index + 1, new_pass)
        return Toolchain(passes, name=self.name)

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------

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
            artifacts=ctx.artifacts,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Toolchain {self.name!r} passes={list(self.pass_names)}>"
