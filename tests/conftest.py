"""Shared fixtures and DDG factories for the test suite."""

from __future__ import annotations

import dataclasses

import pytest

from repro.api import CompilationRequest, CompiledLoop, Toolchain
from repro.codegen import build_program
from repro.ir import DEFAULT_LATENCIES, LoopBuilder
from repro.machine import clustered_vliw, unclustered_vliw
from repro.registers import allocate_queues
from repro.scheduling.checker import check_schedule
from repro.scheduling.schedule import Placement
from repro.scheduling.timing import dependence_slack
from repro.validate import execute_program


def compile_for(loop, machine, **knobs):
    """The default toolchain's compiled loop for one request."""
    return Toolchain.default().compile(
        CompilationRequest(loop=loop, machine=machine, **knobs)
    ).compiled


def compiled_from(loop, result):
    """*result*, scheduled from *loop*'s body without unrolling, as the
    compiled loop :func:`repro.validate.verify_compiled` judges."""
    return CompiledLoop(
        loop=loop,
        machine=result.machine,
        unroll_factor=1,
        result=result,
        allocation=None,
    )


def execute_schedule(result, iterations):
    """Run *result*'s emitted program through the oracle, for a schedule
    built without a loop (so with no sequential reference to compare):
    queues allocated as ``verify_compiled`` allocates them, the
    allocation's depth violations reported first."""
    allocation = allocate_queues(result) if result.machine.is_clustered else None
    program = build_program(result, allocation, ramp_iterations=iterations)
    report = execute_program(
        program,
        result.ddg,
        result.latencies,
        iterations,
        allocation=allocation,
        machine=result.machine,
    )
    if allocation is not None:
        report.problems[:0] = allocation.violations
    return report


@pytest.fixture
def latencies():
    return DEFAULT_LATENCIES


@pytest.fixture
def clustered4():
    return clustered_vliw(4)


@pytest.fixture
def clustered8():
    return clustered_vliw(8)


@pytest.fixture
def unclustered2():
    return unclustered_vliw(2)


def build_stream_loop(name: str = "stream", trip_count: int = 64):
    """ld, ld, add, mul, st — recurrence-free."""
    b = LoopBuilder(name)
    x = b.load("x[i]")
    y = b.load("y[i]")
    b.store(b.mul(b.add(x, y), "k"), "z[i]")
    return b.build(trip_count)


def build_reduction_loop(name: str = "reduction", trip_count: int = 64):
    """acc += x[i] * y[i] — one recurrence circuit."""
    b = LoopBuilder(name)
    x = b.load("x[i]")
    y = b.load("y[i]")
    acc = b.placeholder()
    total = b.add(b.mul(x, y), b.carried(acc, 1), tag="acc")
    b.bind(acc, total)
    return b.build(trip_count)


def build_fanout_loop(name: str = "fanout", consumers: int = 5, trip_count: int = 64):
    """One load feeding *consumers* multiplies (fan-out stress)."""
    b = LoopBuilder(name)
    x = b.load("x[i]")
    for j in range(consumers):
        b.store(b.mul(x, f"c{j}"), f"y{j}[i]")
    return b.build(trip_count)


def build_mem_edge_loop(omega=1, latency=1):
    """A stream loop with a store -> load aliasing edge."""
    b = LoopBuilder("aliasing")
    x = b.load("x[i]")
    y = b.load("y[i]")
    s = b.store(b.mul(b.add(x, y), "k"), "z[i]")
    b.mem_dep(s, x, omega=omega, latency=latency)
    return b.build(64)


def mem_edge_mutant(compiled):
    """*compiled*'s schedule with its one ordering edge violated and
    every other checker rule kept."""
    result = compiled.result
    edge = next(e for e in result.ddg.edges() if not e.is_flow)
    slack = dependence_slack(
        result.ddg,
        edge,
        result.placements,
        result.ii,
        result.latencies,
        result.machine,
    )
    # Push the *producer* side (the store) past the slack: moving an
    # op later is always representable, unlike a negative time.  Try
    # successive MRT rows until the ordering edge is the *only*
    # violated rule, isolating the memory-edge case.
    old = result.placements[edge.src]
    for extra in range(result.ii):
        placements = dict(result.placements)
        placements[edge.src] = Placement(
            time=old.time + slack + 1 + extra, cluster=old.cluster
        )
        mutant = dataclasses.replace(result, placements=placements)
        problems = check_schedule(mutant).problems
        if problems and all("dependence violated" in p for p in problems):
            return compiled, mutant, edge
    pytest.fail("could not isolate a mem-edge-only violation")


@pytest.fixture
def stream_loop():
    return build_stream_loop()


@pytest.fixture
def reduction_loop():
    return build_reduction_loop()


@pytest.fixture
def fanout_loop():
    return build_fanout_loop()
