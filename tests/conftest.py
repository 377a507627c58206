"""Shared fixtures and DDG factories for the test suite."""

from __future__ import annotations

import pytest

from repro.api import CompilationRequest, Toolchain
from repro.ir import DEFAULT_LATENCIES, LoopBuilder
from repro.machine import clustered_vliw, unclustered_vliw


def compile_for(loop, machine, **knobs):
    """The default toolchain's compiled loop for one request."""
    return Toolchain.default().compile(
        CompilationRequest(loop=loop, machine=machine, **knobs)
    ).compiled


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


@pytest.fixture
def stream_loop():
    return build_stream_loop()


@pytest.fixture
def reduction_loop():
    return build_reduction_loop()


@pytest.fixture
def fanout_loop():
    return build_fanout_loop()
