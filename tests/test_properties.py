"""Property-based tests (hypothesis) on the core invariants.

Random DDGs are generated structurally (always valid: operands reference
earlier operations or loop-carried later ones), then pushed through the
transforms, both schedulers, the checker, the allocator and the oracle.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.ir import DDG, DEFAULT_LATENCIES, OpCode, Operation, ValueUse
from repro.ir.transforms import max_fanout, single_use_ddg, unroll_ddg
from repro.machine import RingTopology, clustered_vliw, unclustered_vliw
from repro.registers import extract_lifetimes
from repro.scheduling import (
    DistributedModuloScheduler,
    IterativeModuloScheduler,
    check_schedule,
    compute_mii,
    rec_mii,
)

from .conftest import execute_schedule

_PRODUCING_OPS = [
    OpCode.LOAD,
    OpCode.ADD,
    OpCode.SUB,
    OpCode.MUL,
    OpCode.MIN,
    OpCode.MAX,
]

_settings = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def random_ddg(draw, min_ops=2, max_ops=14):
    """A structurally valid loop DDG with optional recurrences."""
    n = draw(st.integers(min_ops, max_ops))
    ddg = DDG("prop")
    rec_allowed = draw(st.booleans())
    for op_id in range(n):
        opcode = draw(st.sampled_from(_PRODUCING_OPS))
        srcs = []
        if opcode != OpCode.LOAD:
            arity = 2
            for _ in range(arity):
                choice = draw(st.integers(0, 3))
                if choice == 0 or op_id == 0:
                    srcs.append(ValueUse(None, 0, f"k{draw(st.integers(0, 5))}"))
                elif choice in (1, 2):
                    srcs.append(ValueUse(draw(st.integers(0, op_id - 1)), 0))
                else:
                    # Loop-carried reference, possibly forward (recurrence).
                    target = draw(st.integers(0, n - 1))
                    omega = draw(st.integers(1, 2))
                    if target >= op_id and not rec_allowed:
                        target = draw(st.integers(0, op_id - 1))
                        omega = draw(st.integers(0, 2))
                    srcs.append(ValueUse(target, omega))
        ddg.add_operation(Operation(op_id, opcode, tuple(srcs)))
    ddg.validate()
    return ddg


class TestTopologyProperties:
    @given(n=st.integers(1, 24), a=st.integers(0, 23), b=st.integers(0, 23))
    @_settings
    def test_distance_is_a_metric(self, n, a, b):
        ring = RingTopology(n)
        a, b = a % n, b % n
        assert ring.distance(a, b) == ring.distance(b, a)
        assert (ring.distance(a, b) == 0) == (a == b)
        assert ring.distance(a, b) <= n // 2

    @given(n=st.integers(2, 24), a=st.integers(0, 23), b=st.integers(0, 23))
    @_settings
    def test_paths_walk_adjacent_hops(self, n, a, b):
        ring = RingTopology(n)
        a, b = a % n, b % n
        for path in ring.paths(a, b):
            assert path.clusters[0] == a
            assert path.clusters[-1] == b
            for x, y in zip(path.clusters, path.clusters[1:]):
                assert ring.distance(x, y) == 1


class TestTransformProperties:
    @given(ddg=random_ddg(), u=st.integers(1, 5))
    @_settings
    def test_unroll_preserves_structure(self, ddg, u):
        unrolled = unroll_ddg(ddg, u)
        unrolled.validate()
        assert len(unrolled) == u * len(ddg)
        assert unrolled.n_useful_ops() == u * ddg.n_useful_ops()
        # Unrolling cannot create a recurrence out of nothing.
        assert unrolled.has_recurrence() == ddg.has_recurrence()

    @given(ddg=random_ddg())
    @_settings
    def test_single_use_caps_fanout(self, ddg):
        transformed = single_use_ddg(ddg)
        transformed.validate()
        assert max_fanout(transformed) <= 2
        assert transformed.n_useful_ops() == ddg.n_useful_ops()

    @given(ddg=random_ddg(), u=st.integers(1, 4))
    @_settings
    def test_scaled_rec_mii_matches_unrolled(self, ddg, u):
        scaled = rec_mii(ddg, DEFAULT_LATENCIES, unroll=u)
        real = rec_mii(unroll_ddg(ddg, u), DEFAULT_LATENCIES)
        assert scaled == real


class TestSchedulerProperties:
    @given(ddg=random_ddg(), k=st.integers(1, 3))
    @_settings
    def test_ims_schedules_validate(self, ddg, k):
        result = IterativeModuloScheduler(unclustered_vliw(k)).schedule(
            ddg.copy()
        )
        report = check_schedule(result)
        assert report.ok, report.problems
        assert result.ii >= compute_mii(
            ddg, result.machine, DEFAULT_LATENCIES
        ).mii

    @given(ddg=random_ddg(), clusters=st.integers(1, 8))
    @_settings
    def test_dms_schedules_validate(self, ddg, clusters):
        prepared = single_use_ddg(ddg) if clusters > 1 else ddg.copy()
        result = DistributedModuloScheduler(clustered_vliw(clusters)).schedule(
            prepared
        )
        report = check_schedule(result)
        assert report.ok, report.problems

    @given(ddg=random_ddg(max_ops=10), clusters=st.integers(2, 6))
    @_settings
    def test_dms_schedules_execute_and_allocate(self, ddg, clusters):
        result = DistributedModuloScheduler(clustered_vliw(clusters)).schedule(
            single_use_ddg(ddg)
        )
        report = execute_schedule(result, iterations=4)
        assert report.ok, report.problems
        # Queue depths computed statically bound the executed occupancy.
        static_depth = max(
            (lt.depth for lt in extract_lifetimes(result)), default=0
        )
        assert report.max_queue_occupancy <= max(static_depth, 1) + 1

    @given(ddg=random_ddg(max_ops=8))
    @_settings
    def test_dms_single_cluster_matches_ims_ii(self, ddg):
        ims = IterativeModuloScheduler(unclustered_vliw(1)).schedule(ddg.copy())
        dms = DistributedModuloScheduler(clustered_vliw(1)).schedule(ddg.copy())
        assert dms.ii == ims.ii

    @given(ddg=random_ddg(max_ops=10), clusters=st.integers(2, 6))
    @_settings
    def test_dms_on_linear_arrays_validates(self, ddg, clusters):
        machine = clustered_vliw(clusters, topology="linear")
        result = DistributedModuloScheduler(machine).schedule(
            single_use_ddg(ddg)
        )
        report = check_schedule(result)
        assert report.ok, report.problems

    @given(ddg=random_ddg(max_ops=10), clusters=st.integers(1, 6))
    @_settings
    def test_two_phase_schedules_validate(self, ddg, clusters):
        from repro.scheduling import TwoPhaseScheduler

        prepared = single_use_ddg(ddg) if clusters > 1 else ddg.copy()
        result = TwoPhaseScheduler(clustered_vliw(clusters)).schedule(prepared)
        report = check_schedule(result)
        assert report.ok, report.problems
