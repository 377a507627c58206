"""Tests for the ResMII / RecMII lower bounds."""

import itertools
import random
from fractions import Fraction

import pytest

from repro.errors import SchedulingError
from repro.ir import (
    DDG,
    DEFAULT_LATENCIES,
    DepKind,
    LatencyModel,
    LoopBuilder,
    OpCode,
    use,
)
from repro.machine import clustered_vliw, unclustered_vliw
from repro.scheduling import compute_mii, max_cycle_ratio, rec_mii, res_mii
from repro.scheduling.mii import _scc_edges
from repro.workloads import KERNELS, make_kernel
from repro.workloads.suite import perfect_club_surrogate

from .conftest import build_reduction_loop, build_stream_loop


class TestResMII:
    def test_stream_on_wide_machine(self):
        loop = build_stream_loop()  # 2 ld, 1 add, 1 mul, 1 st
        assert res_mii(loop.ddg, unclustered_vliw(1)) == 3  # 3 mem ops / 1 unit
        assert res_mii(loop.ddg, unclustered_vliw(3)) == 1

    def test_counts_cluster_totals(self):
        loop = build_stream_loop()
        assert res_mii(loop.ddg, clustered_vliw(3)) == 1

    def test_copy_ops_count_against_copy_units(self):
        loop = build_stream_loop()
        ddg = loop.ddg.copy()
        from repro.ir import use

        for _ in range(5):
            ddg.new_operation(OpCode.COPY, (use(0),))
        # 5 copies on 2 copy units -> bound 3.
        assert res_mii(ddg, clustered_vliw(2)) == 3

    def test_missing_unit_kind_rejected(self):
        loop = build_stream_loop()
        ddg = loop.ddg.copy()
        from repro.ir import use

        ddg.new_operation(OpCode.COPY, (use(0),))
        with pytest.raises(SchedulingError):
            res_mii(ddg, unclustered_vliw(2))  # no copy FU


class TestRecMII:
    def test_stream_has_rec_mii_one(self):
        loop = build_stream_loop()
        assert rec_mii(loop.ddg, DEFAULT_LATENCIES) == 1

    def test_simple_accumulator(self):
        loop = build_reduction_loop()
        # add latency 1, omega 1 -> RecMII 1.
        assert rec_mii(loop.ddg, DEFAULT_LATENCIES) == 1

    def test_long_latency_recurrence(self):
        b = LoopBuilder("mulrec")
        s = b.placeholder()
        nxt = b.mul(b.carried(s, 1), "r")
        b.bind(s, nxt)
        loop = b.build()
        # mul latency 3, omega 1.
        assert rec_mii(loop.ddg, DEFAULT_LATENCIES) == 3

    def test_distance_divides_the_bound(self):
        b = LoopBuilder("d2")
        s = b.placeholder()
        nxt = b.mul(b.carried(s, 2), "r")
        b.bind(s, nxt)
        loop = b.build()
        # latency 3 over distance 2 -> ceil(3/2) = 2.
        assert rec_mii(loop.ddg, DEFAULT_LATENCIES) == 2

    def test_two_op_circuit(self):
        b = LoopBuilder("two")
        s = b.placeholder()
        m = b.mul(b.carried(s, 1), "a")  # 3 cycles
        nxt = b.add(m, "b")  # 1 cycle
        b.bind(s, nxt)
        loop = b.build()
        assert rec_mii(loop.ddg, DEFAULT_LATENCIES) == 4

    def test_latency_model_matters(self):
        b = LoopBuilder("lat")
        s = b.placeholder()
        nxt = b.mul(b.carried(s, 1), "r")
        b.bind(s, nxt)
        loop = b.build()
        assert rec_mii(loop.ddg, LatencyModel(mul=7)) == 7

    def test_max_over_circuits(self):
        b = LoopBuilder("multi")
        s1 = b.placeholder()
        n1 = b.add(b.carried(s1, 1), "a")  # RecMII 1
        b.bind(s1, n1)
        s2 = b.placeholder()
        n2 = b.div(b.carried(s2, 1), "b")  # RecMII 8
        b.bind(s2, n2)
        loop = b.build()
        assert rec_mii(loop.ddg, DEFAULT_LATENCIES) == 8

    def test_scaled_variant_monotone(self):
        loop = build_reduction_loop()
        values = [rec_mii(loop.ddg, DEFAULT_LATENCIES, unroll=u) for u in (1, 2, 4)]
        assert values == sorted(values)

    def test_invalid_unroll(self):
        loop = build_reduction_loop()
        with pytest.raises(SchedulingError):
            rec_mii(loop.ddg, DEFAULT_LATENCIES, unroll=0)

    def test_mem_edges_participate(self):
        b = LoopBuilder("memrec")
        x = b.load("a[i]")
        st = b.store(x, "a[i+1]")
        b.mem_dep(st, x, omega=1, latency=1)
        loop = b.build()
        # Circuit: load(2) -> store, store -(mem,1)-> load: ceil(3/1) = 3.
        assert rec_mii(loop.ddg, DEFAULT_LATENCIES) == 3


class TestCombined:
    def test_mii_is_max_of_bounds(self):
        loop = build_reduction_loop()
        result = compute_mii(loop.ddg, unclustered_vliw(1), DEFAULT_LATENCIES)
        assert result.mii == max(result.res_mii, result.rec_mii)
        assert result.res_mii == 2  # 2 mem ops on 1 unit
        assert result.rec_mii == 1

    def test_wide_machine_exposes_recurrence_bound(self):
        b = LoopBuilder("recbound")
        x = b.load()
        s = b.placeholder()
        nxt = b.mul(b.carried(s, 1), x)
        b.bind(s, nxt)
        loop = b.build()
        result = compute_mii(loop.ddg, unclustered_vliw(8), DEFAULT_LATENCIES)
        assert result.mii == result.rec_mii == 3


def _has_positive_cycle(nodes, edges, ii, scale):
    """Reference Bellman-Ford: a cycle with positive ``scale*lat - ii*omega``?"""
    dist = {node: 0 for node in nodes}
    for _ in range(len(nodes)):
        changed = False
        for src, dst, lat, omega in edges:
            candidate = dist[src] + scale * lat - ii * omega
            if candidate > dist[dst]:
                dist[dst] = candidate
                changed = True
        if not changed:
            return False
    return True


def _bisected_rec_mii(sccs, unroll):
    """Reference: the per-factor RecMII binary search on scaled weights.

    *sccs* is ``[(nodes, edges)]``; a circuit of latency L and distance W
    is infeasible at II unless ``unroll * L <= II * W``.
    """
    bound = 1
    for nodes, edges in sccs:
        high = max(1, unroll * sum(e[2] for e in edges))
        low = 1
        if not _has_positive_cycle(nodes, edges, low, unroll):
            continue
        while low < high:
            mid = (low + high) // 2
            if _has_positive_cycle(nodes, edges, mid, unroll):
                low = mid + 1
            else:
                high = mid
        bound = max(bound, low)
    return bound


class TestMaxCycleRatio:
    def test_matches_bisection_on_suite_and_kernels(self):
        kernels = [make_kernel(name) for name in sorted(KERNELS)]
        for loop in perfect_club_surrogate() + kernels:
            ddg = loop.ddg
            sccs = [
                (scc, _scc_edges(ddg, scc, DEFAULT_LATENCIES)) for scc in ddg.sccs()
            ]
            ratio = max_cycle_ratio(ddg, DEFAULT_LATENCIES)
            for u in range(1, 17):
                expected = _bisected_rec_mii(sccs, u)
                got = rec_mii(ddg, DEFAULT_LATENCIES, unroll=u)
                assert got == expected, (loop.name, u)
                assert max(1, -(-u * ratio.numerator // ratio.denominator)) == expected

    def test_matches_enumerated_circuits_on_random_graphs(self):
        rng = random.Random(1999)
        checked = 0
        for _ in range(300):
            n = rng.randint(1, 4)
            ddg = DDG("random")
            for _ in range(n):
                ddg.new_operation(OpCode.ADD, ())
            edges = {}  # one edge per (src, dst, omega), as the DDG keys them
            for _ in range(rng.randint(1, 7)):
                src, dst, omega = rng.randrange(n), rng.randrange(n), rng.randint(0, 3)
                latency = edges[src, dst, omega] = rng.randint(0, 9)
                ddg.add_dep(src, dst, DepKind.MEM, omega=omega, latency=latency)
            ratios = []
            for k in range(1, n + 1):
                for cycle in itertools.permutations(range(n), k):
                    if cycle[0] != min(cycle):
                        continue
                    hops = list(zip(cycle, cycle[1:] + cycle[:1]))
                    choices = [
                        [(lat, w) for (s, d, w), lat in edges.items() if (s, d) == hop]
                        for hop in hops
                    ]
                    for picked in itertools.product(*choices):
                        lat, omega = map(sum, zip(*picked))
                        ratios.append((lat, omega))
            carried_free_scc = any(
                not any(w for s, d, w in edges if s in scc and d in scc)
                for scc in map(set, ddg.sccs())
            )
            if carried_free_scc or any(w == 0 and lat > 0 for lat, w in ratios):
                with pytest.raises(SchedulingError, match="omega-0"):
                    max_cycle_ratio(ddg, DEFAULT_LATENCIES)
                continue
            expected = max([Fraction(lat, w) for lat, w in ratios if w], default=0)
            assert max_cycle_ratio(ddg, DEFAULT_LATENCIES) == max(expected, 0)
            checked += 1
        assert checked > 100

    def test_two_scc_graph_has_exact_ratio(self):
        # SCC A: 3-cycle, latency 2+2+3 over omega 3 -> 7/3.
        # SCC B: 2-cycle, latency 3+2 over omega 3 -> 5/3.
        ddg = DDG("two_scc")
        for _ in range(5):
            ddg.new_operation(OpCode.ADD, ())
        ddg.add_dep(0, 1, DepKind.MEM, omega=1, latency=2)
        ddg.add_dep(1, 2, DepKind.MEM, omega=0, latency=2)
        ddg.add_dep(2, 0, DepKind.MEM, omega=2, latency=3)
        ddg.add_dep(3, 4, DepKind.MEM, omega=1, latency=3)
        ddg.add_dep(4, 3, DepKind.MEM, omega=2, latency=2)
        ddg.add_dep(2, 3, DepKind.MEM, omega=0, latency=9)  # joins no circuit
        assert len(ddg.sccs()) == 2
        assert max_cycle_ratio(ddg, DEFAULT_LATENCIES) == Fraction(7, 3)
        assert [rec_mii(ddg, DEFAULT_LATENCIES, unroll=u) for u in (1, 2, 3, 4)] == [
            3, 5, 7, 10,
        ]

    def test_acyclic_loop_has_zero_ratio(self):
        loop = build_stream_loop()
        assert max_cycle_ratio(loop.ddg, DEFAULT_LATENCIES) == 0

    def test_omega0_circuit_raises(self):
        ddg = DDG("omega0")
        a = ddg.new_operation(OpCode.ADD, ()).op_id
        b = ddg.new_operation(OpCode.ADD, (use(a),)).op_id
        ddg.add_dep(b, a, DepKind.MEM, omega=0, latency=1)
        for unroll in (1, 4):
            with pytest.raises(SchedulingError, match="omega-0"):
                rec_mii(ddg, DEFAULT_LATENCIES, unroll=unroll)

    def test_omega0_circuit_beside_carried_one_raises(self):
        # The SCC's total omega is positive, but the a <-> b circuit is not.
        ddg = DDG("mixed")
        a = ddg.new_operation(OpCode.ADD, ()).op_id
        b = ddg.new_operation(OpCode.ADD, (use(a),)).op_id
        ddg.add_dep(b, a, DepKind.MEM, omega=0, latency=1)
        ddg.add_dep(b, a, DepKind.MEM, omega=1, latency=1)
        with pytest.raises(SchedulingError, match="omega-0"):
            max_cycle_ratio(ddg, DEFAULT_LATENCIES)
