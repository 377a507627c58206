"""Regression cases from the differential-oracle / fuzzer bring-up.

Two latent bug classes were flushed out while standing the oracle up:

1. **Ramp double-issue** — ``build_program`` spanned the full
   ``(SC-1)*II`` prologue even when ``ramp_iterations < SC``, re-listing
   issues the drain phase also covers (short trip counts executed some
   instances twice).  Pinned in ``test_oracle.py`` (the
   ``TestRampExactness`` class) and re-asserted here end to end.

2. **Dynamic judges blind to ordering edges** — memory, anti and output
   edges carry no value, so neither a queue pop nor the store comparison
   sees a schedule that reorders aliasing memory operations, while the
   checker rejects it.  The schedule-mutation fuzzer found the class
   once the synthetic population gained memory edges.  The oracle now
   checks every explicit edge on its issue cycles; these cases pin it,
   including an edge whose distance exceeds the run depth the flow
   operands alone would ask for.

The third suite pins the shared-timing guarantee itself: the checker and
the oracle resolve every edge through one helper, so a topology with a
non-zero per-link communication cost moves both verdicts together.
"""

import dataclasses

import pytest

from repro.api import CompilationRequest, Toolchain
from repro.ir import LoopBuilder
from repro.machine import clustered_vliw
from repro.machine.topology import (
    RingTopology,
    TOPOLOGY_REGISTRY,
    _cached_topology,
    register_topology,
)
from repro.scheduling.checker import check_schedule
from repro.scheduling.timing import edge_ready_latency
from repro.validate import oracle as oracle_module
from repro.validate import verify_compiled
from repro.validate.fuzz import contract_violations, evaluate

from .conftest import build_mem_edge_loop, mem_edge_mutant


def compile_on(loop, machine, **kwargs):
    return Toolchain.default().compile(
        CompilationRequest(loop=loop, machine=machine, validate=False, **kwargs)
    ).compiled


class TestOrderingEdgeRegression:
    """Bug 2: mem-edge-violating schedules must fail in the oracle."""

    def _mem_edge_mutant(self):
        return mem_edge_mutant(compile_on(build_mem_edge_loop(), clustered_vliw(2)))

    def test_checker_and_oracle_agree_on_mem_violation(self):
        compiled, mutant, edge = self._mem_edge_mutant()
        checker = check_schedule(mutant)
        assert any("dependence violated" in p for p in checker.problems)
        oracle = verify_compiled(
            dataclasses.replace(compiled, result=mutant, allocation=None), 6
        )
        assert any(
            f"ordering violated on {edge!r}" in p for p in oracle.all_problems
        ), oracle.all_problems
        # Full contract: the checker and the oracle both reject.
        verdicts = evaluate(compiled.loop, compiled.unroll_factor, mutant)
        assert not verdicts.oracle_ok
        assert not contract_violations("tighten_edge", verdicts)

    def test_oracle_without_ordering_check_violates_the_contract(
        self, monkeypatch
    ):
        """With the ordering check removed (the oracle before it had
        one), the same mutant is a checker/oracle disagreement — exactly
        what the fuzzer flagged."""
        compiled, mutant, _edge = self._mem_edge_mutant()
        monkeypatch.setattr(
            oracle_module, "_check_ordering_edges", lambda *a, **k: None
        )
        verdicts = evaluate(compiled.loop, compiled.unroll_factor, mutant)
        assert contract_violations("tighten_edge", verdicts) == [
            "checker rejects but oracle accepts"
        ]

    def test_far_edge_is_checked_at_the_default_depth(self):
        """An ordering edge whose distance exceeds both SC + 2 and every
        flow distance still gets instance pairs at the default depth."""
        loop = build_mem_edge_loop(omega=8, latency=26)
        compiled = compile_on(loop, clustered_vliw(2), unroll=1)
        _compiled, mutant, edge = mem_edge_mutant(compiled)
        flow_omega = max(e.omega for e in mutant.ddg.edges() if e.is_flow)
        assert edge.omega > max(mutant.stage_count + 2, flow_omega)
        report = verify_compiled(
            dataclasses.replace(compiled, result=mutant, allocation=None)
        )
        assert report.oracle.iterations == edge.omega + 2
        assert any(
            f"ordering violated on {edge!r}" in p for p in report.all_problems
        ), report.all_problems

    def test_valid_mem_edge_loop_passes_everywhere(self):
        loop = build_mem_edge_loop()
        compiled = compile_on(loop, clustered_vliw(2))
        assert check_schedule(compiled.result).ok
        assert verify_compiled(compiled, 6).ok
        assert verify_compiled(compiled).ok


class TestSharedTimingGuarantee:
    """The checker and the oracle must resolve edge latency through one
    code path — including per-link communication cost."""

    @pytest.fixture()
    def slow_link_topology(self):
        @register_topology
        class SlowRing(RingTopology):
            kind = "slow-ring-test"

            def comm_latency(self, a, b):
                self._check(a)
                self._check(b)
                return 0 if a == b else 2

        try:
            yield "slow-ring-test"
        finally:
            TOPOLOGY_REGISTRY.pop("slow-ring-test", None)
            _cached_topology.cache_clear()

    def test_checker_and_oracle_move_together(self, slow_link_topology):
        """A ring schedule valid under free links must be judged under
        the slow links *identically* by checker and oracle."""
        b = LoopBuilder("cross")
        x = b.load("x[i]")
        b.store(b.add(x, "k"), "y[i]")
        loop = b.build(64)
        compiled = compile_on(loop, clustered_vliw(2))
        result = compiled.result
        slow_machine = dataclasses.replace(
            result.machine, topology_kind=slow_link_topology
        )
        slow = dataclasses.replace(result, machine=slow_machine)
        checker_ok = check_schedule(slow).ok
        oracle = verify_compiled(
            dataclasses.replace(
                compiled, machine=slow_machine, result=slow, allocation=None
            ),
            6,
        )
        assert checker_ok == oracle.ok
        if not checker_ok:
            assert any("dependence violated" in p for p in check_schedule(slow).problems)
            assert any(
                "before it is ready" in p for p in oracle.all_problems
            ), oracle.all_problems

    def test_edge_ready_latency_adds_link_cost(self, slow_link_topology):
        machine = clustered_vliw(4, topology=slow_link_topology)
        loop = build_mem_edge_loop()
        ddg = loop.ddg
        edge = next(e for e in ddg.edges() if e.is_flow)
        base = edge_ready_latency(ddg, edge, compile_on(
            loop, clustered_vliw(4)
        ).result.latencies)
        slow = edge_ready_latency(
            ddg,
            edge,
            compile_on(loop, clustered_vliw(4)).result.latencies,
            src_cluster=0,
            dst_cluster=1,
            machine=machine,
        )
        assert slow == base + 2

    def test_same_cluster_flow_has_no_link_cost(self, slow_link_topology):
        machine = clustered_vliw(4, topology=slow_link_topology)
        loop = build_mem_edge_loop()
        ddg = loop.ddg
        edge = next(e for e in ddg.edges() if e.is_flow)
        latencies = compile_on(loop, clustered_vliw(4)).result.latencies
        assert edge_ready_latency(
            ddg, edge, latencies, src_cluster=1, dst_cluster=1, machine=machine
        ) == edge_ready_latency(ddg, edge, latencies)

    def test_ordering_edges_never_pay_link_cost(self, slow_link_topology):
        machine = clustered_vliw(4, topology=slow_link_topology)
        loop = build_mem_edge_loop()
        ddg = loop.ddg
        edge = next(e for e in ddg.edges() if not e.is_flow)
        latencies = compile_on(loop, clustered_vliw(4)).result.latencies
        assert edge_ready_latency(
            ddg, edge, latencies, src_cluster=0, dst_cluster=1, machine=machine
        ) == edge.latency
