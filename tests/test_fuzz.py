"""The schedule-mutation fuzzer: mutations, contract, campaign, minimizer."""

import dataclasses

import numpy as np
import pytest

from repro.api import CompilationRequest, Toolchain
from repro.ir.edges import DepKind
from repro.machine import clustered_vliw
from repro.scheduling.checker import check_schedule
from repro.validate import FuzzConfig, MUTATIONS, run_fuzz
from repro.validate.fuzz import (
    FUZZ_SPEC,
    Verdicts,
    contract_violations,
    evaluate,
    minimize_loop,
)
from repro.workloads import make_kernel
from repro.workloads.synthetic import SyntheticSpec, synthetic_loop

from .conftest import build_mem_edge_loop


def compile_on(loop, machine):
    return Toolchain.default().compile(
        CompilationRequest(loop=loop, machine=machine, validate=False)
    ).compiled


@pytest.fixture(scope="module")
def compiled():
    return compile_on(make_kernel("fir_filter", taps=6), clustered_vliw(4))


class TestMutations:
    @pytest.mark.parametrize("name", sorted(MUTATIONS))
    def test_mutators_produce_describable_mutants(self, name, compiled):
        rng = np.random.default_rng(7)
        produced = MUTATIONS[name](rng, compiled.result)
        if produced is None:
            pytest.skip(f"{name} not applicable to this schedule")
        mutant, detail = produced
        assert detail
        assert mutant is not compiled.result

    def test_shift_changes_exactly_one_time(self, compiled):
        rng = np.random.default_rng(3)
        mutant, _ = MUTATIONS["shift"](rng, compiled.result)
        diffs = [
            op_id
            for op_id in compiled.result.placements
            if compiled.result.placements[op_id] != mutant.placements[op_id]
        ]
        assert len(diffs) == 1

    def test_tighten_edge_violates_the_checker(self, compiled):
        rng = np.random.default_rng(11)
        produced = MUTATIONS["tighten_edge"](rng, compiled.result)
        if produced is None:
            pytest.skip("victim edge too close to cycle 0")
        mutant, _ = produced
        assert not check_schedule(mutant).ok

    def test_tighten_edge_tightens_an_explicit_edge_when_there_is_one(self):
        # Unrolled twice, the mem-edge loop has two explicit edges among
        # a dozen flow edges; every tightened mutant still breaks a mem
        # edge, which the checker and the oracle both name.
        compiled = Toolchain.default().compile(CompilationRequest(
            loop=build_mem_edge_loop(), machine=clustered_vliw(2), unroll=2,
            validate=False,
        )).compiled
        mutants = [
            MUTATIONS["tighten_edge"](np.random.default_rng(seed), compiled.result)
            for seed in range(8)
        ]
        mutants = [produced for produced in mutants if produced is not None]
        assert mutants
        for mutant, detail in mutants:
            edge = detail.split(":")[0]
            assert edge.startswith("<mem ")
            problems = check_schedule(mutant).problems
            assert problems and all(f"dependence violated: {edge}" in p for p in problems)
            verdicts = evaluate(compiled.loop, compiled.unroll_factor, mutant)
            assert any(f"ordering violated on {edge}" in p for p in verdicts.oracle_problems)

    def test_shrink_queue_keeps_checker_quiet(self, compiled):
        rng = np.random.default_rng(5)
        produced = MUTATIONS["shrink_queue"](rng, compiled.result)
        if produced is None:
            pytest.skip("no cross-cluster lifetime deep enough to shrink")
        mutant, _ = produced
        # The checker has no capacity rule; the oracle does.
        assert check_schedule(mutant).ok
        verdicts = evaluate(
            compiled.loop, compiled.unroll_factor, mutant
        )
        assert not verdicts.oracle_ok
        assert not contract_violations("shrink_queue", verdicts)


class TestContract:
    def _verdicts(self, c, o):
        return Verdicts(checker_ok=c, oracle_ok=o)

    def test_baseline_requires_unanimous_accept(self):
        assert not contract_violations(None, self._verdicts(True, True))
        assert contract_violations(None, self._verdicts(False, True))
        assert contract_violations(None, self._verdicts(True, False))

    def test_placement_clauses(self):
        # Both accept or both reject: agreement.
        assert not contract_violations("shift", self._verdicts(True, True))
        assert not contract_violations("shift", self._verdicts(False, False))
        # Checker accepts but the oracle rejects: a false alarm or a
        # missing static rule.
        assert contract_violations("shift", self._verdicts(True, False)) == [
            "checker accepts but oracle rejects"
        ]
        # Checker rejects but the oracle accepts: a missing mirror.
        assert contract_violations("shift", self._verdicts(False, True)) == [
            "checker rejects but oracle accepts"
        ]

    def test_capacity_clauses(self):
        assert not contract_violations(
            "shrink_queue", self._verdicts(True, False)
        )
        # The mutant is one value too shallow: the oracle must reject.
        assert contract_violations(
            "shrink_queue", self._verdicts(True, True)
        )
        assert contract_violations(
            "shrink_queue", self._verdicts(False, False)
        )

    def test_unknown_mutation_rejected(self):
        with pytest.raises(ValueError):
            contract_violations("nonsense", self._verdicts(True, True))


class TestCampaign:
    def test_seeded_campaign_agrees(self):
        report = run_fuzz(
            FuzzConfig(seed=1999, trials=8, mutants_per_trial=6, minimize=False)
        )
        assert report.ok, [d.to_dict() for d in report.disagreements]
        assert report.trials_run == 8
        assert report.mutants_run > 0

    def test_campaign_is_deterministic(self):
        config = FuzzConfig(seed=42, trials=4, mutants_per_trial=4, minimize=False)
        a = run_fuzz(config).to_dict()
        b = run_fuzz(config).to_dict()
        a.pop("elapsed_seconds")
        b.pop("elapsed_seconds")
        assert a == b

    def test_time_budget_stops_early(self):
        report = run_fuzz(
            FuzzConfig(seed=1, trials=10_000, time_budget=0.0, minimize=False)
        )
        assert report.trials_run <= 1

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FuzzConfig(trials=0)
        with pytest.raises(ValueError):
            FuzzConfig(mutants_per_trial=-1)

    def test_report_serialises(self):
        import json

        report = run_fuzz(
            FuzzConfig(seed=2, trials=2, mutants_per_trial=2, minimize=False)
        )
        assert json.dumps(report.to_dict())


class TestFuzzPopulation:
    def test_default_spec_is_unchanged(self):
        """p_mem_dep defaults off and must not perturb the published
        surrogate population (golden suite stats depend on it)."""
        assert SyntheticSpec().p_mem_dep == 0.0
        a = synthetic_loop(5, seed=1999)
        b = synthetic_loop(5, seed=1999, spec=SyntheticSpec(p_mem_dep=0.0))
        assert a.ddg.pretty() == b.ddg.pretty()

    def test_fuzz_spec_emits_memory_edges(self):
        found = 0
        for index in range(30):
            loop = synthetic_loop(index, seed=7, spec=FUZZ_SPEC)
            found += sum(
                1 for e in loop.ddg.edges() if e.kind == DepKind.MEM
            )
        assert found > 0

    def test_mem_edges_do_not_change_flow_population(self):
        plain = synthetic_loop(3, seed=7)
        edged = synthetic_loop(3, seed=7, spec=FUZZ_SPEC)
        flows = lambda ddg: sorted(
            (e.src, e.dst, e.omega) for e in ddg.edges() if e.is_flow
        )
        assert flows(plain.ddg) == flows(edged.ddg)


class TestMinimizer:
    def test_minimizer_shrinks_to_smallest_failing_loop(self):
        loop = synthetic_loop(4, seed=123, spec=FUZZ_SPEC)
        stores = [
            op for op in loop.ddg.operations() if op.opcode.value == "store"
        ]
        if len(stores) < 2:
            pytest.skip("population sample has a single store")
        target = stores[0].op_id

        def still_fails(candidate):
            return any(
                op.op_id == target for op in candidate.ddg.operations()
            )

        minimized = minimize_loop(loop, still_fails)
        assert still_fails(minimized)
        assert len(minimized.ddg) < len(loop.ddg)
        remaining = [
            op
            for op in minimized.ddg.operations()
            if op.opcode.value == "store"
        ]
        assert len(remaining) == 1

    def test_minimizer_keeps_loop_valid(self):
        loop = synthetic_loop(9, seed=55, spec=FUZZ_SPEC)
        minimized = minimize_loop(loop, lambda candidate: True)
        minimized.ddg.validate()
        assert len(minimized.ddg) >= 1
