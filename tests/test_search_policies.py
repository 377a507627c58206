"""Regression suite for the II-search policy layer (``scheduling/search``).

Four concerns:

* **Corpus II equality** — over the same case matrix the golden
  fingerprint suite pins (full kernel suite x {ring, linear, mesh,
  crossbar} x {2, 4, 8} clusters plus the unrolled extras and the IMS
  reference points), the default ``adaptive`` policy must return exactly
  the II the reference ``ladder`` returns, and every schedule it emits
  must pass the differential execution oracle.
* **Policy semantics** — scripted fake runners pin the walk order, the
  gallop/bisect/confirm interplay and the minimality guarantee without
  paying for real scheduling.
* **Overflow** — ``IIOverflowError`` carries the right fields under
  both policies.
* **Stats accounting** — aggregate :class:`SchedulerStats` equal the sum
  over the attempt log under every policy (no double counting of the
  winner).
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.api import CompilationRequest, Toolchain
from repro.config import SchedulerConfig
from repro.errors import IIOverflowError, ReproError, SchedulingError
from repro.ir.transforms import single_use_ddg, unroll_ddg
from repro.machine import clustered_vliw, unclustered_vliw
from repro.scheduling import (
    SEARCH_POLICY_NAMES,
    AttemptOutcome,
    AttemptRunner,
    DistributedModuloScheduler,
    IterativeModuloScheduler,
    SchedulerStats,
    get_search_policy,
)
from repro.scheduling.schedule import Placement
from repro.validate import verify_compiled
from repro.workloads import KERNELS, make_kernel

from ._fingerprint_cases import (
    CLUSTER_COUNTS,
    IMS_CASES,
    TOPOLOGIES,
    UNROLLED_CASES,
)

TOOLCHAIN = Toolchain.default()


# ----------------------------------------------------------------------
# Corpus: adaptive II == ladder II, schedules oracle-clean
# ----------------------------------------------------------------------


def _corpus_cases():
    cases = []
    for kernel in sorted(KERNELS):
        for topology in TOPOLOGIES:
            for k in CLUSTER_COUNTS:
                cases.append(
                    (f"{kernel}/{topology}-{k}", kernel, {}, 1, topology, k)
                )
    for label, kernel, kwargs, unroll, topology, k in UNROLLED_CASES:
        cases.append((label, kernel, kwargs, unroll, topology, k))
    for label, kernel, unroll, k in IMS_CASES:
        cases.append((label, kernel, {}, unroll, None, k))
    return cases


CORPUS = _corpus_cases()


def _compile(search, kernel, kwargs, unroll, topology, k):
    """(II | error-class-name, compiled-or-None) under one policy."""
    machine = (
        unclustered_vliw(k)
        if topology is None
        else clustered_vliw(k, topology=topology)
    )
    request = CompilationRequest(
        loop=make_kernel(kernel, **kwargs),
        machine=machine,
        unroll=unroll,
        config=SchedulerConfig(search=search),
    )
    try:
        report = TOOLCHAIN.compile(request)
    except ReproError as err:
        return type(err).__name__, None
    return report.result.ii, report.compiled


@pytest.mark.parametrize(
    "label,kernel,kwargs,unroll,topology,k",
    CORPUS,
    ids=[case[0] for case in CORPUS],
)
def test_adaptive_matches_ladder_ii_and_is_oracle_clean(
    label, kernel, kwargs, unroll, topology, k
):
    ladder_ii, _ = _compile("ladder", kernel, kwargs, unroll, topology, k)
    adaptive_ii, compiled = _compile(
        "adaptive", kernel, kwargs, unroll, topology, k
    )
    assert adaptive_ii == ladder_ii, (
        f"{label}: adaptive II {adaptive_ii!r} != ladder II {ladder_ii!r}"
    )
    if compiled is not None:
        report = verify_compiled(compiled)
        assert report.ok, (
            f"{label}: oracle rejected the adaptive schedule: "
            f"{report.all_problems[:3]}"
        )


# ----------------------------------------------------------------------
# Scripted runners: policy semantics without real scheduling
# ----------------------------------------------------------------------


class ScriptedRunner(AttemptRunner):
    """Attempt runner whose outcomes are a scripted feasibility table."""

    def __init__(self, feasible, restarts=3, budget_per_attempt=10):
        self.loop_name = "scripted"
        self.restarts_per_rung = restarts
        self._feasible = set(feasible)  # {(ii, salt), ...}
        self._budget = budget_per_attempt
        self.ddg = make_kernel("dot_product").ddg  # any real graph
        self.calls = []

    def run(self, ii, salt, limits=None, evidence=None):
        self.calls.append((ii, salt))
        ok = (ii, salt) in self._feasible
        stats = SchedulerStats(budget_used=self._budget, placements=self._budget)
        return AttemptOutcome(
            ii=ii,
            salt=salt,
            placements={0: Placement(0, 0)} if ok else None,
            work=self.ddg,
            stats=stats,
        )


@dataclasses.dataclass
class _Bounds:
    mii: int = 4


SMALL_CONFIG = SchedulerConfig(max_ii_factor=1, max_ii_extra=8)


class TestPolicySemantics:
    def test_ladder_walks_rung_major(self):
        runner = ScriptedRunner(feasible={(6, 1)})
        outcome = get_search_policy("ladder").search(runner, 4, SMALL_CONFIG)
        assert outcome.ii == 6
        assert runner.calls == [
            (4, 0), (4, 1), (4, 2), (5, 0), (5, 1), (5, 2), (6, 0), (6, 1)
        ]
        assert outcome.trajectory == (4, 5, 6)

    @pytest.mark.parametrize("policy", SEARCH_POLICY_NAMES)
    def test_all_policies_agree_on_minimal_ii(self, policy):
        for feasible in (
            {(4, 0)},               # first probe wins
            {(4, 2)},               # ladder needs the last salt at MII
            {(7, 0), (9, 0)},       # answer beyond a galloped gap
            {(6, 1), (8, 0)},       # salt-1 rung below a salt-0 rung
            {(12, 0)},              # top of the range
        ):
            runner = ScriptedRunner(feasible)
            outcome = get_search_policy(policy).search(runner, 4, SMALL_CONFIG)
            expected = min(ii for ii, _ in feasible)
            assert outcome.ii == expected, (policy, feasible)
            assert outcome.trajectory[-1] == expected
            assert outcome.stats.ii_attempts == len(set(outcome.trajectory))

    def test_adaptive_skips_restarts_above_the_answer(self):
        # Everything fails below 9; salt 0 succeeds at 9.  The adaptive
        # search must not burn salts 1-2 at rung 9 (the ladder would not
        # have either) and must fully refute every rung below.
        runner = ScriptedRunner(feasible={(9, 0), (10, 0), (11, 0), (12, 0)})
        outcome = get_search_policy("adaptive").search(runner, 4, SMALL_CONFIG)
        assert outcome.ii == 9
        assert (9, 1) not in runner.calls and (9, 2) not in runner.calls
        for rung in range(4, 9):
            for salt in range(3):
                assert (rung, salt) in runner.calls

    def test_adaptive_trajectory_ends_at_result(self):
        runner = ScriptedRunner(feasible={(8, 0), (12, 0)})
        outcome = get_search_policy("adaptive").search(runner, 4, SMALL_CONFIG)
        assert outcome.ii == 8
        assert outcome.trajectory[-1] == 8
        assert len(outcome.trajectory) == len(set(outcome.trajectory))

    def test_unknown_policy_rejected(self):
        with pytest.raises(SchedulingError, match="unknown search policy"):
            get_search_policy("simulated-annealing")
        with pytest.raises(SchedulingError, match="unknown search policy"):
            SchedulerConfig(search="simulated-annealing")


# ----------------------------------------------------------------------
# IIOverflowError under every policy
# ----------------------------------------------------------------------


class TestOverflow:
    @pytest.mark.parametrize("policy", SEARCH_POLICY_NAMES)
    def test_scripted_overflow_fields(self, policy):
        runner = ScriptedRunner(feasible=set())
        with pytest.raises(IIOverflowError) as excinfo:
            get_search_policy(policy).search(runner, 4, SMALL_CONFIG)
        assert excinfo.value.loop_name == "scripted"
        assert excinfo.value.max_ii == SMALL_CONFIG.max_ii(4) == 12

    @pytest.mark.parametrize("policy", SEARCH_POLICY_NAMES)
    def test_real_scheduler_overflow_or_valid_schedule(self, policy):
        # A saturated 2-cluster machine with a one-rung II window and a
        # single-placement budget: either the lone rung works first try
        # (then the schedule must validate) or every policy must surface
        # IIOverflowError with the machine's ceiling.
        from repro.scheduling import validate_schedule
        from .test_dms_backtracking import spread_loop

        config = SchedulerConfig(
            max_ii_factor=1,
            max_ii_extra=0,
            budget_ratio=1,
            restarts_per_ii=1,
            search=policy,
        )
        scheduler = DistributedModuloScheduler(clustered_vliw(2), config=config)
        loop = spread_loop(pairs=6)
        try:
            result = scheduler.schedule(loop.ddg.copy())
            validate_schedule(result)
        except IIOverflowError as err:
            assert err.max_ii >= 1
            assert err.loop_name == loop.ddg.name


# ----------------------------------------------------------------------
# Stats accounting invariants
# ----------------------------------------------------------------------

#: Counters that must equal the exact sum over the attempt log.
_SUMMED_FIELDS = (
    "placements",
    "budget_used",
    "futility_aborts",
    "ejections_resource",
    "ejections_dependence",
    "ejections_communication",
    "ejections_chain",
    "chains_built",
    "chains_dismantled",
    "moves_inserted",
    "moves_removed",
    "strategy1",
    "strategy2",
    "strategy3",
)


def _check_accounting(outcome):
    log = outcome.attempt_log
    assert outcome.stats.restart_attempts == len(log)
    assert outcome.stats.ii_attempts == len({rec.ii for rec in log})
    for name in _SUMMED_FIELDS:
        total = sum(getattr(rec.stats, name) for rec in log)
        assert getattr(outcome.stats, name) == total, name
    # Per-attempt records must not themselves carry aggregate counters.
    assert all(rec.stats.ii_attempts == 0 for rec in log)
    assert all(rec.stats.restart_attempts == 0 for rec in log)


class TestStatsAccounting:
    @pytest.mark.parametrize("policy", SEARCH_POLICY_NAMES)
    def test_dms_stats_sum_across_rungs(self, policy):
        from repro.scheduling import compute_mii

        ddg = single_use_ddg(unroll_ddg(make_kernel("fir_filter", taps=8).ddg, 2))
        config = SchedulerConfig(search=policy)
        machine = clustered_vliw(4)
        scheduler = DistributedModuloScheduler(machine, config=config)
        mii = compute_mii(ddg, machine, scheduler.latencies).mii
        outcome = get_search_policy(policy).search(
            scheduler.attempt_runner(ddg.copy()), mii, config
        )
        _check_accounting(outcome)

    @pytest.mark.parametrize("policy", SEARCH_POLICY_NAMES)
    def test_ims_stats_sum_across_rungs(self, policy):
        from repro.scheduling import compute_mii

        ddg = unroll_ddg(make_kernel("fir_filter", taps=8).ddg, 4)
        config = SchedulerConfig(search=policy)
        machine = unclustered_vliw(2)
        scheduler = IterativeModuloScheduler(machine, config=config)
        mii = compute_mii(ddg, machine, scheduler.latencies).mii
        outcome = get_search_policy(policy).search(
            scheduler.attempt_runner(ddg), mii, config
        )
        _check_accounting(outcome)

    def test_scheduler_result_stats_match_policy_outcome(self):
        ddg = single_use_ddg(make_kernel("lms_update", taps=4).ddg)
        config = SchedulerConfig(search="adaptive")
        result = DistributedModuloScheduler(
            clustered_vliw(4), config=config
        ).schedule(ddg.copy())
        stats = result.stats
        assert stats.restart_attempts >= stats.ii_attempts >= 1
        assert stats.placements <= stats.budget_used
        assert result.ii_trajectory[-1] == result.ii

