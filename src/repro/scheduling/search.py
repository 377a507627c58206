"""II-search policies: how a modulo scheduler walks the II range.

Both IMS and DMS reduce to the same outer loop — pick an II candidate,
run one or more scheduling *attempts* at it, move on — but the paper
(and the seed implementation) hard-wires the simplest walk: every II
from MII upward, with the full restart budget burned at every rung.
This module extracts that driver into pluggable :class:`SearchPolicy`
objects over an :class:`AttemptRunner` protocol the schedulers provide:

* ``ladder`` — the reference walk, bit-identical to the seed: rungs
  ascending, every salt in order, first success wins.
* ``adaptive`` — the default: gallops up the II range (MII, +1, +2,
  +4, ...) with single evidence-seeded probes to find a feasible
  *incumbent* fast, bisects the last gap down, then confirms minimality
  with a plain ascending sweep of every rung below the incumbent.
  Attempts run under :class:`AttemptLimits` futility cutoffs, and
  failed probes hand :class:`FailureEvidence` to the next probe's
  cluster-preference seeding.

II contract: ``ladder`` defines the reference II.  ``adaptive`` confirms
every rung below its incumbent with the ladder's own salt sequence, so
it can be *worse* than the ladder only when a futility cutoff aborts an
attempt the ladder would have finished successfully — the default
``thrash_cap_ratio`` leaves ~2x headroom over the largest thrash ever
observed in a successful attempt.  It can be *better* (lower II) when an
evidence-seeded probe succeeds at a rung where every plain ladder salt
fails; the confirm sweep never revokes such an incumbent.  Neither
divergence occurs anywhere on the 343-case golden corpus, where exact II
equality is pinned by ``tests/test_search_policies.py``.

The per-attempt bookkeeping (what one attempt is, how it mutates its
graph copy) stays in ``dms.py``/``ims.py``; this module owns only the
order in which attempts are asked for and how their stats aggregate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from ..config import SEARCH_POLICY_NAMES
from ..errors import IIOverflowError, SchedulingError
from ..ir.ddg import DDG
from .heights import compute_heights, height_edge_terms
from .result import SchedulerStats
from .schedule import Placement

#: Re-pops of one op beyond which a failed attempt reports it as "hot".
_HOT_POP_THRESHOLD = 4


# ----------------------------------------------------------------------
# Attempt-level value types
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class AttemptLimits:
    """Futility cutoffs an attempt may honour (``None`` field = off).

    Attributes:
        thrash_cap: abort once any single operation has been re-popped
            (ejected and rescheduled) more than this many times.  Failed
            attempts livelock with one op cycling hundreds of times;
            successful attempts stay far below the default cap, so this
            cuts doomed attempts 3-5x short (heuristic — see the module
            docstring's II-equality contract).
        budget_infeasible_abort: abort as soon as the remaining budget is
            smaller than the number of unscheduled operations.  Each
            placement consumes one budget unit and schedules one op, so
            failure is already certain — this cutoff is outcome-exact.
    """

    thrash_cap: Optional[int] = None
    budget_infeasible_abort: bool = False


@dataclass(frozen=True)
class FailureEvidence:
    """What a failed attempt learned, for seeding the next probe.

    Attributes:
        hot_ops: operations that thrashed (re-popped more than
            :data:`_HOT_POP_THRESHOLD` times) or were still unscheduled
            when the attempt gave up.
        cluster_order: all clusters, least-loaded first at the moment of
            failure — where the next probe should steer its hot ops.
    """

    hot_ops: frozenset = frozenset()
    cluster_order: Tuple[int, ...] = ()


@dataclass
class AttemptOutcome:
    """Result of one scheduling attempt at one (II, salt).

    ``placements``/``work`` describe the finished schedule on success
    (``placements is None`` means failure); ``stats`` covers only this
    attempt, so policies can aggregate without double counting.
    """

    ii: int
    salt: int
    placements: Optional[Mapping[int, Placement]]
    work: DDG
    stats: SchedulerStats
    evidence: Optional[FailureEvidence] = None

    @property
    def ok(self) -> bool:
        return self.placements is not None


class AttemptRunner:
    """Protocol the schedulers implement to serve attempts to a policy.

    The base class owns the per-loop shared caches — the II-independent
    height edge terms and the per-II heights table, computed on the
    pristine graph (graph copies preserve op ids, so the tables stay
    valid for every attempt's working copy) — so every policy benefits
    from cross-rung reuse no matter how often it revisits a rung.
    Subclasses call :meth:`_bind` once and use :meth:`heights_for`.
    """

    #: Loop name for error reporting.
    loop_name: str = ""
    #: Salts a policy should try per rung (1 for the deterministic IMS).
    restarts_per_rung: int = 1

    def _bind(self, ddg: DDG, latencies) -> None:
        """Attach the loop and precompute the shared height caches."""
        self.ddg = ddg
        self.loop_name = ddg.name
        self._latencies = latencies
        self._height_terms = height_edge_terms(ddg, latencies)
        self._heights: Dict[int, Dict[int, int]] = {}

    def heights_for(self, ii: int) -> Dict[int, int]:
        heights = self._heights.get(ii)
        if heights is None:
            heights = compute_heights(
                self.ddg, self._latencies, ii, self._height_terms
            )
            self._heights[ii] = heights
        return heights

    def run(
        self,
        ii: int,
        salt: int,
        limits: Optional[AttemptLimits] = None,
        evidence: Optional[FailureEvidence] = None,
    ) -> AttemptOutcome:
        raise NotImplementedError


@dataclass(frozen=True)
class AttemptRecord:
    """One line of a search's attempt log (for stats accounting tests)."""

    ii: int
    salt: int
    ok: bool
    stats: SchedulerStats


@dataclass
class SearchOutcome:
    """What a search policy hands back to the scheduler."""

    ii: int
    placements: Mapping[int, Placement]
    work: DDG
    stats: SchedulerStats
    trajectory: Tuple[int, ...]
    attempt_log: Tuple[AttemptRecord, ...]


# ----------------------------------------------------------------------
# Shared aggregation helper
# ----------------------------------------------------------------------


class _Tally:
    """Aggregates attempt outcomes exactly once each."""

    def __init__(self) -> None:
        self.stats = SchedulerStats()
        self.log: List[AttemptRecord] = []
        self._rungs: List[int] = []
        self._seen_rungs: set = set()

    def add(self, outcome: AttemptOutcome) -> None:
        if outcome.ii not in self._seen_rungs:
            self._seen_rungs.add(outcome.ii)
            self._rungs.append(outcome.ii)
            self.stats.ii_attempts += 1
        self.stats.restart_attempts += 1
        self.stats.merge(outcome.stats)
        self.log.append(
            AttemptRecord(outcome.ii, outcome.salt, outcome.ok, outcome.stats)
        )

    def outcome(self, winner: AttemptOutcome) -> SearchOutcome:
        # Trajectory: distinct rungs in first-attempt order, with the
        # achieved II moved to the end (the report's contract is that the
        # trajectory terminates at the result).
        rungs = [ii for ii in self._rungs if ii != winner.ii] + [winner.ii]
        return SearchOutcome(
            ii=winner.ii,
            placements=winner.placements,
            work=winner.work,
            stats=self.stats,
            trajectory=tuple(rungs),
            attempt_log=tuple(self.log),
        )


# ----------------------------------------------------------------------
# Policies
# ----------------------------------------------------------------------


class SearchPolicy:
    """Strategy for walking (II, salt) candidates until one schedules."""

    name: str = ""

    def search(self, runner: AttemptRunner, mii: int, config) -> SearchOutcome:
        """Find a schedule or raise :class:`IIOverflowError`."""
        raise NotImplementedError


class LadderPolicy(SearchPolicy):
    """The seed's exhaustive walk — the bit-identical reference.

    Rungs ascend from MII; every rung burns the full restart budget
    before the next is tried.  No cutoffs, no evidence: attempt ``k`` at
    rung ``r`` is exactly the seed scheduler's attempt ``k`` at ``r``,
    so emitted schedules are pinned by the golden-fingerprint suite.
    """

    name = "ladder"

    def search(self, runner: AttemptRunner, mii: int, config) -> SearchOutcome:
        max_ii = config.max_ii(mii)
        tally = _Tally()
        for ii in range(mii, max_ii + 1):
            for salt in range(runner.restarts_per_rung):
                outcome = runner.run(ii, salt)
                tally.add(outcome)
                if outcome.ok:
                    return tally.outcome(outcome)
        raise IIOverflowError(runner.loop_name, max_ii)


class AdaptivePolicy(SearchPolicy):
    """Galloping ladder with incumbent bisection and a confirming sweep.

    Three phases:

    1. **Gallop** — single salt-0 probes at MII, +1, +2, +4, ... (each
       seeded with the previous failure's evidence) until one succeeds:
       the *incumbent*.  Failed rungs this cheap probe visits would have
       cost the ladder the full restart budget.
    2. **Bisect** — binary search of the gap between the last galloped
       failure and the incumbent, lowering the incumbent while probes
       keep succeeding.
    3. **Confirm** — plain ascending sweep of every rung below the
       incumbent with the ladder's own salt sequence (skipping pairs the
       gallop already evaluated un-seeded), so the minimal feasible rung
       is found exactly as the ladder would.  The first success here is
       final: every lower rung has already been fully refuted.

    All attempts run under the config's futility cutoffs; probes after
    the first carry :class:`FailureEvidence` into cluster-preference
    seeding.  Evidence can only *add* feasibility — the confirm sweep
    still checks the plain attempts below the incumbent — so relative to
    the ladder the returned II can drop (an evidenced probe succeeding
    where every plain salt fails) but can rise only via a futility
    cutoff killing an attempt the ladder would have finished.  See the
    module docstring for the calibration of both margins.
    """

    name = "adaptive"

    def search(self, runner: AttemptRunner, mii: int, config) -> SearchOutcome:
        max_ii = config.max_ii(mii)
        limits = AttemptLimits(
            thrash_cap=config.thrash_cap_ratio * config.budget_ratio,
            budget_infeasible_abort=True,
        )
        tally = _Tally()
        # (ii, salt) pairs already evaluated *without* evidence seeding,
        # reusable by the confirm sweep.  Evidence-seeded probes are
        # different attempts and are deliberately not recorded here.
        plain_failed: set = set()
        evidence: Optional[FailureEvidence] = None

        def probe(ii: int) -> AttemptOutcome:
            nonlocal evidence
            outcome = runner.run(ii, 0, limits=limits, evidence=evidence)
            tally.add(outcome)
            if outcome.ok:
                return outcome
            if evidence is None:
                plain_failed.add((ii, 0))
            if outcome.evidence is not None:
                evidence = outcome.evidence
            return outcome

        # Phase 1: gallop (rungs MII+0, +1, +2, +4, +8, ...).
        incumbent: Optional[AttemptOutcome] = None
        last_failed = mii - 1
        offset = 0
        while mii + offset <= max_ii:
            ii = mii + offset
            outcome = probe(ii)
            if outcome.ok:
                incumbent = outcome
                break
            last_failed = ii
            offset = 1 if offset == 0 else offset * 2

        # Phase 2: bisect the final gallop gap (last_failed, incumbent].
        if incumbent is not None:
            lo, hi = last_failed + 1, incumbent.ii
            while lo < hi:
                mid = (lo + hi) // 2
                outcome = probe(mid)
                if outcome.ok:
                    incumbent, hi = outcome, mid
                else:
                    lo = mid + 1

        # Phase 3: plain ascending confirmation below the incumbent (or,
        # with no incumbent, over the whole range before overflowing).
        ceiling = incumbent.ii if incumbent is not None else max_ii + 1
        for ii in range(mii, ceiling):
            for salt in range(runner.restarts_per_rung):
                if (ii, salt) in plain_failed:
                    continue
                outcome = runner.run(ii, salt, limits=limits)
                tally.add(outcome)
                if outcome.ok:
                    # Every rung below ii is now fully refuted, so this
                    # is the minimal feasible II — no need to keep the
                    # (higher) incumbent.
                    return tally.outcome(outcome)
        if incumbent is None:
            raise IIOverflowError(runner.loop_name, max_ii)
        return tally.outcome(incumbent)


#: Shared policy instances (policies are stateless between searches).
SEARCH_POLICIES: Dict[str, SearchPolicy] = {
    policy.name: policy
    for policy in (LadderPolicy(), AdaptivePolicy())
}


def get_search_policy(name: str) -> SearchPolicy:
    """Look up a search policy by its config name."""
    try:
        return SEARCH_POLICIES[name]
    except KeyError:
        raise SchedulingError(
            f"unknown search policy {name!r}; "
            f"choose from {SEARCH_POLICY_NAMES}"
        ) from None
