"""Scheduler configuration knobs.

All parameters that the paper leaves implicit (Rau's budget ratio, the II
search ceiling, chain-search caps) live here so experiments and ablations
can vary them without touching algorithm code.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .errors import SchedulingError


@dataclass(frozen=True)
class SchedulerConfig:
    """Tunables shared by IMS and DMS.

    Attributes:
        budget_ratio: scheduling attempts allowed per operation before an
            II attempt is abandoned (Rau's IMS uses a small constant; 6 is
            his published default).
        max_ii_factor / max_ii_extra: the II search stops at
            ``max(mii * max_ii_factor, mii + max_ii_extra)``.
        restarts_per_ii: DMS attempts per II value, each with a different
            deterministic cluster-rotation salt.  Greedy cluster
            assignment at 100%-utilized IIs is order-sensitive; cheap
            diversified restarts recover most packings a single pass
            misses (set to 1 for the strict single-pass algorithm).
        search: II-search policy (see ``repro.scheduling.search``):
            ``"adaptive"`` (default — galloping ladder with incumbent
            bisection, failure-evidence seeding and futility cutoffs),
            or ``"ladder"`` (the seed's exhaustive walk, bit-identical
            schedules).
        thrash_cap_ratio: ``adaptive`` futility cutoff — an attempt is
            abandoned once one operation has been re-popped more than
            ``thrash_cap_ratio * budget_ratio`` times.  The default cap
            (48) leaves ~2x headroom over the worst re-pop count ever
            observed in a *successful* attempt across the golden corpus
            (26), so the cutoff only fires on livelocked attempts.
        chain_combo_cap: maximum number of ring-direction combinations
            explored per chain plan (2 directions per far predecessor).
        chain_score_all_clusters: score chain options by the bottleneck
            Copy-FU slack over *all* clusters (the paper's "free slots ...
            in any cluster"); ``False`` restricts the bottleneck to the
            clusters the chains actually touch (ABL-CHAIN ablation).
        prefer_shortest_chain_only: explore only the shorter ring direction
            per far predecessor (naive baseline for ABL-CHAIN).
        single_use_strategy: ``"chain"`` (paper) or ``"tree"`` copy shapes.
        unroll_cap: largest unroll factor the auto-unroller may pick.
    """

    budget_ratio: int = 6
    max_ii_factor: int = 4
    max_ii_extra: int = 32
    restarts_per_ii: int = 3
    search: str = "adaptive"
    thrash_cap_ratio: int = 8
    chain_combo_cap: int = 16
    chain_score_all_clusters: bool = True
    prefer_shortest_chain_only: bool = False
    single_use_strategy: str = "chain"
    unroll_cap: int = 16

    def __post_init__(self) -> None:
        if self.budget_ratio < 1:
            raise SchedulingError("budget_ratio must be >= 1")
        if self.max_ii_factor < 1 or self.max_ii_extra < 0:
            raise SchedulingError("invalid II search bounds")
        if self.restarts_per_ii < 1:
            raise SchedulingError("restarts_per_ii must be >= 1")
        if self.search not in ("ladder", "adaptive"):
            raise SchedulingError(
                f"unknown search policy {self.search!r}; choose from "
                "('ladder', 'adaptive')"
            )
        if self.thrash_cap_ratio < 1:
            raise SchedulingError("thrash_cap_ratio must be >= 1")
        if self.chain_combo_cap < 1:
            raise SchedulingError("chain_combo_cap must be >= 1")
        if self.single_use_strategy not in ("chain", "tree"):
            raise SchedulingError(
                f"unknown single_use_strategy {self.single_use_strategy!r}"
            )
        if self.unroll_cap < 1:
            raise SchedulingError("unroll_cap must be >= 1")

    def max_ii(self, mii: int) -> int:
        """The largest II the search will try for a loop with *mii*."""
        return max(mii * self.max_ii_factor, mii + self.max_ii_extra)

    def with_(self, **changes: object) -> "SchedulerConfig":
        """Return a modified copy (convenience for ablations)."""
        return replace(self, **changes)


#: Shared default configuration.
DEFAULT_CONFIG = SchedulerConfig()
