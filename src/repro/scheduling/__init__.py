"""Modulo scheduling: MII bounds, IMS baseline, and the DMS algorithm."""

from .chains import Chain, ChainPlan, ChainPlanner, ChainRegistry, PlannedChain
from .checker import ValidationReport, check_schedule, validate_schedule
from .dms import DistributedModuloScheduler
from .fingerprint import schedule_fingerprint
from .heights import compute_heights, height_edge_terms, priority_order
from .ims import IterativeModuloScheduler
from .mii import MIIResult, compute_mii, max_cycle_ratio, rec_mii, res_mii
from .mrt import ModuloReservationTable
from .result import ScheduleResult, SchedulerStats
from .schedule import PartialSchedule, Placement
from .search import (
    SEARCH_POLICY_NAMES,
    AdaptivePolicy,
    AttemptLimits,
    AttemptOutcome,
    AttemptRunner,
    FailureEvidence,
    LadderPolicy,
    SearchOutcome,
    SearchPolicy,
    get_search_policy,
)
from .twophase import (
    TwoPhaseScheduler,
    insert_static_chains,
    partition_clusters,
)

__all__ = [
    "Chain",
    "ChainPlan",
    "ChainPlanner",
    "ChainRegistry",
    "PlannedChain",
    "ValidationReport",
    "check_schedule",
    "validate_schedule",
    "DistributedModuloScheduler",
    "schedule_fingerprint",
    "compute_heights",
    "height_edge_terms",
    "priority_order",
    "IterativeModuloScheduler",
    "MIIResult",
    "compute_mii",
    "max_cycle_ratio",
    "rec_mii",
    "res_mii",
    "ModuloReservationTable",
    "ScheduleResult",
    "SchedulerStats",
    "PartialSchedule",
    "Placement",
    "SEARCH_POLICY_NAMES",
    "AdaptivePolicy",
    "AttemptLimits",
    "AttemptOutcome",
    "AttemptRunner",
    "FailureEvidence",
    "LadderPolicy",
    "SearchOutcome",
    "SearchPolicy",
    "get_search_policy",
    "TwoPhaseScheduler",
    "insert_static_chains",
    "partition_clusters",
]
