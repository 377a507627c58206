"""Builtin lint rules.

Importing this package registers every shipped rule in
:data:`repro.analysis.rules.RULE_REGISTRY` (the same import-time
registration idiom the pass registry uses).  Each module holds one rule;
see the module docstrings for the precise semantics and the known
blind spots of each check.
"""

from __future__ import annotations

from ..rules import RULE_REGISTRY, register_rule
from .determinism import DeterminismRule
from .async_blocking import AsyncBlockingRule
from .pool_safety import PoolSafetyRule
from .cache_discipline import CacheDisciplineRule
from .exception_discipline import ExceptionDisciplineRule
from .resource_hygiene import ResourceHygieneRule
from .async_atomicity import AsyncAtomicityRule

for _builtin in (
    DeterminismRule(),
    AsyncBlockingRule(),
    PoolSafetyRule(),
    CacheDisciplineRule(),
    ExceptionDisciplineRule(),
    ResourceHygieneRule(),
    AsyncAtomicityRule(),
):
    if _builtin.rule_id not in RULE_REGISTRY:
        register_rule(_builtin)

__all__ = [
    "DeterminismRule",
    "AsyncBlockingRule",
    "PoolSafetyRule",
    "CacheDisciplineRule",
    "ExceptionDisciplineRule",
    "ResourceHygieneRule",
    "AsyncAtomicityRule",
]
