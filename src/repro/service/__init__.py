"""The ``repro serve`` compilation service.

A long-lived asyncio daemon that keeps a warm process pool and an
in-memory LRU across compile requests, coalesces identical in-flight
work, applies priority-lane admission control and exposes live metrics.
Everything it runs goes through one journaled work ledger
(:mod:`repro.service.ledger`): a ``/compile`` is a one-entry group, a
distributed sweep (:mod:`repro.service.sweep`) a many-entry group, and
the daemon's own pool and pull-based
:class:`~repro.service.worker.SweepWorker` processes claim entries under
the same leases.  Fault tolerance rides on the ledger's lost-lease
requeue and quarantine rule, the persistent journal
(:mod:`repro.service.journal`) and a retrying client policy
(:class:`~repro.service.client.RetryPolicy`).
See :mod:`repro.service.daemon` for the architecture overview and
:mod:`repro.service.client` for the blocking client.
"""

from .client import NO_RETRY, RetryPolicy, ServiceClient, TransportError
from .daemon import CompileJob, CompileService, run_service
from .jobs import (
    PRIORITY_LANES,
    ParsedJob,
    ddg_from_dict,
    ddg_to_dict,
    loop_from_dict,
    loop_to_dict,
    parse_compile_payload,
    request_to_payload,
)
from .journal import JobJournal, JournalEntry, ReplayStats
from .metrics import LatencyHistogram, ServiceMetrics
from .sweep import Sweep, chunk_size
from .worker import SweepWorker

__all__ = [
    "CompileJob",
    "CompileService",
    "JobJournal",
    "JournalEntry",
    "LatencyHistogram",
    "NO_RETRY",
    "PRIORITY_LANES",
    "ParsedJob",
    "ReplayStats",
    "RetryPolicy",
    "ServiceClient",
    "ServiceMetrics",
    "Sweep",
    "SweepWorker",
    "TransportError",
    "chunk_size",
    "ddg_from_dict",
    "ddg_to_dict",
    "loop_from_dict",
    "loop_to_dict",
    "parse_compile_payload",
    "request_to_payload",
    "run_service",
]
