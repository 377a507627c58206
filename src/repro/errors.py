"""Exception hierarchy for the repro package.

All errors raised by this library derive from :class:`ReproError`, so user
code can catch everything from one place while still discriminating on the
specific failure mode.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the repro package."""


class DDGError(ReproError):
    """Raised for malformed dependence graphs (unknown ops, bad edges)."""


class TransformError(ReproError):
    """Raised when an IR transformation receives an invalid input."""


class MachineError(ReproError):
    """Raised for inconsistent machine descriptions."""


class SchedulingError(ReproError):
    """Raised when a scheduler cannot produce a valid schedule."""


class IIOverflowError(SchedulingError):
    """Raised when no II up to the configured maximum admits a schedule."""

    def __init__(self, loop_name: str, max_ii: int):
        super().__init__(
            f"no feasible II found for loop {loop_name!r} up to II={max_ii}"
        )
        self.loop_name = loop_name
        self.max_ii = max_ii


class ValidationError(ReproError):
    """Raised by the schedule checker when an invariant is violated."""


class AllocationError(ReproError):
    """Raised when lifetimes cannot be mapped onto the queue files."""


class SimulationError(ReproError):
    """Raised when dynamic execution of a schedule breaks an invariant."""


class CodegenError(ReproError):
    """Raised when VLIW code generation fails."""


class WorkloadError(ReproError):
    """Raised for invalid workload generator parameters."""


class ToolchainError(ReproError):
    """Raised for invalid compilation-session requests or pass pipelines."""


class CacheError(ReproError):
    """Raised when the on-disk compilation cache cannot be used at all."""


class TargetError(ReproError):
    """Raised for invalid target descriptions, files or registry lookups."""


class BenchError(ReproError):
    """Raised for invalid bench requests (unknown cases/policies) and
    unusable benchmark baselines."""


class LintError(ReproError):
    """Raised for static-analysis misuse (bad rule ids, broken baselines)."""


class ServiceError(ReproError):
    """Raised for compilation-service failures (daemon and client side).

    ``retry_after`` (seconds), when set, tells clients the failure is
    backpressure: the daemon sends it as a ``Retry-After`` header and
    the retrying client sleeps that long before re-submitting.
    """

    def __init__(self, message: str, status: int = 500, retry_after=None):
        super().__init__(message)
        self.status = status
        self.retry_after = retry_after


class ServiceUnavailable(ServiceError):
    """Raised when the service stays unreachable/busy past a deadline.

    The retrying client converts an exhausted
    :data:`~repro.service.client.TOTAL_DEADLINE` into this error, so callers (the pull-worker loop, batch drivers) can
    distinguish "gave up waiting" from a single failed exchange.
    """

    def __init__(self, message: str, retry_after=None):
        super().__init__(message, status=503, retry_after=retry_after)


class JournalError(ReproError):
    """Raised when the persistent job journal cannot be used at all."""


class FaultError(ReproError):
    """Raised for invalid fault-injection specs or unknown fault points."""
