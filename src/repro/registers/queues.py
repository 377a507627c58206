"""Queue allocation: mapping lifetimes onto LRF queues and CQRFs.

Every operand-reference lifetime is one FIFO stream (successive iteration
values of the same reference arrive and are consumed in order), so the
natural allocation gives each stream its own queue in the file between its
producer and consumer clusters:

* same cluster           -> a queue of that cluster's LRF;
* adjacent clusters      -> a queue of the CQRF in that direction.

The allocator assigns queue indexes deterministically, computes the depth
each queue needs, and checks the result against the machine's
:class:`~repro.machine.cqrf.QueueFileSpec` limits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..errors import AllocationError
from ..machine.cqrf import CQRFId, LRFId, QueueFileId, sort_key
from ..scheduling.result import ScheduleResult
from .lifetimes import Lifetime, extract_lifetimes


@dataclass(frozen=True, slots=True)
class QueueAssignment:
    """One lifetime bound to a queue of a file."""

    lifetime: Lifetime
    file_id: QueueFileId
    queue_index: int

    def __reduce__(self):
        return type(self), (self.lifetime, self.file_id, self.queue_index)

    @property
    def label(self) -> str:
        return f"{self.file_id}:q{self.queue_index}"


@dataclass(frozen=True, slots=True)
class FileUsage:
    """Aggregate demand on one queue file."""

    file_id: QueueFileId
    queues_used: int
    max_depth: int
    total_values: int  # sum of per-queue depths (total storage demand)

    def __reduce__(self):
        return type(self), (
            self.file_id, self.queues_used, self.max_depth, self.total_values,
        )


@dataclass
class QueueAllocation:
    """Result of allocating a schedule's lifetimes to queue files."""

    loop_name: str
    assignments: List[QueueAssignment]
    files: List[FileUsage]
    violations: List[str] = field(default_factory=list)

    @property
    def fits(self) -> bool:
        """True when every file stays within its hardware limits."""
        return not self.violations

    @property
    def total_queues(self) -> int:
        return sum(f.queues_used for f in self.files)

    @property
    def max_queue_depth(self) -> int:
        return max((f.max_depth for f in self.files), default=0)

    def by_lifetime(self) -> Dict[Tuple[int, int, int], QueueAssignment]:
        """(producer, consumer, operand_index) -> assignment lookup."""
        return {
            (a.lifetime.producer, a.lifetime.consumer, a.lifetime.operand_index): a
            for a in self.assignments
        }

    def raise_if_overflow(self) -> None:
        if self.violations:
            raise AllocationError(
                f"queue allocation for {self.loop_name!r} exceeds hardware "
                f"limits: {'; '.join(self.violations)}"
            )


def allocate_queues(result: ScheduleResult) -> QueueAllocation:
    """Allocate every lifetime of *result* to a queue."""
    lifetimes = extract_lifetimes(result)
    machine = result.machine
    grouped: Dict[QueueFileId, List[Lifetime]] = {}
    for lifetime in lifetimes:
        grouped.setdefault(lifetime.file_id, []).append(lifetime)

    assignments: List[QueueAssignment] = []
    files: List[FileUsage] = []
    violations: List[str] = []
    for file_id in sorted(grouped, key=sort_key):
        streams = sorted(
            grouped[file_id],
            key=lambda lt: (lt.producer, lt.consumer, lt.operand_index),
        )
        for queue_index, lifetime in enumerate(streams):
            assignments.append(QueueAssignment(lifetime, file_id, queue_index))
        usage = FileUsage(
            file_id=file_id,
            queues_used=len(streams),
            max_depth=max(lt.depth for lt in streams),
            total_values=sum(lt.depth for lt in streams),
        )
        files.append(usage)
        spec = (
            machine.cluster(file_id.cluster).lrf
            if isinstance(file_id, LRFId)
            else machine.cqrf
        )
        if usage.queues_used > spec.n_queues:
            violations.append(
                f"{file_id} needs {usage.queues_used} queues, has {spec.n_queues}"
            )
        if usage.max_depth > spec.queue_depth:
            violations.append(
                f"{file_id} needs depth {usage.max_depth}, has {spec.queue_depth}"
            )
    return QueueAllocation(
        loop_name=result.loop_name,
        assignments=assignments,
        files=files,
        violations=violations,
    )
