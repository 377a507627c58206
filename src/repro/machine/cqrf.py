"""Queue register file descriptors (LRF queues and CQRFs).

The paper's storage model:

* each cluster owns a **Local Register File (LRF)** organised as queues
  (the authors' EuroPar'97 companion paper shows modulo-scheduled loop
  variants map naturally onto queues);
* between every ordered pair of adjacent clusters sits a **Communication
  Queue Register File (CQRF)**: the upstream cluster has write-only
  access, the downstream cluster read-only access, and each value can be
  read exactly once.  Near-neighbour communication costs no explicit
  instruction: the producer writes into the CQRF and the consumer reads
  from it as its normal operand access.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple, Union

from ..errors import MachineError


@dataclass(frozen=True)
class QueueFileSpec:
    """Capacity limits of one queue register file.

    Attributes:
        n_queues: number of independent FIFO queues in the file.
        queue_depth: maximum values simultaneously held per queue.
        write_ports: values the file accepts per cycle (its write
            bandwidth).  0 means unconstrained, which matches the paper's
            silence on port counts; a positive value arms the per-link
            bandwidth rule in the schedule checker and the execution
            oracle.
    """

    n_queues: int = 64
    queue_depth: int = 32
    write_ports: int = 0

    def __post_init__(self) -> None:
        if self.n_queues < 1:
            raise MachineError(f"n_queues must be >= 1, got {self.n_queues}")
        if self.queue_depth < 1:
            raise MachineError(f"queue_depth must be >= 1, got {self.queue_depth}")
        if self.write_ports < 0:
            raise MachineError(f"write_ports must be >= 0, got {self.write_ports}")

    @property
    def capacity(self) -> int:
        """Total values the file can hold."""
        return self.n_queues * self.queue_depth


@dataclass(frozen=True)
class LRFId:
    """Identifies the local register file of one cluster."""

    cluster: int

    def __str__(self) -> str:
        return f"lrf[c{self.cluster}]"


@dataclass(frozen=True)
class CQRFId:
    """Identifies the CQRF written by *writer* and read by *reader*.

    Writer and reader must be adjacent clusters; each direction of each
    adjacent pair is a separate file (bi-directional ring).
    """

    writer: int
    reader: int

    def __post_init__(self) -> None:
        if self.writer == self.reader:
            raise MachineError("a CQRF connects two distinct clusters")

    def __str__(self) -> str:
        return f"cqrf[c{self.writer}->c{self.reader}]"


QueueFileId = Union[LRFId, CQRFId]


def queue_file_for(src_cluster: int, dst_cluster: int) -> QueueFileId:
    """The queue file a value crossing ``src -> dst`` lives in."""
    if src_cluster == dst_cluster:
        return LRFId(src_cluster)
    return CQRFId(src_cluster, dst_cluster)


def sort_key(file_id: QueueFileId) -> Tuple[int, int, int]:
    """Deterministic ordering key for queue-file ids."""
    if isinstance(file_id, LRFId):
        return (0, file_id.cluster, file_id.cluster)
    return (1, file_id.writer, file_id.reader)
