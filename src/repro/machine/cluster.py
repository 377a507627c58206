"""Cluster descriptors: the functional units of one cluster."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Tuple

from ..errors import MachineError
from ..ir.opcodes import FUKind, USEFUL_FU_KINDS
from .cqrf import QueueFileSpec


@dataclass(frozen=True)
class ClusterSpec:
    """Functional units and local storage of a single cluster.

    The paper's configuration is one Load/Store, one Add and one Mul unit
    plus one Copy FU per cluster; other mixes are expressible for
    ablations ("that could be improved with additional hardware support").
    """

    mem: int = 1
    alu: int = 1
    mul: int = 1
    copy: int = 1
    lrf: QueueFileSpec = field(default_factory=QueueFileSpec)

    def __post_init__(self) -> None:
        for name in ("mem", "alu", "mul", "copy"):
            if getattr(self, name) < 0:
                raise MachineError(f"negative {name} FU count")
        if self.mem + self.alu + self.mul == 0:
            raise MachineError("a cluster needs at least one useful FU")
        # fu_count sits on MRT/scheduler hot paths; build the lookup once,
        # indexed by FUKind.index so a lookup hashes no enum (each kind's
        # count is the field named after its value).
        object.__setattr__(self, "_fu_counts", tuple(getattr(self, kind.value) for kind in FUKind))

    def fu_count(self, kind: FUKind) -> int:
        """Number of units of *kind* in this cluster."""
        return self._fu_counts[kind.index]

    @property
    def useful_fus(self) -> int:
        """Units counted by the paper's FU totals (copy FU excluded)."""
        return self.mem + self.alu + self.mul

    @property
    def total_fus(self) -> int:
        """All units including the copy FU."""
        return self.useful_fus + self.copy

    def iter_fus(self) -> Iterator[Tuple[FUKind, int]]:
        """Iterate (kind, instance_index) pairs deterministically."""
        for kind in (FUKind.MEM, FUKind.ALU, FUKind.MUL, FUKind.COPY):
            for index in range(self.fu_count(kind)):
                yield kind, index

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ClusterSpec(mem={self.mem}, alu={self.alu}, "
            f"mul={self.mul}, copy={self.copy})"
        )


#: The paper's per-cluster configuration (section 4).
PAPER_CLUSTER = ClusterSpec(mem=1, alu=1, mul=1, copy=1)
