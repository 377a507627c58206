"""Functional-unit naming helpers shared by codegen and traces."""

from __future__ import annotations

from dataclasses import dataclass

from ..ir.opcodes import FUKind


@dataclass(frozen=True)
class FUSlot:
    """A concrete functional unit: (cluster, kind, instance index)."""

    cluster: int
    kind: FUKind
    index: int

    def __str__(self) -> str:
        return f"c{self.cluster}.{self.kind.value}{self.index}"

    @property
    def sort_key(self) -> tuple:
        """Listing order: cluster, then kind (MEM, ALU, MUL, COPY), then index."""
        return (self.cluster, self.kind.index, self.index)


def fu_name(cluster: int, kind: FUKind, index: int) -> str:
    """Printable name of a functional unit instance."""
    return str(FUSlot(cluster, kind, index))
