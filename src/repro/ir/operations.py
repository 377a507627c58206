"""Operations and operand references.

An :class:`Operation` is a node of the dependence graph.  Each operation
produces at most one value, identified by the operation id.  Operands are
:class:`ValueUse` records: either a reference to another operation's value
(with an iteration distance ``omega`` for loop-carried uses) or an external
symbol (loop invariant / live-in), which imposes no scheduling constraint.

Both classes are slotted and pickle as their constructor arguments, so
unpickling re-runs validation and re-derives the cached attributes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from .opcodes import OpCode, fu_kind_of, FUKind

_set = object.__setattr__


@dataclass(frozen=True, slots=True)
class ValueUse:
    """A single operand reference.

    Attributes:
        producer: id of the producing operation, or ``None`` for an
            external (live-in/invariant) symbol.
        omega: iteration distance of the reference; ``omega = d`` means the
            consumer reads the value produced ``d`` iterations earlier.
            Always 0 for external symbols.
        symbol: name of the external symbol when ``producer is None``.
    """

    producer: Optional[int] = None
    omega: int = 0
    symbol: Optional[str] = None

    def __post_init__(self) -> None:
        if self.producer is None and self.symbol is None:
            raise ValueError("ValueUse needs a producer id or an external symbol")
        if self.producer is not None and self.symbol is not None:
            raise ValueError("ValueUse cannot be both internal and external")
        if self.omega < 0:
            raise ValueError(f"omega must be >= 0, got {self.omega}")
        if self.producer is None and self.omega != 0:
            raise ValueError("external symbols cannot be loop-carried")

    def __reduce__(self):
        return type(self), (self.producer, self.omega, self.symbol)

    @property
    def is_external(self) -> bool:
        """True for live-in / loop-invariant operands."""
        return self.producer is None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if self.is_external:
            return f"ext({self.symbol})"
        if self.omega:
            return f"v{self.producer}@-{self.omega}"
        return f"v{self.producer}"


def external(symbol: str) -> ValueUse:
    """Create an operand referencing an external (live-in) symbol."""
    return ValueUse(producer=None, omega=0, symbol=symbol)


def use(producer: int, omega: int = 0) -> ValueUse:
    """Create an operand referencing operation *producer*'s value."""
    return ValueUse(producer=producer, omega=omega)


@dataclass(frozen=True, slots=True)
class Operation:
    """A single machine operation (a DDG node).

    Attributes:
        op_id: unique id within the owning DDG; also names the produced value.
        opcode: the machine operation.
        srcs: operand references, in operand order.
        tag: free-form label used by pretty printers and codegen (for
            example the source expression ``"x[i]"``).
    """

    op_id: int
    opcode: OpCode
    srcs: Tuple[ValueUse, ...] = field(default_factory=tuple)
    tag: str = ""
    _fu_kind: FUKind = field(init=False, repr=False, compare=False)
    _internal_srcs: Tuple[ValueUse, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.op_id < 0:
            raise ValueError(f"op_id must be >= 0, got {self.op_id}")
        if type(self.srcs) is not tuple:
            _set(self, "srcs", tuple(self.srcs))
        _set(self, "_fu_kind", fu_kind_of(self.opcode))

    def __reduce__(self):
        return type(self), (self.op_id, self.opcode, self.srcs, self.tag)

    @property
    def fu_kind(self) -> FUKind:
        """Functional-unit kind that executes this operation."""
        return self._fu_kind

    @property
    def internal_srcs(self) -> Tuple[ValueUse, ...]:
        """Operands that reference other operations (not externals).

        Cached on first access: graph derivation and chain planning read
        this repeatedly and the instance is immutable.
        """
        try:
            return self._internal_srcs
        except AttributeError:
            value = tuple(s for s in self.srcs if not s.is_external)
            _set(self, "_internal_srcs", value)
            return value

    def with_srcs(self, srcs: Tuple[ValueUse, ...]) -> "Operation":
        """Return a copy of this operation with replaced operands."""
        return Operation(self.op_id, self.opcode, tuple(srcs), self.tag)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        args = ", ".join(repr(s) for s in self.srcs)
        tag = f" '{self.tag}'" if self.tag else ""
        return f"<op {self.op_id}: {self.opcode.value}({args}){tag}>"
