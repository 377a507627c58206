"""Operation codes, functional-unit kinds and the latency model.

The machine model of the paper has three *useful* functional-unit kinds per
cluster (Load/Store, Add, Mul) plus one Copy FU that executes the ``copy``
and ``move`` operations introduced by the single-use transformation and by
DMS chains.  Copy-FU work is real for scheduling purposes (it occupies MRT
slots) but is excluded from the performance metrics, exactly as in the
paper: "these functional units and operations are not considered to
estimate performance figures, as they do not perform any useful
computation".
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Mapping, Tuple


class FUKind(enum.Enum):
    """Functional-unit kinds present in a cluster."""

    MEM = "mem"  # load/store unit
    ALU = "alu"  # add/logic unit (the paper's "ADD" FU)
    MUL = "mul"  # multiply/divide unit
    COPY = "copy"  # copy/move unit (excluded from performance figures)

    #: Dense position in declaration order, set below: hot tables (the
    #: MRT lanes) index lists with it instead of hashing the member.
    index: int

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FUKind.{self.name}"


for _index, _kind in enumerate(FUKind):
    _kind.index = _index
del _index, _kind


#: FU kinds that perform useful computation (counted in FU totals and IPC).
USEFUL_FU_KINDS = (FUKind.MEM, FUKind.ALU, FUKind.MUL)


class OpCode(enum.Enum):
    """Machine operations understood by the scheduler and the oracle."""

    # Memory
    LOAD = "load"
    STORE = "store"
    # ALU
    ADD = "add"
    SUB = "sub"
    NEG = "neg"
    AND = "and"
    OR = "or"
    XOR = "xor"
    SHL = "shl"
    SHR = "shr"
    CMP = "cmp"
    SELECT = "select"
    MIN = "min"
    MAX = "max"
    ABS = "abs"
    # Multiplier
    MUL = "mul"
    DIV = "div"
    SQRT = "sqrt"
    # Copy-unit operations (inserted by transforms / DMS, never by users)
    COPY = "copy"
    MOVE = "move"

    #: Dense position in declaration order, set below: the per-opcode
    #: tables (FU kind, latency) are tuples indexed by it.
    index: int

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"OpCode.{self.name}"


for _index, _opcode in enumerate(OpCode):
    _opcode.index = _index
del _index, _opcode


_OPCODE_FU: Mapping[OpCode, FUKind] = {
    OpCode.LOAD: FUKind.MEM,
    OpCode.STORE: FUKind.MEM,
    OpCode.ADD: FUKind.ALU,
    OpCode.SUB: FUKind.ALU,
    OpCode.NEG: FUKind.ALU,
    OpCode.AND: FUKind.ALU,
    OpCode.OR: FUKind.ALU,
    OpCode.XOR: FUKind.ALU,
    OpCode.SHL: FUKind.ALU,
    OpCode.SHR: FUKind.ALU,
    OpCode.CMP: FUKind.ALU,
    OpCode.SELECT: FUKind.ALU,
    OpCode.MIN: FUKind.ALU,
    OpCode.MAX: FUKind.ALU,
    OpCode.ABS: FUKind.ALU,
    OpCode.MUL: FUKind.MUL,
    OpCode.DIV: FUKind.MUL,
    OpCode.SQRT: FUKind.MUL,
    OpCode.COPY: FUKind.COPY,
    OpCode.MOVE: FUKind.COPY,
}

_FU_BY_INDEX = tuple(_OPCODE_FU[opcode] for opcode in OpCode)

#: Opcodes whose executions count toward IPC / useful-operation totals.
USEFUL_OPCODES = frozenset(op for op, fu in _OPCODE_FU.items() if fu != FUKind.COPY)

#: Opcodes that produce no register result (nothing to communicate).
VOID_OPCODES = frozenset({OpCode.STORE})

# The predicates below read tuples indexed by ``OpCode.index``: a
# membership test on the frozensets above would hash the member.
_USEFUL_BY_INDEX = tuple(opcode in USEFUL_OPCODES for opcode in OpCode)
_VALUE_BY_INDEX = tuple(opcode not in VOID_OPCODES for opcode in OpCode)


def fu_kind_of(opcode: OpCode) -> FUKind:
    """Return the functional-unit kind that executes *opcode*."""
    return _FU_BY_INDEX[opcode.index]


def is_useful(opcode: OpCode) -> bool:
    """True when *opcode* performs useful computation (not copy/move)."""
    return _USEFUL_BY_INDEX[opcode.index]


def produces_value(opcode: OpCode) -> bool:
    """True when *opcode* defines a register value consumers can read."""
    return _VALUE_BY_INDEX[opcode.index]


@dataclass(frozen=True)
class LatencyModel:
    """Operation latencies in cycles.

    The defaults are era-typical for the late-90s VLIW literature the paper
    belongs to.  The paper does not state its latencies, so the model is a
    documented substitution (see DESIGN.md section 3); every component takes
    the model as a parameter so alternative profiles are one constructor
    call away.
    """

    load: int = 2
    store: int = 1
    alu: int = 1
    mul: int = 3
    div: int = 8
    sqrt: int = 12
    copy: int = 1
    move: int = 1

    #: Latency per opcode, indexed by ``OpCode.index``.
    _table: Tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for name in ("load", "store", "alu", "mul", "div", "sqrt", "copy", "move"):
            value = getattr(self, name)
            if not isinstance(value, int) or value < 1:
                raise ValueError(f"latency {name!r} must be a positive int, got {value!r}")
        table = {
            OpCode.LOAD: self.load,
            OpCode.STORE: self.store,
            OpCode.MUL: self.mul,
            OpCode.DIV: self.div,
            OpCode.SQRT: self.sqrt,
            OpCode.COPY: self.copy,
            OpCode.MOVE: self.move,
        }
        for opcode, kind in _OPCODE_FU.items():
            if opcode not in table and kind == FUKind.ALU:
                table[opcode] = self.alu
        object.__setattr__(self, "_table", tuple(table[opcode] for opcode in OpCode))

    def latency(self, opcode: OpCode) -> int:
        """Latency in cycles of *opcode* (result-ready delay)."""
        return self._table[opcode.index]

    def __getitem__(self, opcode: OpCode) -> int:
        return self._table[opcode.index]


#: Shared default latency model.
DEFAULT_LATENCIES = LatencyModel()
