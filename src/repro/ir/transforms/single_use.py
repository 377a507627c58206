"""Single-use (copy insertion) transformation.

The CQRF queues of the paper's machine allow a value to be **read only
once**, so "prior to modulo scheduling, all multiple-use lifetimes are
transformed into single-use lifetimes using copy operations ... This
transformation has also the effect of limiting the number of immediate
successors of any operation to 2" (section 3).

Two insertion shapes are provided:

* ``"chain"`` (default, the paper's description): the producer keeps its
  first consumer reference plus one copy; each copy serves the next
  consumer plus the next copy.  Copies are spread along the dependence
  path instead of concentrating around the producer.
* ``"tree"``: a balanced binary fan-out tree, halving the added latency on
  the deepest consumer at the price of the same copy count.  Exposed for
  the ABL-SINGLEUSE ablation.
"""

from __future__ import annotations

from typing import List, Tuple

from ...config import SINGLE_USE_STRATEGIES
from ...errors import TransformError
from ..ddg import DDG
from ..loop import Loop
from ..opcodes import OpCode
from ..operations import ValueUse

#: Maximum consumer references per produced value after the transform.
MAX_FANOUT = 2

Ref = Tuple[int, int, int]  # (consumer op id, operand index, omega)


def single_use_ddg(ddg: DDG, strategy: str = "chain") -> DDG:
    """Return a copy of *ddg* where every value has fan-out <= 2."""
    if strategy not in SINGLE_USE_STRATEGIES:
        raise TransformError(f"unknown single-use strategy {strategy!r}")
    result = ddg.copy(ddg.name)
    for op_id in list(result.op_ids):
        refs = result.flow_succ_refs(op_id)
        if len(refs) <= MAX_FANOUT:
            continue
        if strategy == "chain":
            _chain_insert(result, op_id, refs)
        else:
            _tree_insert(result, op_id, refs)
    return result


def _redirect(ddg: DDG, refs: List[Ref], new_producer: int) -> None:
    """Point every reference in *refs* at *new_producer* (same omega)."""
    for consumer, index, omega in refs:
        ddg.replace_operand(consumer, index, ValueUse(new_producer, omega))


def _chain_insert(ddg: DDG, producer: int, refs: List[Ref]) -> None:
    """Linear copy chain: producer -> copy -> copy -> ... (paper shape)."""
    current = producer
    remaining = refs
    while len(remaining) > MAX_FANOUT:
        # Keep one direct consumer on `current`; a copy serves the rest.
        rest = remaining[1:]
        copy = ddg.new_operation(
            OpCode.COPY, (ValueUse(current, 0),), tag=f"cp(v{producer})"
        )
        _redirect(ddg, rest, copy.op_id)
        current = copy.op_id
        remaining = rest


def _tree_insert(ddg: DDG, producer: int, refs: List[Ref]) -> None:
    """Balanced binary fan-out tree of copies."""

    def serve(source: int, subset: List[Ref]) -> None:
        # Make *source* the producer for every reference in *subset*,
        # introducing copies so that its fan-out stays within MAX_FANOUT.
        if len(subset) <= MAX_FANOUT:
            _redirect(ddg, subset, source)
            return
        mid = (len(subset) + 1) // 2
        for half in (subset[:mid], subset[mid:]):
            if len(half) == 1:
                _redirect(ddg, half, source)
                continue
            copy = ddg.new_operation(
                OpCode.COPY, (ValueUse(source, 0),), tag=f"cp(v{producer})"
            )
            serve(copy.op_id, half)

    serve(producer, refs)


def single_use_loop(loop: Loop, strategy: str = "chain") -> Loop:
    """Apply the transform to a loop, returning a new loop object."""
    return loop.with_ddg(single_use_ddg(loop.ddg, strategy))


def max_fanout(ddg: DDG) -> int:
    """Largest consumer-reference count of any value in *ddg*."""
    if not len(ddg):
        return 0
    return max(ddg.flow_fanout(op_id) for op_id in ddg.op_ids)


def copy_count(ddg: DDG) -> int:
    """Number of COPY operations present in *ddg*."""
    return sum(1 for op in ddg.operations() if op.opcode == OpCode.COPY)
