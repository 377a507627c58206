"""Seeded random loop generation.

The Perfect Club benchmark itself is not redistributable (and its loop
extraction needs the authors' Fortran tooling), so the suite synthesises
loops with the *shape statistics* that drive modulo scheduling: operation
mix, dependence-graph depth, fan-out, recurrence circuits and trip counts.
See DESIGN.md section 3 for the substitution argument.

A loop is a combination of independent **strands**, each drawn from four
templates observed in scientific inner loops:

* ``stream``  — loads -> arithmetic tree -> store (fully vectorizable);
* ``reduce``  — products/sums folded into an accumulator recurrence;
* ``recur``   — first/second-order recurrences (IIR-like filters);
* ``stencil`` — one load reused at several loop-carried offsets.

Everything is driven by a :class:`numpy.random.Generator` seeded from
``(suite_seed, loop_index)``, so the 1258-loop suite is reproducible
bit-for-bit.  numpy is imported when a loop is generated, not when this
module is.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from ..errors import WorkloadError
from ..ir.builder import LoopBuilder, Value
from ..ir.loop import Loop


@dataclass(frozen=True)
class SyntheticSpec:
    """Tunables of the random loop generator.

    ``p_recurrent_loop`` approximates the fraction of loops containing at
    least one recurrence circuit (the complement approximates the paper's
    "loops without recurrences" set 2).

    ``p_mem_dep`` adds explicit memory ordering edges between a store and
    a load of the body (aliasing arrays).  It defaults to 0 so the
    surrogate suite stays bit-identical to its published statistics; the
    schedule-mutation fuzzer turns it on to exercise the ordering-edge
    paths of the checker and the execution oracle.
    """

    min_strands: int = 1
    max_strands: int = 4
    p_recurrent_loop: float = 0.42
    p_mul: float = 0.38
    p_div: float = 0.03
    p_shared_operand: float = 0.25
    min_trip: int = 24
    max_trip: int = 600
    p_mem_dep: float = 0.0

    def __post_init__(self) -> None:
        if not 0 <= self.p_recurrent_loop <= 1:
            raise WorkloadError("p_recurrent_loop must be in [0, 1]")
        if not 0 <= self.p_mem_dep <= 1:
            raise WorkloadError("p_mem_dep must be in [0, 1]")
        if self.min_strands < 1 or self.max_strands < self.min_strands:
            raise WorkloadError("invalid strand bounds")
        if self.min_trip < 1 or self.max_trip < self.min_trip:
            raise WorkloadError("invalid trip-count bounds")


DEFAULT_SPEC = SyntheticSpec()

_STREAM, _REDUCE, _RECUR, _STENCIL = "stream", "reduce", "recur", "stencil"


def _arith(b: LoopBuilder, rng, a, c, spec: SyntheticSpec) -> Value:
    """One random arithmetic combination of two operands."""
    roll = rng.random()
    if roll < spec.p_div:
        return b.div(a, c)
    if roll < spec.p_div + spec.p_mul:
        return b.mul(a, c)
    choice = rng.integers(0, 4)
    if choice == 0:
        return b.add(a, c)
    if choice == 1:
        return b.sub(a, c)
    if choice == 2:
        return b.min(a, c)
    return b.max(a, c)


def _tree(b: LoopBuilder, rng, leaves: Sequence, spec: SyntheticSpec) -> Value:
    """Fold *leaves* with random binary operations (balanced-ish)."""
    work = list(leaves)
    while len(work) > 1:
        a = work.pop(int(rng.integers(0, len(work))))
        c = work.pop(int(rng.integers(0, len(work))))
        work.append(_arith(b, rng, a, c, spec))
    return work[0]


def _stream_strand(b: LoopBuilder, rng, spec: SyntheticSpec, tag: int) -> None:
    width = int(rng.integers(1, 4))
    leaves: List = [b.load(f"s{tag}_in{j}") for j in range(width)]
    leaves.extend(f"k{tag}_{j}" for j in range(int(rng.integers(1, 3))))
    value = _tree(b, rng, leaves, spec)
    # Post-tree refinement chain (polynomial/scaling steps on the result),
    # giving the arithmetic-heavy bodies of real numeric loops.
    for step in range(int(rng.integers(1, 4))):
        value = _arith(b, rng, value, f"c{tag}_{step}", spec)
    if rng.random() < spec.p_shared_operand:
        # A second consumer of the same value (fan-out pressure).
        b.store(b.mul(value, f"w{tag}"), f"s{tag}_aux")
    b.store(value, f"s{tag}_out")


def _reduce_strand(b: LoopBuilder, rng, spec: SyntheticSpec, tag: int) -> None:
    width = int(rng.integers(1, 4))
    leaves: List = []
    for j in range(width):
        x = b.load(f"r{tag}_x{j}")
        if rng.random() < 0.5:
            y = b.load(f"r{tag}_y{j}")
            leaves.append(b.mul(x, y))
        elif rng.random() < 0.5:
            leaves.append(b.mul(x, f"r{tag}_k{j}"))
        else:
            leaves.append(b.add(b.mul(x, x), f"r{tag}_b{j}"))
    acc = b.placeholder()
    partial = _tree(b, rng, leaves, spec) if len(leaves) > 1 else leaves[0]
    total = b.add(partial, b.carried(acc, 1), tag=f"acc{tag}")
    b.bind(acc, total)
    if rng.random() < 0.3:
        b.store(total, f"r{tag}_run")


def _recur_strand(b: LoopBuilder, rng, spec: SyntheticSpec, tag: int) -> None:
    order = int(rng.integers(1, 3))
    x = b.load(f"q{tag}_in")
    state = b.placeholder()
    terms: List = [b.mul(x, f"q{tag}_b0")]
    for j in range(1, order + 1):
        terms.append(b.mul(b.carried(state, j), f"q{tag}_a{j}"))
    value = terms[0]
    for term in terms[1:]:
        value = b.add(value, term)
    b.bind(state, value)
    if rng.random() < 0.6:
        b.store(value, f"q{tag}_out")


def _stencil_strand(b: LoopBuilder, rng, spec: SyntheticSpec, tag: int) -> None:
    points = int(rng.integers(3, 6))
    x = b.load(f"t{tag}_a")
    taps: List = [b.mul(x, f"t{tag}_w0")] + [
        b.mul(b.carried(x, j), f"t{tag}_w{j}") for j in range(1, points)
    ]
    value = _tree(b, rng, taps, spec)
    b.store(value, f"t{tag}_out")


_BUILDERS = {
    _STREAM: _stream_strand,
    _REDUCE: _reduce_strand,
    _RECUR: _recur_strand,
    _STENCIL: _stencil_strand,
}


def synthetic_loop(
    index: int, seed: int = 1999, spec: SyntheticSpec = DEFAULT_SPEC
) -> Loop:
    """Generate loop *index* of the synthetic population (deterministic)."""
    import numpy as np  # only generating loops needs numpy

    rng = np.random.default_rng([seed, index])
    recurrent = rng.random() < spec.p_recurrent_loop
    n_strands = int(rng.integers(spec.min_strands, spec.max_strands + 1))
    if recurrent:
        # At least one recurrence-bearing strand.
        kinds = [_REDUCE if rng.random() < 0.6 else _RECUR]
        pool = [_STREAM, _REDUCE, _RECUR, _STENCIL]
        weights = [0.40, 0.20, 0.15, 0.25]
    else:
        kinds = []
        pool = [_STREAM, _STENCIL]
        weights = [0.65, 0.35]
    while len(kinds) < n_strands:
        kinds.append(str(rng.choice(pool, p=np.array(weights) / sum(weights))))
    b = LoopBuilder(f"synthetic_{index:04d}")
    for tag, kind in enumerate(kinds):
        _BUILDERS[kind](b, rng, spec, tag)
    mem_deps = 0
    if spec.p_mem_dep > 0:
        # Gated entirely behind the probability so the default spec draws
        # exactly the random stream it always did (suite stats stay
        # bit-identical).
        mem_deps = _add_mem_deps(b, rng, spec)
    trip = int(
        np.exp(rng.uniform(np.log(spec.min_trip), np.log(spec.max_trip)))
    )
    return b.build(
        max(spec.min_trip, trip),
        generator="synthetic",
        seed=seed,
        index=index,
        strands=tuple(kinds),
        mem_deps=mem_deps,
    )


def _add_mem_deps(b: LoopBuilder, rng, spec: SyntheticSpec) -> int:
    """Add store/load aliasing edges between random memory operations.

    Two flavours, mirroring real aliasing patterns:

    * ``load -> store`` (omega 0): the load must complete before an
      intra-iteration store overwrites its location;
    * ``store -> load`` (omega 1): next iteration's load observes this
      iteration's store.
    """
    from ..ir.builder import Value
    from ..ir.opcodes import OpCode

    loads = [op.op_id for op in b.ddg.operations() if op.opcode == OpCode.LOAD]
    stores = [op.op_id for op in b.ddg.operations() if op.opcode == OpCode.STORE]
    if not loads or not stores:
        return 0
    added = 0
    for store_id in stores:
        if rng.random() >= spec.p_mem_dep:
            continue
        load_id = int(rng.choice(loads))
        if rng.random() < 0.5:
            b.mem_dep(Value(load_id), Value(store_id), omega=0, latency=1)
        else:
            b.mem_dep(Value(store_id), Value(load_id), omega=1, latency=1)
        added += 1
    return added
