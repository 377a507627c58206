"""Value-level semantics: do transformed graphs compute the same thing?

The execution oracle proves a schedule *can* execute; this module proves
the graph rewrites (unrolling, single-use copies, DMS move chains) did
not change *what* is computed.  Every opcode gets a deterministic pure
function over floats; loads and loop-carried seeds get reproducible
hash-derived values; then two graphs are compared by their store value
streams.

Identity across graphs is handled by two hooks:

* ``load_token(op)`` — a stable name for a load's input stream (defaults
  to the op tag, falling back to ``v<id>``), so the "same" load in a
  rewritten graph reads the same data;
* ``iteration_of(op, j)`` — maps the graph's iteration ``j`` to the
  *original* iteration space (an unrolled body's copy ``c`` executes
  original iteration ``j * u + c``).

With those hooks, ``sequential_run`` on a base graph over ``n``
iterations and on its unrolled twin over ``n / u`` iterations must
produce identical streams — the exact statement of transform
correctness, enforced by the test suite and a hypothesis property.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..errors import SimulationError
from ..ir.ddg import DDG
from ..ir.opcodes import OpCode
from ..ir.operations import Operation

LoadToken = Callable[[Operation], str]
IterationOf = Callable[[Operation, int], int]


def _hash_unit(token: str, iteration: int, salt: str) -> float:
    """Deterministic value in [1, 2) for a (token, iteration) pair.

    The [1, 2) range keeps divisions and square roots well-conditioned,
    so float round-off cannot blur an equivalence comparison.
    """
    digest = hashlib.blake2b(
        f"{salt}|{token}|{iteration}".encode(), digest_size=8
    ).digest()
    return 1.0 + int.from_bytes(digest, "big") / 2**64


def default_load_token(op: Operation) -> str:
    """Stable stream name for a load: its tag, else its value name."""
    return op.tag or f"v{op.op_id}"


def base_iteration(op: Operation, iteration: int) -> int:
    """Identity iteration mapping (graphs in the original space)."""
    return iteration


#: Evaluates one instance from its operand values and iteration.
Evaluator = Callable[[List[float], int], float]

#: Pure semantics of every value-producing opcode except LOAD (whose
#: value depends on the model's hooks).  Bitwise ops get arbitrary but
#: fixed arithmetic meanings: semantics only need determinism and
#: sensitivity to every operand.
_SEMANTICS: Dict[OpCode, Evaluator] = {
    OpCode.ADD: lambda x, _i: x[0] + x[1],
    OpCode.SUB: lambda x, _i: x[0] - x[1],
    OpCode.MUL: lambda x, _i: x[0] * x[1],
    OpCode.DIV: lambda x, _i: x[0] / x[1],
    OpCode.MIN: lambda x, _i: min(x[0], x[1]),
    OpCode.MAX: lambda x, _i: max(x[0], x[1]),
    OpCode.CMP: lambda x, _i: 1.0 if x[0] > x[1] else 0.0,
    OpCode.AND: lambda x, _i: (x[0] * x[1]) / (x[0] + x[1]),
    OpCode.OR: lambda x, _i: x[0] + x[1] - (x[0] * x[1]) / (x[0] + x[1]),
    OpCode.XOR: lambda x, _i: abs(x[0] - x[1]) + 1.0,
    OpCode.SHL: lambda x, _i: x[0] * (1.0 + x[1] / 8.0),
    OpCode.SHR: lambda x, _i: x[0] / (1.0 + x[1] / 8.0),
    OpCode.NEG: lambda x, _i: -x[0],
    OpCode.ABS: lambda x, _i: abs(x[0]),
    OpCode.SQRT: lambda x, _i: math.sqrt(abs(x[0])),
    OpCode.COPY: lambda x, _i: x[0],
    OpCode.MOVE: lambda x, _i: x[0],
    OpCode.SELECT: lambda x, _i: x[1] if x[0] > 0.5 else x[2],
}


@dataclass
class SequentialRun:
    """Outcome of a value-level execution."""

    iterations: int
    store_streams: Dict[int, List[float]] = field(default_factory=dict)
    store_tokens: Dict[int, str] = field(default_factory=dict)

    def stream_by_token(self) -> Dict[str, List[float]]:
        """Store streams keyed by store token (stable across rewrites)."""
        streams: Dict[str, List[float]] = {}
        for op_id, values in self.store_streams.items():
            token = self.store_tokens[op_id]
            if token in streams:
                raise SimulationError(f"duplicate store token {token!r}")
            streams[token] = values
        return streams


@dataclass
class ValueModel:
    """The pure-value semantics of one graph, shared between executors.

    Both :func:`sequential_run` and the VLIW execution oracle
    (:mod:`repro.validate.oracle`) evaluate operations through one
    ``ValueModel`` instance, so the two executors are bit-identical *by
    construction*: any store-stream mismatch between them is a
    scheduling/codegen/allocation bug, never a semantics drift.
    """

    ddg: DDG
    load_token: LoadToken = default_load_token
    iteration_of: IterationOf = base_iteration
    seed_salt: str = "seed"
    input_salt: str = "in"
    # Per model: live-in values, and each seeded op's identity-resolved
    # origin (op, iteration shift, token).
    _externals: Dict[str, float] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _origins: Dict[int, Tuple[Operation, int, str]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def external_value(self, symbol: str) -> float:
        """Value of a loop-invariant / live-in symbol."""
        value = self._externals.get(symbol)
        if value is None:
            value = self._externals[symbol] = _hash_unit(symbol, 0, self.input_salt)
        return value

    def seed_value(self, op_id: int, iteration: int) -> float:
        """Pre-loop value of op *op_id* at (negative) *iteration*.

        Resolves through identity operations (copies and moves forward
        whatever their source held), so a rewritten graph seeds its
        queues with the *original* producer's values.
        """
        origin = self._origins.get(op_id)
        if origin is None:
            op = self.ddg.op(op_id)
            shift = 0
            guard = 0
            while op.opcode in (OpCode.COPY, OpCode.MOVE) and op.internal_srcs:
                src = op.srcs[0]
                shift += src.omega
                op = self.ddg.op(src.producer)
                guard += 1
                if guard > len(self.ddg):
                    raise SimulationError("identity-op cycle while seeding")
            origin = self._origins[op_id] = (op, shift, self.load_token(op))
        op, shift, token = origin
        return _hash_unit(
            token, self.iteration_of(op, iteration - shift), self.seed_salt
        )

    def evaluator(self, op: Operation) -> Evaluator:
        """The function computing *op*'s value from ``(args, iteration)``.

        Executors resolve it once per op and call it once per instance.
        A STORE has none: it produces no value, and executors record its
        ``args[0]``.
        """
        if op.opcode == OpCode.LOAD:
            token = self.load_token(op)
            iteration_of = self.iteration_of
            salt = self.input_salt
            return lambda _args, iteration: _hash_unit(
                token, iteration_of(op, iteration), salt
            )
        try:
            return _SEMANTICS[op.opcode]
        except KeyError:  # STORE, and new opcodes until given semantics
            raise SimulationError(f"no semantics for {op.opcode}") from None


def sequential_run(
    ddg: DDG,
    iterations: int,
    load_token: LoadToken = default_load_token,
    iteration_of: IterationOf = base_iteration,
    store_token: Optional[LoadToken] = None,
    seed_salt: str = "seed",
    input_salt: str = "in",
) -> SequentialRun:
    """Execute *ddg* sequentially for *iterations* iterations.

    Operations evaluate in dependence order within each iteration;
    loop-carried reads look up earlier iterations, with hash-derived
    seeds for pre-loop values.  Returns the store value streams.
    """
    if iterations < 1:
        raise SimulationError(f"iterations must be >= 1, got {iterations}")
    store_token = store_token or default_load_token
    model = ValueModel(
        ddg,
        load_token=load_token,
        iteration_of=iteration_of,
        seed_salt=seed_salt,
        input_salt=input_salt,
    )
    run = SequentialRun(iterations)
    # Plan every op once: its evaluator (or store stream) and, per
    # operand, either a constant (external) or the producer's id, omega
    # and value list, where ``values[op_id][j]`` is op_id's value at
    # iteration j (stores produce no values: their list stays empty).
    order = _evaluation_order(ddg)
    values: Dict[int, List[float]] = {op_id: [] for op_id in order}
    plan = []
    for op_id in order:
        op = ddg.op(op_id)
        operands = tuple(
            (None, 0, model.external_value(src.symbol))
            if src.is_external
            else (src.producer, src.omega, values.get(src.producer, ()))
            for src in op.srcs
        )
        if op.opcode == OpCode.STORE:
            run.store_tokens[op_id] = store_token(op)
            plan.append((operands, None, run.store_streams.setdefault(op_id, [])))
        else:
            plan.append((operands, model.evaluator(op), values[op_id]))

    for iteration in range(iterations):
        for operands, evaluate, sink in plan:
            args: List[float] = []
            for producer, omega, source in operands:
                if producer is None:
                    args.append(source)
                    continue
                producer_iter = iteration - omega
                if producer_iter < 0:
                    args.append(model.seed_value(producer, producer_iter))
                elif producer_iter < len(source):
                    args.append(source[producer_iter])
                else:
                    raise SimulationError(
                        f"value v{producer}@{producer_iter} read before computed"
                    )
            sink.append(args[0] if evaluate is None else evaluate(args, iteration))
    return run


def _evaluation_order(ddg: DDG) -> List[int]:
    """Topological order over omega-0 edges (valid within an iteration)."""
    return ddg._topo_order_omega0()


def streams_equal(
    a: Dict[str, List[float]],
    b: Dict[str, List[float]],
    rel_tol: float = 1e-9,
) -> bool:
    """Compare two token-keyed stream maps for (near-)equality."""
    if set(a) != set(b):
        return False
    for token, left in a.items():
        right = b[token]
        if len(left) != len(right):
            return False
        for x, y in zip(left, right):
            if not math.isclose(x, y, rel_tol=rel_tol, abs_tol=1e-12):
                return False
    return True


def assert_same_semantics(
    base: DDG,
    rewritten: DDG,
    iterations: int,
    load_token: LoadToken = default_load_token,
    iteration_of: IterationOf = base_iteration,
    store_token: Optional[LoadToken] = None,
) -> None:
    """Raise :class:`SimulationError` unless the two graphs agree.

    ``load_token``/``iteration_of``/``store_token`` apply to the
    *rewritten* graph; the base graph uses the defaults.
    """
    reference = sequential_run(base, iterations).stream_by_token()
    candidate = sequential_run(
        rewritten,
        iterations,
        load_token=load_token,
        iteration_of=iteration_of,
        store_token=store_token,
    ).stream_by_token()
    if not streams_equal(reference, candidate):
        raise SimulationError(
            f"graphs {base.name!r} and {rewritten.name!r} disagree on "
            "store streams"
        )
