"""Forward dataflow over the lint CFG: events, solver, reaching defs.

Three layers, each usable on its own:

* :func:`iter_events` linearises one CFG element (statement or branch
  test) into ``load``/``store``/``await``/``call`` events in approximate
  evaluation order — attribute chains become dotted names (``self.jobs``)
  with every prefix emitted on loads, and calls of known mutating
  methods (``.pop``, ``.update`` …) count as stores on their receiver,
  so "read the dict, await, mutate the dict" is visible to a rule
  without it re-deriving Python evaluation order;
* :func:`solve_forward` runs any :class:`ForwardAnalysis` to a fixpoint
  (states are ``{name: frozenset}`` maps, join is key-wise union, blocks
  are visited in reverse post-order) and returns the in-state of every
  block — deterministic for a deterministic CFG;
* :class:`ReachingDefs` is the stock instance rules share: which
  definition sites can reach each use of a local name.  Definitions are
  value-carrying (the RHS expression or def node rides along), so a rule
  can ask not just *where* a name was bound but *to what*.

Lambdas and nested ``def`` bodies are never descended into — their code
runs at call time, not where it textually sits.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterator, List, Optional, Tuple

from .cfg import CFG, Block, BranchTest, Element, LoopHeader

# ---------------------------------------------------------------------------
# Events
# ---------------------------------------------------------------------------

#: Method names whose call mutates the receiver in place.
MUTATING_METHODS = frozenset({
    "append", "extend", "insert", "add", "discard", "remove", "pop",
    "popitem", "clear", "update", "setdefault", "sort", "reverse",
    "appendleft", "popleft", "extendleft",
})


@dataclass(frozen=True)
class Event:
    """One primitive action inside an element, in evaluation order.

    ``role`` distinguishes *value* reads from loads that merely
    navigate to a store target (``self.jobs`` in ``self.jobs[k] = v``):
    a target-evaluation load is not a fresh observation of the value,
    so rules that model staleness must not treat it as one.
    """

    kind: str  # "load" | "store" | "await" | "call"
    name: Optional[str]  # dotted chain for load/store; None otherwise
    node: ast.AST
    role: str = "value"  # "value" | "target"


def dotted_chain(node: ast.AST) -> Optional[str]:
    """``self.jobs.active`` -> ``"self.jobs.active"``; None when the
    chain is not rooted in a plain name."""
    parts: List[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if not isinstance(current, ast.Name):
        return None
    parts.append(current.id)
    return ".".join(reversed(parts))


def _chain_prefixes(chain: str) -> List[str]:
    """All dotted prefixes, shortest first (``a.b.c`` -> a, a.b, a.b.c)."""
    parts = chain.split(".")
    return [".".join(parts[: i + 1]) for i in range(len(parts))]


def iter_events(element: Element) -> Iterator[Event]:
    """Events of one CFG element in approximate evaluation order."""
    if isinstance(element, BranchTest):
        yield from _expr_events(element.expr)
        return
    if isinstance(element, LoopHeader):
        node = element.node
        yield from _expr_events(node.iter)
        if isinstance(node, ast.AsyncFor):
            yield Event("await", None, node)
        yield from _target_events(node.target)
        return
    yield from _stmt_events(element)


def _stmt_events(stmt: ast.stmt) -> Iterator[Event]:
    if isinstance(stmt, ast.Assign):
        yield from _expr_events(stmt.value)
        for target in stmt.targets:
            yield from _target_events(target)
    elif isinstance(stmt, ast.AnnAssign):
        if stmt.value is not None:
            yield from _expr_events(stmt.value)
            yield from _target_events(stmt.target)
    elif isinstance(stmt, ast.AugAssign):
        yield from _expr_events(stmt.target, force_load=True)
        yield from _expr_events(stmt.value)
        yield from _target_events(stmt.target)
    elif isinstance(stmt, ast.Expr):
        yield from _expr_events(stmt.value)
    elif isinstance(stmt, ast.Return):
        if stmt.value is not None:
            yield from _expr_events(stmt.value)
    elif isinstance(stmt, ast.Raise):
        if stmt.exc is not None:
            yield from _expr_events(stmt.exc)
        if stmt.cause is not None:
            yield from _expr_events(stmt.cause)
    elif isinstance(stmt, ast.Delete):
        for target in stmt.targets:
            chain = dotted_chain(target)
            if chain is not None:
                yield Event("store", chain, target)
    elif isinstance(stmt, (ast.With, ast.AsyncWith)):
        for item in stmt.items:
            yield from _expr_events(item.context_expr)
            if isinstance(stmt, ast.AsyncWith):
                yield Event("await", None, stmt)
            if item.optional_vars is not None:
                yield from _target_events(item.optional_vars)
    elif isinstance(
        stmt,
        (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import,
         ast.ImportFrom, ast.Global, ast.Nonlocal, ast.Pass, ast.Break,
         ast.Continue),
    ):
        return  # bindings handled by ReachingDefs; bodies run elsewhere
    else:
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.expr):
                yield from _expr_events(child)


def _target_events(target: ast.expr) -> Iterator[Event]:
    if isinstance(target, ast.Name):
        yield Event("store", target.id, target)
    elif isinstance(target, ast.Attribute):
        chain = dotted_chain(target)
        if chain is None:
            yield from _expr_events(target.value)
        else:
            # Writing a.b.c reads a and a.b first — but only to navigate.
            for prefix in _chain_prefixes(chain)[:-1]:
                yield Event("load", prefix, target, role="target")
            yield Event("store", chain, target)
    elif isinstance(target, ast.Subscript):
        # a[k] = v mutates a (and a stays the same object: load + store).
        chain = dotted_chain(target.value)
        if chain is not None:
            for prefix in _chain_prefixes(chain):
                yield Event("load", prefix, target, role="target")
        else:
            yield from _expr_events(target.value)
        yield from _expr_events(target.slice)
        if chain is not None:
            yield Event("store", chain, target)
    elif isinstance(target, (ast.Tuple, ast.List)):
        for elt in target.elts:
            yield from _target_events(elt)
    elif isinstance(target, ast.Starred):
        yield from _target_events(target.value)


def _expr_events(expr: ast.expr, force_load: bool = False) -> Iterator[Event]:
    if isinstance(expr, ast.Name):
        yield Event("load", expr.id, expr)
        return
    if isinstance(expr, ast.Attribute):
        chain = dotted_chain(expr)
        if chain is None:
            yield from _expr_events(expr.value)
            return
        for prefix in _chain_prefixes(chain):
            yield Event("load", prefix, expr)
        return
    if isinstance(expr, ast.Await):
        yield from _expr_events(expr.value)
        yield Event("await", None, expr)
        return
    if isinstance(expr, ast.Call):
        receiver_chain = None
        if (
            isinstance(expr.func, ast.Attribute)
            and expr.func.attr in MUTATING_METHODS
        ):
            receiver_chain = dotted_chain(expr.func.value)
        yield from _expr_events(expr.func)
        for arg in expr.args:
            yield from _expr_events(arg)
        for keyword in expr.keywords:
            yield from _expr_events(keyword.value)
        if receiver_chain is not None:
            yield Event("store", receiver_chain, expr)
        yield Event("call", None, expr)
        return
    if isinstance(expr, ast.NamedExpr):
        yield from _expr_events(expr.value)
        yield from _target_events(expr.target)
        return
    if isinstance(expr, ast.Lambda):
        return  # deferred: the body runs at call time, not here
    if isinstance(expr, (ast.ListComp, ast.SetComp, ast.DictComp,
                         ast.GeneratorExp)):
        # Comprehensions run in their own scope; the outer code only
        # evaluates the first iterable eagerly.
        if expr.generators:
            yield from _expr_events(expr.generators[0].iter)
        return
    for child in ast.iter_child_nodes(expr):
        if isinstance(child, ast.expr):
            yield from _expr_events(child)


def comprehension_calls(
    element: Element,
) -> Iterator[Tuple[ast.Call, State]]:
    """Calls in the comprehension bodies of one CFG element.

    :func:`iter_events` stops at a comprehension's first iterable, since
    the body runs in the comprehension's own scope; but that body still
    runs as part of this element (a generator's, once consumed).  Each
    call comes with the names the enclosing comprehensions bind, as a
    state of ``"for"`` definitions to lay over the function's reaching
    definitions.  Lambdas and statement bodies are skipped: they run
    elsewhere.
    """
    if isinstance(element, BranchTest):
        root: ast.AST = element.expr
    elif isinstance(element, LoopHeader):
        root = element.node.iter
    else:
        root = element
    seen = {id(event.node) for event in iter_events(element)}
    for call, bound in _comprehension_calls(root, None):
        if id(call) not in seen:
            yield call, bound


def _comprehension_calls(node: ast.AST, bound):
    if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                         ast.GeneratorExp)):
        bound = dict(bound or {})
        for generator in node.generators:
            for name, target in _target_names(generator.target):
                bound[name] = frozenset({Definition(
                    name, "for", target.lineno, target.col_offset
                )})
    elif isinstance(node, ast.Call) and bound is not None:
        yield node, bound
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, (ast.stmt, ast.Lambda)):
            yield from _comprehension_calls(child, bound)


# ---------------------------------------------------------------------------
# Generic forward solver
# ---------------------------------------------------------------------------

#: A dataflow state: name -> set of facts.  Immutable values only.
State = Dict[str, FrozenSet]


class ForwardAnalysis:
    """Subclass hooks for :func:`solve_forward`.

    ``transfer`` must be pure (return a new state, never mutate the
    input) and monotone; the default join is key-wise set union, which
    fits any may-analysis over ``{name: frozenset}`` states.
    """

    def initial(self) -> State:
        return {}

    def join(self, states: List[State]) -> State:
        merged: Dict[str, FrozenSet] = {}
        for state in states:
            for key, value in state.items():
                if key in merged:
                    merged[key] = merged[key] | value
                else:
                    merged[key] = value
        return merged

    def transfer(self, block: Block, state: State) -> State:
        for element in block.elements:
            state = self.transfer_element(element, state)
        return state

    def transfer_element(self, element: Element, state: State) -> State:
        raise NotImplementedError


def solve_forward(cfg: CFG, analysis: ForwardAnalysis) -> Dict[int, State]:
    """In-state of every reachable block, computed to a fixpoint."""
    order = cfg.rpo()
    position = {bid: idx for idx, bid in enumerate(order)}
    in_states: Dict[int, State] = {cfg.entry: analysis.initial()}
    out_states: Dict[int, State] = {}
    pending = list(order)
    in_pending = set(pending)
    while pending:
        pending.sort(key=position.__getitem__)
        bid = pending.pop(0)
        in_pending.discard(bid)
        preds = [
            out_states[p]
            for p in cfg.block(bid).preds
            if p in out_states
        ]
        if bid == cfg.entry:
            preds.append(analysis.initial())
        if preds:
            in_state = analysis.join(preds)
        else:
            in_state = in_states.get(bid, analysis.initial())
        in_states[bid] = in_state
        new_out = analysis.transfer(cfg.block(bid), in_state)
        if out_states.get(bid) != new_out:
            out_states[bid] = new_out
            for succ in cfg.block(bid).succs:
                if succ in position and succ not in in_pending:
                    pending.append(succ)
                    in_pending.add(succ)
    return in_states


# ---------------------------------------------------------------------------
# Reaching definitions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Definition:
    """One binding site of a local name.

    ``value`` carries the bound expression (assignments) or the def
    node itself (``def``/``lambda``), letting rules inspect what a name
    can hold at a use site.  Identity for state comparison is the
    location triple — the AST node is excluded from hash/eq so states
    stay comparable across transfer reruns.
    """

    name: str
    kind: str  # assign | augassign | for | with | def | class | import | param | unpack | except
    lineno: int
    col: int
    value: Optional[ast.AST] = None

    def __hash__(self):
        return hash((self.name, self.kind, self.lineno, self.col))

    def __eq__(self, other):
        if not isinstance(other, Definition):
            return NotImplemented
        return (self.name, self.kind, self.lineno, self.col) == (
            other.name, other.kind, other.lineno, other.col
        )

    def sort_key(self):
        return (self.lineno, self.col, self.kind, self.name)


class ReachingDefs(ForwardAnalysis):
    """Which :class:`Definition`s can reach each block (strong updates
    for plain-name rebinds, union at joins)."""

    def __init__(self, func=None):
        self.func = func  # def node whose parameters seed the entry state

    def initial(self) -> State:
        state: State = {}
        if self.func is not None:
            args = self.func.args
            every = (
                list(args.posonlyargs) + list(args.args)
                + ([args.vararg] if args.vararg else [])
                + list(args.kwonlyargs)
                + ([args.kwarg] if args.kwarg else [])
            )
            for arg in every:
                state[arg.arg] = frozenset({
                    Definition(arg.arg, "param", arg.lineno, arg.col_offset)
                })
        return state

    def transfer_element(self, element: Element, state: State) -> State:
        defs = list(definitions_of(element))
        if not defs:
            return state
        state = dict(state)
        for definition in defs:
            state[definition.name] = frozenset({definition})
        return state


def definitions_of(element: Element) -> Iterator[Definition]:
    """Every name binding an element performs."""
    if isinstance(element, BranchTest):
        yield from _walrus_defs(element.expr)
        return
    if isinstance(element, LoopHeader):
        node = element.node
        yield from _walrus_defs(node.iter)
        for name, target in _target_names(node.target):
            yield Definition(name, "for", target.lineno, target.col_offset,
                             value=node.iter)
        return
    stmt = element
    for expr in _stmt_exprs(stmt):
        yield from _walrus_defs(expr)
    if isinstance(stmt, ast.Assign):
        for target in stmt.targets:
            unpacking = not isinstance(target, (ast.Name, ast.Attribute,
                                                ast.Subscript))
            for name, node in _target_names(target):
                yield Definition(
                    name, "unpack" if unpacking else "assign",
                    node.lineno, node.col_offset,
                    value=None if unpacking else stmt.value,
                )
    elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
        for name, node in _target_names(stmt.target):
            yield Definition(name, "assign", node.lineno, node.col_offset,
                             value=stmt.value)
    elif isinstance(stmt, ast.AugAssign):
        for name, node in _target_names(stmt.target):
            yield Definition(name, "augassign", node.lineno, node.col_offset,
                             value=stmt)
    elif isinstance(stmt, (ast.With, ast.AsyncWith)):
        for item in stmt.items:
            if item.optional_vars is not None:
                for name, node in _target_names(item.optional_vars):
                    yield Definition(name, "with", node.lineno,
                                     node.col_offset,
                                     value=item.context_expr)
    elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
        yield Definition(stmt.name, "def", stmt.lineno, stmt.col_offset,
                         value=stmt)
    elif isinstance(stmt, ast.ClassDef):
        yield Definition(stmt.name, "class", stmt.lineno, stmt.col_offset,
                         value=stmt)
    elif isinstance(stmt, ast.Import):
        for item in stmt.names:
            local = item.asname or item.name.split(".")[0]
            yield Definition(local, "import", stmt.lineno, stmt.col_offset)
    elif isinstance(stmt, ast.ImportFrom):
        for item in stmt.names:
            if item.name == "*":
                continue
            local = item.asname or item.name
            yield Definition(local, "import", stmt.lineno, stmt.col_offset)


def _stmt_exprs(stmt: ast.stmt) -> Iterator[ast.expr]:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                         ast.ClassDef)):
        return  # walruses in their bodies bind in *their* scope
    for child in ast.iter_child_nodes(stmt):
        if isinstance(child, ast.expr):
            yield child


def _walrus_defs(expr: ast.expr) -> Iterator[Definition]:
    for node in ast.walk(expr):
        if isinstance(node, ast.NamedExpr) and isinstance(
            node.target, ast.Name
        ):
            yield Definition(
                node.target.id, "assign",
                node.target.lineno, node.target.col_offset,
                value=node.value,
            )


def _target_names(target: ast.expr) -> Iterator[Tuple[str, ast.expr]]:
    if isinstance(target, ast.Name):
        yield target.id, target
    elif isinstance(target, (ast.Tuple, ast.List)):
        for elt in target.elts:
            yield from _target_names(elt)
    elif isinstance(target, ast.Starred):
        yield from _target_names(target.value)
    # Attribute/Subscript targets bind no local name.


__all__ = [
    "Event",
    "iter_events",
    "comprehension_calls",
    "dotted_chain",
    "MUTATING_METHODS",
    "ForwardAnalysis",
    "solve_forward",
    "State",
    "Definition",
    "ReachingDefs",
    "definitions_of",
]
