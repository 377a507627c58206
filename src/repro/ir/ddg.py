"""The data dependence graph (DDG).

The DDG is the unit of work for the schedulers: operations (nodes) plus
dependence edges.  Flow edges are *derived* from operand references so the
graph can never disagree with the operations' operands; memory and other
ordering edges are explicit.

The graph is mutable because both the single-use transformation and the DMS
scheduler itself rewrite it (copy and move insertion, chain dismantling).
Mutation goes through a small API that keeps operands and edges in sync.

Adjacency queries (``in_edges``/``out_edges``/``op_ids``/
``flow_succ_refs``) are on the scheduler's innermost loops, so they return
pre-sorted tuples cached per operation and invalidated only by mutation:
a read between mutations costs one dict lookup instead of a sort.  Every
edge insert/remove also bumps a per-endpoint *adjacency version*
(:meth:`DDG.adj_version`), which lets schedulers key their own incremental
state (e.g. communication-compatibility sets) off graph changes without
subscribing to them.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..errors import DDGError
from .edges import DepEdge, DepKind
from .opcodes import LatencyModel, OpCode, is_useful, produces_value
from .operations import Operation, ValueUse

EdgeKey = Tuple[int, int, DepKind, int]


def _tarjan_sccs(adj: Dict[int, List[int]]) -> List[List[int]]:
    """Strongly connected components of *adj* (iterative Tarjan).

    Pure Python on the MII hot path: no graph-object conversion, no
    recursion.  Roots are visited in *adj*'s iteration order, so the
    result is deterministic for the sorted adjacency built by
    :meth:`DDG._adjacency`.
    """
    index: Dict[int, int] = {}
    low: Dict[int, int] = {}
    on_stack = set()
    stack: List[int] = []
    result: List[List[int]] = []
    counter = 0
    for root in adj:
        if root in index:
            continue
        work: List[Tuple[int, Iterator[int]]] = [(root, iter(adj[root]))]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, succs = work[-1]
            advanced = False
            for succ in succs:
                if succ not in index:
                    index[succ] = low[succ] = counter
                    counter += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(adj[succ])))
                    advanced = True
                    break
                if succ in on_stack and index[succ] < low[node]:
                    low[node] = index[succ]
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                if low[node] < low[parent]:
                    low[parent] = low[node]
            if low[node] == index[node]:
                component: List[int] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                result.append(component)
    return result


class DDG:
    """A mutable data dependence graph for one innermost loop body."""

    def __init__(self, name: str = "loop"):
        self.name = name
        self._ops: Dict[int, Operation] = {}
        # All edges (flow derived + explicit), indexed both ways.
        self._out: Dict[int, Dict[EdgeKey, DepEdge]] = {}
        self._in: Dict[int, Dict[EdgeKey, DepEdge]] = {}
        self._next_id = 0
        # Read caches: pre-sorted adjacency tuples per op, the sorted id
        # tuple, and per-op flow consumer references.  Values are
        # immutable, built on first read and dropped on mutation (see
        # _invalidate_*), so repeated reads between mutations are O(1).
        self._out_cache: Dict[int, Tuple[DepEdge, ...]] = {}
        self._in_cache: Dict[int, Tuple[DepEdge, ...]] = {}
        self._refs_cache: Dict[int, Tuple[Tuple[int, int, int], ...]] = {}
        self._op_ids_cache: Optional[Tuple[int, ...]] = None
        # Monotonic per-op adjacency versions (bumped on any edge change
        # touching the op); scheduler-side caches key off these.
        self._adj_version: Dict[int, int] = {}
        # Forward references: missing producer id -> consumer ids that
        # referenced it when they were inserted.  Entries are verified
        # against the consumers' *current* operands when the producer
        # arrives, so stale hints (operand replaced, consumer removed)
        # are harmless.  This replaces the all-ops scan that made every
        # insertion O(graph).
        self._forward: Dict[int, List[int]] = {}

    # ------------------------------------------------------------------
    # Construction / mutation
    # ------------------------------------------------------------------

    def allocate_id(self) -> int:
        """Reserve and return a fresh operation id."""
        op_id = self._next_id
        self._next_id += 1
        return op_id

    @classmethod
    def bulk(
        cls,
        name: str,
        ops: Iterable[Operation],
        explicit_edges: Iterable[DepEdge] = (),
    ) -> "DDG":
        """Build a DDG from a complete operation set in one pass.

        Unlike repeated :meth:`add_operation` calls this is linear in the
        number of operands, which matters for unrolled graphs.
        """
        ddg = cls(name)
        for op in ops:
            if op.op_id in ddg._ops:
                raise DDGError(f"duplicate op id {op.op_id} in DDG {name!r}")
            ddg._ops[op.op_id] = op
            ddg._out.setdefault(op.op_id, {})
            ddg._in.setdefault(op.op_id, {})
            ddg._next_id = max(ddg._next_id, op.op_id + 1)
        for op in ddg._ops.values():
            ddg._derive_flow_in_edges(op)
        for edge in explicit_edges:
            if edge.is_flow:
                raise DDGError("explicit flow edges are not allowed; use operands")
            if edge.src not in ddg._ops or edge.dst not in ddg._ops:
                raise DDGError(f"bulk edge {edge} references unknown ops")
            ddg._insert_edge(edge)
        return ddg

    def add_operation(self, op: Operation) -> Operation:
        """Insert *op*, deriving flow edges from its operands.

        Operands may reference operations that are not in the graph yet
        (forward references are resolved lazily by :meth:`validate`), but
        normal construction order is producers first.
        """
        if op.op_id in self._ops:
            raise DDGError(f"duplicate op id {op.op_id} in DDG {self.name!r}")
        self._ops[op.op_id] = op
        self._out.setdefault(op.op_id, {})
        self._in.setdefault(op.op_id, {})
        self._next_id = max(self._next_id, op.op_id + 1)
        self._op_ids_cache = None
        self._derive_flow_in_edges(op)
        # Existing ops may hold forward references to this op.
        pending = self._forward.pop(op.op_id, None)
        if pending:
            for consumer_id in pending:
                other = self._ops.get(consumer_id)
                if other is None or other.op_id == op.op_id:
                    continue
                for src in other.internal_srcs:
                    if src.producer == op.op_id:
                        self._insert_edge(
                            DepEdge(op.op_id, other.op_id, DepKind.FLOW, src.omega)
                        )
        return op

    def new_operation(
        self,
        opcode: OpCode,
        srcs: Sequence[ValueUse] = (),
        tag: str = "",
        op_id: Optional[int] = None,
    ) -> Operation:
        """Create, insert and return a new operation with a fresh id."""
        if op_id is None:
            op_id = self.allocate_id()
        return self.add_operation(Operation(op_id, opcode, tuple(srcs), tag))

    def remove_operation(self, op_id: int) -> None:
        """Remove an operation that no other operation references."""
        if op_id not in self._ops:
            raise DDGError(f"op {op_id} not in DDG {self.name!r}")
        consumers = [e.dst for e in self.out_edges(op_id) if e.is_flow]
        if consumers:
            raise DDGError(
                f"op {op_id} still referenced by {sorted(set(consumers))}; "
                "rewire consumers before removing"
            )
        for edge in list(self.out_edges(op_id)) + list(self.in_edges(op_id)):
            self._remove_edge(edge)
        del self._ops[op_id]
        self._out.pop(op_id, None)
        self._in.pop(op_id, None)
        self._op_ids_cache = None
        self._out_cache.pop(op_id, None)
        self._in_cache.pop(op_id, None)
        self._refs_cache.pop(op_id, None)
        self._adj_version.pop(op_id, None)

    def replace_operand(self, op_id: int, index: int, new_src: ValueUse) -> None:
        """Replace operand *index* of op *op_id*, re-deriving flow edges."""
        op = self.op(op_id)
        if not 0 <= index < len(op.srcs):
            raise DDGError(f"op {op_id} has no operand index {index}")
        srcs = list(op.srcs)
        srcs[index] = new_src
        self._retire_flow_in_edges(op_id)
        self._ops[op_id] = op.with_srcs(tuple(srcs))
        self._derive_flow_in_edges(self._ops[op_id])

    def add_dep(
        self,
        src: int,
        dst: int,
        kind: DepKind,
        omega: int = 0,
        latency: int = 0,
    ) -> DepEdge:
        """Add an explicit (non-flow) ordering edge."""
        if kind == DepKind.FLOW:
            raise DDGError("flow edges are derived from operands; use operands")
        if src not in self._ops or dst not in self._ops:
            raise DDGError(f"edge {src}->{dst} references unknown ops")
        edge = DepEdge(src, dst, kind, omega, latency)
        self._insert_edge(edge)
        return edge

    def remove_dep(self, edge: DepEdge) -> None:
        """Remove an explicit ordering edge."""
        if edge.is_flow:
            raise DDGError("flow edges are derived; rewire operands instead")
        self._remove_edge(edge)

    def _derive_flow_in_edges(self, op: Operation) -> None:
        for src in op.internal_srcs:
            if src.producer in self._ops:
                self._insert_edge(DepEdge(src.producer, op.op_id, DepKind.FLOW, src.omega))
            else:
                self._forward.setdefault(src.producer, []).append(op.op_id)

    def _retire_flow_in_edges(self, op_id: int) -> None:
        for edge in [e for e in self.in_edges(op_id) if e.is_flow]:
            self._remove_edge(edge)

    def _insert_edge(self, edge: DepEdge) -> None:
        self._out.setdefault(edge.src, {})[edge.key] = edge
        self._in.setdefault(edge.dst, {})[edge.key] = edge
        self._touch_endpoints(edge)

    def _remove_edge(self, edge: DepEdge) -> None:
        self._out.get(edge.src, {}).pop(edge.key, None)
        self._in.get(edge.dst, {}).pop(edge.key, None)
        self._touch_endpoints(edge)

    def _touch_endpoints(self, edge: DepEdge) -> None:
        """Drop read caches and bump versions after an edge change."""
        self._out_cache.pop(edge.src, None)
        self._in_cache.pop(edge.dst, None)
        # Consumer references depend on the producer's out edges *and* the
        # consumer's operand list; both endpoints' refs may shift.
        self._refs_cache.pop(edge.src, None)
        versions = self._adj_version
        versions[edge.src] = versions.get(edge.src, 0) + 1
        versions[edge.dst] = versions.get(edge.dst, 0) + 1

    def adj_version(self, op_id: int) -> int:
        """Monotonic counter bumped whenever an edge touching *op_id*
        is inserted or removed.  External caches derived from this op's
        adjacency are valid exactly while the version is unchanged."""
        return self._adj_version.get(op_id, 0)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def op(self, op_id: int) -> Operation:
        """Return the operation with id *op_id*."""
        try:
            return self._ops[op_id]
        except KeyError:
            raise DDGError(f"op {op_id} not in DDG {self.name!r}") from None

    def __contains__(self, op_id: int) -> bool:
        return op_id in self._ops

    def __len__(self) -> int:
        return len(self._ops)

    @property
    def op_ids(self) -> Tuple[int, ...]:
        """Sorted operation ids (cached between mutations)."""
        ids = self._op_ids_cache
        if ids is None:
            ids = self._op_ids_cache = tuple(sorted(self._ops))
        return ids

    def operations(self) -> Iterator[Operation]:
        """Iterate operations in id order."""
        for op_id in self.op_ids:
            yield self._ops[op_id]

    def out_edges(self, op_id: int) -> Tuple[DepEdge, ...]:
        """Edges leaving *op_id* (deterministic order, cached)."""
        edges = self._out_cache.get(op_id)
        if edges is None:
            edges = tuple(
                sorted(
                    self._out.get(op_id, {}).values(),
                    key=lambda e: (e.dst, e.kind.value, e.omega),
                )
            )
            self._out_cache[op_id] = edges
        return edges

    def in_edges(self, op_id: int) -> Tuple[DepEdge, ...]:
        """Edges entering *op_id* (deterministic order, cached)."""
        edges = self._in_cache.get(op_id)
        if edges is None:
            edges = tuple(
                sorted(
                    self._in.get(op_id, {}).values(),
                    key=lambda e: (e.src, e.kind.value, e.omega),
                )
            )
            self._in_cache[op_id] = edges
        return edges

    def edges(self) -> Iterator[DepEdge]:
        """Iterate all edges, deterministically."""
        for op_id in self.op_ids:
            yield from self.out_edges(op_id)

    @property
    def n_edges(self) -> int:
        return sum(len(d) for d in self._out.values())

    def flow_succ_refs(self, op_id: int) -> Tuple[Tuple[int, int, int], ...]:
        """Consumer references of op *op_id*'s value.

        Returns one entry per operand reference (duplicates included) as
        ``(consumer_id, operand_index, omega)``, in deterministic order.
        This is the paper's "immediate data dependent successors" count.
        Cached between mutations of this op's out-adjacency.
        """
        cached = self._refs_cache.get(op_id)
        if cached is not None:
            return cached
        refs: List[Tuple[int, int, int]] = []
        for edge in self.out_edges(op_id):
            if not edge.is_flow:
                continue
            consumer = self._ops[edge.dst]
            for idx, src in enumerate(consumer.srcs):
                if not src.is_external and src.producer == op_id and src.omega == edge.omega:
                    refs.append((edge.dst, idx, edge.omega))
        result = tuple(refs)
        self._refs_cache[op_id] = result
        return result

    def flow_fanout(self, op_id: int) -> int:
        """Number of operand references to op *op_id*'s value."""
        return len(self.flow_succ_refs(op_id))

    def flow_succ_ref_edges(
        self, op_id: int
    ) -> List[Tuple[Tuple[int, int, int], DepEdge]]:
        """:meth:`flow_succ_refs` entries paired with their flow edges.

        The checker, the timing simulator and the execution oracle all
        need the per-reference view *and* the edge (for
        :meth:`edge_latency`); keeping the join here guarantees the two
        can never drift apart.
        """
        edges = {
            (edge.dst, edge.omega): edge
            for edge in self.out_edges(op_id)
            if edge.is_flow
        }
        return [
            (ref, edges[(ref[0], ref[2])])
            for ref in self.flow_succ_refs(op_id)
        ]

    def edge_latency(self, edge: DepEdge, latencies: LatencyModel) -> int:
        """Resolve the latency of *edge* under *latencies*.

        The result is cached on the edge object (keyed by latency-model
        identity): edges are shared between a graph and its copies, so
        the cache survives the per-restart copies and repeated schedule
        calls.  Safe because flow edges are only ever created internally
        for one graph family, and an op's opcode never changes.
        """
        cached = getattr(edge, "_lat_cache", None)
        if cached is not None and cached[0] is latencies:
            return cached[1]
        if edge.latency is not None:
            lat = edge.latency
        else:
            lat = latencies.latency(self._ops[edge.src].opcode)
        object.__setattr__(edge, "_lat_cache", (latencies, lat))
        return lat

    def n_useful_ops(self) -> int:
        """Number of operations counted by the paper's performance metrics."""
        return sum(1 for op in self._ops.values() if is_useful(op.opcode))

    def opcode_histogram(self) -> Dict[OpCode, int]:
        """Histogram of opcodes in the graph."""
        hist: Dict[OpCode, int] = {}
        for op in self._ops.values():
            hist[op.opcode] = hist.get(op.opcode, 0) + 1
        return hist

    # ------------------------------------------------------------------
    # Structure analysis
    # ------------------------------------------------------------------

    def _adjacency(self, *, flow_only: bool = False) -> Dict[int, List[int]]:
        """Successor-id lists (sorted, deduplicated) for graph analyses."""
        adj: Dict[int, List[int]] = {}
        for op_id in self.op_ids:
            succs = {
                e.dst
                for e in self.out_edges(op_id)
                if not flow_only or e.is_flow
            }
            adj[op_id] = sorted(succs)
        return adj

    def sccs(self) -> List[List[int]]:
        """Non-trivial strongly connected components (recurrences).

        A component is non-trivial when it has more than one node or a
        self-loop edge; these are exactly the recurrence circuits that
        bound RecMII.
        """
        adj = self._adjacency()
        result: List[List[int]] = []
        for comp in _tarjan_sccs(adj):
            nodes = sorted(comp)
            if len(nodes) > 1 or nodes[0] in adj[nodes[0]]:
                result.append(nodes)
        result.sort()
        return result

    def has_recurrence(self, *, flow_only: bool = False) -> bool:
        """True when the graph contains a dependence circuit.

        With ``flow_only=True`` memory ordering edges are ignored, matching
        the paper's "loops without recurrences" set-2 definition applied to
        register dataflow.
        """
        adj = self._adjacency(flow_only=flow_only)
        for comp in _tarjan_sccs(adj):
            if len(comp) > 1:
                return True
            node = comp[0]
            if node in adj[node]:
                return True
        return False

    def critical_path_length(self, latencies: LatencyModel) -> int:
        """Longest intra-iteration dependence path (omega-0 edges only)."""
        order = self._topo_order_omega0()
        dist = {op_id: 0 for op_id in self._ops}
        for op_id in order:
            for edge in self.out_edges(op_id):
                if edge.omega != 0:
                    continue
                lat = self.edge_latency(edge, latencies)
                if dist[op_id] + lat > dist[edge.dst]:
                    dist[edge.dst] = dist[op_id] + lat
        if not dist:
            return 0
        return max(
            dist[op.op_id] + latencies.latency(op.opcode) for op in self._ops.values()
        )

    def _topo_order_omega0(self) -> List[int]:
        """Kahn topological order over the omega-0 subgraph."""
        indegree: Dict[int, int] = {op_id: 0 for op_id in self.op_ids}
        succs: Dict[int, List[int]] = {op_id: [] for op_id in self.op_ids}
        for op_id in self.op_ids:
            for edge in self.out_edges(op_id):
                if edge.omega == 0:
                    succs[op_id].append(edge.dst)
                    indegree[edge.dst] += 1
        ready = [op_id for op_id in self.op_ids if indegree[op_id] == 0]
        order: List[int] = []
        while ready:
            node = ready.pop()
            order.append(node)
            for succ in succs[node]:
                indegree[succ] -= 1
                if indegree[succ] == 0:
                    ready.append(succ)
        if len(order) != len(self._ops):
            raise DDGError(
                f"DDG {self.name!r} has an omega-0 dependence cycle; "
                "loop-carried edges must have omega >= 1"
            )
        return order

    # ------------------------------------------------------------------
    # Copy / validation / display
    # ------------------------------------------------------------------

    def copy(self, name: Optional[str] = None) -> "DDG":
        """Deep-copy the graph (operations are immutable, so shared)."""
        clone = DDG(name or self.name)
        clone._ops = dict(self._ops)
        clone._out = {k: dict(v) for k, v in self._out.items()}
        clone._in = {k: dict(v) for k, v in self._in.items()}
        clone._next_id = self._next_id
        # Cache values are immutable tuples; sharing them is safe because
        # each graph drops its own entries on mutation.  Adjacency
        # versions are *not* carried over: consumers of the clone rebuild
        # their keyed state lazily (starting from version 0), which keeps
        # the per-restart copy as cheap as possible.
        clone._out_cache = dict(self._out_cache)
        clone._in_cache = dict(self._in_cache)
        clone._refs_cache = dict(self._refs_cache)
        clone._op_ids_cache = self._op_ids_cache
        clone._forward = {k: list(v) for k, v in self._forward.items()}
        return clone

    def validate(self) -> None:
        """Check internal consistency; raise :class:`DDGError` on failure."""
        for op in self._ops.values():
            for src in op.internal_srcs:
                if src.producer not in self._ops:
                    raise DDGError(
                        f"op {op.op_id} reads missing producer {src.producer}"
                    )
                producer = self._ops[src.producer]
                if not produces_value(producer.opcode):
                    raise DDGError(
                        f"op {op.op_id} reads op {src.producer} "
                        f"({producer.opcode.value}) which produces no value"
                    )
                key = (src.producer, op.op_id, DepKind.FLOW, src.omega)
                if key not in self._in.get(op.op_id, {}):
                    raise DDGError(f"missing derived flow edge for {key}")
        for edge in self.edges():
            if edge.src not in self._ops or edge.dst not in self._ops:
                raise DDGError(f"dangling edge {edge}")
            if edge.is_flow:
                consumer = self._ops[edge.dst]
                if not any(
                    (not s.is_external)
                    and s.producer == edge.src
                    and s.omega == edge.omega
                    for s in consumer.srcs
                ):
                    raise DDGError(f"stale flow edge {edge} without operand")
        # omega-0 subgraph must be acyclic (checked by the topo order).
        self._topo_order_omega0()

    def summary(self) -> str:
        """Short human-readable description."""
        rec = "recurrent" if self.has_recurrence() else "recurrence-free"
        return (
            f"DDG {self.name!r}: {len(self)} ops, {self.n_edges} edges, "
            f"{self.n_useful_ops()} useful, {rec}"
        )

    def pretty(self, latencies: LatencyModel = None) -> str:
        """Multi-line listing of operations and edges."""
        lines = [self.summary()]
        for op in self.operations():
            args = ", ".join(repr(s) for s in op.srcs)
            tag = f"  ; {op.tag}" if op.tag else ""
            lines.append(f"  v{op.op_id} = {op.opcode.value}({args}){tag}")
        explicit = [e for e in self.edges() if not e.is_flow]
        if explicit:
            lines.append("  ordering edges:")
            for edge in explicit:
                lines.append(f"    {edge!r}")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<DDG {self.name!r} ops={len(self)} edges={self.n_edges}>"
