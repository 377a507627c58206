"""Tests for the dependence graph container."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DDGError
from repro.ir import DDG, DEFAULT_LATENCIES, DepKind, OpCode, Operation, ValueUse, use
from repro.ir.edges import DepEdge


def two_op_graph():
    ddg = DDG("two")
    ddg.new_operation(OpCode.LOAD, tag="x")
    ddg.new_operation(OpCode.ADD, (use(0), ValueUse(None, 0, "k")))
    return ddg


class TestConstruction:
    def test_flow_edges_derive_from_operands(self):
        ddg = two_op_graph()
        edges = ddg.out_edges(0)
        assert len(edges) == 1
        assert edges[0].is_flow
        assert edges[0].dst == 1

    def test_external_operands_create_no_edges(self):
        ddg = two_op_graph()
        assert ddg.n_edges == 1

    def test_duplicate_id_rejected(self):
        ddg = two_op_graph()
        with pytest.raises(DDGError):
            ddg.add_operation(Operation(0, OpCode.LOAD))

    def test_forward_references_resolve(self):
        ddg = DDG("fwd")
        # Consumer added before its loop-carried producer.
        ddg.add_operation(Operation(0, OpCode.ADD, (use(1, 1),)))
        ddg.add_operation(Operation(1, OpCode.LOAD))
        assert any(e.src == 1 and e.dst == 0 for e in ddg.in_edges(0))

    def test_bulk_matches_incremental(self):
        ops = [
            Operation(0, OpCode.LOAD),
            Operation(1, OpCode.ADD, (use(0), use(0))),
            Operation(2, OpCode.STORE, (use(1),)),
        ]
        bulk = DDG.bulk("b", ops)
        incremental = DDG("i")
        for op in ops:
            incremental.add_operation(op)
        assert bulk.op_ids == incremental.op_ids
        assert [e.key for e in bulk.edges()] == [e.key for e in incremental.edges()]

    def test_self_reference_creates_self_loop(self):
        ddg = DDG("self")
        ddg.add_operation(Operation(0, OpCode.ADD, (use(0, 1), ValueUse(None, 0, "x"))))
        assert any(e.src == 0 and e.dst == 0 for e in ddg.out_edges(0))
        assert ddg.has_recurrence()


class TestExplicitEdges:
    def test_mem_edge_roundtrip(self):
        ddg = DDG("mem")
        ddg.new_operation(OpCode.STORE, (ValueUse(None, 0, "v"),))
        ddg.new_operation(OpCode.LOAD)
        edge = ddg.add_dep(0, 1, DepKind.MEM, omega=0, latency=1)
        assert edge in ddg.out_edges(0)
        ddg.remove_dep(edge)
        assert not ddg.out_edges(0)

    def test_flow_edges_cannot_be_explicit(self):
        ddg = two_op_graph()
        with pytest.raises(DDGError):
            ddg.add_dep(0, 1, DepKind.FLOW)

    def test_explicit_edge_requires_known_ops(self):
        ddg = two_op_graph()
        with pytest.raises(DDGError):
            ddg.add_dep(0, 99, DepKind.MEM, latency=1)


class TestMutation:
    def test_replace_operand_rewires_edges(self):
        ddg = DDG("rw")
        ddg.new_operation(OpCode.LOAD)
        ddg.new_operation(OpCode.LOAD)
        ddg.new_operation(OpCode.ADD, (use(0), use(1)))
        ddg.replace_operand(2, 0, use(1))
        assert not ddg.out_edges(0)
        assert len([e for e in ddg.out_edges(1) if e.dst == 2]) == 1

    def test_remove_referenced_op_rejected(self):
        ddg = two_op_graph()
        with pytest.raises(DDGError):
            ddg.remove_operation(0)

    def test_remove_leaf_op(self):
        ddg = two_op_graph()
        ddg.remove_operation(1)
        assert 1 not in ddg
        assert not ddg.out_edges(0)

    def test_copy_is_independent(self):
        ddg = two_op_graph()
        clone = ddg.copy()
        clone.new_operation(OpCode.STORE, (use(1),))
        assert len(clone) == 3
        assert len(ddg) == 2


def _rewire_base(n_ops: int):
    """Operations 0..n-1 reading earlier ops, themselves and externals."""
    ops = [Operation(0, OpCode.LOAD, (ValueUse(None, 0, "a"),))]
    for op_id in range(1, n_ops):
        srcs = (use(op_id - 1), use(op_id // 2), ValueUse(None, 0, "k"))
        ops.append(Operation(op_id, OpCode.ADD, srcs[: 2 + op_id % 2]))
    return ops


_SOURCE_KINDS = st.sampled_from(("earlier", "same-producer", "self", "later", "external"))


@st.composite
def _rewirings(draw):
    n_ops = draw(st.integers(3, 7))
    steps = []
    for _ in range(draw(st.integers(1, 12))):
        consumer = draw(st.integers(1, n_ops - 1))
        index = draw(st.integers(0, 1 + consumer % 2))
        kind = draw(_SOURCE_KINDS)
        omega = draw(st.integers(0, 2))
        if kind == "earlier":
            src = use(draw(st.integers(0, consumer - 1)), omega)
        elif kind == "same-producer":
            src = use(0, omega)  # piles duplicate references onto op 0
        elif kind == "self":
            src = use(consumer, max(1, omega))
        elif kind == "later":
            src = use(draw(st.integers(consumer, n_ops - 1)), max(1, omega))
        else:
            src = ValueUse(None, 0, draw(st.sampled_from("kx")))
        steps.append((consumer, index, src))
    return n_ops, steps


class TestIncrementalReplaceOperand:
    """``replace_operand`` touches one edge; the graph must still equal one
    derived from scratch over the same operations."""

    @settings(max_examples=150, deadline=None)
    @given(_rewirings())
    def test_matches_a_bulk_build(self, case):
        n_ops, steps = case
        ops = _rewire_base(n_ops)
        mem = DepEdge(n_ops - 1, 1, DepKind.MEM, 1, 1)
        ddg = DDG.bulk("rewire", ops, [mem])
        for consumer, index, src in steps:
            old = ddg.op(consumer).srcs[index]
            touched = {consumer} if not (old.is_external and src.is_external) else set()
            touched.update(v.producer for v in (old, src) if not v.is_external)
            before = {op_id: ddg.adj_version(op_id) for op_id in touched}
            ddg.replace_operand(consumer, index, src)
            for op_id, version in before.items():
                assert ddg.adj_version(op_id) > version, (op_id, consumer, index, src)
        reference = DDG.bulk("rewire", list(ddg.operations()), [mem])
        ddg.validate()
        reference.validate()
        assert ddg.n_edges == reference.n_edges
        for op_id in ddg.op_ids:
            assert ddg.in_edges(op_id) == reference.in_edges(op_id)
            assert ddg.out_edges(op_id) == reference.out_edges(op_id)
            assert ddg.flow_succ_refs(op_id) == reference.flow_succ_refs(op_id)

    def test_a_duplicate_reference_keeps_the_edge(self):
        ddg = DDG("dup")
        ddg.new_operation(OpCode.LOAD)
        ddg.new_operation(OpCode.LOAD)
        ddg.new_operation(OpCode.ADD, (use(0), use(0)))
        ddg.replace_operand(2, 0, use(1))
        assert [e.src for e in ddg.in_edges(2)] == [0, 1]
        assert ddg.flow_succ_refs(0) == ((2, 1, 0),)
        ddg.replace_operand(2, 1, use(1))
        assert [e.src for e in ddg.in_edges(2)] == [1]
        assert not ddg.out_edges(0)
        assert ddg.flow_succ_refs(1) == ((2, 0, 0), (2, 1, 0))


class TestQueries:
    def test_flow_fanout_counts_references(self):
        ddg = DDG("fan")
        ddg.new_operation(OpCode.LOAD)
        ddg.new_operation(OpCode.MUL, (use(0), use(0)))  # x * x
        assert ddg.flow_fanout(0) == 2

    def test_fanout_distinguishes_omegas(self):
        ddg = DDG("fan2")
        ddg.new_operation(OpCode.LOAD)
        ddg.new_operation(OpCode.ADD, (use(0), use(0, 1)))
        # Two references (one current, one loop-carried) = fan-out 2.
        assert ddg.flow_fanout(0) == 2
        # ... but they are distinct edges because omega differs.
        assert len([e for e in ddg.out_edges(0)]) == 2

    def test_edge_latency_resolution(self):
        ddg = two_op_graph()
        flow = ddg.out_edges(0)[0]
        assert ddg.edge_latency(flow, DEFAULT_LATENCIES) == DEFAULT_LATENCIES[OpCode.LOAD]
        mem = DepEdge(0, 1, DepKind.MEM, 0, 5)
        assert ddg.edge_latency(mem, DEFAULT_LATENCIES) == 5

    def test_useful_op_count_excludes_copies(self):
        ddg = two_op_graph()
        ddg.new_operation(OpCode.COPY, (use(1),))
        assert len(ddg) == 3
        assert ddg.n_useful_ops() == 2

    def test_opcode_histogram(self):
        ddg = two_op_graph()
        hist = ddg.opcode_histogram()
        assert hist[OpCode.LOAD] == 1
        assert hist[OpCode.ADD] == 1


class TestStructure:
    def test_acyclic_graph_has_no_recurrence(self):
        assert not two_op_graph().has_recurrence()

    def test_sccs_find_recurrence_cycles(self):
        ddg = DDG("rec")
        ddg.add_operation(Operation(0, OpCode.LOAD))
        ddg.add_operation(Operation(1, OpCode.ADD, (use(0), use(1, 1))))
        sccs = ddg.sccs()
        assert sccs == [[1]]

    def test_multi_node_scc(self):
        ddg = DDG("rec2")
        ddg.add_operation(Operation(0, OpCode.ADD, (use(1, 1), ValueUse(None, 0, "a"))))
        ddg.add_operation(Operation(1, OpCode.MUL, (use(0), ValueUse(None, 0, "b"))))
        assert ddg.sccs() == [[0, 1]]

    def test_omega0_cycle_rejected(self):
        ddg = DDG("bad")
        ddg.add_operation(Operation(0, OpCode.ADD, (use(1),)))
        ddg.add_operation(Operation(1, OpCode.ADD, (use(0),)))
        with pytest.raises(DDGError):
            ddg.validate()

    def test_critical_path(self):
        ddg = DDG("cp")
        ddg.new_operation(OpCode.LOAD)  # latency 2
        ddg.new_operation(OpCode.MUL, (use(0), ValueUse(None, 0, "k")))  # 3
        ddg.new_operation(OpCode.STORE, (use(1),))  # 1
        assert ddg.critical_path_length(DEFAULT_LATENCIES) == 6

    def test_validate_accepts_good_graph(self):
        two_op_graph().validate()

    def test_validate_rejects_missing_producer(self):
        ddg = DDG("missing")
        ddg.add_operation(Operation(0, OpCode.ADD, (use(42),)))
        with pytest.raises(DDGError):
            ddg.validate()

    def test_validate_rejects_store_as_producer(self):
        ddg = DDG("storeval")
        ddg.new_operation(OpCode.STORE, (ValueUse(None, 0, "v"),))
        ddg.new_operation(OpCode.ADD, (use(0), ValueUse(None, 0, "k")))
        with pytest.raises(DDGError):
            ddg.validate()

    def test_pretty_and_summary(self):
        ddg = two_op_graph()
        assert "two" in ddg.summary()
        assert "load" in ddg.pretty()
