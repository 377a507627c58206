"""The compact IR: slotted value objects that pickle as their constructor
arguments, and one stored edge tuple per op.

Operations, operands, edges, placements and the allocation records carry
no instance dict, built or unpickled; unpickling re-runs validation and
re-derives the cached attributes; and a graph's copy or pickle round trip
keeps every adjacency view and every schedule fingerprint.
"""

import dataclasses
import pickle
import zlib

import pytest

from repro.api import CompilationCache, CompilationRequest, Toolchain, compile_many, content_hash
from repro.ir.edges import DepEdge, DepKind
from repro.ir.opcodes import DEFAULT_LATENCIES, FUKind, OpCode
from repro.ir.operations import Operation, ValueUse, external, use
from repro.machine import clustered_vliw
from repro.registers import FileUsage, Lifetime, QueueAssignment
from repro.scheduling.fingerprint import schedule_fingerprint
from repro.scheduling.schedule import Placement
from repro.workloads import make_kernel
from repro.workloads.suite import perfect_club_surrogate

COMPACT = (ValueUse, Operation, DepEdge, Placement, Lifetime, QueueAssignment, FileUsage)


def roundtrip(value):
    return pickle.loads(pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL))


def compact_instances(report):
    """Every instance of the compact classes a compiled report holds."""
    compiled = report.compiled
    ddg = report.result.ddg
    found = []
    for op in ddg.operations():
        found.append(op)
        found.extend(op.srcs)
    found.extend(ddg.edges())
    found.extend(report.result.placements.values())
    for assignment in compiled.allocation.assignments:
        found.extend((assignment, assignment.lifetime))
    found.extend(compiled.allocation.files)
    return found


@pytest.fixture(scope="module")
def report():
    request = CompilationRequest(
        loop=make_kernel("fir_filter"), machine=clustered_vliw(4), equivalent_k=4,
    )
    return Toolchain.default().compile(request)


def test_no_instance_has_a_dict_built_or_unpickled(report):
    for source in (report, roundtrip(report)):
        found = compact_instances(source)
        assert {type(value) for value in found} == set(COMPACT)
        assert not [value for value in found if hasattr(value, "__dict__")]


class TestConstructorPickles:
    def test_edge_rederives_key_and_communicates(self):
        edges = [DepEdge(3, 5, DepKind.FLOW, 1), DepEdge(5, 3, DepKind.MEM, 2, 4)]
        for edge in edges:
            loaded = roundtrip(edge)
            assert loaded == edge and hash(loaded) == hash(edge)
            assert loaded.key == edge.key == (edge.src, edge.dst, edge.kind.code, edge.omega)
            assert loaded.communicates is edge.communicates
        assert [edge.communicates for edge in edges] == [True, False]

    def test_operation_rederives_fu_kind_and_internal_srcs(self):
        op = Operation(7, OpCode.MUL, (use(2), external("c"), use(7, omega=1)), "y[i]")
        op.internal_srcs  # derived before pickling, and re-derived after
        loaded = roundtrip(op)
        assert loaded == op and hash(loaded) == hash(op)
        assert loaded.fu_kind is op.fu_kind is FUKind.MUL
        assert loaded.internal_srcs == (use(2), use(7, omega=1))
        assert loaded.srcs == op.srcs and loaded.tag == "y[i]"

    def test_values_keep_equality_and_hash(self, report):
        found = compact_instances(report)
        loaded = [roundtrip(value) for value in found]
        assert loaded == found
        assert [hash(value) for value in loaded] == [hash(value) for value in found]

    def test_pickle_is_the_constructor_call(self):
        for value in (use(4, omega=2), Placement(3, 1), DepEdge(1, 2, DepKind.ANTI, 0, 1)):
            cls, args = value.__reduce__()
            assert cls is type(value) and cls(*args) == value

    def test_latency_cache_stays_behind(self):
        edge = DepEdge(0, 1)
        object.__setattr__(edge, "_lat_cache", (DEFAULT_LATENCIES, 2))
        assert not hasattr(roundtrip(edge), "_lat_cache")
        assert b"LatencyModel" not in pickle.dumps(edge)

    @pytest.mark.parametrize("value, field, bad", [
        (DepEdge(0, 1), "omega", -1),
        (use(1), "omega", -2),
        (Operation(1, OpCode.ADD, (use(0),)), "op_id", -1),
        (Placement(2, 0), "time", -3),
    ], ids=["edge", "operand", "operation", "placement"])
    def test_unpickling_revalidates(self, value, field, bad):
        object.__setattr__(value, field, bad)  # bypass the frozen guard
        with pytest.raises(Exception, match=">= 0"):
            roundtrip(value)


def adjacency_views(ddg):
    return (
        list(ddg.edges()),
        {op_id: ddg.in_edges(op_id) for op_id in ddg.op_ids},
        {op_id: ddg.flow_succ_refs(op_id) for op_id in ddg.op_ids},
    )


def test_copy_and_pickle_keep_views_and_fingerprints_over_the_suite():
    machine = clustered_vliw(2)
    toolchain = Toolchain.default()
    suite = perfect_club_surrogate()
    assert len(suite) == 1258
    for loop in suite:
        report = toolchain.compile(
            CompilationRequest(loop=loop, machine=machine, equivalent_k=2)
        )
        result = report.result
        for ddg in (loop.ddg, result.ddg):
            views = adjacency_views(ddg)
            clone = ddg.copy()
            assert adjacency_views(clone) == views, loop.name
            assert all(clone.out_edges(i) is ddg.out_edges(i) for i in ddg.op_ids)
            assert adjacency_views(roundtrip(ddg)) == views, loop.name
        fingerprint = schedule_fingerprint(result)
        assert schedule_fingerprint(roundtrip(report).result) == fingerprint, loop.name
        copied = dataclasses.replace(result, ddg=result.ddg.copy())
        assert schedule_fingerprint(copied) == fingerprint, loop.name


def test_a_schema_8_entry_is_a_miss_and_is_repaired(tmp_path):
    request = CompilationRequest(
        loop=make_kernel("daxpy"), machine=clustered_vliw(4), equivalent_k=4, allocate=False,
    )
    key = content_hash(request)
    cache = CompilationCache(tmp_path)
    compile_many([request], cache=cache)
    path = cache.path_for(key)
    head, _, body = path.read_bytes().partition(b"\n")
    assert head.startswith(b"repro-cache 9 ")
    # An intact entry of the previous schema: its own check line is right.
    path.write_bytes(b"repro-cache 8 %d\n" % zlib.crc32(body) + body)
    stale = CompilationCache(tmp_path)
    assert stale.get(key) is None
    assert stale.stats.misses == 1 and stale.stats.hits == 0
    again = compile_many([request], cache=stale)
    assert not again[0].cache_hit and stale.stats.writes == 1
    assert path.read_bytes().startswith(b"repro-cache 9 ")
    warm = CompilationCache(tmp_path)
    hit = warm.get(key)
    assert hit is not None and hit.cache_hit
    assert schedule_fingerprint(hit.result) == schedule_fingerprint(again[0].result)
