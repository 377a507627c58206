"""Tests for content hashing and the on-disk compilation cache."""

import pickle

import pytest

from repro.api import (
    CompilationCache,
    CompilationRequest,
    Toolchain,
    compile_many,
    content_hash,
)
from repro.api.cache import MemoryCache, TieredCache, ddg_signature
from repro.config import SchedulerConfig
from repro.ir import DepKind, OpCode, ValueUse
from repro.ir.opcodes import LatencyModel
from repro.machine import clustered_vliw, unclustered_vliw
from repro.scheduling.fingerprint import schedule_fingerprint
from repro.workloads import make_kernel
from perfbench import gen

from .conftest import build_stream_loop


def _request(**overrides):
    base = dict(
        loop=make_kernel("daxpy"),
        machine=clustered_vliw(4),
        equivalent_k=4,
        allocate=False,
    )
    base.update(overrides)
    return CompilationRequest(**base)


class TestContentHash:
    def test_deterministic_across_rebuilds(self):
        # Two independently built copies of the same kernel hash equal:
        # the hash depends on content, not object identity.
        assert content_hash(_request()) == content_hash(_request())

    def test_sensitive_to_machine(self):
        assert content_hash(_request()) != content_hash(
            _request(machine=clustered_vliw(6), equivalent_k=6)
        )
        assert content_hash(_request()) != content_hash(
            _request(machine=unclustered_vliw(4))
        )

    def test_sensitive_to_config_and_latencies(self):
        assert content_hash(_request()) != content_hash(
            _request(config=SchedulerConfig(restarts_per_ii=1))
        )
        assert content_hash(_request()) != content_hash(
            _request(latencies=LatencyModel(load=4))
        )

    def test_sensitive_to_request_knobs(self):
        base = content_hash(_request())
        assert base != content_hash(_request(unroll=2))
        assert base != content_hash(_request(allocate=True))
        assert base != content_hash(_request(scheduler="dms"))

    def test_sensitive_to_pipeline(self, monkeypatch):
        # The key names the default flow: changing it must invalidate
        # every entry.
        import repro.api.toolchain as toolchain

        base = content_hash(_request())
        monkeypatch.setattr(
            toolchain, "DEFAULT_PASSES", ("unroll", "schedule", "allocate")
        )
        assert base != content_hash(_request())
        monkeypatch.undo()
        assert base == content_hash(_request())

    def test_sensitive_to_loop_content(self):
        assert content_hash(_request()) != content_hash(
            _request(loop=make_kernel("dot_product"))
        )
        assert content_hash(
            _request(loop=build_stream_loop(trip_count=64))
        ) != content_hash(_request(loop=build_stream_loop(trip_count=128)))

    def test_follows_every_change_to_a_hashed_graph(self):
        # Each mutation kind of a graph already hashed must move the
        # hash, and undoing it must restore it.
        loop = make_kernel("daxpy")
        request = _request(loop=loop)
        ddg = loop.ddg
        seen = {content_hash(request)}
        consumer = max(ddg.op_ids)
        index = next(i for i, src in enumerate(ddg.op(consumer).srcs) if not src.is_external)
        old = ddg.op(consumer).srcs[index]
        ddg.replace_operand(consumer, index, ValueUse(None, 0, "z"))  # no edge left
        seen.add(content_hash(request))
        ddg.replace_operand(consumer, index, ValueUse(None, 0, "w"))  # external to external
        seen.add(content_hash(request))
        ddg.replace_operand(consumer, index, old)
        assert content_hash(request) in seen
        extra = ddg.new_operation(OpCode.LOAD, (ValueUse(None, 0, "q"),))
        seen.add(content_hash(request))
        dep = ddg.add_dep(extra.op_id, consumer, DepKind.MEM, 1, 1)
        seen.add(content_hash(request))
        ddg.remove_dep(dep)
        ddg.remove_operation(extra.op_id)
        ddg.name = "renamed"
        seen.add(content_hash(request))
        assert len(seen) == 6


def reference_ddg_signature(ddg):
    """The signature as first defined: explicit edges read off ``ddg.edges()``."""
    ops = tuple(
        (
            op.op_id,
            op.opcode.value,
            tuple((s.producer, s.omega, s.symbol) for s in op.srcs),
            op.tag,
        )
        for op in ddg.operations()
    )
    explicit = tuple(
        (e.src, e.dst, e.kind.value, e.omega, e.latency)
        for e in ddg.edges()
        if not e.is_flow
    )
    return (ddg.name, ops, explicit)


class TestSignatureEdges:
    """``ddg_signature`` reads explicit edges off the stored adjacency
    without changing it or building a per-op read cache, and keys stay
    what they were."""

    def test_sweep_requests_match_the_reference(self):
        from repro.experiments.runner import SweepConfig, sweep_requests
        from repro.workloads.suite import perfect_club_surrogate

        loops = {id(request.loop): request.loop for _, request in
                 sweep_requests(perfect_club_surrogate(100), SweepConfig())}
        assert len(loops) == 100
        for loop in loops.values():
            assert ddg_signature(loop.ddg) == reference_ddg_signature(loop.ddg), loop.name

    def test_serve_mixed_payloads_match_the_reference_from_a_fresh_parse(self):
        from repro.service.jobs import parse_compile_payload, request_to_payload
        from repro.workloads.suite import perfect_club_surrogate

        suite = perfect_club_surrogate()
        plan = gen.serve_plan(1, 12, [len(loop.ddg) for loop in suite], 256)
        machines = {k: clustered_vliw(k) for k in gen.SERVICE_CLUSTERS}
        for index, k in plan.requests:
            payload = request_to_payload(
                CompilationRequest(loop=suite[index], machine=machines[k]))
            request = parse_compile_payload(payload).request
            key = content_hash(request)
            ddg = request.loop.ddg
            assert not ddg._refs_cache and not ddg._ref_edges_cache  # no view built
            assert ddg_signature(ddg) == reference_ddg_signature(ddg)
            assert content_hash(request) == key

    def test_explicit_edges_of_every_kind_keep_the_reference_order(self):
        # The suite carries no explicit edge, so order them here: kinds
        # sort by name ("anti" < "mem" < "output"), not declaration order.
        ddg = build_stream_loop().ddg
        ops = ddg.op_ids
        for src, dst, kind, omega in (
            (ops[4], ops[0], DepKind.OUTPUT, 1), (ops[4], ops[0], DepKind.MEM, 2),
            (ops[4], ops[0], DepKind.MEM, 1), (ops[4], ops[0], DepKind.ANTI, 1),
            (ops[1], ops[4], DepKind.MEM, 0), (ops[0], ops[4], DepKind.MEM, 0),
        ):
            ddg.add_dep(src, dst, kind, omega, 1)
        stored = dict(ddg._out), dict(ddg._in)
        signature = ddg_signature(ddg)
        for before, after in zip(stored, (ddg._out, ddg._in)):
            assert before.keys() == after.keys()
            assert all(after[op_id] is edges for op_id, edges in before.items())
        assert not ddg._refs_cache and not ddg._ref_edges_cache  # no view built
        assert len(signature[2]) == 6
        assert signature == reference_ddg_signature(ddg)


class TestCompilationCache:
    def test_miss_then_hit_roundtrip(self, tmp_path):
        cache = CompilationCache(tmp_path)
        request = _request()
        key = content_hash(request)
        assert cache.get(key) is None
        report = Toolchain.default().compile(request)
        cache.put(key, report)
        loaded = cache.get(key)
        assert loaded is not None
        assert loaded.cache_hit
        assert loaded.cache_key == key
        assert schedule_fingerprint(loaded.result) == schedule_fingerprint(
            report.result
        )
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.writes == 1
        assert len(cache) == 1

    def test_corrupt_entry_degrades_to_miss(self, tmp_path):
        cache = CompilationCache(tmp_path)
        request = _request()
        key = content_hash(request)
        cache.put(key, Toolchain.default().compile(request))
        cache.path_for(key).write_bytes(b"not a pickle")
        assert cache.get(key) is None
        assert not cache.path_for(key).exists()

    def test_foreign_pickle_degrades_to_miss(self, tmp_path):
        cache = CompilationCache(tmp_path)
        key = "ab" + "0" * 62
        cache.path_for(key).parent.mkdir(parents=True)
        cache.path_for(key).write_bytes(pickle.dumps({"not": "a report"}))
        assert cache.get(key) is None

    def test_clear(self, tmp_path):
        cache = CompilationCache(tmp_path)
        for name in ("daxpy", "dot_product"):
            request = _request(loop=make_kernel(name))
            cache.put(content_hash(request), Toolchain.default().compile(request))
        assert len(cache) == 2
        assert cache.clear() == 2
        assert len(cache) == 0


class TestCompileManyCaching:
    def test_second_run_is_all_hits_and_identical(self, tmp_path):
        requests = [
            _request(loop=make_kernel(name), machine=clustered_vliw(k), equivalent_k=k)
            for name in ("daxpy", "fir_filter", "dot_product")
            for k in (2, 4)
        ]
        cold = compile_many(requests, cache=tmp_path)
        assert not any(r.cache_hit for r in cold)
        warm_cache = CompilationCache(tmp_path)
        warm = compile_many(requests, cache=warm_cache)
        assert all(r.cache_hit for r in warm)
        assert warm_cache.stats.hits == len(requests)
        for before, after in zip(cold, warm):
            assert schedule_fingerprint(before.result) == schedule_fingerprint(
                after.result
            )

    def test_cache_takes_a_compilation_cache_or_a_directory(self, tmp_path):
        cache = CompilationCache(tmp_path / "given")
        compile_many([_request()], cache=cache)
        assert (len(cache), cache.stats.writes) == (1, 1)
        compile_many([_request()], cache=tmp_path / "dir")
        assert len(CompilationCache(tmp_path / "dir")) == 1
        # The service tiers hand back encoded entries, not reports.
        for tier in (MemoryCache(), TieredCache()):
            with pytest.raises(TypeError, match=type(tier).__name__):
                compile_many([_request()], cache=tier)

    def test_cache_root_expands_user(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HOME", str(tmp_path))
        cache = CompilationCache("~/cache/repro")
        assert cache.root == tmp_path / "cache" / "repro"
        assert cache.root.is_dir()

    def test_cache_keyed_on_request(self, tmp_path):
        cache = CompilationCache(tmp_path)
        first = compile_many([_request()], cache=cache)
        second = compile_many([_request(scheduler="dms")], cache=cache)
        # Different knobs -> different keys -> no false sharing.
        assert not first[0].cache_hit
        assert not second[0].cache_hit
        assert len(cache) == 2
