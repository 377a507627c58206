"""End-to-end tests for the compilation service (``repro serve``).

A real :class:`~repro.service.daemon.CompileService` runs on its own
event loop in a daemon thread (``workers=0``: in-process thread
executor, so no process spawn under pytest) and the blocking
:class:`~repro.service.client.ServiceClient` drives it over a real
socket.  Admission/coalescing/drain tests inject a gated ``compile_fn``
and a one-wide executor so queue states are deterministic.

Also covers the cache tiers the daemon composes (``MemoryCache`` /
``TieredCache``), the ``BatchCompiler`` shared-pool injection and the
parallel oracle fan-out (:func:`repro.validate.verify_many`).
"""

import asyncio
import contextlib
import errno
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.api import CompilationRequest, Toolchain, content_hash
from repro.api.cache import CompilationCache, EncodedReport, MemoryCache, TieredCache
from repro.config import DEFAULT_CONFIG
from repro.errors import CacheError, ServiceError
from repro.machine.machine import clustered_vliw
from repro.scheduling.fingerprint import schedule_fingerprint
from repro.service import NO_RETRY, CompileService, RetryPolicy, ServiceClient
from repro.validate import verify_many
from repro.workloads import make_kernel

LADDER = {"search": "ladder"}

#: The test client's policy: generous timeouts for slow CI hosts.
PATIENT = RetryPolicy(connect_timeout=60.0, read_timeout=60.0)


def jsonable(value):
    """Tuples -> lists etc., matching what a client reads off the wire."""
    return json.loads(json.dumps(value, default=str))


def wait_until(predicate, timeout=30.0, interval=0.01, what="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(interval)
    raise AssertionError(f"timed out waiting for {what}")


@contextlib.contextmanager
def running_service(**kwargs):
    """A live CompileService on its own loop in a daemon thread.

    Yields ``(service, client, loop)``; the loop handle lets tests call
    loop-affine methods (``request_drain``) via ``call_soon_threadsafe``.
    """
    kwargs.setdefault("workers", 0)
    loop = asyncio.new_event_loop()
    ready = threading.Event()
    box = {}

    async def _main():
        box["stop"] = asyncio.Event()
        try:
            service = CompileService(**kwargs)
            host, port = await service.start()
        except Exception as err:  # surface startup failures to the test thread
            box["error"] = err
            ready.set()
            return
        box["service"] = service
        box["address"] = f"{host}:{port}"
        ready.set()
        await box["stop"].wait()
        await service.close()

    thread = threading.Thread(
        target=lambda: (asyncio.set_event_loop(loop), loop.run_until_complete(_main())),
        daemon=True,
    )
    thread.start()
    assert ready.wait(30), "service thread never came up"
    if "error" in box:
        raise box["error"]
    try:
        yield box["service"], ServiceClient(box["address"], policy=PATIENT), loop
    finally:
        loop.call_soon_threadsafe(box["stop"].set)
        thread.join(timeout=30)
        loop.close()


# ----------------------------------------------------------------------
# Service <-> local toolchain equivalence
# ----------------------------------------------------------------------


def local_fingerprint(payload):
    """Fingerprint of the same compile run through a local Toolchain."""
    kwargs = {}
    if "kernel_args" in payload:
        kwargs = payload["kernel_args"]
    request = CompilationRequest(
        loop=make_kernel(payload["kernel"], **kwargs),
        machine=clustered_vliw(
            payload.get("clusters", 4), topology=payload.get("topology", "ring")
        ),
        config=DEFAULT_CONFIG.with_(**payload.get("config", {})),
    )
    report = Toolchain.default().compile(request)
    return jsonable(schedule_fingerprint(report.result))


def test_service_result_matches_local_toolchain():
    payload = {"kernel": "fir_filter", "clusters": 4, "config": dict(LADDER)}
    with running_service() as (service, client, _loop):
        result = client.compile(payload)
    assert result["status"] == "done"
    assert result["served_from"] == "compile"
    assert result["fingerprint"] == local_fingerprint(payload)
    assert result["report"]["ii"] >= 1
    assert result["cache_key"]


def test_compile_request_roundtrip_matches_local():
    # Serialize a *local* request (loop ships as an explicit DDG) and
    # check the daemon reproduces the local compile bit-for-bit.
    request = CompilationRequest(
        loop=make_kernel("complex_multiply"),
        machine=clustered_vliw(4, topology="mesh"),
        config=DEFAULT_CONFIG.with_(search="ladder"),
    )
    local = Toolchain.default().compile(request)
    with running_service() as (service, client, _loop):
        result = client.compile_request(request)
    assert result["fingerprint"] == jsonable(schedule_fingerprint(local.result))
    assert result["report"]["ii"] == local.result.ii


# ----------------------------------------------------------------------
# LRU tier / warm repeats
# ----------------------------------------------------------------------


def test_warm_repeat_served_from_memory_without_compiling():
    payload = {"kernel": "daxpy", "clusters": 2, "config": dict(LADDER)}
    with running_service() as (service, client, _loop):
        cold = client.compile(payload)
        warm = client.compile(payload)
        metrics = client.metrics()
    assert cold["served_from"] == "compile"
    assert warm["served_from"] == "memory"
    assert warm["fingerprint"] == cold["fingerprint"]
    # The warm repeat never reached the scheduler.
    assert metrics["compiles"]["started"] == 1
    assert metrics["cache"]["memory_hits"] == 1
    assert metrics["cache"]["hit_ratio"] == pytest.approx(0.5)


def test_disk_hit_promotes_into_memory_across_restarts(tmp_path):
    payload = {"kernel": "vector_add", "clusters": 2, "config": dict(LADDER)}
    cache_dir = tmp_path / "cache"
    with running_service(disk_cache=str(cache_dir)) as (service, client, _loop):
        first = client.compile(payload)
        assert first["served_from"] == "compile"
    # Fresh daemon, same disk tier: LRU is cold, disk answers, and the
    # entry is promoted so the next repeat is a memory hit.
    with running_service(disk_cache=str(cache_dir)) as (service, client, _loop):
        promoted = client.compile(payload)
        warm = client.compile(payload)
        metrics = client.metrics()
    assert promoted["served_from"] == "disk"
    assert warm["served_from"] == "memory"
    assert promoted["fingerprint"] == first["fingerprint"]
    assert metrics["compiles"]["started"] == 0
    assert metrics["cache"]["disk_hits"] == 1
    assert metrics["cache"]["memory_hits"] == 1


def test_lru_eviction_bounds_the_memory_tier():
    payloads = [
        {"kernel": "daxpy", "clusters": 2, "config": dict(LADDER)},
        {"kernel": "fir_filter", "clusters": 2, "config": dict(LADDER)},
        {"kernel": "dot_product", "clusters": 2, "config": dict(LADDER)},
    ]
    with running_service(lru_capacity=2) as (service, client, _loop):
        for payload in payloads:
            client.compile(payload)
        # Capacity 2: the oldest entry (payloads[0]) was evicted...
        evicted = client.compile(payloads[0])
        # ...while the newest (payloads[2]) is still resident.
        resident = client.compile(payloads[2])
        metrics = client.metrics()
    assert evicted["served_from"] == "compile"
    assert resident["served_from"] == "memory"
    assert metrics["compiles"]["started"] == 4
    assert metrics["cache"]["evictions"] >= 2
    assert metrics["cache"]["memory_entries"] == 2
    assert metrics["cache"]["memory_capacity"] == 2


# ----------------------------------------------------------------------
# In-flight dedup / coalescing
# ----------------------------------------------------------------------


def test_identical_concurrent_requests_coalesce_to_one_compile():
    fanout = 4
    gate = threading.Event()
    compiles = []

    def gated_compile(toolchain, request):
        compiles.append(request.loop.name)
        gate.wait(60)
        return toolchain.compile(request)

    payload = {"kernel": "complex_multiply", "clusters": 4, "config": dict(LADDER)}
    with running_service(compile_fn=gated_compile) as (service, client, _loop):
        with ThreadPoolExecutor(max_workers=fanout) as pool:
            futures = [
                pool.submit(client.compile, dict(payload)) for _ in range(fanout)
            ]
            # Release the compile only once every request has arrived, so
            # no straggler is served from the LRU after completion.
            wait_until(
                lambda: service.metrics.requests_total == fanout,
                what="all concurrent requests admitted",
            )
            gate.set()
            results = [future.result(timeout=60) for future in futures]
        metrics = client.metrics()
    sources = sorted(r["served_from"] for r in results)
    assert sources == ["coalesced"] * (fanout - 1) + ["compile"]
    assert len(compiles) == 1
    assert metrics["compiles"]["started"] == 1
    assert metrics["dedup"]["coalesced"] == fanout - 1
    assert len({json.dumps(r["fingerprint"]) for r in results}) == 1
    # All joiners share the creator's job id.
    assert len({r["job"] for r in results}) == 1


def test_a_coalesced_request_gets_the_assembly_it_asked_for():
    gate = threading.Event()

    def gated_compile(toolchain, request):
        gate.wait(60)
        return toolchain.compile(request)

    payload = {"kernel": "daxpy", "clusters": 2}
    with running_service(compile_fn=gated_compile) as (service, client, _loop):
        with ThreadPoolExecutor(max_workers=2) as pool:
            plain = pool.submit(client.compile, dict(payload))
            wait_until(lambda: service.metrics.requests_total == 1, what="creator admitted")
            listing = pool.submit(client.compile, dict(payload, assembly=True))
            wait_until(lambda: service.metrics.requests_total == 2, what="joiner admitted")
            gate.set()
            creator, joiner = plain.result(timeout=60), listing.result(timeout=60)
    assert (creator["served_from"], joiner["served_from"]) == ("compile", "coalesced")
    assert "assembly" not in creator
    assert joiner["assembly"].startswith("; loop 'daxpy'")
    assert joiner["job"] == creator["job"]
    assert joiner["fingerprint"] == creator["fingerprint"]


def test_a_failed_cache_write_still_answers_the_compile(tmp_path):
    def full_disk(key, value):
        raise OSError(errno.ENOSPC, "No space left on device")

    with running_service(disk_cache=str(tmp_path / "cache")) as (service, client, _loop):
        service.cache.disk.put = full_disk
        quick = ServiceClient(f"{client.host}:{client.port}", policy=RetryPolicy(
            max_attempts=1, connect_timeout=10.0, read_timeout=10.0))
        result = quick.compile({"kernel": "daxpy", "clusters": 2})
        again = quick.compile({"kernel": "daxpy", "clusters": 2})
        metrics = quick.metrics()
    assert (result["status"], result["served_from"]) == ("done", "compile")
    assert again["served_from"] == "memory"
    assert metrics["cache"]["disk_errors"] == 1
    assert metrics["compiles"]["completed"] == 1


# ----------------------------------------------------------------------
# Admission control: bounded queue + priority shedding
# ----------------------------------------------------------------------


def test_admission_sheds_low_priority_then_rejects():
    gate = threading.Event()

    def gated_compile(toolchain, request):
        gate.wait(60)
        return toolchain.compile(request)

    def payload(clusters, priority, topology="ring"):
        return {
            "kernel": "daxpy",
            "clusters": clusters,
            "topology": topology,
            "priority": priority,
            "config": dict(LADDER),
        }

    with running_service(
        executor=ThreadPoolExecutor(max_workers=1),
        compile_fn=gated_compile,
        max_queue_depth=2,
    ) as (service, client, _loop):
        # One running blocker + two queued low-priority jobs = full queue.
        blocker = client.compile(payload(2, "normal"), wait=False)
        wait_until(lambda: service._running == 1, what="blocker dispatched")
        low_a = client.compile(payload(4, "low"), wait=False)
        low_b = client.compile(payload(8, "low"), wait=False)
        assert sum(service.queue_depths().values()) == 2

        # A normal-priority arrival sheds the newest low job (low_b).
        normal = client.compile(payload(4, "normal", "mesh"), wait=False)
        shed_doc = client.job(low_b["job"])
        assert shed_doc["status"] == "shed"
        assert "queue full" in shed_doc["error"]

        # Queue is full again with [low_a, normal]; a second normal can
        # still shed low_a, and a third finds nothing lower to shed.
        normal2 = client.compile(payload(8, "normal", "mesh"), wait=False)
        assert client.job(low_a["job"])["status"] == "shed"
        # The 429 carries Retry-After, which the default client would
        # honor and retry; probe with a no-retry client so the rejected
        # counter stays exact.
        probe = ServiceClient((client.host, client.port), policy=NO_RETRY)
        with pytest.raises(ServiceError) as rejected:
            probe.compile(payload(2, "normal", "crossbar"), wait=False)
        assert rejected.value.status == 429
        assert rejected.value.retry_after is not None

        metrics = client.metrics()
        assert metrics["admission"]["shed"] == 2
        assert metrics["admission"]["rejected"] == 1

        gate.set()
        for receipt in (blocker, normal, normal2):
            wait_until(
                lambda r=receipt: client.job(r["job"])["status"] == "done",
                what=f"job {receipt['job']} to finish",
            )


def test_shed_job_fails_its_waiting_client_with_503():
    gate = threading.Event()

    def gated_compile(toolchain, request):
        gate.wait(60)
        return toolchain.compile(request)

    def payload(clusters, priority):
        return {
            "kernel": "daxpy",
            "clusters": clusters,
            "priority": priority,
            "config": dict(LADDER),
        }

    with running_service(
        executor=ThreadPoolExecutor(max_workers=1),
        compile_fn=gated_compile,
        max_queue_depth=1,
    ) as (service, client, _loop):
        blocker = client.compile(payload(2, "normal"), wait=False)
        wait_until(lambda: service._running == 1, what="blocker dispatched")
        with ThreadPoolExecutor(max_workers=1) as pool:
            # A low-priority client blocks on its queued job...
            waiting = pool.submit(client.compile, payload(4, "low"))
            wait_until(
                lambda: sum(service.queue_depths().values()) == 1,
                what="low job queued",
            )
            # ...until a normal-priority arrival sheds it.
            client.compile(payload(8, "normal"), wait=False)
            with pytest.raises(ServiceError) as shed:
                waiting.result(timeout=30)
            assert shed.value.status == 503
            assert "shed" in str(shed.value)
        gate.set()
        wait_until(
            lambda: client.job(blocker["job"])["status"] == "done",
            what="blocker to finish",
        )


def test_priority_lanes_dispatch_high_before_low():
    gate = threading.Event()
    order = []

    def recording_compile(toolchain, request):
        order.append(request.machine.n_clusters)
        if request.machine.n_clusters == 2:
            gate.wait(60)
        return toolchain.compile(request)

    def payload(clusters, priority):
        return {
            "kernel": "daxpy",
            "clusters": clusters,
            "priority": priority,
            "config": dict(LADDER),
        }

    with running_service(
        executor=ThreadPoolExecutor(max_workers=1),
        compile_fn=recording_compile,
    ) as (service, client, _loop):
        blocker = client.compile(payload(2, "normal"), wait=False)
        wait_until(lambda: service._running == 1, what="blocker dispatched")
        low = client.compile(payload(4, "low"), wait=False)
        high = client.compile(payload(8, "high"), wait=False)
        assert sum(service.queue_depths().values()) == 2
        gate.set()
        for receipt in (blocker, low, high):
            wait_until(
                lambda r=receipt: client.job(r["job"])["status"] == "done",
                what=f"job {receipt['job']} to finish",
            )
    # The high-priority job (8 clusters) jumped the earlier low one.
    assert order == [2, 8, 4]


# ----------------------------------------------------------------------
# Graceful drain
# ----------------------------------------------------------------------


def test_graceful_drain_finishes_inflight_then_refuses():
    gate = threading.Event()

    def gated_compile(toolchain, request):
        gate.wait(60)
        return toolchain.compile(request)

    payload = {"kernel": "fir_filter", "clusters": 2, "config": dict(LADDER)}
    with running_service(compile_fn=gated_compile) as (service, client, loop):
        receipt = client.compile(payload, wait=False)
        wait_until(lambda: service._running == 1, what="job dispatched")
        loop.call_soon_threadsafe(service.request_drain)
        wait_until(lambda: service._draining, what="drain flag")

        health = client.healthz()
        assert health["status"] == "draining"
        with pytest.raises(ServiceError) as refused:
            client.compile({"kernel": "daxpy", "clusters": 2})
        assert refused.value.status == 503

        # Not drained yet: the admitted job is still running.
        assert not service._drained.is_set()
        gate.set()
        wait_until(service._drained.is_set, what="drained event")
        finished = client.job(receipt["job"])
        assert finished["status"] == "done"
        assert client.metrics()["draining"] is True


# ----------------------------------------------------------------------
# Job status and error surfaces
# ----------------------------------------------------------------------


def test_job_status_carries_passes_and_ii_trajectory():
    gate = threading.Event()

    def gated_compile(toolchain, request):
        gate.wait(60)
        return toolchain.compile(request)

    payload = {"kernel": "dot_product", "clusters": 4, "config": dict(LADDER)}
    with running_service(compile_fn=gated_compile) as (service, client, _loop):
        receipt = client.compile(payload, wait=False)
        wait_until(lambda: client.job(receipt["job"])["status"] == "running",
                   what="job running")
        gate.set()
        wait_until(lambda: client.job(receipt["job"])["status"] == "done", what="job done")
        status = client.job(receipt["job"])
        hit = client.compile(payload)
        pipeline = service.toolchain.pass_names
    report = status["result"]["report"]
    # Every pass in the pipeline reports its time, and the II search's
    # trajectory ends at the II it settled on.
    assert sorted(report["timings_ms"]) == sorted(pipeline)
    assert all(ms >= 0 for ms in report["timings_ms"].values())
    assert report["ii_trajectory"], "the II trajectory must be non-empty"
    assert report["ii_trajectory"][-1] == report["ii"]
    assert status["result"]["fingerprint"] == hit["fingerprint"]
    assert "events" not in status


def test_http_error_surfaces():
    with running_service() as (service, client, _loop):
        # Unknown kernel -> 400 from payload validation.
        with pytest.raises(ServiceError) as bad_kernel:
            client.compile({"kernel": "not_a_kernel"})
        assert bad_kernel.value.status == 400
        # Invalid config values and unknown config fields -> 400; the
        # removed portfolio policy and its pool width are both rejected.
        for config, reason in (
            ({"search": "nope"}, "unknown search policy"),
            ({"search": "portfolio"}, "unknown search policy"),
            ({"search_workers": 2}, "unknown config fields: search_workers"),
        ):
            with pytest.raises(ServiceError) as bad_config:
                client.compile({"kernel": "daxpy", "config": config})
            assert bad_config.value.status == 400
            assert reason in str(bad_config.value)
        # Routing errors.
        assert client._roundtrip("GET", "/nope")[0] == 404
        assert client._roundtrip("POST", "/healthz")[0] == 405
        assert client._roundtrip("GET", "/jobs/abc")[0] == 400
        with pytest.raises(ServiceError) as missing:
            client.job(999999)
        assert missing.value.status == 404
        # ``/jobs/<id>`` is the only per-job route: a deeper path under a
        # live job is a fixed-length 404 document and the daemon serves on.
        job_id = client.compile({"kernel": "daxpy", "clusters": 2}, wait=False)["job"]
        assert isinstance(job_id, int)
        for path in (f"/jobs/{job_id}/events", f"/jobs/{job_id}/events?since=1"):
            status, headers, document = client._roundtrip("GET", path)
            assert status == 404
            assert "transfer-encoding" not in headers
            assert "no route" in document["error"]
            assert client.healthz()["status"] == "ok"
        # Empty payload (neither kernel nor loop) -> 400, daemon stays up.
        status, _, document = client._roundtrip("POST", "/compile", {})
        assert status == 400
        assert "kernel" in document["error"]
        assert client.healthz()["status"] == "ok"


# ----------------------------------------------------------------------
# Cache tiers (unit level)
# ----------------------------------------------------------------------


def _tiny_report():
    request = CompilationRequest(
        loop=make_kernel("daxpy"),
        machine=clustered_vliw(2),
        config=DEFAULT_CONFIG.with_(search="ladder"),
    )
    return Toolchain.default().compile(request), request


def test_memory_cache_lru_semantics():
    report, request = _tiny_report()
    stored = EncodedReport.encode(report)
    cache = MemoryCache(capacity=2)
    cache.put("a", stored)
    cache.put("b", stored)
    assert cache.get("a") is not None  # refresh 'a': now 'b' is oldest
    cache.put("c", stored)
    assert "b" not in cache
    assert "a" in cache and "c" in cache
    assert cache.evictions == 1
    assert cache.get("b") is None
    assert cache.stats.misses == 1
    # Entries are bytes: each caller unpickles its own report, so a
    # flag one caller sets never reaches another.
    hit = cache.get("a")
    first, second = hit.report, hit.report
    first.cache_hit = True
    assert second is not first and second.cache_hit is False
    with pytest.raises(CacheError):
        MemoryCache(capacity=0)


def test_tiered_cache_reports_answering_tier(tmp_path):
    report, request = _tiny_report()
    disk = CompilationCache(tmp_path / "cache")
    tiered = TieredCache(MemoryCache(capacity=4), disk)
    key = content_hash(request)
    assert tiered.get_tiered(key) == (None, None)
    tiered.put(key, report)
    _, tier = tiered.get_tiered(key)
    assert tier == "memory"
    # Cold memory tier (fresh daemon), warm disk: answered from disk,
    # then promoted so the second lookup is a memory hit.
    rebooted = TieredCache(MemoryCache(capacity=4), disk)
    _, tier = rebooted.get_tiered(key)
    assert tier == "disk"
    _, tier = rebooted.get_tiered(key)
    assert tier == "memory"
    counters = rebooted.counters()
    assert counters["lookups"] == 2
    assert counters["disk_hits"] == 1
    assert counters["memory_hits"] == 1
    assert counters["hit_ratio"] == pytest.approx(1.0)


def test_tiered_cache_works_without_disk():
    report, request = _tiny_report()
    tiered = TieredCache(MemoryCache(capacity=2), None)
    tiered.put("k", report)
    hit, tier = tiered.get_tiered("k")
    assert tier == "memory" and hit is not None
    assert tiered.counters()["disk_hits"] == 0


# ----------------------------------------------------------------------
# Parallel oracle
# ----------------------------------------------------------------------


def test_verify_many_parallel_matches_serial():
    reports = [
        Toolchain.default().compile(
            CompilationRequest(
                loop=make_kernel(name),
                machine=clustered_vliw(2),
                config=DEFAULT_CONFIG.with_(search="ladder"),
            )
        )
        for name in ("daxpy", "vector_add")
    ]
    jobs = [(report.compiled, 8) for report in reports]
    serial = verify_many(jobs, workers=1)
    parallel = verify_many(jobs, workers=2)
    assert all(r.ok for r in serial)
    assert [
        (r.oracle.loop_name, r.oracle.iterations, r.matched_stores, r.ok)
        for r in parallel
    ] == [
        (r.oracle.loop_name, r.oracle.iterations, r.matched_stores, r.ok)
        for r in serial
    ]
