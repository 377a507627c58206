"""Fault-tolerance tests for the compilation service.

Every scenario here provokes a failure through the deterministic
fault-injection plane (:mod:`repro.faults`) and asserts the service
recovers: worker crashes respawn the pool and retry the job, poison
jobs are quarantined instead of crash-looping, connection resets and
queue-full rejections are absorbed by the retrying client, corrupt
disk-cache entries are read-repaired, ``wait=false`` jobs interrupted
by a daemon crash are replayed from the journal, and ``wait=true``
compiles leave the journal untouched.
"""

import asyncio
import re
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro import faults
from repro.api import CompilationRequest, Toolchain, content_hash
from repro.api.cache import CompilationCache
from repro.config import DEFAULT_CONFIG
from repro.errors import ServiceError
from repro.faults import FaultPlan, FaultRule
from repro.machine.machine import clustered_vliw
from repro.service import RetryPolicy, ServiceClient
from repro.service.journal import JobJournal
from repro.workloads import make_kernel

from .test_service import LADDER, local_fingerprint, running_service, wait_until


@pytest.fixture(autouse=True)
def _clean_faults():
    faults.disarm()
    yield
    faults.disarm()


# ----------------------------------------------------------------------
# Worker-crash supervision
# ----------------------------------------------------------------------


def test_worker_crash_respawns_pool_and_retries_job():
    # Occurrence 1 of worker-crash dies; the retry (occurrence 2) runs
    # clean, so the client sees a normal result with no visible hiccup.
    faults.install(FaultPlan((FaultRule(point="worker-crash", times=(1,)),)))
    payload = {"kernel": "dot_product", "clusters": 2, "config": dict(LADDER)}
    with running_service() as (service, client, _loop):
        result = client.compile(payload)
        status = client.job(result["job"])
        metrics = client.metrics()
    assert result["status"] == "done"
    assert result["served_from"] == "compile"
    assert result["fingerprint"] == local_fingerprint(payload)
    assert status["crashes"] == 1  # the crash is visible in job history
    supervisor = metrics["supervisor"]
    assert supervisor["worker_crashes"] == 1
    assert supervisor["pool_respawns"] == 1
    assert supervisor["jobs_retried"] == 1
    assert supervisor["jobs_quarantined"] == 0
    assert metrics["draining"] is False  # the old behavior was drain
    assert metrics["faults"]["fired"] == {"worker-crash": 1}


def test_poison_job_is_quarantined_and_daemon_survives():
    # The same job kills a worker twice (occurrences 1 and 2): that
    # exhausts its crash budget and it must be quarantined, not retried
    # into a crash loop — and the daemon must stay up for other work.
    faults.install(FaultPlan((FaultRule(point="worker-crash", times=(1, 2)),)))
    poison = {"kernel": "fir_filter", "clusters": 2, "config": dict(LADDER)}
    benign = {"kernel": "daxpy", "clusters": 2, "config": dict(LADDER)}
    with running_service() as (service, client, _loop):
        with pytest.raises(ServiceError) as rejected:
            client.compile(poison)
        assert rejected.value.status == 500
        assert "quarantined as poison" in str(rejected.value)
        match = re.search(r"job (\d+) quarantined", str(rejected.value))
        assert match is not None
        status = client.job(int(match.group(1)))
        assert status["status"] == "quarantined"
        assert status["crashes"] == 2

        # Occurrence 3 is unarmed: the respawned pool serves new work.
        ok = client.compile(benign)
        metrics = client.metrics()
    assert ok["status"] == "done"
    assert ok["fingerprint"] == local_fingerprint(benign)
    supervisor = metrics["supervisor"]
    assert supervisor["worker_crashes"] == 2
    assert supervisor["pool_respawns"] == 2
    assert supervisor["jobs_retried"] == 1  # first crash still retried
    assert supervisor["jobs_quarantined"] == 1
    assert metrics["draining"] is False


def test_injected_executor_still_falls_back_to_drain():
    # An injected executor is not the daemon's to respawn: a worker
    # crash must fall back to the pre-supervisor behavior (drain), not
    # pretend it recovered.
    faults.install(FaultPlan((FaultRule(point="worker-crash", times=(1,)),)))
    payload = {"kernel": "daxpy", "clusters": 2, "config": dict(LADDER)}
    with running_service(
        executor=ThreadPoolExecutor(max_workers=1)
    ) as (service, client, _loop):
        with pytest.raises(ServiceError) as rejected:
            client.compile(payload)
        assert rejected.value.status == 503
        assert "not respawnable" in str(rejected.value)
        wait_until(lambda: service._draining, what="drain after pool break")
        metrics = service.metrics_snapshot()
    assert metrics["supervisor"]["pool_respawns"] == 0
    assert metrics["draining"] is True


# ----------------------------------------------------------------------
# Client-side fault absorption
# ----------------------------------------------------------------------


def test_client_retries_through_a_connection_reset():
    # The daemon aborts the first response mid-exchange (conn-reset
    # occurrence 1); the client's transport retry resubmits and the
    # idempotent content-hash keyed cache serves the same result.
    faults.install(FaultPlan((FaultRule(point="conn-reset", times=(1,)),)))
    payload = {"kernel": "dot_product", "clusters": 2, "config": dict(LADDER)}
    with running_service() as (service, client, _loop):
        result = client.compile(payload)
        assert client.retries["transport"] == 1
        metrics = client.metrics()
    assert result["status"] == "done"
    assert result["fingerprint"] == local_fingerprint(payload)
    assert metrics["faults"]["fired"] == {"conn-reset": 1}


def test_client_honors_retry_after_on_queue_full():
    gate = threading.Event()

    def gated_compile(toolchain, request):
        gate.wait(60)
        return toolchain.compile(request)

    def payload(kernel):
        return {"kernel": kernel, "clusters": 2, "config": dict(LADDER)}

    try:
        with running_service(
            executor=ThreadPoolExecutor(max_workers=1),
            compile_fn=gated_compile,
            max_queue_depth=1,
        ) as (service, client, _loop):
            # One running + one queued = the queue is full.
            client.compile(payload("daxpy"), wait=False)
            client.compile(payload("dot_product"), wait=False)
            # Open the gate shortly after the 429 lands, so the client's
            # Retry-After-paced resubmission finds room.
            threading.Timer(0.5, gate.set).start()
            retrying = ServiceClient(
                (client.host, client.port),
                policy=RetryPolicy(max_attempts=8, read_timeout=60.0),
            )
            with retrying:
                result = retrying.compile(payload("fir_filter"))
            assert retrying.retries["busy"] >= 1
        assert result["status"] == "done"
        assert result["fingerprint"] == local_fingerprint(payload("fir_filter"))
    finally:
        gate.set()


# ----------------------------------------------------------------------
# Disk-cache read-repair
# ----------------------------------------------------------------------


def test_corrupt_cache_entry_is_read_repaired(tmp_path):
    request = CompilationRequest(
        loop=make_kernel("dot_product"),
        machine=clustered_vliw(2),
        config=DEFAULT_CONFIG.with_(**LADDER),
    )
    toolchain = Toolchain.default()
    report = toolchain.compile(request)
    key = content_hash(request)
    cache = CompilationCache(tmp_path / "cache")
    cache.put(key, report)
    assert cache.get(key) is not None

    # Occurrence 1 garbles the entry on disk just before the read: the
    # lookup must miss, count the error, and DELETE the corrupt file so
    # the next lookup is a clean miss instead of the same failure.
    faults.install(
        FaultPlan((FaultRule(point="corrupt-cache-entry", times=(1,)),))
    )
    assert cache.get(key) is None
    assert cache.stats.errors == 1
    assert not cache.path_for(key).exists()

    # Degraded to recompilation: a re-put repopulates and reads hit again.
    assert cache.get(key) is None
    assert cache.stats.errors == 1  # clean miss, not another error
    cache.put(key, report)
    repaired = cache.get(key)
    assert repaired is not None and repaired.result.ii == report.result.ii


def test_corrupt_cache_entry_through_the_service(tmp_path):
    # End to end: a daemon whose disk tier is corrupted under it serves
    # the request anyway (recompile), and /metrics shows the repair.
    payload = {"kernel": "daxpy", "clusters": 2, "config": dict(LADDER)}
    cache_dir = tmp_path / "cache"
    with running_service(disk_cache=str(cache_dir)) as (service, client, _loop):
        first = client.compile(payload)
        assert first["served_from"] == "compile"
    faults.install(
        FaultPlan((FaultRule(point="corrupt-cache-entry", times=(1,)),))
    )
    # Fresh daemon, same disk tier: the LRU is cold so the read goes to
    # disk, finds the garbled entry, repairs, and recompiles.
    with running_service(disk_cache=str(cache_dir)) as (service, client, _loop):
        again = client.compile(payload)
        metrics = client.metrics()
    assert again["served_from"] == "compile"
    assert again["fingerprint"] == first["fingerprint"]
    assert metrics["cache"]["disk_errors"] == 1


# ----------------------------------------------------------------------
# Journal crash recovery
# ----------------------------------------------------------------------


RECOVERY_PAYLOADS = [
    {"kernel": "dot_product", "clusters": 2, "config": dict(LADDER)},
    {"kernel": "daxpy", "clusters": 2, "config": dict(LADDER)},
]


def test_crash_recovery_replays_interrupted_wait_false_jobs(tmp_path):
    journal_path = tmp_path / "journal.jsonl"
    cache_dir = tmp_path / "cache"
    stuck = threading.Event()

    def stuck_compile(toolchain, request):
        stuck.wait(30)  # never released while the first daemon lives
        return toolchain.compile(request)

    # Daemon #1: accept fire-and-forget jobs, then die with them running.
    try:
        with running_service(
            journal=str(journal_path),
            disk_cache=str(cache_dir),
            compile_fn=stuck_compile,
        ) as (service, client, _loop):
            receipts = [
                client.compile(dict(p), wait=False) for p in RECOVERY_PAYLOADS
            ]
            assert all(r["status"] == "queued" for r in receipts)
            # The 202 receipts are durable: both jobs are journaled.
            wait_until(lambda: service._running == 2, what="jobs dispatched")
        # Exiting the context hard-stops the daemon mid-compile: the
        # stuck jobs never reach a terminal journal state.
    finally:
        stuck.set()  # let the abandoned executor threads unwind

    with JobJournal(journal_path, fsync=False) as journal:
        _, stats = journal.replay()
    assert stats.live == 2  # both interrupted jobs survived on disk

    # Daemon #2: same journal, same disk cache, a working compile path.
    with running_service(
        journal=str(journal_path), disk_cache=str(cache_dir)
    ) as (service, client, _loop):
        metrics = client.metrics()
        assert metrics["journal"]["recovered_jobs"] == 2
        assert metrics["journal"]["replay"]["live"] == 2
        wait_until(
            lambda: client.metrics()["compiles"]["completed"] == 2,
            what="replayed jobs to finish",
        )
        # Every replayed job reached a terminal state and its result is
        # bit-identical to a local compile of the same payload.
        for payload in RECOVERY_PAYLOADS:
            served = client.compile(dict(payload))
            assert served["served_from"] in ("memory", "disk")
            assert served["fingerprint"] == local_fingerprint(payload)

    # After recovery + completion nothing in the journal is live.
    with JobJournal(journal_path, fsync=False) as journal:
        _, stats = journal.replay()
    assert stats.live == 0


def test_a_wait_false_waiter_on_a_wait_true_job_survives_a_crash(tmp_path):
    # A wait=true compile is not journaled: its client's connection dies
    # with the daemon.  A wait=false submission that coalesces onto it
    # gets a 202, so it must make the job durable before that receipt
    # goes out, and a restarted daemon must finish the compile.
    journal_path = tmp_path / "journal.jsonl"
    cache_dir = tmp_path / "cache"
    payload = RECOVERY_PAYLOADS[0]
    gate = threading.Event()

    def gated_compile(toolchain, request):
        gate.wait(30)  # never released while the first daemon lives
        return toolchain.compile(request)

    try:
        with running_service(
            journal=str(journal_path), disk_cache=str(cache_dir), compile_fn=gated_compile,
        ) as (service, client, loop):
            # The blocking submission (what a wait=true POST does first).
            job, _, _ = asyncio.run_coroutine_threadsafe(
                service.submit(dict(payload)), loop
            ).result(30)
            wait_until(lambda: service._running == 1, what="the compile to start")
            receipt = client.compile(dict(payload), wait=False)
            assert receipt == {"job": job.id, "status": "running", "coalesced": True}
    finally:
        gate.set()  # let the abandoned executor thread unwind

    with running_service(
        journal=str(journal_path), disk_cache=str(cache_dir)
    ) as (service, client, _loop):
        assert client.metrics()["journal"]["recovered_jobs"] == 1
        wait_until(lambda: client.metrics()["compiles"]["completed"] == 1,
                   what="the replayed compile to finish")
        served = client.compile(dict(payload))
    assert served["served_from"] in ("memory", "disk")
    assert served["fingerprint"] == local_fingerprint(payload)


@pytest.mark.parametrize("crashes", [0, 1, 2])
def test_a_wait_true_compile_appends_nothing(tmp_path, crashes):
    # A plain miss, a pool crash (requeue) and a second one (quarantine)
    # on a wait=true entry leave the journal untouched.
    if crashes:
        faults.install(FaultPlan((FaultRule(point="worker-crash",
                                            times=tuple(range(1, crashes + 1))),)))
    journal_path = tmp_path / "journal.jsonl"
    with running_service(journal=str(journal_path)) as (service, client, _loop):
        try:
            client.compile(dict(RECOVERY_PAYLOADS[0]))
        except ServiceError as err:
            assert crashes == 2 and "quarantined as poison" in str(err)
        metrics = client.metrics()
    assert metrics["supervisor"]["worker_crashes"] == crashes
    assert metrics["journal"]["appends"] == 0
    assert journal_path.read_bytes() == b""


def test_a_pool_result_for_a_shared_sweep_entry_is_journaled(tmp_path):
    # A wait=true compile attaches to the entry of an open sweep and the
    # pool finishes it: the sweep is durable, so its entry's outcome is
    # journaled, and replay shows the sweep done.
    journal_path = tmp_path / "journal.jsonl"
    payload = RECOVERY_PAYLOADS[0]
    with running_service(journal=str(journal_path)) as (service, client, _loop):
        sweep_id = client.submit_sweep({"jobs": [dict(payload)], "lease": 30.0})["sweep"]
        result = client.compile(dict(payload))
        status = client.sweep(sweep_id)
        appends = client.metrics()["journal"]["appends"]
    assert result["served_from"] == "compile"
    assert status["state"] == "done" and status["done"] == 1
    assert appends == 2  # the sweep's submitted + the pool's finished
    with JobJournal(journal_path, fsync=False) as journal:
        state, _ = journal.replay()
    sweep = state.groups[f"sweep:{sweep_id}"]
    assert sweep.terminal and set(sweep.keys) <= state.done
    assert [key for key in state.groups if not key.startswith("sweep:")] == []


def test_recovered_job_served_from_cache_is_not_recompiled(tmp_path):
    # The compile finished (it is in the disk cache) but the daemon died
    # before journaling its completion: replay must notice the cache hit
    # and retire the journal entry without re-running the job.
    payload = {"kernel": "fir_filter", "clusters": 2, "config": dict(LADDER)}
    journal_path = tmp_path / "journal.jsonl"
    cache_dir = tmp_path / "cache"
    with running_service(disk_cache=str(cache_dir)) as (service, client, _loop):
        done = client.compile(dict(payload))
        key = done["cache_key"]
    with JobJournal(journal_path, fsync=False) as journal:
        journal.append("submitted", key, payload=dict(payload, wait=False))
    with running_service(
        journal=str(journal_path), disk_cache=str(cache_dir)
    ) as (service, client, _loop):
        metrics = client.metrics()
    assert metrics["journal"]["recovered_jobs"] == 0
    assert metrics["compiles"]["started"] == 0  # no recompile
    with JobJournal(journal_path, fsync=False) as journal:
        _, stats = journal.replay()
    assert stats.live == 0


@pytest.mark.parametrize("version, event", [(1, "started"), (2, "submitted")])
def test_daemon_refuses_a_version_1_journal_at_startup(tmp_path, version, event):
    # A journal of an older schema is refused at start-up with an error
    # naming its version; the daemon never half-reads version 1's job
    # and sweep record families or version 2's wait=true records.
    import json

    from repro.errors import JournalError
    from repro.service.journal import _checksum

    record = {"v": version, "seq": 1, "event": event, "key": "k1", "wait": True,
              "payload": {"kernel": "daxpy", "clusters": 2}}
    record["sum"] = _checksum(record)
    journal_path = tmp_path / "journal.jsonl"
    journal_path.write_text(json.dumps(record, sort_keys=True) + "\n")
    with pytest.raises(JournalError, match=f"version {version}"):
        with running_service(journal=str(journal_path)):
            pass
