"""Distributed sweep execution: self-scheduling chunks under leases.

Three layers of coverage:

* pure units — the worker-side :func:`chunk_size` math and the sweep
  spec enumeration (idempotent ids, validation);
* coordinator semantics against an in-process daemon (the
  ``running_service`` idiom from ``test_service.py``): claim/heartbeat/
  complete, lease expiry requeue, poison quarantine, duplicate and
  orphan completions resolving idempotently, journal replay of an open
  sweep across a coordinator restart, the ``/metrics`` sweep section,
  and the :class:`~repro.service.worker.SweepWorker` pull loop with the
  ``worker-vanish``/``slow-worker`` fault points;
* a real-process e2e (``test_distributed_sweep_survives_kills``):
  coordinator + two ``repro worker`` subprocesses, one worker SIGKILLed
  mid-sweep *and* the coordinator SIGKILL-and-restarted mid-sweep — the
  sweep must finish with results bit-identical to a local run.

Satellites covered here too: the client's resumable event stream
(``since=`` offsets under ``conn-reset``) and the retry policy's
``total_deadline`` conversion to :class:`ServiceUnavailable`.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro import faults
from repro.api import CompilationRequest, Toolchain, content_hash
from repro.config import DEFAULT_CONFIG
from repro.errors import ServiceError, ServiceUnavailable
from repro.machine.machine import clustered_vliw
from repro.scheduling.fingerprint import schedule_fingerprint
from repro.service import RetryPolicy, ServiceClient
from repro.service.jobs import parse_compile_payload
from repro.service.sweep import (
    DEFAULT_LEASE_SECONDS,
    MAX_SWEEP_JOBS,
    chunk_size,
    encode_report,
    enumerate_sweep,
)
from repro.service.worker import SweepWorker
from repro.workloads import make_kernel

from .test_service import jsonable, running_service, wait_until

LADDER = {"search": "ladder"}

SPEC = {
    "kernels": ["fir_filter", "iir_biquad"],
    "clusters": [2, 4],
    "topologies": ["ring"],
    "config": LADDER,
}


@pytest.fixture(autouse=True)
def _clean_faults():
    faults.disarm()
    yield
    faults.disarm()


def worker_for(client, **kwargs):
    kwargs.setdefault("idle_exit", 2.0)
    kwargs.setdefault("poll_interval", 0.05)
    return SweepWorker(f"{client.host}:{client.port}", **kwargs)


def local_reports(spec):
    """The same job space compiled through a local toolchain."""
    toolchain = Toolchain.default()
    plan = enumerate_sweep(spec, toolchain)
    reports = []
    for payload in plan.payloads:
        parsed = parse_compile_payload(payload)
        reports.append(toolchain.compile(parsed.request))
    return plan, reports


# ----------------------------------------------------------------------
# chunk_size: the worker-side self-scheduling math
# ----------------------------------------------------------------------


def test_chunk_size_decreases_with_remaining():
    sizes = [chunk_size(remaining, workers=2) for remaining in (256, 64, 16, 4, 1)]
    assert sizes == sorted(sizes, reverse=True)
    assert sizes[-1] == 1


def test_chunk_size_bounds():
    assert chunk_size(0, 4) == 0
    assert chunk_size(-3, 4) == 0
    assert chunk_size(10_000, 1, max_chunk=32) == 32
    assert chunk_size(3, 100) == 1  # one entry is the floor
    assert chunk_size(5, 2, max_chunk=100) == 2  # share bounded by remaining


def test_chunk_size_scales_inversely_with_workers():
    assert chunk_size(100, 1, max_chunk=1000) > chunk_size(
        100, 10, max_chunk=1000
    )


# ----------------------------------------------------------------------
# Spec enumeration
# ----------------------------------------------------------------------


def test_enumerate_cross_product_and_idempotent_id():
    toolchain = Toolchain.default()
    plan = enumerate_sweep(SPEC, toolchain)
    assert len(plan.payloads) == 4  # 2 kernels x 2 cluster counts x 1 topo
    assert plan.id.startswith("sw-")
    assert plan.lease_seconds == DEFAULT_LEASE_SECONDS
    # Comma-string forms normalize to the same id (idempotent re-POST).
    same = enumerate_sweep(
        dict(SPEC, kernels="fir_filter,iir_biquad", topologies="ring"),
        toolchain,
    )
    assert same.id == plan.id
    different = enumerate_sweep(dict(SPEC, clusters=[2, 8]), toolchain)
    assert different.id != plan.id
    # Keys are the batch-cache content hashes of the enumerated jobs.
    parsed = parse_compile_payload(plan.payloads[0])
    assert plan.keys[0] == content_hash(
        parsed.request, pipeline=toolchain.pass_names
    )


def test_enumerate_rejects_bad_specs():
    toolchain = Toolchain.default()
    for bad in (
        [],  # not an object
        {},  # neither jobs nor kernels
        {"jobs": "nope"},
        {"jobs": []},
        {"kernels": ["fir_filter"], "lease": 0},
        {"kernels": ["fir_filter"], "lease": "soon"},
        {"kernels": ["fir_filter"], "max_requeues": -1},
        {"kernels": ["no_such_kernel"]},
    ):
        with pytest.raises(ServiceError):
            enumerate_sweep(bad, toolchain)
    too_many = {"jobs": [{"kernel": "daxpy"}] * (MAX_SWEEP_JOBS + 1)}
    with pytest.raises(ServiceError):
        enumerate_sweep(too_many, toolchain)


# ----------------------------------------------------------------------
# Coordinator semantics (in-process daemon)
# ----------------------------------------------------------------------


def test_sweep_submit_claim_complete_happy_path():
    with running_service() as (service, client, _loop):
        status = client.submit_sweep(SPEC)
        sweep_id = status["sweep"]
        assert status["state"] == "open" and status["total"] == 4
        assert client.submit_sweep(SPEC)["sweep"] == sweep_id  # idempotent

        stats = worker_for(client, name="wA").run()
        assert stats["jobs"] == 4 and stats["errors"] == 0

        final = client.sweep(sweep_id, jobs=True)
        assert final["state"] == "done"
        assert final["done"] == 4 and final["failed"] == 0
        # Per-job results carry the recomputed schedule fingerprints,
        # identical to a local toolchain run of the same payloads.
        _, reports = local_reports(SPEC)
        by_index = {job["index"]: job for job in final["jobs"]}
        for index, report in enumerate(reports):
            assert by_index[index]["fingerprint"] == jsonable(
                schedule_fingerprint(report.result)
            )


def test_sweep_heartbeat_extends_and_reports_lost_leases():
    with running_service() as (service, client, _loop):
        sweep_id = client.submit_sweep(dict(SPEC, lease=30.0))["sweep"]
        grant = client.sweep_claim(sweep_id, "wA", 2)
        beat = client.sweep_heartbeat(sweep_id, "wA", grant["chunk"])
        assert beat["ok"] is True
        # Wrong worker or unknown chunk: the lease is not held.
        assert (
            client.sweep_heartbeat(sweep_id, "wB", grant["chunk"])["ok"]
            is False
        )
        assert client.sweep_heartbeat(sweep_id, "wA", "c999")["ok"] is False


def test_partial_completion_requeues_the_unreported_jobs():
    with running_service() as (service, client, _loop):
        sweep_id = client.submit_sweep(SPEC)["sweep"]
        grant = client.sweep_claim(sweep_id, "wA", 4)
        assert len(grant["jobs"]) == 4
        job = grant["jobs"][0]
        report = Toolchain.default().compile(
            parse_compile_payload(job["payload"]).request
        )
        ack = client.sweep_complete(
            sweep_id,
            "wA",
            grant["chunk"],
            [{"index": job["index"], "key": job["key"],
              "report": encode_report(report)}],
        )
        assert ack["accepted"] == 1
        # The three granted-but-unreported jobs went back to pending.
        assert ack["remaining"] == 3
        status = client.sweep(sweep_id)
        assert status["done"] == 1 and status["pending"] == 3


def test_error_results_fail_jobs_without_failing_the_sweep():
    with running_service() as (service, client, _loop):
        sweep_id = client.submit_sweep(SPEC)["sweep"]
        grant = client.sweep_claim(sweep_id, "wA", 4)
        results = []
        for job in grant["jobs"]:
            if job["index"] == 0:
                results.append(
                    {"index": 0, "key": job["key"], "error": "II overflow"}
                )
            else:
                report = Toolchain.default().compile(
                    parse_compile_payload(job["payload"]).request
                )
                results.append(
                    {"index": job["index"], "key": job["key"],
                     "report": encode_report(report)}
                )
        client.sweep_complete(sweep_id, "wA", grant["chunk"], results)
        final = client.sweep(sweep_id, jobs=True)
        # Deterministic per-job failures do not block sweep completion.
        assert final["state"] == "done"
        assert final["done"] == 3 and final["failed"] == 1
        failed = [j for j in final["jobs"] if j["state"] == "failed"]
        assert failed[0]["index"] == 0 and "II overflow" in failed[0]["error"]


def test_duplicate_and_orphan_completions_resolve_idempotently():
    with running_service() as (service, client, _loop):
        sweep_id = client.submit_sweep(
            {"jobs": [{"kernel": "daxpy", "clusters": 2, "config": LADDER}]}
        )["sweep"]
        grant = client.sweep_claim(sweep_id, "wA", 1)
        job = grant["jobs"][0]
        report = Toolchain.default().compile(
            parse_compile_payload(job["payload"]).request
        )
        entry = {"index": job["index"], "key": job["key"],
                 "report": encode_report(report)}
        first = client.sweep_complete(sweep_id, "wA", grant["chunk"], [entry])
        assert first["accepted"] == 1 and first["orphan"] is False
        # A second completion for the same (now forgotten) chunk — the
        # lease-steal aftermath — is an orphan full of duplicates.
        second = client.sweep_complete(sweep_id, "wB", grant["chunk"], [entry])
        assert second["accepted"] == 0
        assert second["duplicates"] == 1 and second["orphan"] is True
        assert client.sweep(sweep_id)["done"] == 1
        counters = client.metrics()["sweep"]["completions"]
        assert counters["duplicate"] == 1 and counters["orphan"] == 1


def test_invalid_results_are_rejected_and_counted():
    with running_service() as (service, client, _loop):
        sweep_id = client.submit_sweep(SPEC)["sweep"]
        grant = client.sweep_claim(sweep_id, "wA", 1)
        job = grant["jobs"][0]
        ack = client.sweep_complete(
            sweep_id,
            "wA",
            grant["chunk"],
            [
                {"index": job["index"], "key": job["key"],
                 "report": "bm90IGEgcGlja2xl"},  # undecodable blob
                {"index": 999, "key": "whatever", "error": "out of range"},
            ],
        )
        assert ack["accepted"] == 0 and ack["invalid"] == 2
        # The job whose result was garbage went straight back to pending.
        assert client.sweep(sweep_id)["pending"] == 4


def test_report_for_another_request_is_invalid_and_requeued():
    # A worker ships daxpy's report under fir_filter's index and key: the
    # coordinator must recompute the report's content hash, refuse it,
    # and put the job back — never cache daxpy's schedule under
    # fir_filter's key.
    fir = {"kernel": "fir_filter", "clusters": 2, "config": LADDER}
    daxpy = {"kernel": "daxpy", "clusters": 2, "config": LADDER}
    with running_service() as (service, client, _loop):
        sweep_id = client.submit_sweep({"jobs": [fir]})["sweep"]
        grant = client.sweep_claim(sweep_id, "wA", 1)
        job = grant["jobs"][0]
        wrong = Toolchain.default().compile(parse_compile_payload(daxpy).request)
        ack = client.sweep_complete(
            sweep_id, "wA", grant["chunk"],
            [{"index": job["index"], "key": job["key"],
              "report": encode_report(wrong)}],
        )
        assert ack["accepted"] == 0 and ack["invalid"] == 1
        status = client.sweep(sweep_id, jobs=True)
        assert status["pending"] == 1
        assert status["jobs"][0]["requeues"] == 1
        served = client.compile(fir)
    assert served["served_from"] == "compile"
    assert served["fingerprint"] == jsonable(schedule_fingerprint(
        Toolchain.default().compile(parse_compile_payload(fir).request).result
    ))


def test_lease_expiry_requeues_and_eventually_quarantines():
    with running_service() as (service, client, _loop):
        sweep_id = client.submit_sweep(
            {
                "jobs": [{"kernel": "daxpy", "clusters": 2, "config": LADDER}],
                "lease": 0.2,
                "max_requeues": 1,
            }
        )["sweep"]
        # Claim and never heartbeat: expiry 1 requeues...
        assert client.sweep_claim(sweep_id, "ghost", 1)["chunk"]
        wait_until(
            lambda: client.sweep(sweep_id)["pending"] == 1,
            what="first lease expiry requeue",
        )
        # ...and expiry 2 exceeds max_requeues: poison quarantine, and
        # with every job terminal the sweep closes out as failed.
        assert client.sweep_claim(sweep_id, "ghost", 1)["chunk"]
        wait_until(
            lambda: client.sweep(sweep_id)["state"] == "failed",
            what="quarantine closing the sweep",
        )
        final = client.sweep(sweep_id, jobs=True)
        assert "quarantined" in final["jobs"][0]["error"]
        chunks = client.metrics()["sweep"]["chunks"]
        assert chunks["lease_expiries"] == 2 and chunks["requeued"] == 2


@pytest.mark.parametrize("loss", ["expiry", "partial"])
def test_compile_on_a_lost_sweep_lease_runs_on_the_pool(loss):
    # A /compile attaches to an entry a sweep worker holds; when that
    # worker's lease is lost, the pool must pick the entry up at once.
    job = {"kernel": "daxpy", "clusters": 2, "config": LADDER}
    with running_service() as (service, client, _loop):
        sweep_id = client.submit_sweep({"jobs": [job], "lease": 0.3})["sweep"]
        grant = client.sweep_claim(sweep_id, "wA", 1)
        receipt = client.compile(job, wait=False)
        assert client.metrics()["dedup"]["coalesced"] == 0  # a new job, not a waiter
        if loss == "partial":
            client.sweep_complete(sweep_id, "wA", grant["chunk"], [])
        wait_until(lambda: client.job(receipt["job"])["status"] == "done",
                   what="the pool compiling the requeued entry")
        result = client.job(receipt["job"])["result"]
        assert client.sweep(sweep_id)["state"] == "done"
    assert result["served_from"] == "compile"
    assert result["fingerprint"] == jsonable(schedule_fingerprint(
        Toolchain.default().compile(parse_compile_payload(job).request).result
    ))


def test_drain_waits_for_a_compile_leased_to_a_sweep_worker():
    job = {"kernel": "daxpy", "clusters": 2, "config": LADDER}
    with running_service() as (service, client, loop):
        sweep_id = client.submit_sweep({"jobs": [job], "lease": 1.0})["sweep"]
        assert client.sweep_claim(sweep_id, "wA", 1)["chunk"]
        receipt = client.compile(job, wait=False)
        loop.call_soon_threadsafe(service.request_drain)
        wait_until(lambda: client.healthz()["status"] == "draining", what="drain")
        time.sleep(0.3)
        assert not service._drained.is_set()  # the lease is still held
        wait_until(service._drained.is_set, what="drain after the lease expired")
        assert client.job(receipt["job"])["status"] == "done"


def test_metrics_sweep_section_shape():
    with running_service() as (service, client, _loop):
        assert client.metrics()["sweep"] is None  # no sweeps yet
        sweep_id = client.submit_sweep(SPEC)["sweep"]
        client.sweep_claim(sweep_id, "wA", 2)
        section = client.metrics()["sweep"]
        assert section["sweeps"] == {"open": 1, "done": 0, "failed": 0}
        assert section["jobs"]["leased"] == 2
        assert section["chunks"]["outstanding"] == 1
        worker = section["workers"]["wA"]
        assert worker["claims"] == 1
        assert worker["heartbeat_age_seconds"] >= 0


def test_sweep_rejected_while_draining():
    with running_service() as (service, client, loop):
        loop.call_soon_threadsafe(service.request_drain)
        wait_until(
            lambda: client.healthz()["status"] == "draining", what="drain"
        )
        with pytest.raises(ServiceError):
            client.submit_sweep(SPEC)


def test_coordinator_restart_replays_open_sweep(tmp_path):
    journal = tmp_path / "journal.jsonl"
    cache = tmp_path / "cache"
    spec = dict(SPEC, lease=5.0)
    with running_service(journal=str(journal), disk_cache=str(cache)) as (
        service, client, _loop,
    ):
        sweep_id = client.submit_sweep(spec)["sweep"]
        grant = client.sweep_claim(sweep_id, "wA", 1)
        job = grant["jobs"][0]
        report = Toolchain.default().compile(
            parse_compile_payload(job["payload"]).request
        )
        client.sweep_complete(
            sweep_id, "wA", grant["chunk"],
            [{"index": job["index"], "key": job["key"],
              "report": encode_report(report)}],
        )
    # "Crash": the context manager closed the daemon with the sweep
    # open.  A new daemon on the same journal + cache must bring the
    # sweep back: the completed job prefilled from the durable cache,
    # the rest re-advertised.
    with running_service(journal=str(journal), disk_cache=str(cache)) as (
        service, client, _loop,
    ):
        status = client.sweep(sweep_id)
        assert status["recovered"] is True and status["state"] == "open"
        assert status["done"] == 1 and status["remaining"] == 3
        assert client.metrics()["sweep"]["recovered_sweeps"] == 1
        stats = worker_for(client, name="wB").run()
        assert stats["jobs"] == 3
        assert client.sweep(sweep_id)["state"] == "done"
    # Third daemon: the terminal sweep compacts away, nothing reopens.
    with running_service(journal=str(journal), disk_cache=str(cache)) as (
        service, client, _loop,
    ):
        assert client.sweeps()["sweeps"] == []


# ----------------------------------------------------------------------
# The pull worker (fault points included)
# ----------------------------------------------------------------------


def test_worker_vanish_fault_then_honest_worker_finishes():
    with running_service() as (service, client, _loop):
        sweep_id = client.submit_sweep(dict(SPEC, lease=0.3))["sweep"]
        faults.install(faults.FaultPlan.from_spec("worker-vanish:times=1"))
        ghost = worker_for(client, name="ghost", idle_exit=5.0).run()
        faults.disarm()
        # The ghost claimed one chunk and disappeared without a single
        # heartbeat or completion.
        assert ghost["vanished"] == 1 and ghost["jobs"] == 0
        wait_until(
            lambda: client.metrics()["sweep"]["chunks"]["lease_expiries"] >= 1,
            what="ghost lease expiry",
        )
        honest = worker_for(client, name="honest").run()
        assert honest["jobs"] == 4
        assert client.sweep(sweep_id)["state"] == "done"


def test_slow_worker_fault_keeps_lease_alive_via_heartbeats():
    with running_service() as (service, client, _loop):
        sweep_id = client.submit_sweep(
            {
                "jobs": [{"kernel": "daxpy", "clusters": 2, "config": LADDER}],
                "lease": 0.5,
            }
        )["sweep"]
        # Straggler: 0.9s of sleep per job, nearly 2x the lease — only
        # the heartbeat thread keeps the chunk from being stolen.
        faults.install(
            faults.FaultPlan.from_spec("slow-worker:times=1:delay=0.9")
        )
        stats = worker_for(client, name="slow", idle_exit=3.0).run()
        assert stats["jobs"] == 1 and stats["lease_lost"] == 0
        final = client.sweep(sweep_id)
        assert final["state"] == "done"
        assert client.metrics()["sweep"]["chunks"]["lease_expiries"] == 0


def test_worker_uses_local_cache_before_compiling(tmp_path):
    cache = tmp_path / "cache"
    with running_service(disk_cache=str(cache)) as (service, client, _loop):
        sweep_id = client.submit_sweep(SPEC)["sweep"]
        first = worker_for(client, name="wA", cache=str(cache)).run()
        assert first["compiled"] == 4
    # Same sweep against a fresh daemon sharing the cache directory: the
    # planner prefills every job from disk and no worker runs at all.
    with running_service(disk_cache=str(cache)) as (service, client, _loop):
        status = client.submit_sweep(SPEC)
        assert status["state"] == "done" and status["done"] == 4
        assert (
            client.metrics()["sweep"]["completions"]["cache_prefills"] == 4
        )


def test_batch_compiler_coordinator_merge_path(tmp_path):
    from repro.api.batch import BatchCompiler

    requests = [
        CompilationRequest(
            loop=make_kernel("fir_filter"),
            machine=clustered_vliw(k, topology="ring"),
            config=DEFAULT_CONFIG.with_(search="ladder"),
        )
        for k in (2, 4)
    ]
    local = [Toolchain.default().compile(request) for request in requests]
    with running_service() as (service, client, _loop):
        address = f"{client.host}:{client.port}"
        compiler = BatchCompiler(
            cache=str(tmp_path / "cache"), coordinator=address
        )
        worker = worker_for(client, name="wA")
        import threading

        thread = threading.Thread(target=worker.run, daemon=True)
        thread.start()
        reports = compiler.compile_many(requests)
        thread.join(timeout=30)
    assert [r.result.ii for r in reports] == [r.result.ii for r in local]
    for remote, reference in zip(reports, local):
        assert schedule_fingerprint(remote.result) == schedule_fingerprint(
            reference.result
        )
    # The merge path also populated the local cache: a second batch run
    # without any coordinator is served entirely from disk.
    again = BatchCompiler(cache=str(tmp_path / "cache")).compile_many(requests)
    assert all(r.cache_hit for r in again)


# ----------------------------------------------------------------------
# Satellites: resumable event stream, bounded retry deadline
# ----------------------------------------------------------------------


def test_event_stream_resumes_after_conn_reset():
    with running_service() as (service, client, _loop):
        receipt = client.compile(
            {"kernel": "fir_filter", "clusters": 2, "config": LADDER},
            wait=False,
        )
        job_id = receipt["job"]
        wait_until(
            lambda: client.job(job_id)["status"] == "done", what="job done"
        )
        baseline = list(client.events(job_id))
        assert baseline[-1]["event"] == "done"
        # Sever the stream on its 1st and 2nd delivery attempts: the
        # iterator must reconnect with since=<consumed> and still yield
        # every event exactly once.
        faults.install(faults.FaultPlan.from_spec("conn-reset:times=1+2"))
        resumed = list(client.events(job_id))
        faults.disarm()
        assert resumed == baseline
        assert client.retries["transport"] >= 1


def test_event_stream_since_offset():
    with running_service() as (service, client, _loop):
        receipt = client.compile(
            {"kernel": "daxpy", "clusters": 2, "config": LADDER}, wait=False
        )
        job_id = receipt["job"]
        wait_until(
            lambda: client.job(job_id)["status"] == "done", what="job done"
        )
        baseline = list(client.events(job_id))
        assert list(client.events(job_id, since=2)) == baseline[2:]
        assert list(client.events(job_id, since=len(baseline))) == []


def test_total_deadline_converts_to_service_unavailable():
    # Nothing listens on port 1: every attempt is connection-refused,
    # and the tight deadline trips before the backoff sleep.
    client = ServiceClient(
        "127.0.0.1:1",
        policy=RetryPolicy(
            max_attempts=50,
            connect_timeout=0.2,
            backoff_base=0.5,
            jitter=0.0,
            total_deadline=0.4,
        ),
    )
    started = time.monotonic()
    with pytest.raises(ServiceUnavailable):
        client.healthz()
    assert time.monotonic() - started < 5.0


def test_total_deadline_none_keeps_old_unbounded_behavior():
    client = ServiceClient(
        "127.0.0.1:1",
        policy=RetryPolicy(
            max_attempts=2,
            connect_timeout=0.2,
            backoff_base=0.01,
            total_deadline=None,
        ),
    )
    from repro.service import TransportError

    with pytest.raises(TransportError):
        client.healthz()


# ----------------------------------------------------------------------
# The acceptance e2e: real processes, real SIGKILLs
# ----------------------------------------------------------------------

E2E_SPEC = {
    "kernels": ["fir_filter", "daxpy", "vector_add", "dot_product"],
    "clusters": [2, 4],
    "topologies": ["ring"],
    "config": LADDER,
    "lease": 1.5,
    "max_requeues": 5,
}


def _spawn(args, **kwargs):
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    kwargs.setdefault("stdout", subprocess.DEVNULL)
    kwargs.setdefault("stderr", subprocess.DEVNULL)
    return subprocess.Popen(
        [sys.executable, "-m", "repro.cli", *args], env=env, **kwargs
    )


def _start_coordinator(tmp_path, port=0):
    port_file = tmp_path / "port"
    if port_file.exists():
        port_file.unlink()
    proc = _spawn(
        [
            "serve",
            "--port", str(port),
            "--workers", "0",
            "--journal", str(tmp_path / "journal.jsonl"),
            "--cache", str(tmp_path / "coordinator-cache"),
            "--port-file", str(port_file),
        ]
    )
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        if port_file.exists() and port_file.read_text().strip():
            return proc, port_file.read_text().strip()
        if proc.poll() is not None:
            raise AssertionError(
                f"coordinator exited early with {proc.returncode}"
            )
        time.sleep(0.05)
    proc.kill()
    raise AssertionError("coordinator never wrote its port file")


def _start_worker(address, name, fault=None):
    args = [
        "worker",
        "--coordinator", address,
        "--name", name,
        "--poll", "0.1",
        "--idle-exit", "30",
        "--max-chunk", "2",
    ]
    if fault:
        args += ["--faults", fault]
    return _spawn(args)


def test_distributed_sweep_survives_kills(tmp_path):
    """SIGKILL a worker mid-sweep AND SIGKILL-restart the coordinator.

    The sweep must still complete, and its merged per-job fingerprints
    must be bit-identical to a local single-host compile of the same
    job space.
    """
    procs = []
    try:
        coordinator, address = _start_coordinator(tmp_path)
        procs.append(coordinator)
        with ServiceClient(address, timeout=30) as client:
            sweep_id = client.submit_sweep(E2E_SPEC)["sweep"]

        # Two workers; the slow-worker fault stretches their per-job
        # time so the kill windows below are guaranteed to land
        # mid-sweep on any machine.
        victim = _start_worker(
            address, "victim", fault="slow-worker:every=1:delay=0.4"
        )
        survivor = _start_worker(
            address, "survivor", fault="slow-worker:every=1:delay=0.4"
        )
        procs += [victim, survivor]

        # Wait until the victim holds work, then SIGKILL it mid-chunk.
        def victim_engaged():
            with ServiceClient(address, timeout=30) as client:
                section = client.metrics()["sweep"]
                return (
                    section is not None
                    and section["workers"].get("victim", {}).get("claims", 0)
                    > 0
                )

        deadline = time.monotonic() + 60
        while time.monotonic() < deadline and not victim_engaged():
            time.sleep(0.1)
        assert victim_engaged(), "victim never claimed a chunk"
        os.kill(victim.pid, signal.SIGKILL)
        victim.wait(timeout=30)

        # Now SIGKILL the coordinator mid-sweep and restart it on the
        # same journal + cache.  The surviving worker rides out the
        # outage (coordinator_unreachable polls) and finishes the sweep
        # against the replayed ledger.
        os.kill(coordinator.pid, signal.SIGKILL)
        coordinator.wait(timeout=30)
        # The surviving worker keeps polling the old address, so the
        # restart must rebind the same port (explicitly this time —
        # the first launch used an ephemeral one).
        port = int(address.rsplit(":", 1)[1])
        coordinator, address2 = _start_coordinator(tmp_path, port=port)
        procs.append(coordinator)
        assert address2 == address, "coordinator must rebind the same port"

        with ServiceClient(address, timeout=30) as client:
            deadline = time.monotonic() + 180
            while time.monotonic() < deadline:
                status = client.sweep(sweep_id)
                if status["state"] != "open":
                    break
                time.sleep(0.25)
            assert status["state"] == "done", status
            assert status.get("recovered") is True
            final = client.sweep(sweep_id, jobs=True)
            section = client.metrics()["sweep"]

        # Bit-identity: every job's fingerprint equals the local one.
        _, reports = local_reports(E2E_SPEC)
        by_index = {job["index"]: job for job in final["jobs"]}
        for index, report in enumerate(reports):
            assert by_index[index]["fingerprint"] == jsonable(
                schedule_fingerprint(report.result)
            ), f"fingerprint mismatch on job {index}"
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)
