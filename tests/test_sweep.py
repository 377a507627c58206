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
* the worker's pipelined loop (the next claim before the last chunk's
  completion, one completion in flight, a held completion shipped on
  every way out) from recorded call logs, and malformed coordinator
  replies from a stub client;
* a real-process e2e (``test_distributed_sweep_survives_kills``):
  coordinator + two ``repro worker`` subprocesses, one worker SIGKILLed
  mid-sweep *and* the coordinator SIGKILL-and-restarted mid-sweep — the
  sweep must finish with results bit-identical to a local run.

Also covered here: the retry policy's ``total_deadline`` conversion to
:class:`ServiceUnavailable`.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro import faults
from repro.api import CompilationRequest, Toolchain, content_hash
from repro.config import DEFAULT_CONFIG
from repro.errors import ServiceError, ServiceUnavailable
from repro.machine.machine import clustered_vliw
from repro.scheduling.fingerprint import schedule_fingerprint
from repro.service import RetryPolicy, ServiceClient, TransportError
from repro.service import worker as worker_module
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


def test_a_local_hit_ships_the_stored_blob_without_unpickling(tmp_path, monkeypatch):
    import base64
    import pickle

    from repro.api.cache import CompilationCache

    payload = {"kernel": "daxpy", "clusters": 2}
    cache = CompilationCache(tmp_path / "cache")
    stored = cache.put("k", Toolchain.default().compile(parse_compile_payload(payload).request))
    worker = SweepWorker("127.0.0.1:9", cache=cache)

    def no_pickling(*args, **kwargs):
        raise AssertionError("a local hit must not unpickle or re-pickle")

    monkeypatch.setattr(pickle, "loads", no_pickling)
    monkeypatch.setattr(pickle, "dumps", no_pickling)
    row = worker._run_job({"index": 3, "key": "k", "payload": payload})
    monkeypatch.undo()
    assert base64.b64decode(row["report"]) == stored.blob == cache.get_encoded("k").blob
    assert (row["index"], row["key"]) == (3, "k")
    assert (worker.stats["cache_hits"], worker.stats["compiled"]) == (1, 0)


# ----------------------------------------------------------------------
# The pipelined loop: claim N+1, ship N in the background, compute N+1
# ----------------------------------------------------------------------

#: Six cheap jobs: one worker claims them in chunks of 3, 2 and 1.
CHEAP = {
    "jobs": [
        {"kernel": kernel, "clusters": k, "config": LADDER}
        for kernel in ("daxpy", "dot_product")
        for k in (2, 3, 4)
    ]
}
ONE = {"jobs": CHEAP["jobs"][:1]}


def lease_expiries(client):
    return client.metrics()["sweep"]["chunks"]["lease_expiries"]


@pytest.fixture
def call_log(monkeypatch):
    """Every client the worker builds logs its claims and completions."""
    log = []

    class Recording(ServiceClient):
        def sweep_claim(self, *args, **kwargs):
            grant = super().sweep_claim(*args, **kwargs)
            log.append(("claimed", grant.get("chunk")))
            return grant

        def sweep_complete(self, sweep_id, worker, chunk, results):
            log.append(("complete", chunk))
            # Long enough for the next chunk to compile meanwhile: a
            # second completion would be in flight if one were allowed.
            time.sleep(0.05)
            try:
                return super().sweep_complete(sweep_id, worker, chunk, results)
            finally:
                log.append(("completed", chunk))

    monkeypatch.setattr(worker_module, "ServiceClient", Recording)
    return log


def test_worker_claims_the_next_chunk_before_it_ships_the_last(call_log):
    with running_service() as (service, client, _loop):
        sweep_id = client.submit_sweep(CHEAP)["sweep"]
        stats = worker_for(client, name="wP").run()
        assert client.sweep(sweep_id)["state"] == "done"
        assert lease_expiries(client) == 0
    chunks = [chunk for event, chunk in call_log if event == "claimed" and chunk]
    assert stats["chunks"] == len(chunks) == 3
    for chunk, successor in zip(chunks, chunks[1:]):
        assert call_log.index(("complete", chunk)) > call_log.index(("claimed", successor))
    assert [chunk for event, chunk in call_log if event == "completed"] == chunks
    in_flight = []
    for event, _chunk in call_log:
        in_flight.append((in_flight[-1] if in_flight else 0)
                         + {"complete": 1, "completed": -1}.get(event, 0))
    assert max(in_flight) == 1 and in_flight[-1] == 0


def test_a_held_completion_ships_before_the_worker_sleeps(monkeypatch):
    with running_service() as (service, client, _loop):
        sweep_id = client.submit_sweep(CHEAP)["sweep"]
        states = []

        class Clock:
            """The worker module's ``time``, noting the sweep at each sleep."""

            def __getattr__(self, name):
                return getattr(time, name)

            def sleep(self, seconds):
                states.append(client.sweep(sweep_id)["state"])
                time.sleep(seconds)

        monkeypatch.setattr(worker_module, "time", Clock())
        stats = worker_for(client, name="wI", idle_exit=0.2).run()
        assert stats["jobs"] == 6
        assert states and set(states) == {"done"}
        assert lease_expiries(client) == 0


def test_a_held_completion_ships_before_an_interrupted_run_returns():
    with running_service() as (service, client, _loop):
        sweep_id = client.submit_sweep(ONE)["sweep"]
        worker = worker_for(client, name="wK")
        listings = worker.client.sweeps
        calls = []

        def interrupted_second_listing():
            calls.append(None)
            if len(calls) == 2:  # the only chunk is computed and held
                raise KeyboardInterrupt
            return listings()

        worker.client.sweeps = interrupted_second_listing
        with pytest.raises(KeyboardInterrupt):
            worker.run()
        assert worker.stats["jobs"] == 1
        assert client.sweep(sweep_id)["state"] == "done"
        assert lease_expiries(client) == 0


def test_a_held_completion_ships_before_a_vanished_worker_returns():
    with running_service() as (service, client, _loop):
        sweep_id = client.submit_sweep(CHEAP)["sweep"]
        # The first chunk (3 jobs) is computed and held when the second
        # claim vanishes.
        faults.install(faults.FaultPlan.from_spec("worker-vanish:times=2"))
        stats = worker_for(client, name="wV").run()
        assert (stats["vanished"], stats["jobs"]) == (1, 3)
        status = client.sweep(sweep_id)
        assert (status["done"], status["leased"]) == (3, 2)
        assert lease_expiries(client) == 0


def test_a_lost_completion_is_counted_once_by_the_main_thread(monkeypatch):
    class Unreachable(ServiceClient):
        def sweep_complete(self, *args, **kwargs):
            raise TransportError("connection reset by peer")

    monkeypatch.setattr(worker_module, "ServiceClient", Unreachable)
    writers = set()

    class Stats(dict):
        def __setitem__(self, key, value):
            writers.add(threading.current_thread().name)
            super().__setitem__(key, value)

    with running_service() as (service, client, _loop):
        client.submit_sweep(ONE)
        worker = worker_for(client, name="wT", idle_exit=0.2)
        worker.stats = Stats(worker.stats)
        stats = worker.run()
    assert (stats["jobs"], stats["coordinator_unreachable"]) == (1, 1)
    assert writers == {threading.current_thread().name}


class StubCoordinator:
    """Every client a worker builds, answering from one scripted sweep."""

    def __init__(self, listing, grant):
        self.listing, self.grant = listing, grant
        self.claims = 0
        self.completions = []

    def __call__(self, *args, **kwargs):  # stands in for ServiceClient(...)
        return self

    def sweeps(self):
        return self.listing

    def sweep_claim(self, sweep_id, worker, count):
        # Bounded, so a worker that takes a malformed grant for work
        # fails the test instead of looping on it forever.
        self.claims += 1
        return self.grant if self.claims <= 20 else {"chunk": None, "jobs": []}

    def sweep_heartbeat(self, sweep_id, worker, chunk):
        return {"ok": True}

    def sweep_complete(self, sweep_id, worker, chunk, results):
        self.completions.append(chunk)
        return {"accepted": len(results)}

    def close(self):
        pass


OPEN = {"sweep": "s1", "state": "open", "remaining": 1, "active_workers": 1}
JOB = {"index": 0, "key": "k0", "payload": {"kernel": "daxpy", "clusters": 2}}
GRANT = {"chunk": "c1", "lease_seconds": 30.0, "jobs": [JOB]}


@pytest.mark.parametrize(
    "listing, grant",
    [
        ([OPEN], GRANT),
        ({"sweeps": "s1"}, GRANT),
        ({"sweeps": [dict(OPEN, remaining="1")]}, GRANT),
        ({"sweeps": [dict(OPEN, sweep=None)]}, GRANT),
        ({"sweeps": [OPEN]}, [GRANT]),
        ({"sweeps": [OPEN]}, dict(GRANT, jobs="c1")),
        ({"sweeps": [OPEN]}, dict(GRANT, chunk=7)),
        ({"sweeps": [OPEN]}, dict(GRANT, jobs=[{"key": "k0", "payload": JOB["payload"]}])),
        ({"sweeps": [OPEN]}, dict(GRANT, jobs=["k0"])),
    ],
    ids=[
        "listing-is-a-list", "sweeps-is-a-string", "remaining-is-a-string",
        "sweep-id-missing", "grant-is-a-list", "jobs-is-a-string",
        "chunk-is-a-number", "job-without-index", "job-is-a-string",
    ],
)
def test_a_malformed_coordinator_reply_is_counted_and_polled_past(
    monkeypatch, listing, grant
):
    stub = StubCoordinator(listing, grant)
    monkeypatch.setattr(worker_module, "ServiceClient", stub)
    stats = SweepWorker("127.0.0.1:9", poll_interval=0.01, idle_exit=0.1).run()
    assert stats["malformed"] >= 1
    assert (stats["jobs"], stub.completions) == (0, [])


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
# Satellites: bounded retry deadline
# ----------------------------------------------------------------------


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

#: The e2e's client: 30 s to connect and to read, retries as default.
E2E_CLIENT = RetryPolicy(connect_timeout=30.0, read_timeout=30.0)


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
        with ServiceClient(address, policy=E2E_CLIENT) as client:
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
            with ServiceClient(address, policy=E2E_CLIENT) as client:
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

        with ServiceClient(address, policy=E2E_CLIENT) as client:
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
