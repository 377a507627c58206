"""The daemon answers from stored entries: bytes plus a reply summary.

Every compiled report is pickled once, where it was compiled, and held
as an :class:`~repro.api.cache.EncodedReport`.  These tests pin what
that must not change and what it must guarantee:

* ``/compile`` bodies for memory hits, disk hits, misses and coalesced
  jobs, and the ``/jobs/<id>`` result of a ``wait=false`` job, are
  byte-identical to bodies built from the report object
  (``report.to_dict()`` plus its fingerprint, :func:`old_reply`);
* a pre-v5 disk entry (a bare pickle) is repaired as a miss;
* the memory tier and the ledger hold no report objects;
* ``assembly`` works on a cache hit;
* sweep results shipped with ``pickle=1`` unpickle to their rows'
  fingerprints, and a worker's report is stored re-pickled, never as
  the bytes the worker sent.

Misses run a canned ``compile_fn`` that returns a copy of a report
compiled once up front, so a reference reply can carry the same pass
timings as the daemon's.
"""

import base64
import json
import pickle
import socket
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.api import CompilationReport, Toolchain, content_hash
from repro.api.cache import CACHE_SCHEMA_VERSION, CompilationCache, EncodedReport
from repro.codegen import assembly_for
from repro.errors import CacheError
from repro.scheduling.fingerprint import schedule_fingerprint
from repro.service.jobs import parse_compile_payload
from repro.service.sweep import encode_report

from .test_service import running_service, wait_until
from .test_sweep import worker_for

LADDER = {"search": "ladder"}

PAYLOADS = [
    {"kernel": "daxpy", "clusters": 2, "config": dict(LADDER)},
    {"kernel": "fir_filter", "clusters": 4, "config": dict(LADDER)},
    {"kernel": "dot_product", "clusters": 3, "config": dict(LADDER)},
]

_CANNED = {}


def canned():
    """key -> pickled report of each payload, compiled once."""
    if not _CANNED:
        toolchain = Toolchain.default()
        for payload in PAYLOADS:
            request = parse_compile_payload(payload).request
            key = content_hash(request, pipeline=toolchain.pass_names)
            _CANNED[key] = pickle.dumps(toolchain.compile(request))
    return _CANNED


def key_of(payload):
    request = parse_compile_payload(payload).request
    return content_hash(request, pipeline=Toolchain.default().pass_names)


def canned_compile(toolchain, request):
    return pickle.loads(canned()[content_hash(request, pipeline=toolchain.pass_names)])


def old_reply(key, served_from, job=None):
    """The reply built from the report object, as the daemon used to."""
    report = pickle.loads(canned()[key])
    report.cache_hit = served_from in ("memory", "disk")
    report.cache_key = key
    return {
        "job": job, "status": "done", "served_from": served_from, "cache_key": key,
        "report": report.to_dict(), "fingerprint": schedule_fingerprint(report.result),
    }


def wire(value):
    """The body bytes the daemon writes for *value*."""
    return (json.dumps(value, sort_keys=True) + "\n").encode("utf-8")


def raw_request(client, method, path, payload=None):
    """``(status, body bytes)`` of one request, read straight off the socket."""
    body = b"" if payload is None else json.dumps(payload).encode("utf-8")
    head = (f"{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n")
    with socket.create_connection((client.host, client.port), timeout=60) as sock:
        sock.sendall(head.encode("ascii") + body)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    response = b"".join(chunks)
    head, _, body = response.partition(b"\r\n\r\n")
    return int(head.split()[1]), body


def compile_raw(client, payload):
    status, body = raw_request(client, "POST", "/compile", payload)
    assert status == 200, body
    return body


def test_replies_for_every_tier_match_the_report_object(tmp_path):
    cache_dir = str(tmp_path / "cache")
    keys = [key_of(payload) for payload in PAYLOADS]
    with running_service(disk_cache=cache_dir, lru_capacity=2,
                         compile_fn=canned_compile) as (service, client, _loop):
        miss = compile_raw(client, PAYLOADS[0])
        job = json.loads(miss)["job"]
        assert miss == wire(old_reply(keys[0], "compile", job))
        assert compile_raw(client, PAYLOADS[0]) == wire(old_reply(keys[0], "memory"))
        for payload in PAYLOADS[1:]:  # evicts PAYLOADS[0] from the LRU
            compile_raw(client, payload)
        assert compile_raw(client, PAYLOADS[0]) == wire(old_reply(keys[0], "disk"))


def test_coalesced_and_background_results_match_the_report_object():
    gate = threading.Event()

    def gated(toolchain, request):
        gate.wait(60)
        return canned_compile(toolchain, request)

    key = key_of(PAYLOADS[1])
    with running_service(compile_fn=gated) as (service, client, _loop):
        with ThreadPoolExecutor(max_workers=2) as pool:
            bodies = [pool.submit(compile_raw, client, PAYLOADS[1]) for _ in range(2)]
            wait_until(lambda: service.metrics.requests_total == 2, what="both admitted")
            gate.set()
            replies = sorted((body.result(timeout=60) for body in bodies),
                             key=lambda body: json.loads(body)["served_from"])
        job = json.loads(replies[0])["job"]
        created = old_reply(key, "compile", job)
        assert replies == [wire(dict(created, served_from="coalesced")), wire(created)]

        background = dict(PAYLOADS[2], wait=False)
        accepted = client.compile(background)
        wait_until(lambda: client.job(accepted["job"])["status"] == "done", what="job done")
        status, body = raw_request(client, "GET", f"/jobs/{accepted['job']}")
        assert status == 200
        result = json.loads(body)["result"]
        assert wire(result) == wire(old_reply(key_of(PAYLOADS[2]), "compile", accepted["job"]))


def test_a_v4_disk_entry_is_repaired_as_a_miss(tmp_path):
    key = key_of(PAYLOADS[0])
    disk = CompilationCache(tmp_path / "cache")
    path = disk.path_for(key)
    path.parent.mkdir(parents=True)
    for read in (disk.get, disk.get_encoded):
        path.write_bytes(canned()[key])  # the v4 format: a bare pickle
        assert read(key) is None and not path.exists()
    assert disk.stats.errors == 2 and disk.stats.hits == 0

    path.write_bytes(canned()[key])
    with running_service(disk_cache=str(tmp_path / "cache"),
                         compile_fn=canned_compile) as (service, client, _loop):
        reply = client.compile(PAYLOADS[0])
        metrics = client.metrics()
    assert reply["served_from"] == "compile"
    assert metrics["cache"]["disk_errors"] == 1
    rewritten = EncodedReport.from_bytes(path.read_bytes())  # now v5
    assert rewritten.fingerprint == reply["fingerprint"]


def test_the_daemon_holds_no_report_objects(tmp_path):
    cache_dir = str(tmp_path / "cache")
    with running_service(disk_cache=cache_dir) as (service, client, _loop):
        replies = [client.compile(payload) for payload in PAYLOADS]
    with running_service(disk_cache=cache_dir) as (service, client, _loop):
        replies += [client.compile(payload) for payload in PAYLOADS]  # disk hits
        entries = list(service.cache.memory._entries.values())
    assert [reply["served_from"] for reply in replies] == ["compile"] * 3 + ["disk"] * 3
    assert len(entries) == 3
    for entry in entries:
        assert type(entry) is EncodedReport and type(entry.blob) is bytes
        assert json.loads(json.dumps(entry.summary)) == entry.summary  # JSON-safe
        assert isinstance(entry.report, CompilationReport)


def test_ledger_entries_hold_encoded_reports():
    with running_service() as (service, client, _loop):
        reply = client.compile(PAYLOADS[0])
        entry = service._jobs[reply["job"]].entries[0]
    assert type(entry.report) is EncodedReport
    assert entry.report.fingerprint == reply["fingerprint"]


def test_assembly_is_rendered_on_hits_too(tmp_path):
    payload = dict(PAYLOADS[1], assembly=True)
    report = Toolchain.default().compile(parse_compile_payload(payload).request)
    expected = assembly_for(report.result, report.compiled.allocation)
    cache_dir = str(tmp_path / "cache")
    with running_service(disk_cache=cache_dir) as (service, client, _loop):
        replies = [client.compile(payload), client.compile(payload)]
    with running_service(disk_cache=cache_dir) as (service, client, _loop):
        replies.append(client.compile(payload))
    assert [reply["served_from"] for reply in replies] == ["compile", "memory", "disk"]
    assert all(reply["assembly"] == expected for reply in replies)


SPEC = {"kernels": ["fir_filter", "daxpy"], "clusters": [2, 3], "config": LADDER}


def _pickled_rows(client, sweep_id):
    rows = client.sweep_results(sweep_id, pickle=True)["results"]
    assert rows and all(row["state"] == "done" for row in rows)
    return rows


def test_pickled_sweep_results_unpickle_to_their_fingerprints(tmp_path):
    cache_dir = str(tmp_path / "cache")
    with running_service(disk_cache=cache_dir) as (service, client, _loop):
        sweep_id = client.submit_sweep(SPEC)["sweep"]
        worker_for(client, name="wA").run()
        shipped = _pickled_rows(client, sweep_id)
    # A fresh daemon prefills the same sweep from the disk tier.
    with running_service(disk_cache=cache_dir) as (service, client, _loop):
        assert client.submit_sweep(SPEC)["state"] == "done"
        prefilled = _pickled_rows(client, sweep_id)
    assert {row["served_from"] for row in prefilled} == {"cache"}
    for rows in (shipped, prefilled):
        for row in rows:
            report = pickle.loads(base64.b64decode(row["report"]))
            assert isinstance(report, CompilationReport)
            assert schedule_fingerprint(report.result) == row["fingerprint"]
            assert report.result.ii == row["ii"]
    assert [r["fingerprint"] for r in shipped] == [r["fingerprint"] for r in prefilled]


def test_a_completed_report_is_stored_re_pickled():
    with running_service() as (service, client, _loop):
        sweep_id = client.submit_sweep(SPEC)["sweep"]
        grant = client.sweep_claim(sweep_id, "wA", 1)
        job = grant["jobs"][0]
        report = Toolchain.default().compile(parse_compile_payload(job["payload"]).request)
        sent = pickle.dumps(report, protocol=2)
        assert base64.b64decode(encode_report(report)) != sent
        ack = client.sweep_complete(sweep_id, "wA", grant["chunk"], [
            {"index": job["index"], "key": job["key"],
             "report": base64.b64encode(sent).decode("ascii")},
        ])
        assert ack["accepted"] == 1
        stored = service.sweeps[sweep_id].entries[job["index"]].report
        cached = service.cache.memory._entries[job["key"]]
        row = client.sweep_results(sweep_id, start=job["index"], stop=job["index"] + 1,
                                   pickle=True)["results"][0]
    assert stored is cached
    assert stored.blob != sent
    assert stored.blob[:2] == bytes([0x80, pickle.HIGHEST_PROTOCOL])
    assert base64.b64decode(row["report"]) == stored.blob
    assert row["fingerprint"] == schedule_fingerprint(report.result)


def test_encoded_report_disk_form_rejects_damage():
    key = key_of(PAYLOADS[0])
    stored = EncodedReport.encode(pickle.loads(canned()[key]))
    data = stored.to_bytes()
    again = EncodedReport.from_bytes(data)
    assert again.summary == stored.summary and again.blob == stored.blob
    flipped = data[:-1] + bytes([data[-1] ^ 1])
    current = b"repro-cache %d" % CACHE_SCHEMA_VERSION
    older = data.replace(current, b"repro-cache %d" % (CACHE_SCHEMA_VERSION - 1), 1)
    assert older != data
    for damaged in (data[:-5], flipped, b"junk", older):
        with pytest.raises(CacheError):
            EncodedReport.from_bytes(damaged)
