"""End-to-end smoke stories for the compilation service.

``python -m repro.service.smoke --seed 0 --out smoke.json`` runs three
stories against real ``repro serve`` / ``repro worker`` processes:

``serve``
    cold, warm (LRU-served) and concurrent identical bursts, checked
    against ``/metrics``, then a clean SIGTERM drain;
``chaos``
    a fault-armed daemon (a worker crash, connection resets, slow
    compiles) must answer every request without draining, and its
    ``wait=true`` compiles must leave the journal untouched; a second
    daemon is SIGKILLed with ``wait=false`` jobs journaled, and a third
    replays them to results bit-identical to local compiles;
``dist``
    a coordinator and two ``repro worker`` processes run one sweep; one
    worker is SIGKILLed mid-chunk (its lease must expire and requeue),
    then the coordinator is SIGKILLed and restarted on its journal, and
    the sweep must finish bit-identical to local compiles.

The ``--out`` JSON holds every check and the metrics of each story; each
story's journal lands beside it as ``<out>-<story>-journal.jsonl``.
Exit status 0 = every check of every story passed.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Dict, List

from ..errors import ServiceError
from .client import RetryPolicy, ServiceClient

LADDER = {"search": "ladder"}

#: (payload, label) pairs for the cold/warm bursts: small kernels across
#: distinct machines so each is its own cache entry.
BURST = [
    ({"kernel": "fir_filter", "clusters": 4, "config": LADDER}, "fir/ring4"),
    ({"kernel": "daxpy", "clusters": 2, "config": LADDER}, "daxpy/ring2"),
    ({"kernel": "dot_product", "clusters": 4, "topology": "mesh",
      "config": LADDER}, "dot/mesh4"),
    ({"kernel": "vector_add", "clusters": 2, "unclustered": True,
      "config": LADDER}, "vadd/unclustered"),
]

#: Payload for the dedup burst (untouched by BURST so it starts cold).
DEDUP_PAYLOAD = {"kernel": "complex_multiply", "clusters": 4, "config": LADDER}
DEDUP_FANOUT = 6

#: Fault plan for the chaos burst.  Each worker counts its own
#: occurrences, so with 2 workers and 4 serial compiles some worker dies
#: on its second compile (a respawn), while fresh workers survive the
#: requeued job.  The daemon aborts its second response (a client retry).
CHAOS_FAULTS = "worker-crash:times=2;conn-reset:times=2;slow-compile:rate=0.3:delay=0.05"

#: Every compile of the kill phase sleeps long enough that SIGKILL
#: reliably lands while the jobs are live.
KILL_PHASE_FAULTS = "slow-compile:every=1:delay=3"

#: ``wait=false`` payloads for the kill/restart phase — disjoint from
#: BURST/DEDUP so nothing is pre-cached.
RECOVERY_PAYLOADS = [
    ({"kernel": "dot_product", "clusters": 2, "wait": False}, "dot/ring2"),
    ({"kernel": "daxpy", "clusters": 4, "wait": False}, "daxpy/ring4"),
]

#: The dist sweep: short leases requeue a killed worker's chunk within
#: seconds; the requeue budget outlasts the two injected kills.
DIST_SPEC = {
    "jobs": [
        {"kernel": kernel, "clusters": clusters, "topology": "ring", "config": LADDER}
        for kernel in ("fir_filter", "daxpy", "vector_add", "dot_product")
        for clusters in (2, 4)
    ],
    "lease": 1.5,
    "max_requeues": 8,
    "label": "dist-smoke",
}

#: Every worker job sleeps 0.4s, so the SIGKILLs land while chunks are
#: leased (and the heartbeat threads run).
DIST_WORKER_FAULTS = "slow-worker:every=1:delay=0.4"


class SmokeFailure(Exception):
    pass


def _local_fingerprint(payload: Dict[str, object]) -> object:
    """The JSON-normalized fingerprint of compiling *payload* locally."""
    from ..api import Toolchain
    from ..scheduling.fingerprint import schedule_fingerprint
    from .jobs import parse_compile_payload

    report = Toolchain.default().compile(parse_compile_payload(payload).request)
    # The service ships fingerprints through JSON (tuples -> lists).
    return json.loads(json.dumps(schedule_fingerprint(report.result)))


class Story:
    """One story's processes, checks and artifact, on a fresh journal + cache."""

    def __init__(self, name: str, args: argparse.Namespace):
        self.name = name
        self.args = args
        self.checks: List[Dict[str, object]] = []
        self.artifact: Dict[str, object] = {"checks": self.checks, "seed": args.seed}
        self.tmp = tempfile.mkdtemp(prefix=f"repro-smoke-{name}-")
        self.journal = os.path.join(self.tmp, "journal.jsonl")
        self.cache = os.path.join(self.tmp, "cache")
        self.procs: List[subprocess.Popen] = []

    def check(self, name: str, ok: bool, detail: str) -> None:
        self.checks.append({"check": name, "ok": bool(ok), "detail": detail})
        print(f"[smoke] {'ok' if ok else 'FAIL':<4} {self.name}/{name}: {detail}", flush=True)
        if not ok:
            raise SmokeFailure(f"{name}: {detail}")

    def spawn(self, args: List[str]) -> subprocess.Popen:
        # Each process gets its own session (= process group): spawned
        # pool workers inherit the pipes, so killing only the daemon
        # would leave orphans holding them open; kill() takes the whole
        # group down instead.
        proc = subprocess.Popen([sys.executable, "-m", "repro", *args], stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True, start_new_session=True)
        self.procs.append(proc)
        return proc

    def daemon(self, tag: str, workers: int, extra: List[str], port: int = 0) -> ServiceClient:
        """Start ``repro serve`` and return a retrying client for it."""
        port_file = os.path.join(self.tmp, f"{tag}.port")
        self.spawn([
            "serve", "--workers", str(workers), "--lru-capacity", "64",
            "--port-file", port_file, "--port", str(port), *extra,
        ])
        address = wait_for(
            lambda: os.path.exists(port_file) and Path(port_file).read_text().strip(),
            self.args.timeout, f"the daemon to write {port_file}", 0.1,
        )
        return ServiceClient(address, policy=RetryPolicy(
            max_attempts=5, connect_timeout=10.0,
            read_timeout=self.args.timeout, jitter_seed=self.args.seed,
        ))

    def worker(self, address: str, name: str) -> subprocess.Popen:
        return self.spawn([
            "worker", "--coordinator", address, "--name", name,
            "--poll", "0.1", "--idle-exit", "20", "--max-chunk", "2",
            "--faults", DIST_WORKER_FAULTS, "--fault-seed", str(self.args.seed),
        ])

    def stop(self, proc: subprocess.Popen, label: str) -> str:
        """SIGTERM *proc*, require a clean exit, return its stdout."""
        proc.send_signal(signal.SIGTERM)
        out, err = proc.communicate(timeout=self.args.timeout)
        self.artifact[f"{label}_stderr"] = err
        self.check(f"{label}-clean-drain", proc.returncode == 0, f"exit={proc.returncode}")
        return out

    @staticmethod
    def kill(proc: subprocess.Popen) -> None:
        """SIGKILL a process *and* its pool workers (whole process group)."""
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except (OSError, AttributeError):  # group already gone / no killpg
            proc.kill()
        proc.communicate()

    def run(self, body) -> bool:
        try:
            body(self)
            ok = True
        except (SmokeFailure, ServiceError, subprocess.TimeoutExpired) as err:
            self.artifact["error"] = str(err)
            ok = False
        finally:
            for proc in self.procs:
                if proc.poll() is None:
                    self.kill(proc)
        if os.path.exists(self.journal):
            self.artifact["journal"] = Path(self.journal).read_text()
        print(f"[smoke] {self.name} {'PASS' if ok else 'FAIL'}", flush=True)
        return ok


def wait_for(predicate, timeout: float, what: str, interval: float = 0.2):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(interval)
    raise SmokeFailure(f"timed out waiting for {what}")


# ----------------------------------------------------------------------
# The stories
# ----------------------------------------------------------------------


def serve_story(story: Story) -> None:
    final_path = os.path.join(story.tmp, "final_metrics.json")
    client = story.daemon("serve", story.args.workers, ["--metrics-out", final_path])
    story.check("startup", client.healthz().get("status") == "ok",
                f"daemon healthy at {client.host}:{client.port}")
    for payload, label in BURST:  # cold: every payload compiles
        result = client.compile(payload)
        story.check(f"cold:{label}", result["served_from"] == "compile",
                    f"served_from={result['served_from']} ii={result['report']['ii']}")
    cold = client.metrics()
    story.check("cold-compiles", cold["compiles"]["started"] == len(BURST),
                f"{cold['compiles']['started']} compiles for {len(BURST)} requests")
    for payload, label in BURST:  # warm: all memory hits
        result = client.compile(payload)
        story.check(f"warm:{label}", result["served_from"] == "memory",
                    f"served_from={result['served_from']}")
    warm = client.metrics()
    story.check("warm-no-compiles", warm["compiles"]["started"] == cold["compiles"]["started"],
                "warm burst started no new compiles")
    hits, ratio = warm["cache"]["memory_hits"], warm["cache"]["hit_ratio"]
    story.check("warm-hit-ratio", hits >= len(BURST) and ratio >= 0.4,
                f"memory_hits={hits} hit_ratio={ratio:.2f}")
    # Identical concurrent requests attach to one entry and one compile
    # (stragglers that arrive after completion hit the LRU).
    with ThreadPoolExecutor(max_workers=DEDUP_FANOUT) as pool:
        results = list(pool.map(lambda _: client.compile(dict(DEDUP_PAYLOAD)),
                                range(DEDUP_FANOUT)))
    after = client.metrics()
    started = after["compiles"]["started"] - cold["compiles"]["started"]
    story.check("dedup-one-compile", started == 1,
                f"{DEDUP_FANOUT} identical requests -> {started} compile(s); "
                f"sources={sorted(r['served_from'] for r in results)}")
    fingerprints = {json.dumps(r["fingerprint"]) for r in results}
    story.check("dedup-identical-results", len(fingerprints) == 1,
                f"{len(fingerprints)} distinct fingerprint(s)")
    latency = after["latency_ms"]
    expected = 2 * len(BURST) + DEDUP_FANOUT - after["dedup"]["coalesced"]
    story.check("latency-histogram", latency["count"] >= expected and latency["p50_ms"] is not None,
                f"count={latency['count']} p50={latency['p50_ms']}ms p99={latency['p99_ms']}ms")
    story.artifact["live_metrics"] = after
    story.artifact["daemon_stdout"] = story.stop(story.procs[-1], "serve")
    story.check("final-metrics-file", os.path.exists(final_path), final_path)
    final = story.artifact["final_metrics"] = json.loads(Path(final_path).read_text())
    story.check("drained-flag", final["draining"] is True, "final snapshot carries draining=true")


def chaos_story(story: Story) -> None:
    workers = story.args.workers
    journaled = ["--journal", story.journal, "--cache", story.cache]
    # Phase 1 — fault-armed burst: every request still succeeds.
    client = story.daemon("chaos", workers, [
        *journaled, "--faults", CHAOS_FAULTS, "--fault-seed", str(story.args.seed),
    ])
    story.check("chaos-startup", client.healthz().get("status") == "ok", "fault-armed daemon up")
    for payload, label in BURST:
        result = client.compile(payload)
        story.check(f"chaos:{label}", result.get("status") == "done" and "fingerprint" in result,
                    f"served_from={result['served_from']}")
    live = client.metrics()
    pool = live["supervisor"]
    story.check("chaos-pool-respawned", pool["pool_respawns"] >= 1 and pool["worker_crashes"] >= 1,
                f"respawns={pool['pool_respawns']} crashes={pool['worker_crashes']}")
    story.check("chaos-no-drain", live["draining"] is False,
                "daemon survived the crash without draining")
    story.check("chaos-client-retried", client.retries["transport"] >= 1,
                f"transport retries={client.retries['transport']}")
    appends = live["journal"]["appends"]
    story.check("chaos-journal-untouched", appends == 0,
                f"{appends} journal appends for wait=true compiles (worker crash included)")
    story.artifact["chaos_metrics"] = live
    story.stop(story.procs[-1], "chaos")

    # Phase 2 — journal durability: wait=false jobs acknowledged, then
    # the daemon is SIGKILLed mid-compile.
    client = story.daemon("victim", workers, [*journaled, "--faults", KILL_PHASE_FAULTS])
    for payload, label in RECOVERY_PAYLOADS:
        receipt = client.compile(dict(payload), wait=False)
        story.check(f"submit:{label}", "job" in receipt, f"202 receipt job={receipt.get('job')}")
    story.kill(story.procs[-1])
    story.check("hard-kill", True, "daemon killed with SIGKILL")

    # Phase 3 — recovery: a fresh daemon on the same journal + cache
    # replays the interrupted jobs to completion.
    client = story.daemon("recovery", workers, journaled)
    recovered = (client.metrics()["journal"] or {}).get("recovered_jobs")
    story.check("journal-replayed", recovered == len(RECOVERY_PAYLOADS),
                f"recovered_jobs={recovered}")

    def settled():
        snap = client.metrics()
        return (snap["compiles"]["completed"] >= len(RECOVERY_PAYLOADS)
                and snap["in_flight"] == 0 and snap["queue_depth"]["total"] == 0)

    wait_for(settled, story.args.timeout, "recovered jobs to finish")
    for payload, label in RECOVERY_PAYLOADS:
        result = client.compile({k: v for k, v in payload.items() if k != "wait"})
        story.check(f"recovered:{label}", result["served_from"] in ("memory", "disk"),
                    f"served_from={result['served_from']}")
        story.check(f"bit-identical:{label}", result["fingerprint"] == _local_fingerprint(payload),
                    "recovered result matches a local compile")
    story.artifact["recovery_metrics"] = client.metrics()
    story.stop(story.procs[-1], "recovery")


def dist_story(story: Story) -> None:
    journaled = ["--journal", story.journal, "--cache", story.cache]
    spec = dict(DIST_SPEC, seed=story.args.seed)
    client = story.daemon("coordinator", 0, journaled)
    address = f"{client.host}:{client.port}"
    story.check("dist-startup", client.healthz().get("status") == "ok", f"coordinator up at {address}")
    status = client.submit_sweep(spec)
    sweep_id = str(status["sweep"])
    story.check("dist-submit", status["state"] == "open" and status["total"] == 8,
                f"sweep {sweep_id}: {status['total']} jobs enumerated")
    story.check("dist-idempotent-submit", client.submit_sweep(spec)["sweep"] == sweep_id,
                "re-POST of the same spec returned the same sweep")
    coordinator = story.procs[-1]
    victim = story.worker(address, "victim")
    survivor = story.worker(address, "survivor")

    def victim_claims() -> int:
        section = client.metrics().get("sweep") or {}
        return int(section.get("workers", {}).get("victim", {}).get("claims", 0))

    wait_for(victim_claims, story.args.timeout, "the victim to claim", 0.1)
    story.check("dist-victim-engaged", True, "victim worker claimed a chunk")
    story.kill(victim)
    story.check("dist-worker-killed", True, "victim worker SIGKILLed mid-chunk")

    # The victim's lease expires and the live coordinator requeues its
    # chunk.  Observe that *before* killing the coordinator: the counters
    # are in-memory, and after the restart the replay re-advertises the
    # chunk without ever having seen its lease.
    def expired():
        section = client.metrics().get("sweep") or {}
        return section if section.get("chunks", {}).get("lease_expiries", 0) else None

    section = wait_for(expired, story.args.timeout, "the victim's lease to expire")
    story.artifact["sweep_metrics_before_kill"] = section
    story.check("dist-lease-recovered", section["chunks"]["requeued"] >= 1,
                f"lease_expiries={section['chunks']['lease_expiries']} "
                f"requeued={section['chunks']['requeued']}")

    # SIGKILL the coordinator itself and restart it on the same journal,
    # cache and port (the survivor keeps polling that port).
    story.kill(coordinator)
    client = story.daemon("restarted", 0, journaled, port=client.port)
    story.check("dist-coordinator-restarted", client.healthz().get("status") == "ok",
                f"coordinator SIGKILLed and restarted on port {client.port}")
    recovered = client.sweep(sweep_id)
    story.check("dist-sweep-recovered", recovered.get("recovered") is True,
                f"journal replay brought the sweep back "
                f"({recovered['done']}/{recovered['total']} done)")

    # The surviving worker rides out the outage and drains the rest.
    final = wait_for(
        lambda: (lambda doc: doc if doc["state"] != "open" else None)(client.sweep(sweep_id)),
        story.args.timeout, "the sweep to finish", 0.25,
    )
    story.check("dist-sweep-completed",
                final["state"] == "done" and final["done"] == final["total"],
                f"state={final['state']} done={final['done']}/{final['total']}")
    story.artifact["sweep_metrics"] = client.metrics()["sweep"]
    rows = client.sweep_results(sweep_id)["results"]
    story.check("dist-results", len(rows) == len(spec["jobs"]),
                f"{len(rows)} result rows for {len(spec['jobs'])} jobs")
    for row, payload in zip(rows, spec["jobs"]):
        story.check(f"dist-bit-identical:{row['index']}",
                    row["fingerprint"] == _local_fingerprint(payload),
                    f"{payload['kernel']}/ring{payload['clusters']} matches a local compile")
    survivor.send_signal(signal.SIGTERM)
    survivor.communicate(timeout=story.args.timeout)
    story.artifact["daemon_stdout"] = story.stop(story.procs[-1], "dist")


STORIES = {"serve": serve_story, "chaos": chaos_story, "dist": dist_story}


def _write(path: str, text: str) -> None:
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text(text)
    print(f"[smoke] wrote {path}", flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.service.smoke",
        description="end-to-end smoke stories of the repro serve daemon",
    )
    parser.add_argument("--out", type=str, default=None,
                        help="write the checks + metrics artifact here")
    parser.add_argument("--workers", type=int, default=2,
                        help="daemon process-pool width")
    parser.add_argument("--timeout", type=float, default=120.0,
                        help="per-step timeout (s)")
    parser.add_argument("--seed", type=int, default=0,
                        help="fault-plan and client-jitter seed (default: 0)")
    args = parser.parse_args(argv)
    artifact: Dict[str, object] = {}
    passed = True
    for name, body in STORIES.items():
        story = Story(name, args)
        passed = story.run(body) and passed
        journal = story.artifact.pop("journal", None)
        if args.out and journal:
            _write(f"{os.path.splitext(args.out)[0]}-{name}-journal.jsonl", journal)
        artifact[name] = story.artifact
    if args.out:
        _write(args.out, json.dumps(artifact, indent=2, sort_keys=True) + "\n")
    print(f"[smoke] {'PASS' if passed else 'FAIL'}", flush=True)
    return 0 if passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
