"""The four workloads, as run inside one fresh workload process.

Each workload has three phases:

* ``generate`` and ``start`` are set-up: they build the seeded inputs and
  bring up any service (until it answers ``/healthz`` and one warm-up
  request), and are never part of the timed window;
* ``window`` is the timed window: it runs every op of the plan and
  records each op's latency and result;
* ``check`` runs after the window: it compares every result with an
  in-process reference and counts mismatches as failed ops.

Clocks.  The host is a paravirtualised VM whose hypervisor steals CPU
time in episodes of minutes: on identical work, wall-clock runs in such an
episode were up to 45% slower.  The in-process workloads are
single-threaded and CPU-bound, so each op and the window are timed on the
process CPU clock, which the kernel's paravirtual steal accounting keeps
free of stolen time.  The service workloads also wait: on the journal's
fsync, on pool and HTTP round trips, on lease and poll intervals.  Their
ops are timed on the wall clock and their window is wall time less the
VM's per-CPU steal over the window (``/proc/stat``), so time spent
blocked counts and time the hypervisor took does not; per-op wall
latencies are scaled by the window's steal-free / wall ratio.  Raw wall
time and the VM's steal are recorded beside every window.

``repro`` is imported only inside methods, after the workload process
has timed its fresh ``import repro.cli``.
"""

from __future__ import annotations

import base64
import json
import os
import pickle
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Dict, List, Optional

from . import gen
from .stats import HostProbe, kill_tree, steal_seconds
from .trace import Recorder, instrument, totals_by_name, traced_passes

#: Per-op clock of the in-process workloads and of reference compiles.
busy_clock = time.process_time

#: Per-op clock of the service workloads' client.
wall_clock = time.perf_counter

#: Failure messages kept per run (the count is always exact).
KEEP_FAILURES = 5

#: dist_sweep completion poll: far below 1% of a run.
SWEEP_POLL_SECONDS = 0.02

#: How long a service may take to answer its first /healthz.
STARTUP_TIMEOUT = 60.0


class Workload:
    """Common bookkeeping: ops attempted, failures, latencies, quality sums."""

    name = ""
    why = ""
    #: Whether ops and the window are timed on :data:`busy_clock`.
    busy_timed = True

    def __init__(self, seed: int, seconds: float, workdir: Path, recorder: Optional[Recorder]):
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir
        self.recorder = recorder
        self.latencies: List[float] = []
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.ii_sum = 0
        self.mii_sum = 0
        self.cycles_sum = 0
        self.elapsed = 0.0
        self.wall_elapsed = 0.0
        self.stolen = 0.0
        self.probe: Optional[HostProbe] = None
        self.time_scale = 1.0  # wall latencies x scale = steal-free latencies
        self.op_count = 0
        self.peak_rss_mb = 0.0
        self.manifest: Dict[str, object] = {"seed": seed, "why": self.why}
        self.layers: Dict[str, float] = {}

    def open_window(self) -> None:
        self.probe = HostProbe(busy_clock)
        self._window = (time.perf_counter(), busy_clock(), steal_seconds())

    def close_window(self) -> None:
        """Window length, less the host probes run inside it.

        Busy seconds for the in-process workloads; wall seconds less the
        VM's steal for the service workloads, so that blocking counts.
        """
        wall0, busy0, steal0 = self._window
        self.wall_elapsed = time.perf_counter() - wall0
        self.stolen = steal_seconds() - steal0
        spent = self.probe.spent
        if self.busy_timed:
            self.elapsed = busy_clock() - busy0 - spent
        else:
            self.elapsed = self.wall_elapsed - spent - self.stolen
            self.time_scale = self.elapsed / (self.wall_elapsed - spent)

    def run_op(self, op: int, request, run):
        """Run one in-process op on the busy clock; None when it raised."""
        self.probe.maybe()
        if self.recorder is not None:
            self.recorder.op = op
        self.attempted += 1
        t0 = busy_clock()
        try:
            return run()
        except Exception as err:  # one bad op must not end the run
            self.fail(f"{request.describe()}: {type(err).__name__}: {err}")
            return None
        finally:
            self.latencies.append(busy_clock() - t0)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < KEEP_FAILURES:
            self.failures.append(message)

    def toolchain(self):
        from repro.api import Toolchain

        if self.recorder is None:
            return Toolchain.default()
        return Toolchain(traced_passes(self.recorder), name="default")

    def add_quality(self, ii: int, mii: int, cycles: int) -> None:
        self.ii_sum += ii
        self.mii_sum += mii
        self.cycles_sum += cycles

    def generate(self) -> None:
        raise NotImplementedError

    def start(self) -> None:
        """Bring up services (none for the in-process workloads)."""

    def window(self) -> None:
        raise NotImplementedError

    def check(self) -> None:
        """Post-window correctness checks (in-process workloads check inline)."""

    def stop(self) -> None:
        """Stop every process this workload started."""

    def result(self) -> Dict[str, object]:
        return {
            "workload": self.name,
            "elapsed_s": self.elapsed,
            "wall_elapsed_s": self.wall_elapsed,
            "stolen_s": self.stolen,
            "time_scale": self.time_scale,
            "host_factor": self.probe.factor() if self.probe else 1.0,
            "probes": len(self.probe.samples) if self.probe else 0,
            "op_count": self.op_count,
            "attempted": self.attempted,
            "failed": self.failed,
            "failures": self.failures,
            "latencies_ms": [1e3 * value for value in self.latencies],
            "ii_sum": self.ii_sum,
            "mii_sum": self.mii_sum,
            "cycles_sum": self.cycles_sum,
            "peak_rss_mb": self.peak_rss_mb,
            "manifest": self.manifest,
            "layers": self.layers,
        }


def _min_median_max(values: List[int]) -> Dict[str, float]:
    return {
        "min": min(values),
        "median": statistics.median(values),
        "max": max(values),
    }


def _histogram(values: List[int]) -> Dict[str, int]:
    return dict(Counter(str(value) for value in sorted(values)))


# ----------------------------------------------------------------------
# In-process batch workloads
# ----------------------------------------------------------------------


class Fig4Sweep(Workload):
    name = "fig4_sweep"
    why = (
        "the figure sweep users wait for: IMS and DMS-ring twins for k=1..10 "
        "over a size-stratified surrogate panel, validate=True, heavy tail kept"
    )

    def generate(self) -> None:
        from repro.experiments.runner import SweepConfig, sweep_requests
        from repro.workloads.suite import perfect_club_surrogate

        suite = perfect_club_surrogate()
        panel = gen.fig4_panel([len(loop.ddg) for loop in suite], self.seconds)
        by_key = {}
        for index in panel:
            for k, request in sweep_requests([suite[index]], SweepConfig()):
                by_key[(index, k, request.scheduler)] = request
        self.jobs = [by_key[job] for job in gen.fig4_jobs(self.seed, panel)]
        self.op_count = len(self.jobs)
        ops = [len(suite[index].ddg) for index in panel]
        self.manifest.update(
            suite_loops=len(suite),
            panel_loops=len(panel),
            panel_indices=panel,
            compiles=len(self.jobs),
            base_ops=_min_median_max(ops),
            vectorizable_share=sum(suite[i].is_vectorizable for i in panel) / len(panel),
        )

    def window(self) -> None:
        toolchain = self.toolchain()
        unrolls, dms, dms_chains = [], 0, 0
        self.open_window()
        for op, request in enumerate(self.jobs):
            report = self.run_op(op, request, lambda: toolchain.compile(request))
            if report is None:
                continue
            result = report.result
            if result.scheduler != request.scheduler or result.ii < result.mii:
                self.fail(
                    f"{request.describe()}: scheduler {result.scheduler} "
                    f"II {result.ii} MII {result.mii}"
                )
                continue
            self.add_quality(result.ii, result.mii, report.compiled.cycles)
            unrolls.append(report.compiled.unroll_factor)
            if result.scheduler == "dms":
                dms += 1
                dms_chains += result.stats.chains_built > 0
        self.close_window()
        self.manifest.update(
            unroll_factors=_histogram(unrolls),
            dms_compiles=dms,
            dms_share_with_chains=dms_chains / dms if dms else 0.0,
        )


class VerifyMatrix(Workload):
    name = "verify_matrix"
    why = (
        "the repro verify matrix: 28 kernels x 5 topologies x {2,4,8} clusters, "
        "each program run by the differential oracle at full and short ramp"
    )

    def generate(self) -> None:
        from repro.api import CompilationRequest
        from repro.machine import clustered_vliw
        from repro.workloads.kernels import KERNELS, make_kernel

        names = sorted(KERNELS)
        loops = [make_kernel(name) for name in names]
        machines = {}
        self.jobs = []
        for kernel, topology, k in gen.verify_jobs(self.seed, len(names), self.seconds):
            machine = machines.get((topology, k))
            if machine is None:
                machine = machines[(topology, k)] = clustered_vliw(k, topology=topology)
            self.jobs.append(
                CompilationRequest(loop=loops[kernel], machine=machine, validate=True)
            )
        per_pass = len(names) * len(gen.VERIFY_TOPOLOGIES) * len(gen.VERIFY_CLUSTERS)
        self.op_count = per_pass
        self.manifest.update(
            kernels=len(names),
            machines=len(machines),
            ops_per_pass=per_pass,
            passes=len(self.jobs) // per_pass,
            programs=2 * len(self.jobs),
            base_ops=_min_median_max([len(loop.ddg) for loop in loops]),
        )

    def _verify(self, compiled, iterations):
        from repro.validate.oracle import verify_compiled

        if self.recorder is None:
            return verify_compiled(compiled, iterations=iterations)
        with self.recorder.span("validate.differential") as span:
            report = verify_compiled(compiled, iterations=iterations)
            span.counters["matched_stores"] = report.matched_stores
        return report

    def _program(self, toolchain, request):
        """Compile one (kernel, machine) program and run it at both ramp depths."""
        report = toolchain.compile(request)
        compiled = report.compiled
        full = self._verify(compiled, None)
        short = self._verify(compiled, max(1, compiled.result.stage_count - 1))
        return report, full, short

    def window(self) -> None:
        toolchain = self.toolchain()
        unrolls, chains, crossbar_chains = [], 0, 0
        self.open_window()
        for op, request in enumerate(self.jobs):
            outcome = self.run_op(op, request, lambda: self._program(toolchain, request))
            if outcome is None:
                continue
            report, full, short = outcome
            compiled = report.compiled
            problems = full.all_problems + short.all_problems
            if problems:
                self.fail(f"{request.describe()}: {problems[0]}")
                continue
            result = report.result
            self.add_quality(result.ii, result.mii, compiled.cycles)
            unrolls.append(compiled.unroll_factor)
            built = result.stats.chains_built > 0
            chains += built
            if request.machine.topology_kind == "crossbar":
                crossbar_chains += built
        self.close_window()
        self.manifest.update(
            unroll_factors=_histogram(unrolls),
            share_with_chains=chains / len(self.jobs),
            crossbar_programs_with_chains=crossbar_chains,
        )


# ----------------------------------------------------------------------
# Service workloads
# ----------------------------------------------------------------------


class ServiceWorkload(Workload):
    """A ``repro serve --workers 1`` daemon on fresh cache and journal paths."""

    worker = False
    busy_timed = False

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.procs: List[subprocess.Popen] = []
        self.address = ""

    def _requests_for(self, suite, pairs):
        from repro.api import CompilationRequest
        from repro.machine import clustered_vliw
        from repro.service.jobs import request_to_payload

        machines = {k: clustered_vliw(k) for k in gen.SERVICE_CLUSTERS}
        requests = [
            CompilationRequest(loop=suite[index], machine=machines[k])
            for index, k in pairs
        ]
        return requests, [request_to_payload(request) for request in requests]

    def _spawn(self, args: List[str], log: str) -> subprocess.Popen:
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        with open(self.workdir / log, "w") as handle:
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro", *args],
                stdout=handle,
                stderr=subprocess.STDOUT,
                stdin=subprocess.DEVNULL,
                env=env,
                start_new_session=True,
            )
        self.procs.append(proc)
        return proc

    def _warm_payload(self):
        from repro.api import CompilationRequest
        from repro.machine import clustered_vliw
        from repro.service.jobs import request_to_payload
        from repro.workloads.kernels import make_kernel

        loop = make_kernel("daxpy")
        loop.name = "perfbench_warmup"
        return request_to_payload(CompilationRequest(loop=loop, machine=clustered_vliw(2)))

    def start(self) -> None:
        from repro.errors import ReproError
        from repro.service.client import NO_RETRY, ServiceClient

        port_file = self.workdir / "port"
        daemon = self._spawn(
            [
                "serve", "--workers", "1",
                "--cache", str(self.workdir / "cache"),
                "--journal", str(self.workdir / "journal.jsonl"),
                "--port-file", str(port_file),
            ],
            "serve.log",
        )
        deadline = time.monotonic() + STARTUP_TIMEOUT
        while not (port_file.exists() and port_file.read_text().strip()):
            if daemon.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError(f"repro serve did not start (see {self.workdir}/serve.log)")
            time.sleep(0.005)
        self.address = port_file.read_text().strip()
        self.client = ServiceClient(self.address, policy=NO_RETRY)
        while True:
            try:
                if self.client.healthz().get("status") == "ok":
                    break
            except ReproError:  # refused until the listener is up
                pass
            if time.monotonic() > deadline:
                raise RuntimeError("repro serve never answered /healthz")
            time.sleep(0.005)
        if self.worker:
            self._spawn(
                [
                    "worker", "--coordinator", self.address,
                    "--name", "perfbench-worker", "--poll", "0.005",
                    "--metrics-out", str(self.workdir / "worker.json"),
                ],
                "worker.log",
            )
        self.warm_up()

    def warm_up(self) -> None:
        raise NotImplementedError

    def stop(self) -> None:
        # The worker first (SIGINT: it writes its stats on the way out),
        # then the daemon (SIGTERM: drain).
        for proc in reversed(self.procs):
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM if proc is self.procs[0] else signal.SIGINT)
                try:
                    proc.wait(timeout=20)
                except subprocess.TimeoutExpired:
                    kill_tree(proc.pid)
                    proc.wait()
        self.procs.clear()

    def reference(self, requests, indices) -> Dict[int, tuple]:
        """In-process (fingerprint, seconds) of each request in *indices*."""
        from repro.scheduling.fingerprint import schedule_fingerprint

        toolchain = self.toolchain()
        out = {}
        for index in indices:
            t0 = busy_clock()
            report = toolchain.compile(requests[index])
            out[index] = (schedule_fingerprint(report.result), busy_clock() - t0)
        return out


class ServeMixed(ServiceWorkload):
    name = "serve_mixed"
    why = (
        "closed loop, one client: /compile of seeded surrogate loops (k=2..4) on "
        "a fresh daemon; more distinct requests than the LRU holds, so memory "
        "hits, disk hits and misses each take a share"
    )
    capacity = 256  # repro serve's default --lru-capacity

    def generate(self) -> None:
        from repro.workloads.suite import perfect_club_surrogate

        suite = perfect_club_surrogate()
        self.plan = gen.serve_plan(
            self.seed, self.seconds, [len(loop.ddg) for loop in suite], self.capacity
        )
        self.requests, self.payloads = self._requests_for(suite, self.plan.requests)
        self.op_count = len(self.plan.stream)
        self.manifest.update(
            ops=len(self.plan.stream),
            distinct_requests=len(self.requests),
            lru_capacity=self.capacity,
            expected_mix=self.plan.mix(),
            base_ops=_min_median_max([len(suite[i].ddg) for i, _ in self.plan.requests]),
            clusters=_histogram([k for _, k in self.plan.requests]),
        )

    def warm_up(self) -> None:
        self.client.compile(self._warm_payload())

    def window(self) -> None:
        from repro.errors import ReproError

        client = self.client
        before = client.metrics()
        self.responses: List[Optional[dict]] = []
        served = {name: [] for name, _ in gen.SERVE_SHARES}
        self.served_of: List[Optional[str]] = []
        self.open_window()
        for op, key in enumerate(self.plan.stream):
            self.probe.maybe()
            if self.recorder is not None:
                self.recorder.op = op
            self.attempted += 1
            t0 = wall_clock()
            try:
                if self.recorder is None:
                    reply = client.compile(self.payloads[key])
                else:
                    with self.recorder.span("service.request") as span:
                        reply = client.compile(self.payloads[key])
                        span.name = f"service.{_kind(reply.get('served_from'))}"
            except (ReproError, OSError) as err:
                self.latencies.append(wall_clock() - t0)
                self.responses.append(None)
                self.served_of.append(None)
                self.fail(f"op {op}: {type(err).__name__}: {err}")
                continue
            latency = wall_clock() - t0
            self.latencies.append(latency)
            self.responses.append(reply)
            kind = _kind(reply.get("served_from"))
            self.served_of.append(kind)
            served.setdefault(kind, []).append(latency)
        self.close_window()
        after = client.metrics()
        self.served = served
        self.manifest["served_mix"] = {kind: len(v) for kind, v in served.items()}
        self._metrics_delta(before, after)

    def _metrics_delta(self, before: dict, after: dict) -> None:
        cache0, cache1 = before["cache"], after["cache"]
        delta = {
            name: cache1[name] - cache0[name]
            for name in ("memory_hits", "disk_hits", "misses", "evictions", "lookups")
        }
        journal = (after.get("journal") or {}).get("appends", 0) - (
            before.get("journal") or {}
        ).get("appends", 0)
        self.layers.update(
            {
                "api.cache.memory_hits": delta["memory_hits"],
                "api.cache.disk_hits": delta["disk_hits"],
                "api.cache.misses": delta["misses"],
                "api.cache.evictions": delta["evictions"],
                "api.cache.hit_ratio": (
                    (delta["memory_hits"] + delta["disk_hits"]) / delta["lookups"]
                    if delta["lookups"] else 0.0
                ),
                "service.journal.appends_per_miss": (
                    journal / delta["misses"] if delta["misses"] else 0.0
                ),
                "service.admission.rejected": after["admission"]["rejected"]
                - before["admission"]["rejected"],
            }
        )

    def check(self) -> None:
        sent = sorted(set(self.plan.stream))
        reference = self.reference(self.requests, sent)
        misses = []
        quality_of: Dict[int, dict] = {}
        for op, (key, reply) in enumerate(zip(self.plan.stream, self.responses)):
            if reply is None:
                continue
            expected, seconds = reference[key]
            if reply.get("fingerprint") != expected:
                self.fail(f"op {op}: fingerprint differs from the in-process compile")
                continue
            quality_of.setdefault(key, reply.get("report") or {})
            if self.served_of[op] == "miss":
                misses.append(self.latencies[op] * self.time_scale - seconds)
        # Schedule quality counts each distinct request once, whatever
        # the tier that served it.
        for report in quality_of.values():
            self.add_quality(report["ii"], report["mii"], report["cycles"])
        for kind, values in self.served.items():
            self.layers[f"service.{kind}.count"] = len(values)
            self.layers[f"service.{kind}.p50_ms"] = (
                1e3 * self.time_scale * statistics.median(values) if values else 0.0
            )
        self.manifest["served_as_expected"] = sum(
            served == expected for served, expected in zip(self.served_of, self.plan.expected)
        )
        self.layers["service.miss_overhead_ms"] = (
            1e3 * statistics.median(misses) if misses else 0.0
        )
        if self.recorder is not None:
            from repro.api.cache import content_hash

            hashes = []
            for request in self.requests:
                t0 = busy_clock()
                content_hash(request)
                hashes.append(busy_clock() - t0)
            self.layers["api.cache.hash_ms"] = 1e3 * statistics.median(hashes)


def _kind(served_from: Optional[str]) -> str:
    """``served_from`` of a /compile reply as memory_hit / disk_hit / miss."""
    if served_from in ("memory", "disk"):
        return f"{served_from}_hit"
    return "miss" if served_from == "compile" else str(served_from)


class DistSweep(ServiceWorkload):
    """One sweep, with no host probe in its window.

    The client polls while the worker and the daemon compute, so a probe
    there times its contention with the program.  Its time did not
    correlate with the sweep's throughput over ten runs (r = 0.06), and
    on two sets of ten runs normalising by it widened the ops/s spread
    (0.042 -> 0.058 and 0.127 -> 0.142), so the host factor of this
    workload is 1.
    """

    name = "dist_sweep"
    why = (
        "one POST /sweeps of seeded cheap jobs to a coordinator with one "
        "repro worker: leases, claim/complete, journal and report shipping"
    )
    worker = True

    def generate(self) -> None:
        from repro.workloads.suite import perfect_club_surrogate

        suite = perfect_club_surrogate()
        self.pairs = gen.dist_plan(self.seed, self.seconds, [len(loop.ddg) for loop in suite])
        self.requests, self.payloads = self._requests_for(suite, self.pairs)
        self.op_count = len(self.requests)
        self.manifest.update(
            jobs=len(self.requests),
            base_ops=_min_median_max([len(suite[i].ddg) for i, _ in self.pairs]),
            clusters=_histogram([k for _, k in self.pairs]),
        )

    def warm_up(self) -> None:
        self._run_sweep([self._warm_payload()], "perfbench-warmup")

    def _run_sweep(self, payloads, label):
        """Submit, poll to completion, fetch every results page (pickled)."""
        client = self.client
        t0 = wall_clock()
        status = client.submit_sweep({"jobs": payloads, "label": label})
        submitted = wall_clock()
        sweep_id = str(status["sweep"])
        finished_at: List[float] = []  # completion time of the i-th finished job
        deadline = time.monotonic() + 150
        while status.get("state") == "open":
            if time.monotonic() > deadline:
                raise RuntimeError(f"sweep {sweep_id} still open after 150 s")
            time.sleep(SWEEP_POLL_SECONDS)
            status = client.sweep(sweep_id)
            finished = int(status.get("done", 0)) + int(status.get("failed", 0))
            now = wall_clock()
            finished_at.extend([now] * (finished - len(finished_at)))
        completed = wall_clock()
        rows = []
        for start in range(0, len(payloads), 64):
            page = client.sweep_results(sweep_id, start=start, stop=start + 64, pickle=True)
            for row in page["results"]:
                if row.get("state") == "done":
                    row["report_obj"] = pickle.loads(
                        base64.b64decode(str(row["report"]).encode("ascii"))
                    )
                rows.append(row)
        ended = wall_clock()
        return {
            "state": status.get("state"),
            "rows": rows,
            "turnaround": [t - t0 for t in finished_at],
            "submit_s": submitted - t0,
            "results_s": ended - completed,
        }

    def window(self) -> None:
        before = self.client.metrics()
        self.open_window()
        if self.recorder is None:
            sweep = self._run_sweep(self.payloads, f"perfbench-{self.seed}")
        else:
            with self.recorder.span("service.sweep"):
                sweep = self._run_sweep(self.payloads, f"perfbench-{self.seed}")
        self.close_window()
        after = self.client.metrics()
        self.sweep = sweep
        self.attempted = len(self.payloads)
        self.latencies = list(sweep["turnaround"])
        chunks0 = (before.get("sweep") or {}).get("chunks", {})
        chunks1 = after["sweep"]["chunks"]
        granted = chunks1["granted"] - chunks0.get("granted", 0)
        journal = after["journal"]["appends"] - before["journal"]["appends"]
        self.layers.update(
            {
                "service.sweep.submit_ms": 1e3 * self.time_scale * sweep["submit_s"],
                "service.sweep.results_ms": 1e3 * self.time_scale * sweep["results_s"],
                "service.sweep.chunks_granted": granted,
                "service.sweep.jobs_per_chunk": len(self.payloads) / granted if granted else 0.0,
                "service.sweep.requeued": chunks1["requeued"] - chunks0.get("requeued", 0),
                "service.sweep.lease_expiries": chunks1["lease_expiries"]
                - chunks0.get("lease_expiries", 0),
                "service.journal.appends_per_job": journal / len(self.payloads),
            }
        )
        self.manifest["sweep_state"] = sweep["state"]

    def check(self) -> None:
        from repro.scheduling.fingerprint import schedule_fingerprint

        rows = self.sweep["rows"]
        if self.sweep["state"] != "done":
            self.fail(f"sweep ended {self.sweep['state']!r}")
        if len(rows) != len(self.payloads):
            for _ in range(len(self.payloads) - len(rows)):
                self.fail("sweep returned fewer result rows than jobs")
        reference = self.reference(self.requests, range(len(self.requests)))
        done = 0
        for row in rows:
            index = int(row["index"])
            if row.get("state") != "done":
                self.fail(f"job {index}: {row.get('state')}: {row.get('error')}")
                continue
            done += 1
            expected, _seconds = reference[index]
            report = row["report_obj"]
            if row.get("fingerprint") != expected or schedule_fingerprint(report.result) != expected:
                self.fail(f"job {index}: fingerprint differs from the in-process compile")
                continue
            result = report.result
            self.add_quality(result.ii, result.mii, report.compiled.cycles)
        in_process = sum(seconds for _, seconds in reference.values())
        self.layers["service.sweep.overhead_ms_per_job"] = (
            1e3 * (self.elapsed - in_process) / len(self.payloads)
        )
        self._done = done

    def stop(self) -> None:
        super().stop()
        stats_file = self.workdir / "worker.json"
        if stats_file.exists() and hasattr(self, "_done"):
            computed = json.loads(stats_file.read_text()).get("jobs", 0) - 1  # warm-up job
            self.layers["service.sweep.completion_yield"] = (
                self._done / computed if computed > 0 else 0.0
            )


WORKLOADS = {cls.name: cls for cls in (Fig4Sweep, VerifyMatrix, ServeMixed, DistSweep)}


# ----------------------------------------------------------------------
# Per-layer metrics from spans
# ----------------------------------------------------------------------

#: Span name -> metric prefix whose ``busy_ms`` is the span's summed self time.
BUSY_SPANS = {
    "ir.unroll": "ir.unroll",
    "ir.single_use": "ir.single_use",
    "scheduling.unroll_choice": "scheduling.unroll_choice",
    "scheduling.dms": "scheduling.dms",
    "scheduling.ims": "scheduling.ims",
    "scheduling.checker": "scheduling.checker",
    "registers.allocate": "registers.allocate",
    "codegen.build": "codegen.build",
    "simulator.execute": "simulator.execute",
    "validate.reference": "validate.reference",
}

SCHEDULE_COUNTS = (
    "ii_attempts", "restart_attempts", "futility_aborts", "placements",
    "ejections", "chains_built", "chains_dismantled", "moves",
)


def span_layers(recorder: Recorder) -> Dict[str, float]:
    """Per-layer metrics from the traced process's spans."""
    totals = totals_by_name(recorder.spans)

    def total(name):
        return totals.get(name)

    layers: Dict[str, float] = {}
    for span, prefix in BUSY_SPANS.items():
        entry = total(span)
        layers[f"{prefix}.busy_ms"] = 1e3 * entry.busy_s if entry else 0.0
    choice = total("scheduling.unroll_choice")
    layers["scheduling.unroll_choice.calls"] = choice.calls if choice else 0
    unroll = total("ir.unroll")
    layers["ir.unroll.ops_out"] = unroll.counters.get("ops_out", 0) if unroll else 0
    single = total("ir.single_use")
    layers["ir.single_use.copies"] = single.counters.get("copies", 0) if single else 0
    alloc = total("registers.allocate")
    layers["registers.queue_files"] = alloc.counters.get("queue_files", 0) if alloc else 0
    diff = total("validate.differential")
    layers["validate.matched_stores"] = diff.counters.get("matched_stores", 0) if diff else 0

    counts = {name: 0 for name in SCHEDULE_COUNTS + ("scheduled_ops", "compiles")}
    for span in ("scheduling.dms", "scheduling.ims", "scheduling.two_phase"):
        entry = total(span)
        if entry:
            for name in counts:
                counts[name] += entry.counters.get(name, 0)
    for name in SCHEDULE_COUNTS:
        layers[f"scheduling.{name}"] = counts[name]
    layers["scheduling.attempt_yield"] = (
        counts["compiles"] / counts["restart_attempts"] if counts["restart_attempts"] else 0.0
    )
    layers["scheduling.chain_yield"] = (
        (counts["chains_built"] - counts["chains_dismantled"]) / counts["chains_built"]
        if counts["chains_built"] else 0.0
    )
    layers["scheduling.placement_yield"] = (
        counts["scheduled_ops"] / counts["placements"] if counts["placements"] else 0.0
    )
    return layers


def new_recorder(workload: type) -> Recorder:
    """A recorder on *workload*'s per-op clock, with the program instrumented."""
    recorder = Recorder(busy_clock if workload.busy_timed else wall_clock)
    instrument(recorder)
    return recorder
