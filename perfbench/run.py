"""Benchmark entry point: one command, four workloads, every output checked.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fig4_sweep --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all --seed 1          # every workload

Each workload runs in fresh interpreters started from this one process.
Set-up (interpreter start, imports, input generation, service start-up)
is repeated :data:`SETUP_SAMPLES` times and reported as the median
``setup_s``; the last process goes on to the timed window.  With
``--trace 1`` the workload runs once untraced and once traced, and the
per-layer metrics of the traced run are reported with the tracing
overhead.  Metric names and units come from ``BENCHMARK.json``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Per-run details (workload
manifest, sample counts, host probes, spans) are written under
``.perfbench/`` in the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import queue
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import stats  # noqa: E402
from perfbench.child import READY, RESULT  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

CHILD = Path(__file__).with_name("child.py")

#: Wall-clock budget of one workload run (the contract allows 180 s).
RUN_BUDGET_SECONDS = 170.0

#: Set-ups per end-to-end run; ``setup_s`` is their median.
SETUP_SAMPLES = 3

clock = time.perf_counter


class ChildFailed(RuntimeError):
    pass


class Child:
    """One workload process and a reader thread for its stdout."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: int, workdir: Path):
        self.workdir = workdir
        self.started = clock()
        self.proc = subprocess.Popen(
            [
                sys.executable, str(CHILD),
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(trace),
                "--workdir", str(workdir),
            ],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            cwd=str(ROOT),
        )
        self.lines: "queue.Queue[Optional[str]]" = queue.Queue()
        self.reader = threading.Thread(target=self._read, daemon=True)
        self.reader.start()

    def _read(self) -> None:
        for line in self.proc.stdout:
            self.lines.put(line)
        self.lines.put(None)

    def expect(self, prefix: str, deadline: float) -> dict:
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ChildFailed(f"no {prefix.strip()} line before the run's deadline")
            try:
                line = self.lines.get(timeout=remaining)
            except queue.Empty:
                continue
            if line is None:
                raise ChildFailed(
                    f"workload process exited ({self.proc.wait()}) before {prefix.strip()}"
                )
            if line.startswith(prefix):
                return json.loads(line[len(prefix):])
            sys.stderr.write(line)

    def send(self, word: str) -> None:
        self.proc.stdin.write(word + "\n")
        self.proc.stdin.flush()

    def close(self, timeout: float = 60.0) -> None:
        """Wait for the process; kill it and its descendants if it lingers."""
        try:
            self.proc.stdin.close()
        except OSError:
            pass
        try:
            self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            stats.kill_tree(self.proc.pid)
            self.proc.wait()
        self.reader.join(timeout=5)


def measure(name: str, seed: int, seconds: float, trace: int, samples: int,
            out: Path, deadline: float) -> dict:
    """Set up *samples* times (the last one measures); returns the raw result."""
    setup_times: List[float] = []
    result = None
    for sample in range(samples):
        workdir = out / f"{name}-s{seed}-t{trace}-{os.getpid()}-{sample}"
        child = Child(name, seed, seconds, trace, workdir)
        try:
            breakdown = child.expect(READY, deadline)
            setup_times.append(clock() - child.started)
            last = sample == samples - 1
            child.send("go" if last else "stop")
            if last:
                result = child.expect(RESULT, deadline)
            child.close()
        finally:
            if child.proc.poll() is None:
                stats.kill_tree(child.proc.pid)
                child.proc.wait()
        if result is not None and trace:
            for produced in ("spans.jsonl", "trace.json"):
                shutil.move(str(workdir / produced), str(out / f"{name}-s{seed}.{produced}"))
        shutil.rmtree(workdir, ignore_errors=True)
    result["setup_samples_s"] = setup_times
    result["setup_breakdown"] = breakdown
    return result


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------


def end_to_end(result: dict) -> Dict[str, dict]:
    """End-to-end values with the sample counts behind each.

    Timings (busy time in-process, steal-free wall time for the services)
    are normalised to the reference host speed: ops/s is multiplied and
    latencies divided by the window's host factor
    (median :class:`~perfbench.stats.HostProbe` time over its reference).
    Set-up wall time is divided by the same factor, measured seconds
    after it: between a slow and a fast phase of the host, the fig4_sweep
    set-up median moved 47% raw and 4% normalised.  The raw figures are
    kept in the notes.
    """
    factor = result["host_factor"]
    raw = [value * result["time_scale"] for value in result["latencies_ms"]]
    latencies = [value / factor for value in raw]
    attempted, failed = result["attempted"], result["failed"]
    raw_ops = (attempted - failed) / result["elapsed_s"]
    tail_value, tail_p, tail_beyond = stats.tail(latencies, result["op_count"])
    setups = result["setup_samples_s"]
    return {
        "setup_s": {
            "value": statistics.median(setups) / factor,
            "note": f"median of {len(setups)} set-ups "
                    f"[{', '.join(f'{s:.3f}' for s in setups)}] / host factor",
        },
        "ops_per_s": {
            "value": raw_ops * factor,
            "note": f"{attempted - failed} ok ops / {result['elapsed_s']:.3f} s = "
                    f"{raw_ops:.2f}/s x host factor {factor:.3f} ({result['probes']} probes); "
                    f"{result['wall_elapsed_s']:.3f} s wall, {result['stolen_s']:.2f} s stolen per CPU",
        },
        "latency_p50_ms": {
            "value": stats.percentile(latencies, 50),
            "note": f"p50 of {len(latencies)} samples (raw {stats.percentile(raw, 50):.3f})",
        },
        "latency_tail_ms": {
            "value": tail_value,
            "note": f"p{tail_p} of {len(latencies)} samples, {tail_beyond} beyond "
                    f"(raw {tail_value * factor:.3f})",
            "percentile": tail_p,
            "beyond": tail_beyond,
        },
        "peak_rss_mb": {
            "value": result["peak_rss_mb"],
            "note": "sum of VmHWM over the workload process tree",
        },
        "fail_ratio": {
            "value": failed / attempted,
            "note": f"{failed} failed / {attempted} attempted",
        },
        "ok_ratio": {
            "value": (attempted - failed) / attempted,
            "note": f"{attempted - failed} ok / {attempted} attempted",
        },
        "ii_over_mii": {
            "value": result["ii_sum"] / result["mii_sum"] if result["mii_sum"] else 0.0,
            "note": f"sum II {result['ii_sum']} / sum MII {result['mii_sum']}",
        },
        "sched_cycles": {
            "value": result["cycles_sum"],
            "note": "sum of CompiledLoop.cycles, each ok compile result once",
        },
    }


def per_layer(untraced: dict, traced: dict) -> Dict[str, dict]:
    layers = dict(traced["layers"])
    setup = traced["setup_breakdown"]
    layers["setup.import_repro_ms"] = setup["import_repro_ms"]
    layers["setup.generate_ms"] = setup["generate_ms"]
    layers["service.startup_ms"] = setup["startup_ms"]
    # Per-op time at the reference host speed, as ops_per_s is.
    per_op_u = untraced["elapsed_s"] / untraced["attempted"] / untraced["host_factor"]
    per_op_t = traced["elapsed_s"] / traced["attempted"] / traced["host_factor"]
    layers["trace.overhead_pct"] = 100.0 * (per_op_t / per_op_u - 1.0)
    return {name: {"value": value} for name, value in layers.items()}


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def run_workload(name: str, args, spec: dict) -> dict:
    out = args.out
    deadline = time.monotonic() + RUN_BUDGET_SECONDS
    steal_before = stats.steal_ticks()
    calibration_before = stats.calibrate()
    if args.trace:
        untraced = measure(name, args.seed, args.seconds, 0, 1, out, deadline)
        result = measure(name, args.seed, args.seconds, 1, 1, out, deadline)
        values = per_layer(untraced, result)
        wanted = spec["per_layer"]
    else:
        result = measure(name, args.seed, args.seconds, 0, SETUP_SAMPLES, out, deadline)
        values = end_to_end(result)
        wanted = spec["end_to_end"]
    calibration_after = stats.calibrate()
    steal_after = stats.steal_ticks()
    host = {
        "cpus": os.cpu_count(),
        "python": sys.version.split()[0],
        "calibration_ms_before": 1e3 * calibration_before,
        "calibration_ms_after": 1e3 * calibration_after,
        "steal_ticks": (
            steal_after - steal_before
            if steal_before is not None and steal_after is not None else None
        ),
    }
    metrics = {
        entry["name"]: {"value": values.get(entry["name"], {}).get("value", 0.0),
                        "unit": entry["unit"]}
        for entry in wanted
    }
    report = {
        "workload": name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "failures": result["failures"],
        "metrics": metrics,
        "details": values,
        "manifest": result["manifest"],
        "layers": result["layers"],
        "latencies_ms": result["latencies_ms"],
        "host": host,
    }
    _print_report(report, wanted)
    suffix = "-trace" if args.trace else ""
    with open(out / f"{name}-s{args.seed}{suffix}.json", "w") as handle:
        json.dump(report, handle, indent=1, sort_keys=True)
    return report


def _print_report(report: dict, wanted: List[dict]) -> None:
    print(f"== {report['workload']}  seed={report['seed']}  seconds={report['seconds']:g}"
          f"  trace={report['trace']} ==")
    for entry in wanted:
        name = entry["name"]
        value = report["metrics"][name]["value"]
        note = report["details"].get(name, {}).get("note", "")
        print(f"  {name:<40} {value:>14.4f} {entry['unit']:<7} {note}")
    if not report["trace"]:
        fail = report["details"]["fail_ratio"]
        print(f"  {'fail_ratio':<40} {fail['value']:>14.4f} {'ratio':<7} {fail['note']}")
    host = report["host"]
    print(f"  host: {host['cpus']} cpus, calibration {host['calibration_ms_before']:.2f} ms"
          f" before / {host['calibration_ms_after']:.2f} ms after, steal ticks"
          f" {host['steal_ticks']}")
    print(f"  manifest: {json.dumps(report['manifest'], sort_keys=True)}")
    for failure in report["failures"]:
        print(f"  FAILED: {failure}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=ROOT / ".perfbench")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    spec = load_spec()
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    args.out.mkdir(parents=True, exist_ok=True)

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    reports = [run_workload(name, args, spec) for name in names]
    print(json.dumps(summary_line(reports)))
    return 0


def summary_line(reports: List[dict]) -> dict:
    """The last stdout line: one workload's metrics, or all of them prefixed."""
    if len(reports) == 1:
        metrics = reports[0]["metrics"]
    else:
        metrics = {
            f"{report['workload']}.{name}": value
            for report in reports
            for name, value in report["metrics"].items()
        }
    return {
        "correct": all(report["correct"] for report in reports),
        "attempted": sum(report["attempted"] for report in reports),
        "failed": sum(report["failed"] for report in reports),
        "metrics": metrics,
    }


if __name__ == "__main__":
    sys.exit(main())
