"""Fig4 panel split: where an in-process fig4 sweep spends its CPU.

Compiles the perfbench ``fig4_sweep`` panel (the IMS and DMS-ring twins
of every panel loop for k = 1..10; 600 compiles at ``--seconds 12``) in
this process, in the workload's seeded order, and times every scheduling
attempt (``AttemptRunner.run``) on the process CPU clock.  The report
splits the sweep's CPU into failed attempts, successful attempts and
everything else a compile does (unroll choice, unroll, single-use, MII,
the checker), reports the tail of the per-compile CPU times the way
fig4_sweep reports ``latency_tail_ms`` (a Harrell-Davis percentile chosen
by the ten-beyond rule), lists the heaviest compiles, and prints one
digest over every compile's schedule fingerprint, so two trees can be
checked for identical decisions while they are timed::

    PYTHONPATH=src python benchmarks/bench_fig4_rungs.py --seed 1 --top 13
    PYTHONPATH=src python benchmarks/bench_fig4_rungs.py --json split.json

The panel and the job order come from ``perfbench/gen.py``, so the
compiles are exactly the ones fig4_sweep times.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path
from typing import Dict, List

REPO_ROOT = Path(__file__).resolve().parent.parent


def _attempt_clock(totals: Dict[str, float], counts: Dict[str, int]) -> None:
    """Wrap every attempt runner's ``run`` to add its CPU time by outcome."""
    from repro.scheduling.dms import DMSAttemptRunner
    from repro.scheduling.ims import IMSAttemptRunner

    for cls in (DMSAttemptRunner, IMSAttemptRunner):
        run = cls.run

        def timed(self, *args, _run=run, **kwargs):
            started = time.process_time()
            outcome = _run(self, *args, **kwargs)
            key = "ok" if outcome.ok else "failed"
            totals[key] += time.process_time() - started
            counts[key] += 1
            return outcome

        cls.run = timed


def panel_split(seed: int, seconds: float, top: int) -> Dict[str, object]:
    sys.path.insert(0, str(REPO_ROOT))
    from perfbench import gen, stats
    from repro.api import Toolchain
    from repro.experiments.runner import SweepConfig, sweep_requests
    from repro.scheduling.fingerprint import schedule_fingerprint
    from repro.workloads.suite import perfect_club_surrogate

    suite = perfect_club_surrogate()
    panel = gen.fig4_panel([len(loop.ddg) for loop in suite], seconds)
    requests = {}
    for index in panel:
        for k, request in sweep_requests([suite[index]], SweepConfig()):
            requests[(index, k, request.scheduler)] = request
    jobs = gen.fig4_jobs(seed, panel)

    attempt_s = {"ok": 0.0, "failed": 0.0}
    attempts = {"ok": 0, "failed": 0}
    _attempt_clock(attempt_s, attempts)
    toolchain = Toolchain.default()
    digest = hashlib.sha256()
    per_compile: List[Dict[str, object]] = []
    started = time.process_time()
    for index, k, scheduler in jobs:
        before = time.process_time()
        failed_before = attempt_s["failed"]
        report = toolchain.compile(requests[(index, k, scheduler)])
        result = report.result
        digest.update(schedule_fingerprint(result).encode())
        per_compile.append(
            {
                "loop": index,
                "k": k,
                "scheduler": scheduler,
                "mii": result.mii,
                "ii": result.ii,
                "cpu_s": round(time.process_time() - before, 5),
                "failed_attempt_s": round(attempt_s["failed"] - failed_before, 4),
            }
        )
    total = time.process_time() - started
    tail_ms, tail_p, _ = stats.tail([1e3 * c["cpu_s"] for c in per_compile])
    heaviest = sorted(per_compile, key=lambda c: -c["cpu_s"])[:top]
    return {
        "seed": seed,
        "seconds": seconds,
        "compiles": len(jobs),
        "cpu_s": round(total, 3),
        "tail_ms": round(tail_ms, 2),
        "tail_percentile": tail_p,
        "failed_attempt_s": round(attempt_s["failed"], 3),
        "ok_attempt_s": round(attempt_s["ok"], 3),
        "other_s": round(total - attempt_s["failed"] - attempt_s["ok"], 3),
        "failed_attempts": attempts["failed"],
        "ok_attempts": attempts["ok"],
        "heaviest": heaviest,
        "heaviest_failed_attempt_s": round(
            sum(c["failed_attempt_s"] for c in heaviest), 3
        ),
        "fingerprint_digest": digest.hexdigest(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--top", type=int, default=13, help="heaviest compiles listed")
    parser.add_argument("--json", help="also write the report here")
    args = parser.parse_args(argv)
    report = panel_split(args.seed, args.seconds, args.top)
    for key in (
        "compiles", "cpu_s", "tail_ms", "tail_percentile", "failed_attempt_s",
        "ok_attempt_s", "other_s", "failed_attempts", "ok_attempts",
        "heaviest_failed_attempt_s", "fingerprint_digest",
    ):
        print(f"{key:<26} {report[key]}")
    print("heaviest compiles (loop, k, scheduler, MII, II, CPU s, failed-attempt s):")
    for c in report["heaviest"]:
        print(
            f"  {c['loop']:>5} k={c['k']:<2} {c['scheduler']} "
            f"{c['mii']:>3} {c['ii']:>3} {c['cpu_s']:8.3f} {c['failed_attempt_s']:8.3f}"
        )
    if args.json:
        Path(args.json).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
