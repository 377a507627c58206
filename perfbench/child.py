"""Workload process: set up, wait for run.py's word, measure, check.

Started by ``run.py`` as a fresh interpreter.  Protocol on stdout:

* ``PERFBENCH-READY {json}`` once set-up is done (set-up breakdown);
* run.py answers ``go`` or ``stop`` on stdin (``stop`` = this process
  was one more set-up sample);
* ``PERFBENCH-RESULT {json}`` after the window and the checks.

Diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import gc
import json
import signal
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.stats import peak_rss_mb  # noqa: E402
from perfbench.trace import write_chrome, write_jsonl  # noqa: E402
from perfbench.workloads import WORKLOADS, new_recorder, span_layers  # noqa: E402

READY = "PERFBENCH-READY "
RESULT = "PERFBENCH-RESULT "


def emit(prefix: str, document: dict) -> None:
    sys.stdout.write(prefix + json.dumps(document) + "\n")
    sys.stdout.flush()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    args = parser.parse_args()
    # A shell starts background jobs with SIGINT ignored, and an ignored
    # signal stays ignored across exec: give the services this process
    # starts the default, or `repro worker` never sees its stop signal.
    signal.signal(signal.SIGINT, signal.default_int_handler)

    clock = time.perf_counter
    sys.path.insert(0, str(ROOT / "src"))
    started = clock()
    import repro.cli  # noqa: F401  (timed: the fresh import users pay)

    import_ms = 1e3 * (clock() - started)
    recorder = new_recorder(WORKLOADS[args.workload]) if args.trace else None
    args.workdir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, args.seconds, args.workdir, recorder)
    try:
        started = clock()
        workload.generate()
        generate_ms = 1e3 * (clock() - started)
        started = clock()
        workload.start()
        startup_ms = 1e3 * (clock() - started)
        setup = {
            "import_repro_ms": import_ms,
            "generate_ms": generate_ms,
            "startup_ms": startup_ms,
        }
        emit(READY, setup)
        if sys.stdin.readline().strip() != "go":
            return 0
        gc.collect()
        workload.window()
        workload.peak_rss_mb = peak_rss_mb()
        workload.check()
    finally:
        workload.stop()
    result = workload.result()
    result["setup"] = setup
    if recorder is not None:
        result["layers"].update(span_layers(recorder))
        result["spans"] = len(recorder.spans)
        write_jsonl(recorder.spans, str(args.workdir / "spans.jsonl"))
        write_chrome(recorder.spans, str(args.workdir / "trace.json"))
    emit(RESULT, result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
