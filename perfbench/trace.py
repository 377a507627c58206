"""In-memory spans recorded around calls into the program's layers.

The traced run builds its toolchain from :func:`traced_passes` and calls
:func:`instrument`, which rebinds, in that process only, the public
functions the passes and the differential oracle call.  Pass names stay
unchanged, so cache keys are identical to an untraced run.  Nothing under
``src/`` is modified.

A span carries a name, start and end (``perf_counter`` seconds), its
parent span, the op it belongs to, and counters.  A span's *self time* is
its duration minus the part of that interval its child spans cover.
Spans are kept in memory and written out at the end as JSONL and as
Chrome trace-event JSON (opens in Perfetto).
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    op: Optional[int] = None
    counters: Dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> Dict[str, object]:
        return {
            "id": self.id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "op": self.op,
            "counters": self.counters,
        }


class Recorder:
    """Collects nested spans of one single-threaded process."""

    def __init__(self, clock: Callable[[], float]):
        self.clock = clock
        self.spans: List[Span] = []
        self.op: Optional[int] = None
        self._stack: List[Span] = []

    @contextmanager
    def span(self, name: str, **counters: float) -> Iterator[Span]:
        span = Span(
            id=len(self.spans),
            name=name,
            start=self.clock(),
            parent=self._stack[-1].id if self._stack else None,
            op=self.op,
            counters=dict(counters),
        )
        self.spans.append(span)
        self._stack.append(span)
        try:
            yield span
        finally:
            span.end = self.clock()
            self._stack.pop()

    def wrap(
        self,
        name: str,
        fn: Callable,
        counters: Optional[Callable[..., Dict[str, float]]] = None,
    ) -> Callable:
        """*fn* recording one span per call; *counters(result, *args)* adds counts."""

        def traced(*args, **kwargs):
            with self.span(name) as span:
                result = fn(*args, **kwargs)
                if counters is not None:
                    span.counters.update(counters(result, *args))
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------


def _covered(start: float, end: float, intervals: Iterable[Tuple[float, float]]) -> float:
    """Length of the union of *intervals* clipped to ``[start, end]``."""
    total = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """Span id -> duration minus the time its children cover."""
    spans = list(spans)
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return {
        span.id: span.duration
        - _covered(span.start, span.end, children.get(span.id, ()))
        for span in spans
    }


@dataclass
class LayerTotals:
    calls: int = 0
    busy_s: float = 0.0
    total_s: float = 0.0
    counters: Dict[str, float] = field(default_factory=dict)


def totals_by_name(spans: Iterable[Span]) -> Dict[str, LayerTotals]:
    """Per span name: calls, summed self time, summed duration, summed counters."""
    spans = list(spans)
    own = self_times(spans)
    out: Dict[str, LayerTotals] = {}
    for span in spans:
        entry = out.setdefault(span.name, LayerTotals())
        entry.calls += 1
        entry.busy_s += own[span.id]
        entry.total_s += span.duration
        for key, value in span.counters.items():
            if isinstance(value, (int, float)):
                entry.counters[key] = entry.counters.get(key, 0) + value
    return out


# ----------------------------------------------------------------------
# Export
# ----------------------------------------------------------------------


def write_jsonl(spans: Iterable[Span], path: str) -> None:
    with open(path, "w") as handle:
        for span in spans:
            handle.write(json.dumps(span.to_dict(), sort_keys=True) + "\n")


def write_chrome(spans: Iterable[Span], path: str) -> None:
    """Chrome trace-event JSON: one complete ("X") event per span."""
    spans = list(spans)
    origin = min((span.start for span in spans), default=0.0)
    pid = os.getpid()
    events = [
        {
            "name": span.name,
            "ph": "X",
            "ts": round((span.start - origin) * 1e6, 3),
            "dur": round(span.duration * 1e6, 3),
            "pid": pid,
            "tid": 1,
            "args": {"id": span.id, "parent": span.parent, "op": span.op,
                     **span.counters},
        }
        for span in spans
    ]
    with open(path, "w") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)


# ----------------------------------------------------------------------
# Instrumentation of the program (traced process only)
# ----------------------------------------------------------------------

#: Scheduler name -> span name of its ``schedule`` call.
SCHEDULER_SPANS = {
    "ims": "scheduling.ims",
    "dms": "scheduling.dms",
    "two_phase": "scheduling.two_phase",
}


def _schedule_counters(result) -> Dict[str, float]:
    stats = result.stats
    return {
        "ii_attempts": stats.ii_attempts,
        "restart_attempts": stats.restart_attempts,
        "futility_aborts": stats.futility_aborts,
        "placements": stats.placements,
        "ejections": stats.total_ejections,
        "chains_built": stats.chains_built,
        "chains_dismantled": stats.chains_dismantled,
        "moves": stats.moves_inserted,
        "scheduled_ops": len(result.placements),
        "compiles": 1,
    }


def traced_passes(recorder: Recorder) -> list:
    """The default pipeline's passes, each run inside a ``pass.<name>`` span.

    The schedule pass gets scheduler classes whose ``schedule`` call is a
    ``scheduling.<scheduler>`` span carrying the exact search counters.
    """
    from repro.api.passes import Pass, SchedulePass, get_pass
    from repro.api.toolchain import DEFAULT_PASSES

    def traced_scheduler(choice: str, base: type) -> type:
        def schedule(self, ddg):
            with recorder.span(SCHEDULER_SPANS[choice]) as span:
                result = base.schedule(self, ddg)
                span.counters.update(_schedule_counters(result))
            return result

        return type(f"Traced{base.__name__}", (base,), {"schedule": schedule})

    class TracedSchedulePass(SchedulePass):
        _SCHEDULERS = {
            choice: traced_scheduler(choice, cls)
            for choice, cls in SchedulePass._SCHEDULERS.items()
        }

    class TracedPass(Pass):
        def __init__(self, inner: Pass):
            self.name = inner.name
            self.inner = inner

        def run(self, ctx) -> None:
            with recorder.span(f"pass.{self.name}"):
                self.inner.run(ctx)

    passes = []
    for name in DEFAULT_PASSES:
        inner = get_pass(name)
        if type(inner) is SchedulePass:
            inner = TracedSchedulePass()
        passes.append(TracedPass(inner))
    return passes


def instrument(recorder: Recorder) -> None:
    """Rebind the public functions the passes and the oracle call (this process only)."""
    from repro.api import passes
    from repro.validate import oracle

    passes.choose_unroll_factor = recorder.wrap(
        "scheduling.unroll_choice", passes.choose_unroll_factor
    )
    passes.unroll_ddg = recorder.wrap(
        "ir.unroll",
        passes.unroll_ddg,
        lambda ddg, *_: {"ops_out": len(ddg)},
    )
    passes.single_use_ddg = recorder.wrap(
        "ir.single_use",
        passes.single_use_ddg,
        lambda out, ddg, *_: {"copies": len(out) - len(ddg)},
    )
    passes.validate_schedule = recorder.wrap(
        "scheduling.checker", passes.validate_schedule
    )
    allocate = recorder.wrap(
        "registers.allocate",
        passes.allocate_queues,
        lambda allocation, *_: {"queue_files": len(allocation.files)},
    )
    passes.allocate_queues = allocate
    oracle.allocate_queues = allocate
    oracle.build_program = recorder.wrap("codegen.build", oracle.build_program)
    oracle.execute_program = recorder.wrap(
        "simulator.execute", oracle.execute_program
    )
    oracle.sequential_run = recorder.wrap(
        "validate.reference", oracle.sequential_run
    )
