"""Deterministic fault injection: named failure points, seeded schedules.

Every recovery path in the compilation service — pool respawn after a
worker crash, journal replay after a torn write, disk-cache read-repair,
client retry after a connection reset — needs to be *provoked* before it
can be trusted.  This module provides the switchboard: code under test
calls a named fault point (:func:`fire`, :func:`crashpoint`,
:func:`slowpoint`, :func:`damage_cache_entry`) and an armed
:class:`FaultPlan` decides, deterministically, whether that occurrence
fails.  Unarmed (the default), every fault point is a no-op costing one
attribute load and a ``None`` check.

The catalog of points (see :data:`FAULT_POINTS`):

``worker-crash``
    compile worker dies mid-job (``os._exit`` in a real pool worker, a
    :class:`SimulatedWorkerCrash` — a ``BrokenExecutor`` — in thread
    mode), exercising pool respawn, retry budgets and poison quarantine;
``slow-compile``
    the worker sleeps ``delay`` seconds before compiling, widening race
    windows for kill/restart tests;
``corrupt-cache-entry``
    the next disk-cache read finds its entry garbled on disk,
    exercising read-repair;
``conn-reset``
    the daemon aborts the TCP connection instead of writing a response,
    exercising client retry;
``journal-torn-write``
    a journal append stops halfway through the line (a crash mid-write),
    exercising torn-tail truncation on replay;
``worker-vanish``
    a sweep worker claims a chunk and then disappears without ever
    heartbeating or completing it, exercising lease expiry and chunk
    requeue on the coordinator;
``slow-worker``
    a sweep worker sleeps ``delay`` seconds before each job in a chunk
    (a straggler), exercising heartbeat-extended leases and
    lease-steal/duplicate-completion resolution.

Schedules are deterministic: a rule fires on explicit 1-based occurrence
indices (``times=2+5``), on every Nth occurrence (``every=3``), or with
probability ``rate`` drawn from a :class:`random.Random` seeded from
``(seed, point)`` — never the global RNG, so two runs with the same seed
and the same call sequence fire identically.

Arming: :func:`install` a plan (the daemon's ``--faults SPEC
--fault-seed N`` flags and the tests do; see :meth:`FaultPlan.from_spec`
for the spec grammar).  Spawned pool workers start unarmed;
:func:`repro.pools.spawn_pool` passes the parent's serialized plan to
each of them through the pool initializer (:func:`install_from_spec`).
"""

from __future__ import annotations

import hashlib
import os
import random
import threading
import time
from concurrent.futures import BrokenExecutor
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from .errors import FaultError

#: Every fault point the codebase calls, so a typo'd spec is an error
#: instead of a silently dead rule.
FAULT_POINTS: Tuple[str, ...] = (
    "worker-crash",
    "slow-compile",
    "corrupt-cache-entry",
    "conn-reset",
    "journal-torn-write",
    "worker-vanish",
    "slow-worker",
)

#: Exit status a crashed pool worker dies with (BSD's EX_SOFTWARE).
WORKER_CRASH_EXIT = 70


class SimulatedWorkerCrash(BrokenExecutor):
    """A worker crash injected in thread-executor mode.

    Deriving from ``BrokenExecutor`` makes the daemon's supervision path
    indistinguishable from a real pool collapse, without killing the
    test process the thread pool lives in.
    """


@dataclass(frozen=True)
class FaultRule:
    """When one fault point fires.

    ``times`` (1-based occurrence indices) and ``every`` are exact;
    ``rate`` is probabilistic but seeded.  ``limit`` caps total fires
    (0 = unlimited); ``delay`` parameterizes ``slow-compile``.
    """

    point: str
    times: Tuple[int, ...] = ()
    every: int = 0
    rate: float = 0.0
    delay: float = 0.0
    limit: int = 0

    def __post_init__(self) -> None:
        if self.point not in FAULT_POINTS:
            raise FaultError(
                f"unknown fault point {self.point!r}; "
                f"catalog: {', '.join(FAULT_POINTS)}"
            )
        if not (0.0 <= self.rate <= 1.0):
            raise FaultError(f"{self.point}: rate must be in [0, 1], got {self.rate}")
        if self.every < 0 or self.limit < 0 or self.delay < 0:
            raise FaultError(f"{self.point}: every/limit/delay must be >= 0")
        if any(t < 1 for t in self.times):
            raise FaultError(f"{self.point}: occurrence indices are 1-based")


def _point_seed(seed: int, point: str) -> int:
    """A stable per-point sub-seed (sha256, not the salted ``hash()``)."""
    digest = hashlib.sha256(f"{seed}:{point}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class FaultPlan:
    """An armed set of fault rules with deterministic firing state."""

    def __init__(self, rules: Tuple[FaultRule, ...] = (), seed: int = 0):
        by_point: Dict[str, FaultRule] = {}
        for rule in rules:
            if rule.point in by_point:
                raise FaultError(f"duplicate rule for fault point {rule.point!r}")
            by_point[rule.point] = rule
        self.rules = by_point
        self.seed = int(seed)
        self.spec = plan_spec(tuple(by_point.values()))
        self._lock = threading.Lock()
        self._occurrences: Dict[str, int] = {}
        self._fired: Dict[str, int] = {}
        self._rngs: Dict[str, random.Random] = {
            point: random.Random(_point_seed(self.seed, point))
            for point in by_point
        }

    # ------------------------------------------------------------------

    @classmethod
    def from_spec(cls, spec: str, seed: int = 0) -> "FaultPlan":
        """Parse a plan from its spec string.

        Grammar: ``;``-separated clauses, each
        ``point[:key=value[:key=value...]]`` with keys ``times`` (1-based
        indices joined by ``+``), ``every``, ``rate``, ``delay`` and
        ``limit``::

            worker-crash:times=3;slow-compile:rate=0.25:delay=0.05
        """
        rules = []
        for clause in spec.split(";"):
            clause = clause.strip()
            if not clause:
                continue
            parts = clause.split(":")
            point, options = parts[0].strip(), parts[1:]
            kwargs: Dict[str, object] = {}
            for option in options:
                key, sep, value = option.partition("=")
                key = key.strip()
                if not sep or key not in ("times", "every", "rate", "delay", "limit"):
                    raise FaultError(
                        f"bad fault option {option!r} in clause {clause!r}; "
                        "keys: times=<i+j+...>, every=<n>, rate=<p>, "
                        "delay=<s>, limit=<n>"
                    )
                try:
                    if key == "times":
                        kwargs[key] = tuple(
                            int(part) for part in value.split("+") if part
                        )
                    elif key in ("every", "limit"):
                        kwargs[key] = int(value)
                    else:
                        kwargs[key] = float(value)
                except ValueError:
                    raise FaultError(
                        f"bad value {value!r} for {key!r} in clause {clause!r}"
                    )
            rules.append(FaultRule(point=point, **kwargs))  # type: ignore[arg-type]
        return cls(tuple(rules), seed=seed)

    # ------------------------------------------------------------------

    def should_fire(self, point: str) -> bool:
        """Record one occurrence of *point* and decide whether it fails."""
        rule = self.rules.get(point)
        with self._lock:
            n = self._occurrences.get(point, 0) + 1
            self._occurrences[point] = n
            if rule is None:
                return False
            if rule.limit and self._fired.get(point, 0) >= rule.limit:
                return False
            fire = False
            if rule.times and n in rule.times:
                fire = True
            elif rule.every and n % rule.every == 0:
                fire = True
            elif rule.rate and self._rngs[point].random() < rule.rate:
                fire = True
            if fire:
                self._fired[point] = self._fired.get(point, 0) + 1
            return fire

    def delay_for(self, point: str) -> float:
        rule = self.rules.get(point)
        return rule.delay if rule is not None else 0.0

    def counters(self) -> Dict[str, object]:
        """Armed points + occurrence/fire counts (for ``/metrics``)."""
        with self._lock:
            return {
                "armed": sorted(self.rules),
                "seed": self.seed,
                "spec": self.spec,
                "occurrences": dict(sorted(self._occurrences.items())),
                "fired": dict(sorted(self._fired.items())),
            }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<FaultPlan {self.spec!r} seed={self.seed}>"


def plan_spec(rules: Tuple[FaultRule, ...]) -> str:
    """The canonical spec string for *rules* (inverse of ``from_spec``)."""
    clauses = []
    for rule in rules:
        clause = rule.point
        if rule.times:
            clause += ":times=" + "+".join(str(t) for t in rule.times)
        if rule.every:
            clause += f":every={rule.every}"
        if rule.rate:
            clause += f":rate={rule.rate:g}"
        if rule.delay:
            clause += f":delay={rule.delay:g}"
        if rule.limit:
            clause += f":limit={rule.limit}"
        clauses.append(clause)
    return ";".join(clauses)


# ----------------------------------------------------------------------
# Process-wide arming
# ----------------------------------------------------------------------

_active: Optional[FaultPlan] = None
_arm_lock = threading.Lock()


def install(plan: Optional[FaultPlan]) -> None:
    """Arm *plan* process-wide (``None`` disarms)."""
    global _active
    with _arm_lock:
        _active = plan


def install_from_spec(spec: str, seed: int = 0) -> None:
    """Arm from a spec string (picklable pool-worker initializer)."""
    install(FaultPlan.from_spec(spec, seed=seed))


def disarm() -> None:
    """Disarm (tests call this in teardown)."""
    install(None)


def active() -> Optional[FaultPlan]:
    """The armed plan, or ``None``."""
    return _active


# ----------------------------------------------------------------------
# Fault points (call sites use these; all no-ops when unarmed)
# ----------------------------------------------------------------------


def fire(point: str) -> bool:
    """One occurrence of *point*: ``True`` means the caller must fail."""
    plan = active()
    return plan is not None and plan.should_fire(point)


def crashpoint(point: str = "worker-crash") -> None:
    """Die here when armed.

    In a real (spawned) pool worker the process hard-exits, so the
    parent observes a genuine ``BrokenProcessPool``.  In the parent
    process (thread-executor test mode) it raises
    :class:`SimulatedWorkerCrash` instead, which is a
    ``BrokenExecutor`` and takes the identical recovery path.
    """
    if not fire(point):
        return
    import multiprocessing

    if multiprocessing.parent_process() is not None:
        os._exit(WORKER_CRASH_EXIT)
    raise SimulatedWorkerCrash(
        f"fault injection: simulated worker crash at {point!r}"
    )


def slowpoint(point: str = "slow-compile") -> None:
    """Sleep the rule's ``delay`` when armed (widens race windows)."""
    plan = active()
    if plan is not None and plan.should_fire(point):
        delay = plan.delay_for(point)
        if delay > 0:
            time.sleep(delay)


def damage_cache_entry(path: object) -> None:
    """Garble the cache entry at *path* on disk when armed.

    The corruption is real — the normal read path then trips over it —
    so read-repair is exercised end to end, not around a mock.
    """
    if not fire("corrupt-cache-entry"):
        return
    try:
        with open(path, "r+b") as handle:
            handle.seek(0)
            handle.write(b"\x00repro-fault-injection: corrupt entry\x00")
    except FileNotFoundError:
        pass  # nothing to corrupt: the read will miss anyway


def torn_write_size(line_length: int) -> Optional[int]:
    """Bytes of the next journal line to actually write, when armed.

    ``None`` means write the whole line; an int means simulate a crash
    mid-append by persisting only that prefix (no trailing newline).
    """
    if not fire("journal-torn-write"):
        return None
    return max(1, line_length // 2)
