"""Sample statistics and host probes shared by the benchmark processes.

Ranks use the nearest-rank rule: the p-th percentile of n sorted samples
sits at rank ``ceil(p/100 * n)``, and the samples at higher ranks are
"beyond" it.  A tail percentile is only reported when at least
:data:`MIN_BEYOND` samples lie beyond it, so that one slow operation
cannot set the figure on its own.  Its value is the Harrell-Davis
estimate (:func:`percentile`), which weighs the order statistics around
that rank instead of reading one of them.
"""

from __future__ import annotations

import math
import os
import random
import signal
import statistics
import time
from typing import Dict, List, Optional, Sequence, Tuple

#: Samples that must lie beyond a reported tail percentile.
MIN_BEYOND = 10

#: Tail percentiles are searched on this grid (in percent).
PERCENTILE_STEP = 0.1


class ThinTailError(ValueError):
    """Too few samples to report a tail percentile under the ten-beyond rule."""


def _rank(p: float, n: int) -> int:
    """1-based nearest rank of percentile *p* among *n* samples."""
    return max(1, math.ceil(round(p / 100.0 * n, 9)))


#: Midpoint-rule steps per order statistic when weighing it.
_HD_STEPS = 8


def percentile(samples: Sequence[float], p: float) -> float:
    """Harrell-Davis estimate of percentile *p* (0 < p < 100) of *samples*.

    A weighted mean of the order statistics: the i-th of n weighs the
    probability that a Beta(p'(n+1), (1-p')(n+1)) variable (p' = p/100)
    falls in ((i-1)/n, i/n] (Harrell and Davis, Biometrika 1982).  In a
    sparse tail one order statistic jumps with the noise of a single op;
    on ten serve_mixed runs the spread of the p98.9 went from 0.23 read
    at one rank to 0.06 estimated this way.
    """
    if not samples:
        raise ValueError("percentile of no samples")
    if not 0 < p < 100:
        raise ValueError(f"percentile must be in (0, 100), got {p}")
    ordered = sorted(samples)
    n = len(ordered)
    a = p / 100.0 * (n + 1)
    b = (1.0 - p / 100.0) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    step = 1.0 / (n * _HD_STEPS)
    weights = []
    for i in range(n):
        weight = 0.0
        for k in range(_HD_STEPS):
            u = (i * _HD_STEPS + k + 0.5) * step
            weight += math.exp(log_norm + (a - 1) * math.log(u) + (b - 1) * math.log1p(-u))
        weights.append(weight)
    return sum(w * x for w, x in zip(weights, ordered)) / sum(weights)


def beyond(p: float, n: int) -> int:
    """Samples ranked above percentile *p* among *n*."""
    return n - _rank(p, n)


def tail_percentile(n: int) -> float:
    """Highest percentile on the grid with :data:`MIN_BEYOND` samples beyond it.

    *n* is the workload's op count.  Raises :class:`ThinTailError` when
    even the median would not leave ten samples beyond it, since a "tail"
    below the median is no tail.
    """
    steps = int(round(100 / PERCENTILE_STEP))
    for step in range(steps - 1, 0, -1):
        p = round(step * PERCENTILE_STEP, 1)
        if p < 50:
            break
        if beyond(p, n) >= MIN_BEYOND:
            return p
    raise ThinTailError(
        f"{n} samples leave fewer than {MIN_BEYOND} beyond the median; "
        "no tail percentile can be reported"
    )


def tail(samples: Sequence[float], op_count: Optional[int] = None) -> Tuple[float, float, int]:
    """``(value, percentile, samples_beyond)`` of the tail of *samples*.

    The percentile is chosen at *op_count* (the workload's op count;
    default ``len(samples)``), then taken over all samples, which may be
    several passes over the same ops.  The ten-beyond rule is checked on
    the samples actually used and raises :class:`ThinTailError` if it
    fails.
    """
    n = len(samples)
    p = tail_percentile(op_count if op_count is not None else n)
    if beyond(p, n) < MIN_BEYOND:
        raise ThinTailError(
            f"p{p} of {n} samples has {beyond(p, n)} beyond it "
            f"(need {MIN_BEYOND})"
        )
    return percentile(samples, p), p, beyond(p, n)


def spread(values: Sequence[float]) -> float:
    """Inter-quartile range as a share of the median (0 when the median is 0)."""
    if len(values) < 2:
        return 0.0
    q1, median, q3 = statistics.quantiles(values, n=4)
    if median == 0:
        return 0.0 if q3 == q1 else math.inf
    return (q3 - q1) / abs(median)


# ----------------------------------------------------------------------
# Host probes (recorded per run, never gated)
# ----------------------------------------------------------------------


def calibrate(rounds: int = 3) -> float:
    """Median seconds of a fixed pure-Python workload.

    The work never changes, so a drift in this figure between two sets
    of runs is the host's, not the program's.
    """
    times = []
    for _ in range(rounds):
        started = time.perf_counter()
        table: Dict[int, int] = {}
        acc = 0
        for i in range(60_000):
            acc = (acc * 31 + i) % 1_000_003
            table[acc & 1023] = i
        sorted(table.items())
        times.append(time.perf_counter() - started)
    return statistics.median(times)


class HostProbe:
    """A fixed memory-bound pure-Python task, timed between the ops of a window.

    The host's speed drifts by +-20% over minutes with no steal at all
    (neighbours on the shared memory system), and the drift moves whole
    runs.  This probe chases pointers through a fixed object graph and
    churns a dict, so like the compiler it is bound by the memory system;
    its median time in a window is the host's speed during that window.
    Over eight verify_matrix runs its time correlated -0.87 with
    throughput, while the arithmetic loop of :func:`calibrate` did not
    track the drift.  The probe is benchmark code, so no change to the
    program moves it except through the cache state the program leaves.
    """

    #: Wall seconds between probes (each takes ~10 ms: ~2.5% of a window).
    EVERY = 0.4
    #: The probe's median busy time on a quiet 2-core host: the unit of
    #: :meth:`factor`.
    REFERENCE_MS = 12.0

    def __init__(self, clock) -> None:
        rng = random.Random(7)
        self.nodes = [{"id": i, "succ": [], "w": i % 7} for i in range(30_000)]
        for node in self.nodes:
            node["succ"].extend(self.nodes[rng.randrange(len(self.nodes))] for _ in range(3))
        self.clock = clock
        self.samples: List[float] = []
        self._next = 0.0

    def _work(self) -> int:
        rng = random.Random(11)
        node, total = self.nodes[0], 0
        for _ in range(8_000):
            node = node["succ"][rng.randrange(3)]
            total += node["w"]
        table: Dict[int, int] = {}
        for i in range(3_000):
            table[(i * 7919) % 2048] = total + i
        return len(table)

    def maybe(self) -> None:
        """Probe once if :data:`EVERY` wall seconds passed since the last probe."""
        if time.perf_counter() < self._next:
            return
        started = self.clock()
        self._work()
        self.samples.append(self.clock() - started)
        self._next = time.perf_counter() + self.EVERY

    @property
    def spent(self) -> float:
        return sum(self.samples)

    def factor(self) -> float:
        """Median probe time over :data:`REFERENCE_MS`: > 1 on a slow host."""
        if not self.samples:
            return 1.0
        return 1e3 * statistics.median(self.samples) / self.REFERENCE_MS


def steal_seconds() -> float:
    """The VM's cumulative stolen time per CPU, in seconds (0 if not reported).

    This is the total over all CPUs divided by their number.  The
    hypervisor steals from every vCPU alike, idle ones included (with one
    busy process, the two CPUs of a 2-core VM reported 121 and 137 steal
    ticks over the same 30 s), while a serial chain of work runs on one
    CPU at a time and so loses the per-CPU share, not the total: one
    serve_mixed window of 21.7 s wall reported 17.1 s of total steal.
    """
    ticks = steal_ticks()
    if ticks is None:
        return 0.0
    return ticks / os.sysconf("SC_CLK_TCK") / _cpu_lines()


def _cpu_lines() -> int:
    """Number of per-CPU lines in ``/proc/stat``."""
    with open("/proc/stat") as handle:
        return max(1, sum(1 for line in handle if line.startswith("cpu") and line[3].isdigit()))


def steal_ticks() -> Optional[int]:
    """Cumulative steal ticks of all CPUs from ``/proc/stat`` (None if absent)."""
    try:
        with open("/proc/stat") as handle:
            fields = handle.readline().split()
    except OSError:
        return None
    if len(fields) < 9 or fields[0] != "cpu":
        return None
    return int(fields[8])


def _children_map() -> Dict[int, List[int]]:
    children: Dict[int, List[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                raw = handle.read()
        except OSError:
            continue
        # The command name may hold spaces; fields resume after ')'.
        ppid = int(raw[raw.rindex(")") + 2 :].split()[1])
        children.setdefault(ppid, []).append(int(entry))
    return children


def process_tree(root: int) -> List[int]:
    """*root* and all its live descendants."""
    children = _children_map()
    tree, frontier = [], [root]
    while frontier:
        pid = frontier.pop()
        tree.append(pid)
        frontier.extend(children.get(pid, ()))
    return tree


def peak_rss_mb(root: Optional[int] = None) -> float:
    """Sum of peak resident set sizes (VmHWM) over a process tree, in MiB."""
    total_kb = 0
    for pid in process_tree(root if root is not None else os.getpid()):
        try:
            with open(f"/proc/{pid}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kb / 1024.0


def kill_tree(root: int) -> None:
    """SIGKILL *root* and every descendant (listed before any is killed)."""
    for pid in process_tree(root):
        try:
            os.kill(pid, signal.SIGKILL)
        except OSError:
            pass
