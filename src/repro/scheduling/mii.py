"""Minimum initiation interval: resource bound and recurrence bound.

``MII = max(ResMII, RecMII)`` (Rau, "Iterative Modulo Scheduling", 1996):

* **ResMII** — for unit-occupancy fully pipelined FUs this is the largest
  ``ceil(ops_of_kind / units_of_kind)`` over FU kinds.
* **RecMII** — the smallest II such that no dependence circuit has
  positive slack deficit, i.e. for every circuit
  ``sum(latency) <= II * sum(omega)``.  That is ``ceil(λ*)`` for the
  loop's *maximum cycle ratio* ``λ* = max sum(latency) / sum(omega)``.

:func:`max_cycle_ratio` computes ``λ*`` exactly, per strongly connected
component, by cycle-ratio iteration (Dinkelbach's method): Bellman-Ford
on the integer edge weights ``q * latency - p * omega`` finds a circuit
with ratio above the current ``p / q`` if one exists, and that circuit's
ratio becomes the next ``p / q``.  Each step strictly raises the ratio
over a finite set of simple-circuit ratios, so the iteration ends at
``λ*`` after a few steps.  Unrolling by ``u`` scales every circuit's
latency by ``u`` and keeps its distance, so the unrolled graph's RecMII
is ``ceil(u * λ*)`` with no second search.  :func:`choose_unroll_factor`
prices every candidate unroll factor that way.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from ..config import DEFAULT_CONFIG
from ..errors import SchedulingError
from ..ir.ddg import DDG
from ..ir.opcodes import DEFAULT_LATENCIES, FUKind, LatencyModel, USEFUL_FU_KINDS
from ..machine.machine import MachineSpec, unclustered_vliw


@dataclass(frozen=True)
class MIIResult:
    """The three II lower bounds of a loop on a machine."""

    res_mii: int
    rec_mii: int

    @property
    def mii(self) -> int:
        return max(self.res_mii, self.rec_mii, 1)


def res_mii(ddg: DDG, machine: MachineSpec) -> int:
    """Resource-constrained lower bound on the II."""
    counts = [0] * len(FUKind)
    for op in ddg.operations():
        counts[op.fu_kind.index] += 1
    bound = 1
    for kind in FUKind:
        count = counts[kind.index]
        if not count:
            continue
        units = machine.fu_count(kind)
        if units == 0:
            raise SchedulingError(
                f"loop {ddg.name!r} uses {kind.value} ops but machine "
                f"{machine.name!r} has no {kind.value} unit"
            )
        bound = max(bound, -(-count // units))
    return bound


def _scc_edges(
    ddg: DDG, scc: Sequence[int], latencies: LatencyModel
) -> List[Tuple[int, int, int, int]]:
    """Edges internal to *scc* as (src, dst, latency, omega)."""
    members = set(scc)
    edges = []
    for src in scc:
        for edge in ddg.out_edges(src):
            if edge.dst in members:
                edges.append(
                    (src, edge.dst, ddg.edge_latency(edge, latencies), edge.omega)
                )
    return edges


def _positive_cycle(
    nodes: Sequence[int],
    edges: List[Tuple[int, int, int, int]],
    ii: int,
    scale: int,
) -> Optional[List[Tuple[int, int, int, int]]]:
    """A cycle with positive total ``scale*lat - ii*omega``, or None.

    Bellman-Ford longest paths from a virtual source; each relaxation
    records the edge that made it, and a positive cycle shows up as a
    cycle of those edges.
    """
    dist = {node: 0 for node in nodes}
    pred: Dict[int, int] = {}
    # Hoist the per-edge weights out of the up to |nodes| sweeps.
    weighted = [
        (src, dst, scale * lat - ii * omega) for src, dst, lat, omega in edges
    ]
    # No simple path can gain more than the sum of positive weights; a
    # distance beyond that proves a positive cycle without finishing the
    # remaining sweeps.
    max_path_gain = sum(weight for _, _, weight in weighted if weight > 0)
    for _ in range(len(nodes)):
        last = None
        for index, (src, dst, weight) in enumerate(weighted):
            candidate = dist[src] + weight
            if candidate > dist[dst]:
                dist[dst] = candidate
                pred[dst] = index
                last = dst
                if candidate > max_path_gain:
                    break
        if last is None:
            return None
        if dist[last] > max_path_gain:
            break
    # Still relaxing after |nodes| sweeps (or past any simple path's
    # gain): |nodes| steps back along the recorded edges land on the cycle.
    node = last
    for _ in range(len(nodes)):
        node = edges[pred[node]][0]
    cycle = [edges[pred[node]]]
    while cycle[-1][0] != node:
        cycle.append(edges[pred[cycle[-1][0]]])
    return cycle


def _scc_cycle_ratio(
    scc: Sequence[int], edges: List[Tuple[int, int, int, int]], incumbent: Fraction
) -> Optional[Fraction]:
    """Maximum cycle ratio of one SCC, or *incumbent* when not above it.

    While some circuit beats the current ratio ``p/q`` (a positive cycle
    under weights ``q*lat - p*omega``), that circuit's own, strictly
    larger ratio becomes the current one.  None when an omega-0 circuit
    with positive latency makes the ratio unbounded.
    """
    ratio = incumbent
    while True:
        cycle = _positive_cycle(scc, edges, ratio.numerator, ratio.denominator)
        if cycle is None:
            return ratio
        omega = sum(e[3] for e in cycle)
        if omega == 0:
            return None
        ratio = Fraction(sum(e[2] for e in cycle), omega)


def max_cycle_ratio(ddg: DDG, latencies: LatencyModel) -> Fraction:
    """Exact maximum over dependence circuits of latency / omega (λ*).

    ``0`` when the loop has no circuit with a positive ratio; RecMII is
    ``max(1, ceil(u * λ*))`` either way.  A component whose ratio cannot
    beat the best one so far costs a single positive-cycle test.
    """
    best = Fraction(0)
    for scc in ddg.sccs():
        edges = _scc_edges(ddg, scc, latencies)
        ratio = None
        if any(omega for _, _, _, omega in edges):
            ratio = _scc_cycle_ratio(scc, edges, best)
        if ratio is None:
            raise SchedulingError(
                f"loop {ddg.name!r} has an omega-0 dependence circuit"
            )
        best = ratio
    return best


def rec_mii(ddg: DDG, latencies: LatencyModel, unroll: int = 1) -> int:
    """Recurrence-constrained lower bound on the II.

    With ``unroll > 1`` this returns the RecMII the graph would have after
    unrolling by that factor (see module docstring).  Callers pricing
    several factors should take :func:`max_cycle_ratio` once instead.
    """
    if unroll < 1:
        raise SchedulingError(f"unroll must be >= 1, got {unroll}")
    return rec_mii_from_ratio(max_cycle_ratio(ddg, latencies), unroll)


def rec_mii_from_ratio(ratio: Fraction, unroll: int = 1) -> int:
    """RecMII after unrolling by *unroll*: ``max(1, ceil(unroll * ratio))``.

    *ratio* is the base graph's :func:`max_cycle_ratio`; the ceiling is
    taken in integers, so pricing many factors builds no fractions.
    """
    return max(1, -(-(unroll * ratio.numerator) // ratio.denominator))


def compute_mii(
    ddg: DDG, machine: MachineSpec, latencies: LatencyModel
) -> MIIResult:
    """Both II lower bounds for *ddg* on *machine*."""
    return MIIResult(res_mii(ddg, machine), rec_mii(ddg, latencies))


def choose_unroll_factor(
    ddg: DDG,
    equivalent_k: int,
    latencies: LatencyModel = DEFAULT_LATENCIES,
    cap: int = DEFAULT_CONFIG.unroll_cap,
) -> int:
    """Smallest unroll factor minimising the projected per-iteration II.

    ``equivalent_k`` is the per-kind FU count of the unclustered reference
    machine (k L/S, k Add, k Mul); both machines of a comparison pair
    share the factor, so figure 4's "II increase due to partitioning"
    compares like against like.  For factor ``u`` the projection is
    ``max(ResMII_u, RecMII_u) / u``; ResMII amortises its ceiling as u
    grows while RecMII/u stays constant, so the search stops improving
    once recurrences dominate.  ``RecMII_u`` comes from one exact
    maximum cycle ratio of the base graph.
    """
    if equivalent_k < 1:
        raise SchedulingError(f"equivalent_k must be >= 1, got {equivalent_k}")
    machine = unclustered_vliw(equivalent_k)
    counts = [0] * len(FUKind)  # by FUKind.index: counting hashes no enum
    for op in ddg.operations():
        counts[op.fu_kind.index] += 1
    if counts[FUKind.COPY.index]:
        raise SchedulingError("choose the unroll factor before inserting copies")
    demand = [
        (counts[kind.index], machine.fu_count(kind))
        for kind in USEFUL_FU_KINDS if counts[kind.index]
    ]
    ratio = max_cycle_ratio(ddg, latencies)
    candidates = []
    for u in range(1, cap + 1):
        res_u = max([-(-(count * u) // units) for count, units in demand], default=1)
        ii_u = max(res_u, rec_mii_from_ratio(ratio, u))
        candidates.append((ii_u / u, u, ii_u))
    best_score = min(score for score, _u, _ii in candidates)
    tied = [(u, ii_u) for score, u, ii_u in candidates if score <= best_score + 1e-12]
    # Among equal-throughput factors prefer the smallest one whose II is
    # at least 2: an II-1 kernel has a single MRT row, where one packing
    # miss costs a full 2x in cycles; II >= 2 leaves slack at the same
    # projected throughput (and a +1 miss costs only 1.5x).
    for u, ii_u in tied:
        if ii_u >= 2:
            return u
    return tied[0][0]
