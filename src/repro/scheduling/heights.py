"""Height-based scheduling priority (Rau's HeightR).

``height(p) = max over successors q of height(q) + latency(p,q) - II*omega``
with ``height = 0`` for operations without successors.  Heights are the
longest II-adjusted path to a sink; operations are scheduled
highest-height first, which favours critical recurrence circuits.

The graph may be cyclic; with ``II >= RecMII`` no circuit has positive
weight, so the fixpoint iteration below converges within ``|V|`` sweeps.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..errors import SchedulingError
from ..ir.ddg import DDG
from ..ir.opcodes import LatencyModel

#: (src, dst, latency, omega) per edge — the II-independent part of the
#: height recurrence, shareable across II attempts of one graph.
EdgeTerms = List[Tuple[int, int, int, int]]


def height_edge_terms(ddg: DDG, latencies: LatencyModel) -> EdgeTerms:
    """Precompute the per-edge constants :func:`compute_heights` needs."""
    return [
        (e.src, e.dst, ddg.edge_latency(e, latencies), e.omega)
        for e in ddg.edges()
    ]


def compute_heights(
    ddg: DDG,
    latencies: LatencyModel,
    ii: int,
    terms: Optional[EdgeTerms] = None,
) -> Dict[int, int]:
    """Height of every operation for priority ordering at the given II.

    *terms* (from :func:`height_edge_terms`) lets callers that probe
    several II values skip re-walking the graph per attempt.
    """
    if ii < 1:
        raise SchedulingError(f"ii must be >= 1, got {ii}")
    heights: Dict[int, int] = {op_id: 0 for op_id in ddg.op_ids}
    if terms is None:
        terms = height_edge_terms(ddg, latencies)
    # Relaxation order does not change the fixpoint, only the sweeps to
    # reach it: producers mostly precede their consumers in id order, so
    # walking the edges by descending source settles a consumer's height
    # before its producers read it.
    edges = [(src, dst, lat - ii * omega) for src, dst, lat, omega in reversed(terms)]
    for _ in range(len(heights) + 1):
        changed = False
        for src, dst, weight in edges:
            candidate = heights[dst] + weight
            if candidate > heights[src]:
                heights[src] = candidate
                changed = True
        if not changed:
            return heights
    raise SchedulingError(
        f"height computation for {ddg.name!r} did not converge at II={ii}; "
        "II is below RecMII"
    )


def priority_order(heights: Dict[int, int]) -> list:
    """Operation ids sorted by decreasing height, ties by ascending id."""
    return sorted(heights, key=lambda op_id: (-heights[op_id], op_id))
