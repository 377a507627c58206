"""The Perfect Club surrogate suite.

The paper evaluates "all eligible innermost loops from the Perfect Club
Benchmark ... a total of 1258 loops suitable for software pipelining".
The original loops are not redistributable, so :func:`perfect_club_surrogate`
synthesises a population of the same size: a kernel share instantiated
from the classic-loop registry with randomised parameters and trip counts,
plus a synthetic share from the template generator.  Set 1 is the full
population; set 2 keeps only recurrence-free ("highly vectorizable",
DSP-like) loops, mirroring the paper's two measurement sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..errors import WorkloadError
from ..ir.loop import Loop
from ..ir.transforms import ddg_stats
from .kernels import KERNELS, make_kernel
from .synthetic import DEFAULT_SPEC, SyntheticSpec, synthetic_loop

#: Loop population size of the paper's evaluation.
PERFECT_CLUB_LOOP_COUNT = 1258

#: Fraction of the suite instantiated from named kernels (rest synthetic).
_KERNEL_SHARE = 0.35

_PARAM_RANGES = {
    "fir_filter": ("taps", 3, 12),
    "lms_update": ("taps", 2, 6),
    "unrolled_dot": ("width", 2, 6),
    "complex_fir": ("taps", 2, 6),
}


def _kernel_loop(index: int, seed: int) -> Loop:
    import numpy as np  # only generating loops needs numpy

    rng = np.random.default_rng([seed, 7_000_000 + index])
    names = sorted(KERNELS)
    name = names[int(rng.integers(0, len(names)))]
    params: Dict[str, object] = {}
    if name in _PARAM_RANGES:
        key, low, high = _PARAM_RANGES[name]
        params[key] = int(rng.integers(low, high + 1))
    params["trip_count"] = int(rng.integers(32, 768))
    loop = make_kernel(name, **params)
    # Make names unique within the suite.
    loop.name = f"{loop.name}_{index:04d}"
    return loop


def perfect_club_surrogate(
    n_loops: int = PERFECT_CLUB_LOOP_COUNT,
    seed: int = 1999,
    spec: SyntheticSpec = DEFAULT_SPEC,
) -> List[Loop]:
    """Build the surrogate suite (deterministic in ``(n_loops, seed)``)."""
    if n_loops < 1:
        raise WorkloadError(f"n_loops must be >= 1, got {n_loops}")
    loops: List[Loop] = []
    n_kernels = int(round(n_loops * _KERNEL_SHARE))
    for index in range(n_loops):
        if index < n_kernels:
            loops.append(_kernel_loop(index, seed))
        else:
            loops.append(synthetic_loop(index, seed=seed, spec=spec))
    return loops


def split_sets(loops: List[Loop]) -> Tuple[List[Loop], List[Loop]]:
    """(set 1, set 2): all loops, and the recurrence-free subset."""
    set2 = [loop for loop in loops if loop.is_vectorizable]
    return list(loops), set2


@dataclass(frozen=True)
class SuiteStats:
    """Aggregate shape statistics of a loop suite."""

    n_loops: int
    n_vectorizable: int
    total_ops: int
    mean_ops: float
    max_ops: int
    mean_trip: float
    fu_mix: Dict[str, float]

    @property
    def vectorizable_fraction(self) -> float:
        return self.n_vectorizable / self.n_loops if self.n_loops else 0.0


def suite_stats(loops: List[Loop]) -> SuiteStats:
    """Compute :class:`SuiteStats` for *loops*."""
    if not loops:
        raise WorkloadError("empty suite")
    total_ops = 0
    max_ops = 0
    vectorizable = 0
    fu_counts: Dict[str, int] = {}
    trip_total = 0
    for loop in loops:
        stats = ddg_stats(loop.ddg)
        total_ops += stats.n_ops
        max_ops = max(max_ops, stats.n_ops)
        trip_total += loop.trip_count
        if loop.is_vectorizable:
            vectorizable += 1
        for kind, count in stats.fu_histogram.items():
            fu_counts[kind.value] = fu_counts.get(kind.value, 0) + count
    return SuiteStats(
        n_loops=len(loops),
        n_vectorizable=vectorizable,
        total_ops=total_ops,
        mean_ops=total_ops / len(loops),
        max_ops=max_ops,
        mean_trip=trip_total / len(loops),
        fu_mix={
            kind: count / total_ops for kind, count in sorted(fu_counts.items())
        },
    )
