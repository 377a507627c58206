"""End-to-end loop compilation: unroll -> single-use -> schedule -> allocate.

The flow itself now lives in :mod:`repro.api` as named, swappable passes;
this module keeps the two pieces the rest of the library shares:

* :func:`choose_unroll_factor` — the unroll policy (the factor is chosen
  on the *unclustered machine of equal useful FU count* and shared by
  both machines of a comparison pair, so figure 4's "II increase due to
  partitioning" compares like against like);
* :class:`CompiledLoop` — the per-loop result container;
* :func:`compile_loop` — a thin backwards-compatible shim over
  ``Toolchain.default()``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..config import DEFAULT_CONFIG, SchedulerConfig
from ..errors import SchedulingError
from ..ir.ddg import DDG
from ..ir.loop import Loop
from ..ir.opcodes import DEFAULT_LATENCIES, FUKind, LatencyModel, USEFUL_FU_KINDS
from ..machine.machine import MachineSpec, unclustered_vliw
from ..registers.queues import QueueAllocation
from .mii import max_cycle_ratio, rec_mii_from_ratio
from .result import ScheduleResult


@dataclass(frozen=True)
class CompiledLoop:
    """Everything produced by :func:`compile_loop` for one loop/machine."""

    loop: Loop
    machine: MachineSpec
    unroll_factor: int
    result: ScheduleResult
    allocation: Optional[QueueAllocation] = None

    @property
    def kernel_iterations(self) -> int:
        """Unrolled-body iterations covering the loop's trip count."""
        return -(-self.loop.trip_count // self.unroll_factor)

    @property
    def cycles(self) -> int:
        """Modelled execution cycles for the loop's trip count."""
        return self.result.cycles(self.kernel_iterations)

    @property
    def useful_instances(self) -> int:
        """Useful operation issues over the whole run."""
        return self.result.useful_instances(self.kernel_iterations)

    @property
    def ipc(self) -> float:
        """Useful IPC, ramp included (the paper's figure-6 metric)."""
        return self.useful_instances / self.cycles


def choose_unroll_factor(
    ddg: DDG,
    equivalent_k: int,
    latencies: LatencyModel = DEFAULT_LATENCIES,
    cap: int = DEFAULT_CONFIG.unroll_cap,
) -> int:
    """Smallest unroll factor minimising the projected per-iteration II.

    ``equivalent_k`` is the per-kind FU count of the unclustered reference
    machine (k L/S, k Add, k Mul).  For factor ``u`` the projection is
    ``max(ResMII_u, RecMII_u) / u``; ResMII amortises its ceiling as u
    grows while RecMII/u stays constant, so the search stops improving
    once recurrences dominate.  ``RecMII_u = max(1, ceil(u * λ*))`` comes
    from one exact maximum cycle ratio ``λ*`` of the base graph.
    """
    if equivalent_k < 1:
        raise SchedulingError(f"equivalent_k must be >= 1, got {equivalent_k}")
    machine = unclustered_vliw(equivalent_k)
    counts = {kind: 0 for kind in USEFUL_FU_KINDS}
    for op in ddg.operations():
        if op.fu_kind in counts:
            counts[op.fu_kind] += 1
        elif op.fu_kind == FUKind.COPY:
            raise SchedulingError(
                "choose the unroll factor before inserting copies"
            )
    demand = [
        (count, machine.fu_count(kind)) for kind, count in counts.items() if count
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


def compile_loop(
    loop: Loop,
    machine: MachineSpec,
    latencies: LatencyModel = DEFAULT_LATENCIES,
    config: SchedulerConfig = DEFAULT_CONFIG,
    unroll: Optional[int] = None,
    equivalent_k: Optional[int] = None,
    allocate: bool = True,
) -> CompiledLoop:
    """Compile *loop* for *machine* (shim over ``Toolchain.default()``).

    ``unroll=None`` picks the factor automatically on the unclustered
    equivalent of *machine* (or of ``equivalent_k`` when given, so a
    clustered/unclustered pair can share the same factor).

    New code should build a :class:`repro.api.CompilationRequest` and use
    a :class:`repro.api.Toolchain` directly — that returns the full
    report (timings, II trajectory, diagnostics) instead of just the
    compiled loop.
    """
    # Imported lazily: repro.api builds on this module's CompiledLoop and
    # choose_unroll_factor, so a module-level import would be circular.
    from ..api.request import CompilationRequest
    from ..api.toolchain import Toolchain

    request = CompilationRequest(
        loop=loop,
        machine=machine,
        latencies=latencies,
        config=config,
        unroll=unroll,
        equivalent_k=equivalent_k,
        allocate=allocate,
    )
    return Toolchain.default().compile(request).compiled
