"""Modulo variable expansion (MVE) analysis for conventional register files.

The paper's machine stores loop variants in queue register files, where
overlapped lifetimes of successive iterations coexist naturally.  A
conventional register file needs another mechanism: **modulo variable
expansion** (Lam, PLDI 1988) unrolls the kernel and renames each long
lifetime across copies, one register per concurrently live instance.

This module computes, for a finished schedule:

* per-value expansion degrees ``ceil(lifetime / II)``;
* the kernel unroll amount MVE needs (the maximum degree — Lam's
  low-overhead variant; the no-overhead variant uses the LCM, also
  reported);
* the total register count after expansion.

Together with :func:`~repro.registers.lifetimes.register_pressure` this
quantifies the cost of *not* having the paper's queue files, which is
the architectural argument of sections 1-2 (see also the authors'
EuroPar'97 companion paper on queue allocation).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List

from ..scheduling.result import ScheduleResult


@dataclass(frozen=True)
class MVEReport:
    """Modulo-variable-expansion requirements of one schedule."""

    loop_name: str
    ii: int
    n_values: int
    degrees: Dict[int, int]  # producer op id -> expansion degree
    kernel_unroll_max: int  # Lam's low-overhead variant (max degree)
    kernel_unroll_lcm: int  # no-overhead variant (lcm of degrees)
    total_registers: int  # sum of degrees = registers after renaming


def mve_report(result: ScheduleResult) -> MVEReport:
    """Compute MVE requirements for *result* on a conventional RF.

    Every value's lifetime runs from its write (issue + latency) to its
    last read (consumer issue + omega * II); values read only before the
    loop (none here) or unread values contribute one register.
    """
    ddg = result.ddg
    placements = result.placements
    ii = result.ii
    last_read: Dict[int, int] = {}
    for consumer in ddg.operations():
        consumer_time = placements[consumer.op_id].time
        for src in consumer.srcs:
            if src.is_external:
                continue
            read = consumer_time + src.omega * ii
            last_read[src.producer] = max(
                last_read.get(src.producer, read), read
            )
    degrees: Dict[int, int] = {}
    for producer in ddg.operations():
        if producer.op_id not in last_read:
            continue
        birth = (
            placements[producer.op_id].time
            + result.latencies.latency(producer.opcode)
        )
        lifetime = max(0, last_read[producer.op_id] - birth)
        degrees[producer.op_id] = lifetime // ii + 1
    if degrees:
        unroll_max = max(degrees.values())
        unroll_lcm = 1
        for degree in degrees.values():
            unroll_lcm = math.lcm(unroll_lcm, degree)
        total = sum(degrees.values())
    else:
        unroll_max = 1
        unroll_lcm = 1
        total = 0
    return MVEReport(
        loop_name=result.loop_name,
        ii=ii,
        n_values=len(degrees),
        degrees=degrees,
        kernel_unroll_max=unroll_max,
        kernel_unroll_lcm=unroll_lcm,
        total_registers=total,
    )


def mve_summary(reports: List[MVEReport]) -> str:
    """One-paragraph aggregate over several loops."""
    if not reports:
        return "no MVE reports"
    mean_unroll = sum(r.kernel_unroll_max for r in reports) / len(reports)
    worst_unroll = max(r.kernel_unroll_max for r in reports)
    mean_regs = sum(r.total_registers for r in reports) / len(reports)
    return (
        f"MVE over {len(reports)} loops: mean kernel unroll "
        f"{mean_unroll:.2f} (worst {worst_unroll}), mean register need "
        f"{mean_regs:.1f} — the code-size and register cost a "
        "conventional RF pays for what queue files provide for free"
    )
