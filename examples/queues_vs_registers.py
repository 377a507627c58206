#!/usr/bin/env python3
"""The storage argument: queue files vs a central register file.

The paper's section 1 motivates clustering with register-file scaling:
size and ports of a central RF grow with the FU count and hurt cycle
time.  This example makes the argument concrete on one kernel:

* the unclustered machine's schedule needs MaxLive central registers and
  (without queues) modulo variable expansion — kernel unrolling plus
  renamed register copies;
* the clustered machine's schedule spreads the same lifetimes over small
  per-cluster LRF queues and a few CQRF entries, with no expansion at
  all (queues rename implicitly).

Run:  python examples/queues_vs_registers.py
"""

from repro import (
    CompilationRequest,
    Toolchain,
    clustered_vliw,
    make_kernel,
    unclustered_vliw,
)
from repro.machine.cqrf import CQRFId
from repro.registers import allocate_queues, mve_report, register_pressure


def main() -> None:
    loop = make_kernel("fir_filter", taps=10, trip_count=2048)
    print(f"kernel: 10-tap FIR, {loop.n_ops} ops/iteration")
    print()

    header = (
        f"{'clusters':>8} {'FUs':>4} {'II':>4} "
        f"{'MaxLive':>8} {'MVE unroll':>11} {'MVE regs':>9} "
        f"{'max file':>9} {'cqrf depth':>11}"
    )
    print(header)
    print("-" * len(header))
    toolchain = Toolchain.default()
    for k in (1, 2, 4, 6, 8):
        unclustered = toolchain.compile(
            CompilationRequest(
                loop=loop, machine=unclustered_vliw(k), equivalent_k=k, allocate=False
            )
        ).result
        maxlive = register_pressure(unclustered)
        mve = mve_report(unclustered)

        clustered = toolchain.compile(
            CompilationRequest(loop=loop, machine=clustered_vliw(k), equivalent_k=k)
        ).result
        allocation = allocate_queues(clustered)
        largest_file = max(
            (usage.queues_used for usage in allocation.files), default=0
        )
        cqrf_depth = max(
            (
                usage.max_depth
                for usage in allocation.files
                if isinstance(usage.file_id, CQRFId)
            ),
            default=0,
        )
        print(
            f"{k:>8} {3 * k:>4} {unclustered.ii:>4} "
            f"{maxlive:>8} {mve.kernel_unroll_max:>11} "
            f"{mve.total_registers:>9} {largest_file:>9} {cqrf_depth:>11}"
        )
    print()
    print("MaxLive / MVE columns: what the central-RF machine pays")
    print("(simultaneously live values; kernel copies and renamed")
    print("registers under modulo variable expansion).")
    print("max file / cqrf depth: the largest queue count any single")
    print("cluster file needs, and the deepest CQRF queue — both stay")
    print("small as the machine widens, which is the paper's point.")


if __name__ == "__main__":
    main()
