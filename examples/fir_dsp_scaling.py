#!/usr/bin/env python3
"""DSP scaling study: an FIR filter across 1-8 clusters.

The paper motivates clustered VLIWs with DSP/numeric loops.  This example
compiles a 12-tap FIR filter (with load reuse, so the sample value has
fan-out 12 and needs the single-use copy chain) for every ring size and
shows how II, IPC, copies and moves evolve — the per-loop view of
figures 4-6.

Run:  python examples/fir_dsp_scaling.py
"""

from repro import (
    CompilationRequest,
    Toolchain,
    clustered_vliw,
    make_kernel,
    unclustered_vliw,
    validate_schedule,
)


def main() -> None:
    taps = 12
    loop = make_kernel("fir_filter", taps=taps, trip_count=4096)
    print(f"{taps}-tap FIR filter, {loop.n_ops} ops/iteration, "
          f"{loop.trip_count} iterations")
    print(f"sample fan-out before the single-use transform: "
          f"{loop.ddg.flow_fanout(0)}")
    print()

    header = (
        f"{'clusters':>8} {'FUs':>4} {'u':>3} {'II':>4} {'MII':>4} "
        f"{'copies':>7} {'moves':>6} {'cycles':>9} {'IPC':>6} {'vs uncl':>8}"
    )
    print(header)
    print("-" * len(header))
    toolchain = Toolchain.default()
    for k in range(1, 9):
        clustered, unclustered = (
            toolchain.compile(
                CompilationRequest(loop=loop, machine=machine, equivalent_k=k)
            ).compiled
            for machine in (clustered_vliw(k), unclustered_vliw(k))
        )
        validate_schedule(clustered.result)
        validate_schedule(unclustered.result)
        ratio = clustered.cycles / unclustered.cycles
        print(
            f"{k:>8} {3 * k:>4} {clustered.unroll_factor:>3} "
            f"{clustered.result.ii:>4} {clustered.result.mii:>4} "
            f"{clustered.result.n_copies:>7} {clustered.result.n_moves:>6} "
            f"{clustered.cycles:>9} {clustered.ipc:>6.2f} {ratio:>8.3f}"
        )
    print()
    print("'vs uncl' = clustered cycles / unclustered cycles at the same")
    print("FU count; 1.000 means partitioning cost nothing (paper fig. 5).")


if __name__ == "__main__":
    main()
