#!/usr/bin/env python3
"""Why the paper reports two loop sets: recurrences bound scaling.

Compares a highly vectorizable loop (``daxpy``) against a
recurrence-bound one (``iir_biquad``) across machine widths.  The
vectorizable loop keeps converting FUs into IPC (the paper's set 2);
the IIR's feedback circuit pins the II at RecMII no matter how many
clusters are added (set 1 behaviour at large widths).

Run:  python examples/recurrence_vs_vectorizable.py
"""

from repro import CompilationRequest, Toolchain, clustered_vliw, make_kernel


def scaling_row(loop, k):
    compiled = Toolchain.default().compile(
        CompilationRequest(loop=loop, machine=clustered_vliw(k), equivalent_k=k)
    ).compiled
    result = compiled.result
    return (
        f"{k:>8} {result.ii:>4} {result.rec_mii:>6} "
        f"{compiled.unroll_factor:>3} {compiled.ipc:>6.2f}"
    )


def main() -> None:
    vectorizable = make_kernel("daxpy", trip_count=2048)
    recurrent = make_kernel("iir_biquad", trip_count=2048)

    for loop, story in (
        (vectorizable, "daxpy (vectorizable, set 2): IPC keeps climbing"),
        (recurrent, "iir_biquad (recurrence, set 1): RecMII caps the rate"),
    ):
        print(f"== {story} ==")
        print(f"{'clusters':>8} {'II':>4} {'RecMII':>6} {'u':>3} {'IPC':>6}")
        for k in (1, 2, 4, 6, 8, 10):
            print(scaling_row(loop, k))
        print()

    print("The IIR's feedback y[i] = f(y[i-1], y[i-2]) forms a dependence")
    print("circuit whose latency/distance ratio lower-bounds the II")
    print("(RecMII); unrolling replicates the circuit without relaxing it,")
    print("so extra clusters stop helping — exactly why the paper's set-1")
    print("curves flatten while set-2 keeps improving (figures 5 and 6).")


if __name__ == "__main__":
    main()
