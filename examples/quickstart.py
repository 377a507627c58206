#!/usr/bin/env python3
"""Quickstart: build a loop, schedule it on a clustered VLIW, inspect it.

Builds the dot-product loop ``acc += x[i] * c[i]`` by hand, compiles it
for a 4-cluster machine (the paper's {1 L/S, 1 Add, 1 Mul, 1 Copy} per
cluster), validates the schedule, executes the emitted program through
the differential oracle, and prints the kernel.

Run:  python examples/quickstart.py
"""

from repro import (
    CompilationRequest,
    LoopBuilder,
    Toolchain,
    assembly_for,
    clustered_vliw,
    validate_schedule,
    verify_compiled,
)


def build_dot_product():
    """acc += x[i] * c[i] with a loop-carried accumulator."""
    b = LoopBuilder("dot_product")
    x = b.load("x[i]")
    c = b.load("c[i]")
    acc = b.placeholder()  # forward reference for the recurrence
    total = b.add(b.mul(x, c), b.carried(acc, 1), tag="acc")
    b.bind(acc, total)
    return b.build(trip_count=256)


def main() -> None:
    loop = build_dot_product()
    print("== the loop ==")
    print(loop.ddg.pretty())
    print()

    machine = clustered_vliw(4)
    print(f"== target: {machine.describe()} ==")
    report = Toolchain.default().compile(
        CompilationRequest(loop=loop, machine=machine, equivalent_k=4)
    )
    compiled = report.compiled
    result = compiled.result
    print(result.summary())
    print(
        f"unroll x{compiled.unroll_factor}, "
        f"{compiled.cycles} cycles for {loop.trip_count} iterations, "
        f"IPC {compiled.ipc:.2f}"
    )
    print()

    # The independent checker re-verifies dependences, resources and the
    # ring communication constraints.
    validate_schedule(result)
    print("checker: schedule valid")

    # The oracle executes the emitted program cycle by cycle, routing
    # every value through its queue and checking each one is ready.
    report = verify_compiled(compiled, iterations=16)
    print(
        f"oracle: ok={report.ok}, measured span {report.oracle.cycles_span} "
        f"vs model {report.oracle.cycles_model} cycles"
    )
    print()

    print("== kernel ==")
    print(assembly_for(result, compiled.allocation))


if __name__ == "__main__":
    main()
