#!/usr/bin/env python3
"""Visualising a DMS schedule: Gantt chart, utilisation, DOT export.

Schedules a 3x3 colour-transform kernel on a 3-cluster machine and
renders the kernel as an FU-occupancy chart (one line per functional
unit, one column per MRT row), plus the partitioned dependence graph in
Graphviz DOT format.

Run:  python examples/visualize_schedule.py
"""

from repro import CompilationRequest, Toolchain, clustered_vliw, make_kernel
from repro.codegen import kernel_gantt, utilization_summary
from repro.ir import ddg_to_dot


def main() -> None:
    loop = make_kernel("rgb_to_yuv", trip_count=640)
    report = Toolchain.default().compile(
        CompilationRequest(loop=loop, machine=clustered_vliw(3), equivalent_k=3)
    )
    result = report.result

    print(result.summary())
    print()
    print(kernel_gantt(result))
    print()
    print(utilization_summary(result))
    print()

    clusters = {op_id: p.cluster for op_id, p in result.placements.items()}
    dot = ddg_to_dot(result.ddg, clusters)
    print("Graphviz DOT of the partitioned DDG (pipe into `dot -Tsvg`):")
    print()
    print(dot)


if __name__ == "__main__":
    main()
