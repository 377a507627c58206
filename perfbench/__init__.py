"""End-to-end and per-layer benchmark of the repro compiler and service.

Run ``python3 perfbench/run.py --workload <name> --seed <n>`` from the
repository root; see ``perfbench/README.md`` for the workloads and
metrics.  Nothing in this package imports ``repro`` at module level, so
a workload process can time its own fresh ``import repro.cli``.
"""
