"""Experiment harness: the paper's figures regenerated from loop runs."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, globals(), {
    ".figures": (
        "FigureData",
        "backtracking_report",
        "figure4",
        "figure5",
        "figure6",
        "moves_report",
        "pass_timing_figure",
    ),
    ".metrics": (
        "LoopRun",
        "aggregate_ipc",
        "ii_overhead_fraction",
        "mean_ejections_per_placement",
        "total_cycles",
    ),
    ".ablations": (
        "ABLATIONS",
        "chain_policy_ablation",
        "copy_fu_ablation",
        "restart_ablation",
        "single_use_ablation",
        "topology_ablation",
    ),
    ".baselines": ("two_phase_comparison",),
    ".io": ("dump_runs", "load_runs"),
    ".runner": ("SweepConfig", "run_sweep", "sweep_requests"),
    ".sensitivity": ("LATENCY_PROFILES", "latency_sensitivity"),
    ".storage": ("StoragePoint", "storage_point", "storage_report", "storage_sweep"),
})
