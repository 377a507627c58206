"""Workloads: classic kernels, synthetic loops, the Perfect Club surrogate."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, globals(), {
    ".kernels": ("KERNELS", "KernelInfo", "make_kernel"),
    ".suite": (
        "PERFECT_CLUB_LOOP_COUNT",
        "SuiteStats",
        "perfect_club_surrogate",
        "split_sets",
        "suite_stats",
    ),
    ".synthetic": ("DEFAULT_SPEC", "SyntheticSpec", "synthetic_loop"),
})
