"""The unified compilation-session API.

Single entry point for every compilation in the repository::

    from repro.api import CompilationRequest, Toolchain, compile_many

    report = Toolchain.default().compile(CompilationRequest(loop, machine))
    print(report.summary(), report.pass_seconds())

    reports = compile_many(requests, workers=8, cache="~/.cache/repro")

Layers:

* :mod:`repro.api.passes`    — the pass registry and the paper's five
  builtin passes (``unroll``, ``single_use``, ``schedule``, ``allocate``,
  ``codegen``) plus the two-phase baseline swap;
* :mod:`repro.api.toolchain` — ordered pass pipelines;
* :mod:`repro.api.request`   — request/report value types;
* :mod:`repro.api.cache`     — content hashing and the on-disk store;
* :mod:`repro.api.batch`     — multiprocessing fan-out with memoisation.
"""

from .batch import BatchCompiler, DEFAULT_WORKERS, compile_many
from .cache import (
    CacheStats,
    CompilationCache,
    EncodedReport,
    MemoryCache,
    TieredCache,
    content_hash,
    ddg_signature,
    machine_signature,
)
from .passes import (
    AllocatePass,
    CodegenPass,
    PASS_REGISTRY,
    Pass,
    PassContext,
    SchedulePass,
    SingleUsePass,
    TwoPhaseSchedulePass,
    UnrollPass,
    get_pass,
    register_pass,
    registered_passes,
)
from .request import (
    CompilationReport,
    CompilationRequest,
    PassTiming,
    SCHEDULER_CHOICES,
)
from .toolchain import DEFAULT_PASSES, Toolchain

__all__ = [
    "AllocatePass",
    "BatchCompiler",
    "CacheStats",
    "CodegenPass",
    "CompilationCache",
    "CompilationReport",
    "CompilationRequest",
    "DEFAULT_PASSES",
    "DEFAULT_WORKERS",
    "EncodedReport",
    "MemoryCache",
    "PASS_REGISTRY",
    "Pass",
    "PassContext",
    "PassTiming",
    "SCHEDULER_CHOICES",
    "SchedulePass",
    "SingleUsePass",
    "TieredCache",
    "Toolchain",
    "TwoPhaseSchedulePass",
    "UnrollPass",
    "compile_many",
    "content_hash",
    "ddg_signature",
    "get_pass",
    "machine_signature",
    "register_pass",
    "registered_passes",
]
