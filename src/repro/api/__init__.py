"""The unified compilation-session API.

Single entry point for every compilation in the repository::

    from repro.api import CompilationRequest, Toolchain, compile_many

    report = Toolchain.default().compile(CompilationRequest(loop, machine))
    print(report.summary(), report.pass_seconds())

    reports = compile_many(requests, workers=8, cache="~/.cache/repro")

Layers:

* :mod:`repro.api.passes`    — the pass registry and the paper's four
  builtin passes (``unroll``, ``single_use``, ``schedule``, ``allocate``);
* :mod:`repro.api.toolchain` — ordered pass pipelines, and the default
  one every cached, batched or served compile runs;
* :mod:`repro.api.request`   — request/report value types;
* :mod:`repro.api.cache`     — content hashing and the on-disk store;
* :mod:`repro.api.batch`     — ``compile_many``: multiprocessing fan-out
  with memoisation.

Each name loads its module on first use, so a single compile never
imports the batch layer's process-pool machinery.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, globals(), {
    ".batch": ("DEFAULT_WORKERS", "compile_many"),
    ".cache": (
        "CacheStats",
        "CompilationCache",
        "EncodedReport",
        "MemoryCache",
        "TieredCache",
        "content_hash",
        "ddg_signature",
        "machine_signature",
    ),
    ".passes": (
        "AllocatePass",
        "PASS_REGISTRY",
        "Pass",
        "PassContext",
        "SchedulePass",
        "SingleUsePass",
        "UnrollPass",
        "get_pass",
        "register_pass",
    ),
    ".request": (
        "CompilationReport",
        "CompilationRequest",
        "CompiledLoop",
        "PassTiming",
        "SCHEDULER_CHOICES",
    ),
    ".toolchain": ("DEFAULT_PASSES", "Toolchain"),
})
