"""repro — Distributed Modulo Scheduling for clustered VLIW architectures.

A full reproduction of *"Distributed Modulo Scheduling"* (M. M. Fernandes,
J. Llosa, N. Topham, HPCA-5, 1999): the DMS algorithm, Rau's IMS baseline,
the clustered ring-of-CQRFs machine model, the IR transformations the
paper depends on (unrolling, single-use copy insertion), queue register
allocation, a differential execution oracle, VLIW code generation, and the
experiment harness regenerating the paper's figures 4-6.

Quickstart, through the compilation-session API (pass pipeline,
structured reports; ``compile_many`` adds batch/parallel compilation
with on-disk memoisation)::

    from repro import CompilationRequest, Toolchain, clustered_vliw, make_kernel

    loop = make_kernel("fir_filter", taps=8)
    report = Toolchain.default().compile(
        CompilationRequest(loop=loop, machine=clustered_vliw(4), equivalent_k=4)
    )
    compiled = report.compiled
    print(compiled.result.summary(), compiled.ipc, report.pass_seconds())
    record = report.to_dict()   # the compile's numbers, no graphs

Every public name is imported on first use (see :mod:`repro._lazy`), so
``import repro`` costs almost nothing and numpy loads only with the
fuzzer or the surrogate-suite generator.
"""

from ._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, globals(), {
    ".config": ("DEFAULT_CONFIG", "SchedulerConfig"),
    ".errors": (
        "AllocationError",
        "CacheError",
        "CodegenError",
        "DDGError",
        "IIOverflowError",
        "MachineError",
        "ReproError",
        "SchedulingError",
        "SimulationError",
        "TargetError",
        "ToolchainError",
        "TransformError",
        "ValidationError",
        "WorkloadError",
    ),
    ".ir": (
        "DDG",
        "DEFAULT_LATENCIES",
        "DepEdge",
        "DepKind",
        "FUKind",
        "LatencyModel",
        "Loop",
        "LoopBuilder",
        "OpCode",
        "Operation",
        "ValueUse",
    ),
    ".machine": (
        "ClusterSpec",
        "CommPath",
        "CrossbarTopology",
        "GraphTopology",
        "LinearTopology",
        "MachineSpec",
        "MeshTopology",
        "QueueFileSpec",
        "RingTopology",
        "Topology",
        "TorusTopology",
        "clustered_vliw",
        "make_topology",
        "paper_machine_pair",
        "register_topology",
        "topology_kinds",
        "unclustered_vliw",
    ),
    ".targets": (
        "TargetSpec",
        "get_target",
        "load_target",
        "register_target",
        "resolve_target",
        "save_target",
        "target_names",
    ),
    ".registers": ("allocate_queues", "extract_lifetimes", "register_pressure"),
    ".scheduling": (
        "DistributedModuloScheduler",
        "IterativeModuloScheduler",
        "ScheduleResult",
        "check_schedule",
        "compute_mii",
        "schedule_fingerprint",
        "validate_schedule",
    ),
    ".scheduling.mii": ("choose_unroll_factor",),
    ".api": (
        "CompilationCache",
        "CompilationReport",
        "CompilationRequest",
        "CompiledLoop",
        "Pass",
        "Toolchain",
        "compile_many",
        "register_pass",
    ),
    ".codegen": ("assembly_for", "build_program"),
    ".validate": ("run_fuzz", "verify_compiled", "verify_loop"),
    ".workloads": (
        "KERNELS",
        "PERFECT_CLUB_LOOP_COUNT",
        "make_kernel",
        "perfect_club_surrogate",
        "split_sets",
        "suite_stats",
    ),
})

__version__ = "1.1.0"
__all__.append("__version__")
