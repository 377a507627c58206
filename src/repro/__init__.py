"""repro — Distributed Modulo Scheduling for clustered VLIW architectures.

A full reproduction of *"Distributed Modulo Scheduling"* (M. M. Fernandes,
J. Llosa, N. Topham, HPCA-5, 1999): the DMS algorithm, Rau's IMS baseline,
the clustered ring-of-CQRFs machine model, the IR transformations the
paper depends on (unrolling, single-use copy insertion), queue register
allocation, a validation simulator, VLIW code generation, and the
experiment harness regenerating the paper's figures 4-6.

Quickstart::

    from repro import make_kernel, clustered_vliw, compile_loop

    loop = make_kernel("fir_filter", taps=8)
    compiled = compile_loop(loop, clustered_vliw(4), equivalent_k=4)
    print(compiled.result.summary(), compiled.ipc)

Or, through the compilation-session API (pass pipeline, structured
reports, batch/parallel compilation with on-disk memoisation)::

    from repro import CompilationRequest, Toolchain, compile_many

    report = Toolchain.default().compile(
        CompilationRequest(loop=loop, machine=clustered_vliw(4), equivalent_k=4)
    )
    print(report.summary(), report.pass_seconds())
"""

from .config import DEFAULT_CONFIG, SchedulerConfig
from .errors import (
    AllocationError,
    CacheError,
    CodegenError,
    DDGError,
    IIOverflowError,
    MachineError,
    ReproError,
    SchedulingError,
    SimulationError,
    TargetError,
    ToolchainError,
    TransformError,
    ValidationError,
    WorkloadError,
)
from .ir import (
    DDG,
    DEFAULT_LATENCIES,
    DepEdge,
    DepKind,
    FUKind,
    LatencyModel,
    Loop,
    LoopBuilder,
    OpCode,
    Operation,
    ValueUse,
)
from .machine import (
    ClusterSpec,
    CommPath,
    CrossbarTopology,
    GraphTopology,
    LinearTopology,
    MachineSpec,
    MeshTopology,
    QueueFileSpec,
    RingTopology,
    Topology,
    TorusTopology,
    clustered_vliw,
    make_topology,
    paper_machine_pair,
    register_topology,
    topology_kinds,
    unclustered_vliw,
)
from .targets import (
    TargetSpec,
    get_target,
    load_target,
    register_target,
    resolve_target,
    save_target,
    target_names,
)
from .registers import allocate_queues, extract_lifetimes, register_pressure
from .scheduling import (
    DistributedModuloScheduler,
    IterativeModuloScheduler,
    ScheduleResult,
    check_schedule,
    compute_mii,
    schedule_fingerprint,
    validate_schedule,
)
from .scheduling.pipeline import CompiledLoop, choose_unroll_factor, compile_loop
from .api import (
    BatchCompiler,
    CompilationCache,
    CompilationReport,
    CompilationRequest,
    Pass,
    Toolchain,
    compile_many,
    register_pass,
)
from .simulator import simulate
from .codegen import assembly_for, build_program
from .validate import run_fuzz, verify_compiled, verify_loop
from .workloads import (
    KERNELS,
    PERFECT_CLUB_LOOP_COUNT,
    make_kernel,
    perfect_club_surrogate,
    split_sets,
    suite_stats,
)

__version__ = "1.1.0"

__all__ = [
    "DEFAULT_CONFIG",
    "SchedulerConfig",
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
    "TargetSpec",
    "get_target",
    "load_target",
    "register_target",
    "resolve_target",
    "save_target",
    "target_names",
    "allocate_queues",
    "extract_lifetimes",
    "register_pressure",
    "DistributedModuloScheduler",
    "IterativeModuloScheduler",
    "ScheduleResult",
    "check_schedule",
    "compute_mii",
    "validate_schedule",
    "CompiledLoop",
    "choose_unroll_factor",
    "compile_loop",
    "BatchCompiler",
    "CompilationCache",
    "CompilationReport",
    "CompilationRequest",
    "Pass",
    "Toolchain",
    "compile_many",
    "register_pass",
    "schedule_fingerprint",
    "simulate",
    "assembly_for",
    "build_program",
    "run_fuzz",
    "verify_compiled",
    "verify_loop",
    "KERNELS",
    "PERFECT_CLUB_LOOP_COUNT",
    "make_kernel",
    "perfect_club_surrogate",
    "split_sets",
    "suite_stats",
    "__version__",
]
