"""Compile-job payloads: the service's JSON request schema.

A compile payload names the same things a local
:class:`~repro.api.request.CompilationRequest` does, in plain JSON:

``kernel`` / ``kernel_args``
    a registered workload kernel (``"fir_filter"``) with optional
    factory parameters — or, mutually exclusive,
``loop``
    a fully serialized loop body (see :func:`loop_to_dict` /
    :func:`loop_from_dict`): name, trip count and the DDG's operations
    and explicit edges.  This is how a remote front end ships a graph
    the daemon has never seen.
``target``
    a registered target name (``"mesh-3x3"``) or an inline machine-file
    payload (the ``target_from_dict`` schema) — or the constructor form
    ``clusters``/``unclustered``/``topology`` mirroring the local CLI
    flags.  The daemon never opens a file a payload names: a string that
    is not a registered name, a path included, is answered 400.
``config``
    ``SchedulerConfig`` field overrides (``{"search": "ladder"}``),
    validated against the dataclass fields.
``unroll`` / ``equivalent_k`` / ``scheduler`` / ``allocate`` / ``validate``
    the request knobs, verbatim.
``priority``
    admission lane: ``"high"``, ``"normal"`` (default) or ``"low"``.
``assembly``
    when true, the response carries the rendered assembly text.

:func:`parse_compile_payload` turns the JSON into a
:class:`ParsedJob` holding the real :class:`CompilationRequest`, so
everything downstream of admission is the ordinary session API.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple

from ..config import DEFAULT_CONFIG, SchedulerConfig
from ..errors import ReproError, ServiceError, ToolchainError
from ..ir.ddg import DDG
from ..ir.edges import DepEdge, DepKind
from ..ir.loop import Loop
from ..ir.opcodes import DEFAULT_LATENCIES, OpCode
from ..ir.operations import Operation, ValueUse
from ..machine.machine import MachineSpec, clustered_vliw, unclustered_vliw

#: Admission lanes, highest priority first.
PRIORITY_LANES: Tuple[str, ...] = ("high", "normal", "low")

#: Scheduler-config fields a payload may override.
CONFIG_FIELDS = tuple(
    f.name for f in dataclasses.fields(SchedulerConfig) if f.init
)


# ----------------------------------------------------------------------
# Loop / DDG serialization
# ----------------------------------------------------------------------


def ddg_to_dict(ddg: DDG) -> Dict[str, object]:
    """Plain-data form of a dependence graph (ops + explicit edges)."""
    return {
        "name": ddg.name,
        "operations": [
            {
                "op_id": op.op_id,
                "opcode": op.opcode.value,
                "srcs": [
                    {
                        "producer": src.producer,
                        "omega": src.omega,
                        "symbol": src.symbol,
                    }
                    for src in op.srcs
                ],
                "tag": op.tag,
            }
            for op in ddg.operations()
        ],
        "edges": [
            {
                "src": edge.src,
                "dst": edge.dst,
                "kind": edge.kind.value,
                "omega": edge.omega,
                "latency": edge.latency,
            }
            for edge in ddg.edges()
            if not edge.is_flow  # flow edges re-derive from operands
        ],
    }


def ddg_from_dict(data: Mapping[str, object]) -> DDG:
    """Rebuild a DDG from :func:`ddg_to_dict` output."""
    try:
        ops = [
            Operation(
                op_id=int(entry["op_id"]),
                opcode=OpCode(entry["opcode"]),
                srcs=tuple(
                    ValueUse(
                        producer=src.get("producer"),
                        omega=int(src.get("omega", 0)),
                        symbol=src.get("symbol"),
                    )
                    for src in entry.get("srcs", ())
                ),
                tag=str(entry.get("tag", "")),
            )
            for entry in data.get("operations", ())
        ]
        edges = [
            DepEdge(
                src=int(entry["src"]),
                dst=int(entry["dst"]),
                kind=DepKind(entry["kind"]),
                omega=int(entry.get("omega", 0)),
                latency=entry.get("latency"),
            )
            for entry in data.get("edges", ())
        ]
        return DDG.bulk(str(data.get("name", "loop")), ops, edges)
    except ServiceError:
        raise
    except (ReproError, KeyError, TypeError, ValueError) as err:
        raise ServiceError(f"invalid serialized DDG: {err}", status=400)


def loop_to_dict(loop: Loop) -> Dict[str, object]:
    """Plain-data form of a loop (metadata + serialized DDG)."""
    return {
        "name": loop.name,
        "trip_count": loop.trip_count,
        "unroll_factor": loop.unroll_factor,
        "ddg": ddg_to_dict(loop.ddg),
    }


def loop_from_dict(data: Mapping[str, object]) -> Loop:
    """Rebuild a loop from :func:`loop_to_dict` output."""
    try:
        ddg_data = data["ddg"]
    except (KeyError, TypeError):
        raise ServiceError("serialized loop payload needs a 'ddg'", status=400)
    try:
        return Loop(
            name=str(data.get("name", "loop")),
            ddg=ddg_from_dict(ddg_data),
            trip_count=int(data.get("trip_count", 100)),
            unroll_factor=int(data.get("unroll_factor", 1)),
        )
    except ServiceError:
        raise
    except (ReproError, TypeError, ValueError) as err:
        raise ServiceError(f"invalid serialized loop: {err}", status=400)


# ----------------------------------------------------------------------
# Payload parsing
# ----------------------------------------------------------------------


@dataclass
class ParsedJob:
    """One admitted compile payload, fully resolved.

    ``raw`` keeps the original JSON payload so the daemon's journal can
    persist exactly what would be needed to replay the submission;
    ``wait`` records whether a client connection is blocked on the
    result (``wait=false`` makes the job durable, journaled and replayed
    after a crash: its submitter polls, it holds no socket open).
    """

    request: object  # CompilationRequest (imported lazily, see below)
    priority: str = "normal"
    want_assembly: bool = False
    wait: bool = True
    raw: Optional[Dict[str, object]] = None


def _resolve_loop(payload: Mapping[str, object]) -> Loop:
    kernel = payload.get("kernel")
    loop_data = payload.get("loop")
    if (kernel is None) == (loop_data is None):
        raise ServiceError(
            "compile payload needs exactly one of 'kernel' or 'loop'",
            status=400,
        )
    if kernel is not None:
        from ..workloads import KERNELS, make_kernel

        if kernel not in KERNELS:
            raise ServiceError(
                f"unknown kernel {kernel!r}; available: {sorted(KERNELS)}",
                status=400,
            )
        kwargs = payload.get("kernel_args") or {}
        if not isinstance(kwargs, Mapping):
            raise ServiceError("'kernel_args' must be an object", status=400)
        try:
            return make_kernel(kernel, **dict(kwargs))
        except (ReproError, TypeError) as err:
            raise ServiceError(f"cannot build kernel {kernel!r}: {err}", status=400)
    if not isinstance(loop_data, Mapping):
        raise ServiceError("'loop' must be a serialized loop object", status=400)
    return loop_from_dict(loop_data)


def _resolve_machine(payload: Mapping[str, object]) -> MachineSpec:
    target = payload.get("target")
    if target is not None:
        from ..errors import TargetError
        from ..targets import get_target
        from ..targets.spec import target_from_dict

        try:
            if isinstance(target, Mapping):
                return target_from_dict(target)
            if isinstance(target, str):
                return get_target(target)
        except TargetError as err:
            raise ServiceError(f"invalid target: {err}", status=400)
        raise ServiceError(
            "'target' must be a registered name or a machine-file object",
            status=400,
        )
    try:
        clusters = int(payload.get("clusters", 4))
    except (TypeError, ValueError):
        raise ServiceError("'clusters' must be an integer", status=400)
    try:
        if payload.get("unclustered"):
            return unclustered_vliw(clusters)
        topology = payload.get("topology", "ring")
        return clustered_vliw(clusters, topology=str(topology))
    except ReproError as err:
        raise ServiceError(f"cannot build machine: {err}", status=400)


def _resolve_config(payload: Mapping[str, object]) -> SchedulerConfig:
    overrides = payload.get("config") or {}
    if not isinstance(overrides, Mapping):
        raise ServiceError("'config' must be an object", status=400)
    if not overrides:
        return DEFAULT_CONFIG
    unknown = sorted(set(overrides) - set(CONFIG_FIELDS))
    if unknown:
        raise ServiceError(
            f"unknown config fields: {', '.join(unknown)}; "
            f"valid: {', '.join(CONFIG_FIELDS)}",
            status=400,
        )
    try:
        return DEFAULT_CONFIG.with_(**dict(overrides))
    except ReproError as err:
        raise ServiceError(f"invalid config: {err}", status=400)


def parse_compile_payload(payload: object) -> ParsedJob:
    """Validate a JSON compile payload into a :class:`ParsedJob`."""
    from ..api import CompilationRequest

    if not isinstance(payload, Mapping):
        raise ServiceError("compile payload must be a JSON object", status=400)
    priority = payload.get("priority", "normal")
    if priority not in PRIORITY_LANES:
        raise ServiceError(
            f"unknown priority {priority!r}; choose from {PRIORITY_LANES}",
            status=400,
        )
    loop = _resolve_loop(payload)
    machine = _resolve_machine(payload)
    config = _resolve_config(payload)

    def _int_or_none(name: str) -> Optional[int]:
        value = payload.get(name)
        if value is None:
            return None
        try:
            return int(value)
        except (TypeError, ValueError):
            raise ServiceError(f"{name!r} must be an integer", status=400)

    try:
        request = CompilationRequest(
            loop=loop,
            machine=machine,
            config=config,
            unroll=_int_or_none("unroll"),
            equivalent_k=_int_or_none("equivalent_k"),
            allocate=bool(payload.get("allocate", True)),
            validate=bool(payload.get("validate", False)),
            scheduler=payload.get("scheduler"),
        )
    except ToolchainError as err:
        raise ServiceError(f"invalid compile request: {err}", status=400)
    return ParsedJob(
        request=request,
        priority=priority,
        want_assembly=bool(payload.get("assembly", False)),
        wait=payload.get("wait") is not False,
        raw=dict(payload),
    )


def request_to_payload(request, **extra) -> Dict[str, object]:
    """The JSON payload equivalent of a local :class:`CompilationRequest`.

    The loop ships serialized; the machine ships as an inline target
    payload when it knows how to serialize itself (:class:`TargetSpec`),
    or in constructor form for the paper's parametric machines.  Lets a
    client mirror a local compile over the wire
    (``ServiceClient.compile_request``).

    Raises :class:`~repro.errors.ToolchainError` for a request the
    payload cannot carry exactly: another cluster shape, topology
    parameters or latency model.  Ship those as a :class:`TargetSpec`.
    """
    from ..targets.spec import TargetSpec

    payload: Dict[str, object] = {"loop": loop_to_dict(request.loop)}
    machine = request.machine
    if isinstance(machine, TargetSpec):
        payload["target"] = machine.to_dict()
    elif machine.is_clustered or machine.clusters[0].copy:
        # k clusters on a topology (a lone cluster with a copy unit: k = 1).
        payload["clusters"] = machine.n_clusters
        payload["topology"] = machine.topology_kind
    else:
        # The unclustered reference machine: k units of each useful kind.
        payload["clusters"] = machine.clusters[0].mem
        payload["unclustered"] = True
    try:
        rebuilt = _resolve_machine(payload)
    except ServiceError:
        rebuilt = None
    if rebuilt != machine or request.latencies != getattr(
        rebuilt, "latencies", DEFAULT_LATENCIES
    ):
        raise ToolchainError(
            f"a compile payload cannot carry {request.describe()} with "
            f"{request.latencies}; ship its machine as a TargetSpec"
        )
    config_overrides = {
        f.name: getattr(request.config, f.name)
        for f in dataclasses.fields(request.config)
        if f.init and getattr(request.config, f.name) != getattr(DEFAULT_CONFIG, f.name)
    }
    if config_overrides:
        payload["config"] = config_overrides
    if request.unroll is not None:
        payload["unroll"] = request.unroll
    if request.equivalent_k is not None:
        payload["equivalent_k"] = request.equivalent_k
    if not request.allocate:
        payload["allocate"] = False
    if request.validate:
        payload["validate"] = True
    if request.scheduler is not None:
        payload["scheduler"] = request.scheduler
    payload.update(extra)
    return payload
