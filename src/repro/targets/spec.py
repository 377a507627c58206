"""Declarative target descriptions: machine + latency model, serialisable.

A :class:`TargetSpec` is a :class:`~repro.machine.machine.MachineSpec`
extended with everything a retargetable toolchain needs to know about one
concrete machine:

* heterogeneous per-cluster FU mixes (the base spec already carries one
  :class:`~repro.machine.cluster.ClusterSpec` per cluster — target files
  make mixed clusters first-class instead of a constructor trick);
* a per-target :class:`~repro.ir.opcodes.LatencyModel`, so a target is
  self-contained instead of relying on the process-global default table;
* a free-form description for listings.

``to_dict``/``from_dict`` round-trip losslessly
(``from_dict(to_dict(t)) == t``) through the plain-data schema used by
the TOML/JSON target files in :mod:`repro.targets.files`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Tuple

from ..errors import TargetError
from ..ir.opcodes import DEFAULT_LATENCIES, LatencyModel
from ..machine.cluster import ClusterSpec
from ..machine.cqrf import QueueFileSpec
from ..machine.machine import MachineSpec

#: The latency fields of :class:`LatencyModel`, in declaration order.
#: Derived, not hand-listed: this tuple feeds target serialisation *and*
#: the batch-cache content hash, so it must never lag the model.
LATENCY_FIELDS = tuple(
    f.name for f in dataclasses.fields(LatencyModel) if f.init
)


@dataclass(frozen=True)
class TargetSpec(MachineSpec):
    """A fully self-described compilation target.

    Everywhere a :class:`MachineSpec` is accepted — ``CompilationRequest``,
    schedulers, the checker — a ``TargetSpec`` drops in unchanged; the
    extra fields feed serialisation and the session API (a request built
    from a target adopts the target's latency model).
    """

    latencies: LatencyModel = field(default_factory=lambda: DEFAULT_LATENCIES)
    description: str = ""

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """Plain-data description; inverse of :func:`target_from_dict`."""
        data: Dict[str, object] = {
            "name": self.name,
            "topology": {
                "kind": self.topology_kind,
                "params": {
                    key: _plain(value) for key, value in self.topology_params
                },
            },
            "cqrf": _queue_dict(self.cqrf),
            "clusters": _cluster_dicts(self.clusters),
            "latencies": {
                name: getattr(self.latencies, name) for name in LATENCY_FIELDS
            },
        }
        if self.description:
            data["description"] = self.description
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "TargetSpec":
        """Build a target from plain data, validating the schema."""
        return target_from_dict(data)


# ----------------------------------------------------------------------
# dict <-> spec
# ----------------------------------------------------------------------


def _plain(value: object) -> object:
    """Tuples -> lists, recursively (JSON/TOML-friendly)."""
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    return value


def _queue_dict(spec: QueueFileSpec) -> Dict[str, int]:
    data = {"n_queues": spec.n_queues, "queue_depth": spec.queue_depth}
    if spec.write_ports:
        data["write_ports"] = spec.write_ports
    return data


def _cluster_dicts(clusters: Tuple[ClusterSpec, ...]) -> List[Dict[str, object]]:
    """Run-length-encode identical consecutive clusters via ``count``."""
    out: List[Dict[str, object]] = []
    for cluster in clusters:
        entry = {
            "mem": cluster.mem,
            "alu": cluster.alu,
            "mul": cluster.mul,
            "copy": cluster.copy,
            "count": 1,
            "lrf": _queue_dict(cluster.lrf),
        }
        if out and all(
            out[-1][key] == entry[key] for key in entry if key != "count"
        ):
            out[-1]["count"] += 1
        else:
            out.append(entry)
    return out


#: Fallbacks for omitted machine-file keys: the constructor defaults.
_DEFAULT_CLUSTER = ClusterSpec()


def _require_mapping(data: object, where: str) -> Mapping[str, object]:
    if not isinstance(data, Mapping):
        raise TargetError(f"{where} must be a table/object, got {type(data).__name__}")
    return data


def _check_keys(data: Mapping[str, object], allowed: Tuple[str, ...], where: str) -> None:
    unknown = sorted(set(data) - set(allowed))
    if unknown:
        raise TargetError(
            f"unknown key(s) {unknown} in {where}; allowed: {sorted(allowed)}"
        )


def _queue_from(data: object, where: str) -> QueueFileSpec:
    data = _require_mapping(data, where)
    _check_keys(data, ("n_queues", "queue_depth", "write_ports"), where)
    defaults = QueueFileSpec()
    try:
        return QueueFileSpec(
            n_queues=int(data.get("n_queues", defaults.n_queues)),
            queue_depth=int(data.get("queue_depth", defaults.queue_depth)),
            write_ports=int(data.get("write_ports", defaults.write_ports)),
        )
    except (TypeError, ValueError) as err:
        raise TargetError(f"invalid {where}: {err}") from err


def _clusters_from(entries: object) -> Tuple[ClusterSpec, ...]:
    if not isinstance(entries, (list, tuple)) or not entries:
        raise TargetError("'clusters' must be a non-empty array of tables")
    clusters: List[ClusterSpec] = []
    for position, raw in enumerate(entries):
        where = f"clusters[{position}]"
        entry = _require_mapping(raw, where)
        _check_keys(entry, ("mem", "alu", "mul", "copy", "count", "lrf"), where)
        count = int(entry.get("count", 1))
        if count < 1:
            raise TargetError(f"{where}: count must be >= 1, got {count}")
        try:
            spec = ClusterSpec(
                **{
                    name: int(entry.get(name, getattr(_DEFAULT_CLUSTER, name)))
                    for name in ("mem", "alu", "mul", "copy")
                },
                lrf=_queue_from(entry.get("lrf", {}), f"{where}.lrf"),
            )
        except (TypeError, ValueError) as err:
            raise TargetError(f"invalid {where}: {err}") from err
        clusters.extend([spec] * count)
    return tuple(clusters)


def _latencies_from(data: object) -> LatencyModel:
    data = _require_mapping(data, "latencies")
    _check_keys(data, LATENCY_FIELDS, "latencies")
    defaults = {name: getattr(DEFAULT_LATENCIES, name) for name in LATENCY_FIELDS}
    try:
        defaults.update({key: int(value) for key, value in data.items()})
        return LatencyModel(**defaults)
    except (TypeError, ValueError) as err:
        raise TargetError(f"invalid latencies: {err}") from err


def target_from_dict(data: Mapping[str, object]) -> TargetSpec:
    """Build and validate a :class:`TargetSpec` from plain data.

    Raises :class:`~repro.errors.TargetError` on any schema violation —
    unknown keys, missing required fields, untileable topology shapes,
    non-positive latencies — so a broken target file fails loudly at load
    time, not mid-compilation.
    """
    from ..errors import MachineError

    data = _require_mapping(data, "target")
    _check_keys(
        data,
        ("name", "description", "topology", "cqrf", "clusters", "latencies"),
        "target",
    )
    name = data.get("name")
    if not isinstance(name, str) or not name:
        raise TargetError("target needs a non-empty string 'name'")
    topo = _require_mapping(data.get("topology", {"kind": "ring"}), "topology")
    _check_keys(topo, ("kind", "params"), "topology")
    kind = topo.get("kind", "ring")
    if not isinstance(kind, str):
        raise TargetError(f"topology kind must be a string, got {kind!r}")
    params = _require_mapping(topo.get("params", {}), "topology.params")
    description = data.get("description", "")
    if not isinstance(description, str):
        raise TargetError("target 'description' must be a string")
    try:
        return TargetSpec(
            name=name,
            clusters=_clusters_from(data.get("clusters")),
            cqrf=_queue_from(data.get("cqrf", {}), "cqrf"),
            topology_kind=kind,
            topology_params=dict(params),
            latencies=_latencies_from(data.get("latencies", {})),
            description=description,
        )
    except MachineError as err:
        raise TargetError(f"invalid target {name!r}: {err}") from err

