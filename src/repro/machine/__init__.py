"""Machine model: clusters, pluggable interconnect topologies, queue files."""

from .cluster import ClusterSpec, PAPER_CLUSTER
from .cqrf import CQRFId, LRFId, QueueFileId, QueueFileSpec, queue_file_for
from .fu import FUSlot, fu_name
from .machine import (
    MachineSpec,
    PAPER_CLUSTER_RANGE,
    clustered_vliw,
    paper_machine_pair,
    unclustered_vliw,
)
from .topology import (
    CommPath,
    CrossbarTopology,
    GraphTopology,
    LinearTopology,
    MeshTopology,
    RingTopology,
    Topology,
    TorusTopology,
    make_topology,
    register_topology,
    topology_kinds,
)

__all__ = [
    "ClusterSpec",
    "PAPER_CLUSTER",
    "CQRFId",
    "LRFId",
    "QueueFileId",
    "QueueFileSpec",
    "queue_file_for",
    "FUSlot",
    "fu_name",
    "MachineSpec",
    "PAPER_CLUSTER_RANGE",
    "clustered_vliw",
    "paper_machine_pair",
    "unclustered_vliw",
    "CommPath",
    "CrossbarTopology",
    "GraphTopology",
    "LinearTopology",
    "MeshTopology",
    "RingTopology",
    "Topology",
    "TorusTopology",
    "make_topology",
    "register_topology",
    "topology_kinds",
]
