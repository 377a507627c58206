"""Dependence edges.

Edges come in two families:

* **flow** edges are derived automatically from operand references and
  carry the producer's latency (resolved through a
  :class:`~repro.ir.opcodes.LatencyModel` at scheduling time).  Only flow
  edges constrain *cluster placement* in DMS, because only register values
  travel through the CQRF ring.
* **mem/anti/output** edges are explicit ordering edges with their own
  latency; they constrain timing but never communication (memory is shared
  between clusters in the paper's machine model).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional, Tuple


class DepKind(enum.Enum):
    """Kind of a dependence edge."""

    FLOW = "flow"  # true register dependence (value communication)
    MEM = "mem"  # memory ordering (store->load, load->store, store->store)
    ANTI = "anti"  # register anti-dependence (rare with renaming)
    OUTPUT = "output"  # register output dependence

    #: Dense position in declaration order, set below: edge keys carry it
    #: instead of the member, so keying an edge hashes no enum.
    code: int

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DepKind.{self.name}"


for _code, _kind in enumerate(DepKind):
    _kind.code = _code
del _code, _kind


#: Edge kinds that require producer/consumer cluster adjacency.
COMMUNICATING_KINDS = frozenset({DepKind.FLOW})

#: ``DepKind.code`` of flow edges (the kind part of a flow edge's key).
FLOW_CODE = DepKind.FLOW.code

_COMMUNICATING_CODES = frozenset(kind.code for kind in COMMUNICATING_KINDS)

_set = object.__setattr__


@dataclass(frozen=True, slots=True)
class DepEdge:
    """A dependence edge ``src -> dst``.

    The scheduling constraint imposed by an edge is::

        t(dst) >= t(src) + latency - II * omega

    where ``latency`` is the explicit edge latency for non-flow edges and
    the producer latency for flow edges (``latency is None`` then).

    An edge pickles as its constructor arguments: the derived key and
    the per-model latency cache (:meth:`DDG.edge_latency`) are rebuilt,
    never shipped.
    """

    src: int
    dst: int
    kind: DepKind = DepKind.FLOW
    omega: int = 0
    latency: Optional[int] = None
    _key: Tuple[int, int, int, int] = field(init=False, repr=False, compare=False)
    _communicates: bool = field(init=False, repr=False, compare=False)
    _lat_cache: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        code = self.kind.code
        if self.omega < 0:
            raise ValueError(f"omega must be >= 0, got {self.omega}")
        if code == FLOW_CODE:
            if self.latency is not None:
                raise ValueError("flow edges derive latency from the producer opcode")
        elif self.latency is None:
            raise ValueError(f"{self.kind.value} edges need an explicit latency")
        elif self.latency < 0:
            raise ValueError(f"edge latency must be >= 0, got {self.latency}")
        # Derived once here (and again on unpickling): every edge put in
        # a graph is keyed, and the schedulers test ``communicates`` on
        # every adjacency walk.
        _set(self, "_key", (self.src, self.dst, code, self.omega))
        _set(self, "_communicates", code in _COMMUNICATING_CODES)

    def __reduce__(self):
        return type(self), (self.src, self.dst, self.kind, self.omega, self.latency)

    @property
    def key(self) -> Tuple[int, int, int, int]:
        """Uniqueness key: one edge per (src, dst, kind, omega), the kind
        as its ``DepKind.code``."""
        return self._key

    @property
    def is_flow(self) -> bool:
        """True for register flow (value-carrying) edges."""
        return self.kind is DepKind.FLOW

    @property
    def communicates(self) -> bool:
        """True when the edge moves a value between producer and consumer."""
        return self._communicates

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        lat = "" if self.latency is None else f", lat={self.latency}"
        return f"<{self.kind.value} {self.src}->{self.dst} w={self.omega}{lat}>"
