"""Cluster interconnect topologies: protocol, registry and implementations.

The paper's machine connects clusters "in a bi-directional ring topology"
(figure 1), but closes by noting DMS "could also be used with other
clustered VLIW architectures".  This module generalises the target layer
accordingly:

* :class:`CommPath` — a topology-neutral hop sequence between a producer
  and a consumer cluster (what a chain of moves bridges);
* :class:`Topology` — the protocol every interconnect implements
  (``distance``, ``neighbors``, ``paths``, ``adjacent``,
  ``directed_pairs``), with a generic bounded shortest-path enumerator;
* :func:`register_topology` — the registry behind
  ``MachineSpec.topology_kind``: adding an interconnect is one class
  definition plus one decorator, and machine validation, CLI listings and
  the cross-topology tests all pick it up automatically;
* concrete topologies — the paper's bi-directional :class:`RingTopology`,
  the ablation's :class:`LinearTopology`, plus :class:`MeshTopology`,
  :class:`TorusTopology`, :class:`CrossbarTopology` and the
  edge-list-driven :class:`GraphTopology` (BFS distances, for irregular
  interconnects described in target files).

Two clusters are *directly connected* when their distance is at most one;
a flow-dependent producer/consumer pair placed on indirectly connected
clusters is a **communication conflict**, and DMS must either avoid it or
bridge it with a chain of moves along one of the paths enumerated here.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Dict, List, Mapping, NamedTuple, Optional, Tuple, Type

from ..errors import MachineError


@dataclass(frozen=True)
class CommPath:
    """A hop sequence from a producer to a consumer cluster.

    Attributes:
        clusters: the full hop sequence, endpoints included.
        direction: +1/-1 traversal tag on ring-like topologies (the two
            ring directions of the paper); +1 on topologies where the
            notion does not apply.
    """

    clusters: Tuple[int, ...]
    direction: int = 1

    @property
    def hops(self) -> int:
        """Number of cluster-to-cluster hops."""
        return len(self.clusters) - 1

    @property
    def intermediates(self) -> Tuple[int, ...]:
        """Clusters strictly between the endpoints (where moves live)."""
        return self.clusters[1:-1]

    @property
    def n_moves(self) -> int:
        """Move operations needed to bridge this path."""
        return max(0, self.hops - 1)


class PathCombo(NamedTuple):
    """One row of :meth:`Topology.chain_options`.

    Attributes:
        paths: one path per far producer, in producer order.
        counts: ``(cluster, moves placed there)`` pairs, clusters ascending.
        moves: total moves of the combination.
    """

    paths: Tuple[CommPath, ...]
    counts: Tuple[Tuple[int, int], ...]
    moves: int


# ----------------------------------------------------------------------
# Protocol
# ----------------------------------------------------------------------


class Topology:
    """Distance/adjacency/path queries on an interconnect of *n* clusters.

    Subclasses must set :attr:`kind` (the registry name), implement
    :meth:`neighbors` and :meth:`distance`, and may override
    :meth:`paths` when the generic bounded shortest-path enumeration is
    not what the interconnect wants (the ring explores *both* directions,
    including the longer one).
    """

    #: Registry name; subclasses must override.
    kind: str = ""

    #: Bound on the simple paths :meth:`paths` enumerates per pair.
    max_paths: int = 4

    def __init__(self, n_clusters: int):
        if n_clusters < 1:
            raise MachineError(
                f"{type(self).__name__} needs >= 1 cluster, got {n_clusters}"
            )
        self.n_clusters = n_clusters

    # -- construction / serialisation ----------------------------------

    @classmethod
    def from_params(
        cls, n_clusters: int, params: Optional[Mapping[str, object]] = None
    ) -> "Topology":
        """Build an instance from registry parameters (target files)."""
        return cls(n_clusters, **dict(params or {}))

    def params(self) -> Dict[str, object]:
        """The (serialisable) parameters this instance was built from."""
        return {}

    # -- queries --------------------------------------------------------

    def _check(self, cluster: int) -> None:
        if not 0 <= cluster < self.n_clusters:
            raise MachineError(
                f"cluster {cluster} out of range [0, {self.n_clusters})"
            )

    def distance(self, a: int, b: int) -> int:
        """Minimum hop count between clusters *a* and *b*."""
        raise NotImplementedError

    def neighbors(self, cluster: int) -> Tuple[int, ...]:
        """Clusters directly reachable from *cluster* (excluding itself),
        in ascending order."""
        raise NotImplementedError

    def adjacent(self, a: int, b: int) -> bool:
        """True when *a* and *b* are directly connected (distance <= 1)."""
        return self.distance(a, b) <= 1

    def comm_latency(self, a: int, b: int) -> int:
        """Extra cycles a value spends crossing the link ``a -> b``.

        The paper's CQRF model makes near-neighbour communication free
        (the producer writes straight into the communication queue and
        the consumer reads it as a normal operand), so the default is 0
        for any directly connected pair.  A registered topology with
        slower links can override this; both the schedule checker and
        the execution oracle consume it through
        :func:`repro.scheduling.timing.edge_ready_latency`, so the two
        can never disagree on link cost.
        """
        self._check(a)
        self._check(b)
        return 0

    # -- cached aggregate views ----------------------------------------
    #
    # Topology instances are memoised per (kind, n_clusters, params) by
    # :func:`make_topology`, so these build exactly once per machine and
    # turn the per-query virtual ``distance()`` calls on scheduler hot
    # paths into tuple indexing / frozenset intersection.

    def distance_matrix(self) -> Tuple[Tuple[int, ...], ...]:
        """``matrix[a][b] == distance(a, b)`` for every cluster pair."""
        cached = self.__dict__.get("_distance_matrix")
        if cached is None:
            n = self.n_clusters
            cached = tuple(
                tuple(self.distance(a, b) for b in range(n)) for a in range(n)
            )
            self.__dict__["_distance_matrix"] = cached
        return cached

    def compat_sets(self) -> Tuple[frozenset, ...]:
        """``compat_sets()[p]`` = clusters *c* with ``distance(p, c) <= 1``
        (p itself included): where a *consumer* may sit relative to a
        producer placed on *p* without a communication conflict."""
        cached = self.__dict__.get("_compat_sets")
        if cached is None:
            matrix = self.distance_matrix()
            cached = tuple(
                frozenset(b for b, d in enumerate(row) if d <= 1)
                for row in matrix
            )
            self.__dict__["_compat_sets"] = cached
        return cached

    def compat_sets_in(self) -> Tuple[frozenset, ...]:
        """``compat_sets_in()[s]`` = clusters *c* with ``distance(c, s) <= 1``:
        where a *producer* may sit relative to a consumer placed on *s*.
        Equal to :meth:`compat_sets` on symmetric interconnects (all the
        built-ins), but kept direction-aware so a registered topology with
        asymmetric link distances is still judged per edge direction."""
        cached = self.__dict__.get("_compat_sets_in")
        if cached is None:
            matrix = self.distance_matrix()
            n = self.n_clusters
            cached = tuple(
                frozenset(a for a in range(n) if matrix[a][b] <= 1)
                for b in range(n)
            )
            self.__dict__["_compat_sets_in"] = cached
        return cached

    def paths_cached(self, src: int, dst: int) -> List[CommPath]:
        """Memoised :meth:`paths`.

        Chain planning asks for the same (src, dst) pair once per
        candidate combo; topologies are immutable, so the enumeration is
        computed once per pair per instance.  Callers must not mutate the
        returned list.
        """
        cache = self.__dict__.setdefault("_paths_cache", {})
        key = (src, dst)
        paths = cache.get(key)
        if paths is None:
            paths = cache[key] = self.paths(src, dst)
        return paths

    def chain_options(
        self, srcs: Tuple[int, ...], dst: int, combo_cap: int, shortest_only: bool
    ) -> Tuple[PathCombo, ...]:
        """Memoised path combinations bridging producers on *srcs* to a
        consumer on *dst*, for chain planning.

        One path per source from :meth:`paths_cached` (only the first
        with *shortest_only*), combined in ``itertools.product`` order and
        cut at *combo_cap*.  A combination is dropped when an earlier kept
        one needs at most as many moves in every cluster: the chain
        planner's ranking can never prefer it (see
        :mod:`repro.scheduling.chains`).  The table depends only on the
        interconnect and the two settings, so it is built once per
        instance and shared by every schedule on it.
        """
        tables = self.__dict__.setdefault("_chain_options", {})
        key = (srcs, dst, combo_cap, shortest_only)
        rows = tables.get(key)
        if rows is not None:
            return rows
        choices = []
        for src in srcs:
            paths = self.paths_cached(src, dst)
            choices.append(paths[:1] if shortest_only else paths)
        kept: List[PathCombo] = []
        vectors: List[List[int]] = []
        for combo in itertools.islice(itertools.product(*choices), combo_cap):
            vector = [0] * self.n_clusters
            for path in combo:
                for hop in path.intermediates:
                    vector[hop] += 1
            if any(
                all(a <= b for a, b in zip(seen, vector)) for seen in vectors
            ):
                continue
            counts = tuple((c, n) for c, n in enumerate(vector) if n)
            kept.append(PathCombo(combo, counts, sum(vector)))
            if counts:
                # A move-free row scores free[dst], not its counts, so it
                # dominates nothing.
                vectors.append(vector)
        rows = tables[key] = tuple(kept)
        return rows

    def directed_pairs(self) -> List[Tuple[int, int]]:
        """All ordered adjacent pairs (one CQRF per pair and direction)."""
        pairs = []
        for c in range(self.n_clusters):
            for d in self.neighbors(c):
                pairs.append((c, d))
        return sorted(pairs)

    def paths(self, src: int, dst: int) -> List[CommPath]:
        """Distinct simple paths from *src* to *dst* for chain planning.

        The generic implementation enumerates shortest paths only, in
        lexicographic hop order, capped at :attr:`max_paths` so chain
        planning stays tractable on path-rich interconnects (a mesh
        corner pair alone has binomially many shortest routes).
        """
        self._check(src)
        self._check(dst)
        if src == dst:
            return [CommPath((src,), 1)]
        found: List[CommPath] = []

        def extend(prefix: List[int]) -> None:
            if len(found) >= self.max_paths:
                return
            current = prefix[-1]
            if current == dst:
                found.append(CommPath(tuple(prefix), 1))
                return
            remaining = self.distance(current, dst)
            for nxt in self.neighbors(current):
                if self.distance(nxt, dst) == remaining - 1:
                    extend(prefix + [nxt])

        extend([src])
        return found

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({self.n_clusters})"


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------


#: kind -> topology class.  Populated by :func:`register_topology`.
TOPOLOGY_REGISTRY: Dict[str, Type[Topology]] = {}


def register_topology(cls: Optional[Type[Topology]] = None, *, replace: bool = False):
    """Class decorator registering a :class:`Topology` under its ``kind``.

    Registering a kind twice is an error unless ``replace=True`` — two
    interconnects silently shadowing each other is exactly the drift the
    registry exists to prevent.
    """

    def _register(topology_cls: Type[Topology]) -> Type[Topology]:
        if not (isinstance(topology_cls, type) and issubclass(topology_cls, Topology)):
            raise MachineError(
                f"register_topology needs a Topology subclass, got {topology_cls!r}"
            )
        kind = topology_cls.kind
        if not kind:
            raise MachineError(f"topology {topology_cls.__name__} has no kind")
        if kind in TOPOLOGY_REGISTRY and not replace:
            raise MachineError(
                f"topology kind {kind!r} is already registered "
                "(pass replace=True to override)"
            )
        TOPOLOGY_REGISTRY[kind] = topology_cls
        _cached_topology.cache_clear()
        return topology_cls

    return _register(cls) if cls is not None else _register


def topology_kinds() -> Tuple[str, ...]:
    """All registered topology kinds, sorted."""
    return tuple(sorted(TOPOLOGY_REGISTRY))


def freeze_params(params: Optional[Mapping[str, object]]) -> Tuple[Tuple[str, object], ...]:
    """Canonical hashable form of a topology-parameter mapping."""

    def _freeze(value: object) -> object:
        if isinstance(value, (list, tuple)):
            return tuple(_freeze(v) for v in value)
        if isinstance(value, (int, str)):
            return value
        raise MachineError(
            f"unsupported topology parameter value {value!r} "
            "(only ints, strings and nested lists are serialisable)"
        )

    if not params:
        return ()
    return tuple(sorted((str(k), _freeze(v)) for k, v in dict(params).items()))


def thaw_params(frozen: Tuple[Tuple[str, object], ...]) -> Dict[str, object]:
    """Inverse of :func:`freeze_params` (tuples stay tuples)."""
    return dict(frozen)


@functools.lru_cache(maxsize=None)
def _cached_topology(
    kind: str, n_clusters: int, frozen: Tuple[Tuple[str, object], ...]
) -> Topology:
    cls = TOPOLOGY_REGISTRY.get(kind)
    if cls is None:
        raise MachineError(
            f"unknown topology {kind!r}; registered: {topology_kinds()}"
        )
    try:
        return cls.from_params(n_clusters, thaw_params(frozen))
    except MachineError:
        raise
    except (TypeError, ValueError, ZeroDivisionError) as err:
        # A typo'd or malformed parameter set must surface as a machine
        # description error, not a raw traceback out of a constructor.
        raise MachineError(
            f"invalid parameters {thaw_params(frozen)!r} for topology "
            f"{kind!r}: {err}"
        ) from err


def make_topology(
    kind: str,
    n_clusters: int,
    params: Optional[Mapping[str, object]] = None,
) -> Topology:
    """Instantiate the registered topology *kind* for *n_clusters*.

    Instances are immutable and memoised, so ``machine.topology`` stays
    cheap on scheduler hot paths.
    """
    frozen = params if isinstance(params, tuple) else freeze_params(params)
    return _cached_topology(kind, n_clusters, frozen)


# ----------------------------------------------------------------------
# The paper's interconnects: bi-directional ring and linear array
# ----------------------------------------------------------------------


@register_topology
class RingTopology(Topology):
    """The paper's bi-directional ring (figure 1): every cluster has a
    left and a right neighbour, and every far pair has exactly two
    candidate chain paths (one per direction)."""

    kind = "ring"

    def distance(self, a: int, b: int) -> int:
        """Minimum hop count between clusters *a* and *b*."""
        self._check(a)
        self._check(b)
        forward = (b - a) % self.n_clusters
        return min(forward, self.n_clusters - forward)

    def neighbors(self, cluster: int) -> Tuple[int, ...]:
        """Clusters directly reachable from *cluster* (excluding itself)."""
        self._check(cluster)
        if self.n_clusters == 1:
            return ()
        left = (cluster - 1) % self.n_clusters
        right = (cluster + 1) % self.n_clusters
        if left == right:
            return (left,)
        return tuple(sorted((left, right)))

    def path(self, src: int, dst: int, direction: int) -> CommPath:
        """The path from *src* to *dst* going in *direction* (+1/-1)."""
        self._check(src)
        self._check(dst)
        if direction not in (1, -1):
            raise MachineError(f"direction must be +1 or -1, got {direction}")
        clusters = [src]
        current = src
        while current != dst:
            current = (current + direction) % self.n_clusters
            clusters.append(current)
            if len(clusters) > self.n_clusters:
                raise MachineError("ring path failed to terminate")
        return CommPath(tuple(clusters), direction)

    def paths(self, src: int, dst: int) -> List[CommPath]:
        """Distinct simple paths from *src* to *dst* (at most two).

        For ``src == dst`` the only path is the trivial one.  On very small
        rings the two directions can traverse identical cluster sequences;
        duplicates are removed so chain planning never explores the same
        option twice.
        """
        if src == dst:
            return [CommPath((src,), 1)]
        forward = self.path(src, dst, 1)
        backward = self.path(src, dst, -1)
        if forward.clusters == backward.clusters:
            # Two-cluster ring: both directions traverse the same hop.
            return [forward]
        result = [forward, backward]
        result.sort(key=lambda p: (p.hops, -p.direction))
        return result


@register_topology
class LinearTopology(RingTopology):
    """A linear cluster array: the ring without the wraparound link.

    The paper argues DMS suits any clustered machine with fixed-timing
    neighbour links and few chain paths; a linear array is the simplest
    such alternative — exactly one path between any two clusters, and
    longer average distances than the ring (no shortcut across the
    ends).  Used by the topology ablation to show what the
    bi-directional ring buys.
    """

    kind = "linear"

    def distance(self, a: int, b: int) -> int:
        self._check(a)
        self._check(b)
        return abs(a - b)

    def neighbors(self, cluster: int) -> Tuple[int, ...]:
        self._check(cluster)
        return tuple(
            c for c in (cluster - 1, cluster + 1) if 0 <= c < self.n_clusters
        )

    def path(self, src: int, dst: int, direction: int) -> CommPath:
        self._check(src)
        self._check(dst)
        if direction not in (1, -1):
            raise MachineError(f"direction must be +1 or -1, got {direction}")
        step = 1 if dst > src else -1
        if src != dst and direction != step:
            raise MachineError(
                f"no linear path from {src} to {dst} in direction {direction}"
            )
        clusters = tuple(range(src, dst + step, step)) if src != dst else (src,)
        return CommPath(clusters, direction)

    def paths(self, src: int, dst: int) -> List[CommPath]:
        if src == dst:
            return [CommPath((src,), 1)]
        step = 1 if dst > src else -1
        return [self.path(src, dst, step)]


# ----------------------------------------------------------------------
# CGRA-style interconnects: mesh, torus, crossbar
# ----------------------------------------------------------------------


def _factorize_near_square(n: int) -> Tuple[int, int]:
    """(rows, cols) with ``rows * cols == n`` and rows as close to
    ``sqrt(n)`` as divisibility allows (rows <= cols)."""
    rows = max(1, int(n ** 0.5))
    while n % rows:
        rows -= 1
    return rows, n // rows


@register_topology
class MeshTopology(Topology):
    """A 2D mesh: cluster ``r * cols + c`` links to its four grid
    neighbours (no wraparound).  The interconnect of the CGRA
    modulo-scheduling line of work (SAT-MapIt and successors)."""

    kind = "mesh"

    def __init__(self, n_clusters: int, rows: Optional[int] = None, cols: Optional[int] = None):
        super().__init__(n_clusters)
        if rows is not None and int(rows) < 1 or cols is not None and int(cols) < 1:
            raise MachineError(
                f"{self.kind} rows/cols must be >= 1, got rows={rows} cols={cols}"
            )
        if rows is None and cols is None:
            rows, cols = _factorize_near_square(n_clusters)
        elif rows is None:
            rows, cols = n_clusters // int(cols), int(cols)
        elif cols is None:
            rows, cols = int(rows), n_clusters // int(rows)
        rows, cols = int(rows), int(cols)
        if rows < 1 or cols < 1 or rows * cols != n_clusters:
            raise MachineError(
                f"{self.kind} shape {rows}x{cols} does not tile "
                f"{n_clusters} clusters"
            )
        self.rows = rows
        self.cols = cols

    def params(self) -> Dict[str, object]:
        return {"rows": self.rows, "cols": self.cols}

    def _coords(self, cluster: int) -> Tuple[int, int]:
        return divmod(cluster, self.cols)

    def distance(self, a: int, b: int) -> int:
        self._check(a)
        self._check(b)
        ra, ca = self._coords(a)
        rb, cb = self._coords(b)
        return abs(ra - rb) + abs(ca - cb)

    def neighbors(self, cluster: int) -> Tuple[int, ...]:
        self._check(cluster)
        r, c = self._coords(cluster)
        out = []
        if r > 0:
            out.append(cluster - self.cols)
        if r < self.rows - 1:
            out.append(cluster + self.cols)
        if c > 0:
            out.append(cluster - 1)
        if c < self.cols - 1:
            out.append(cluster + 1)
        return tuple(sorted(out))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({self.rows}x{self.cols})"


@register_topology
class TorusTopology(MeshTopology):
    """A 2D torus: the mesh with wraparound links on both axes, halving
    worst-case distances exactly as the ring does for the linear array."""

    kind = "torus"

    def distance(self, a: int, b: int) -> int:
        self._check(a)
        self._check(b)
        ra, ca = self._coords(a)
        rb, cb = self._coords(b)
        dr = abs(ra - rb)
        dc = abs(ca - cb)
        return min(dr, self.rows - dr) + min(dc, self.cols - dc)

    def neighbors(self, cluster: int) -> Tuple[int, ...]:
        self._check(cluster)
        r, c = self._coords(cluster)
        out = {
            ((r - 1) % self.rows) * self.cols + c,
            ((r + 1) % self.rows) * self.cols + c,
            r * self.cols + (c - 1) % self.cols,
            r * self.cols + (c + 1) % self.cols,
        }
        out.discard(cluster)
        return tuple(sorted(out))


@register_topology
class CrossbarTopology(Topology):
    """A full crossbar: every cluster pair is directly connected, so no
    communication conflict can ever arise and DMS never builds a chain.
    The upper bound of the interconnect ablation (and the closest
    clustered analogue of the unclustered reference machine)."""

    kind = "crossbar"

    def distance(self, a: int, b: int) -> int:
        self._check(a)
        self._check(b)
        return 0 if a == b else 1

    def neighbors(self, cluster: int) -> Tuple[int, ...]:
        self._check(cluster)
        return tuple(c for c in range(self.n_clusters) if c != cluster)

    def paths(self, src: int, dst: int) -> List[CommPath]:
        self._check(src)
        self._check(dst)
        if src == dst:
            return [CommPath((src,), 1)]
        return [CommPath((src, dst), 1)]


# ----------------------------------------------------------------------
# Explicit edge-list interconnects (target files)
# ----------------------------------------------------------------------


@register_topology
class GraphTopology(Topology):
    """An interconnect given as an explicit undirected edge list.

    This is the generic graph-backed implementation behind custom target
    files: distances come from per-source BFS, chain paths from the
    bounded shortest-path enumeration of the base protocol.  With no
    ``edges`` parameter it defaults to a ring, so every registry consumer
    (sweeps, property tests) can instantiate it for any cluster count.
    """

    kind = "graph"

    def __init__(self, n_clusters: int, edges: Optional[Tuple[Tuple[int, int], ...]] = None):
        super().__init__(n_clusters)
        if edges is None:
            edges = tuple(
                (c, (c + 1) % n_clusters) for c in range(n_clusters) if n_clusters > 1
            )
        adjacency: Dict[int, set] = {c: set() for c in range(n_clusters)}
        canonical = set()
        for edge in edges:
            if len(edge) != 2:
                raise MachineError(f"graph edge {edge!r} is not a pair")
            a, b = int(edge[0]), int(edge[1])
            self._check(a)
            self._check(b)
            if a == b:
                raise MachineError(f"graph edge ({a}, {b}) is a self-loop")
            adjacency[a].add(b)
            adjacency[b].add(a)
            canonical.add((min(a, b), max(a, b)))
        self.edges: Tuple[Tuple[int, int], ...] = tuple(sorted(canonical))
        self._adjacency = {c: tuple(sorted(adjacency[c])) for c in adjacency}
        self._dist: Dict[int, Tuple[int, ...]] = {}
        if n_clusters > 1:
            unreachable = [
                c for c, d in enumerate(self._bfs(0)) if d >= n_clusters
            ]
            if unreachable:
                raise MachineError(
                    f"graph topology is disconnected: clusters {unreachable} "
                    "unreachable from cluster 0"
                )

    def params(self) -> Dict[str, object]:
        return {"edges": self.edges}

    def _bfs(self, src: int) -> Tuple[int, ...]:
        cached = self._dist.get(src)
        if cached is not None:
            return cached
        dist = [self.n_clusters] * self.n_clusters  # n = "unreachable"
        dist[src] = 0
        frontier = [src]
        while frontier:
            nxt = []
            for node in frontier:
                for neighbor in self._adjacency[node]:
                    if dist[neighbor] > dist[node] + 1:
                        dist[neighbor] = dist[node] + 1
                        nxt.append(neighbor)
            frontier = nxt
        table = tuple(dist)
        self._dist[src] = table
        return table

    def distance(self, a: int, b: int) -> int:
        self._check(a)
        self._check(b)
        return self._bfs(a)[b]

    def neighbors(self, cluster: int) -> Tuple[int, ...]:
        self._check(cluster)
        return self._adjacency[cluster]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"GraphTopology({self.n_clusters}, edges={len(self.edges)})"
