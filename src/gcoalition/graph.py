"""Immutable simple graphs with bitset adjacency and metric queries.

Vertices are dense indices ``0..n-1``; adjacency rows are integer bitmasks so
neighborhood algebra stays single-word.  The build limit is 64 vertices.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Optional, Sequence

from .bitset import VertexSet, bits_of, mask_of
from .errors import DisconnectedError, GraphFormatError, NotATreeError

MAX_VERTICES = 64


class _Acyclic:
    """Sentinel girth value for graphs without cycles."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "Acyclic"


ACYCLIC = _Acyclic()


class Graph:
    """Simple undirected graph, immutable after construction."""

    __slots__ = ("n", "adj", "labels", "_hash")

    def __init__(self, n: int, adj: Sequence[int], labels: Optional[Sequence[str]] = None):
        if n < 1:
            raise GraphFormatError("graph needs at least one vertex")
        if n > MAX_VERTICES:
            raise GraphFormatError(f"graph too large: n={n} > {MAX_VERTICES}")
        if len(adj) != n:
            raise GraphFormatError("adjacency length must equal n")
        full = (1 << n) - 1
        for v, row in enumerate(adj):
            if row >> v & 1:
                raise GraphFormatError(f"loop at vertex {v}")
            if row & ~full:
                raise GraphFormatError(f"adjacency bit outside universe at vertex {v}")
        for v, row in enumerate(adj):
            for u in bits_of(row):
                if not adj[u] >> v & 1:
                    raise GraphFormatError(f"asymmetric edge {v}-{u}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "adj", tuple(adj))
        object.__setattr__(self, "labels", tuple(labels) if labels is not None else None)
        object.__setattr__(self, "_hash", hash((n, tuple(adj))))

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    def _plus_edge(self, u: int, v: int) -> "Graph":
        """This graph with the edge ``uv`` added; ``v == n`` adds a new
        vertex.  The rows of ``self`` were checked when it was built, so only
        the new pair is."""
        if not (0 <= u < self.n and 0 <= v <= self.n and u != v):
            raise GraphFormatError(f"bad edge {u}-{v} for n={self.n}")
        n = self.n + (v == self.n)
        if n > MAX_VERTICES:
            raise GraphFormatError(f"graph too large: n={n} > {MAX_VERTICES}")
        adj = list(self.adj) + [0] * (n - self.n)
        adj[u] |= 1 << v
        adj[v] |= 1 << u
        g = object.__new__(Graph)
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "adj", tuple(adj))
        object.__setattr__(g, "labels", None)
        object.__setattr__(g, "_hash", hash((n, tuple(adj))))
        return g

    def __eq__(self, other):
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.edge_count()})"

    # -- basic queries -------------------------------------------------

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def neighborhood(self, v: int) -> VertexSet:
        return VertexSet(self.adj[v], self.n)

    def degree(self, v: int) -> int:
        return bin(self.adj[v]).count("1")

    def degrees(self) -> list[int]:
        return [self.degree(v) for v in range(self.n)]

    def max_degree(self) -> int:
        return max(self.degrees())

    def min_degree(self) -> int:
        return min(self.degrees())

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for v in range(self.n):
            for u in bits_of(self.adj[v] >> v + 1 << v + 1):
                out.append((v, u))
        return out

    def edge_count(self) -> int:
        return sum(self.degrees()) // 2

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def full_vertices(self) -> VertexSet:
        mask = mask_of(v for v in range(self.n) if self.degree(v) == self.n - 1)
        return VertexSet(mask, self.n)

    # -- complement ----------------------------------------------------

    def complement_neighborhood(self, v: int) -> VertexSet:
        """Neighborhood of ``v`` in the complement, without materializing it."""
        if not 0 <= v < self.n:
            raise GraphFormatError(f"vertex {v} out of range")
        return VertexSet(self.full_mask & ~(self.adj[v] | 1 << v), self.n)

    def complement(self) -> "Graph":
        full = self.full_mask
        return Graph(self.n, [full & ~(self.adj[v] | 1 << v) for v in range(self.n)], self.labels)

    # -- connectivity and distances ------------------------------------

    def component_mask(self, start: int) -> int:
        seen = 1 << start
        frontier = seen
        while frontier:
            nxt = 0
            for v in bits_of(frontier):
                nxt |= self.adj[v]
            frontier = nxt & ~seen
            seen |= frontier
        return seen

    def is_connected(self) -> bool:
        return self.component_mask(0) == self.full_mask

    def bfs_distances(self, start: int) -> list[int]:
        """Hop distances from ``start``; -1 for unreachable vertices."""
        dist = [-1] * self.n
        dist[start] = 0
        seen = 1 << start
        frontier = seen
        d = 0
        while frontier:
            nxt = 0
            for v in bits_of(frontier):
                nxt |= self.adj[v]
            frontier = nxt & ~seen
            seen |= frontier
            d += 1
            for v in bits_of(frontier):
                dist[v] = d
        return dist


def from_edge_list(n: int, edges: Iterable[tuple[int, int]], labels=None) -> Graph:
    """Build a graph from index pairs; duplicate edges collapse silently."""
    if n < 1:
        raise GraphFormatError("n must be at least 1")
    adj = [0] * n
    for u, v in edges:
        if u == v:
            raise GraphFormatError(f"loop edge {u}-{v}")
        if not (0 <= u < n and 0 <= v < n):
            raise GraphFormatError(f"edge {u}-{v} out of range for n={n}")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(n, adj, labels)


# -- metrics -----------------------------------------------------------


@dataclass(frozen=True)
class Metrics:
    connected: bool
    _ecc: Optional[tuple[int, ...]]
    _graph: Graph = field(repr=False)

    @cached_property
    def girth(self):
        """Shortest cycle length, or ``ACYCLIC``; computed on first read."""
        return _girth(self._graph)

    def _require_connected(self):
        if not self.connected:
            raise DisconnectedError("metric undefined on a disconnected graph")

    @property
    def ecc(self) -> tuple[int, ...]:
        self._require_connected()
        return self._ecc

    @property
    def radius(self) -> int:
        self._require_connected()
        return min(self._ecc)

    @property
    def diameter(self) -> int:
        self._require_connected()
        return max(self._ecc)

    def central_vertices(self) -> list[int]:
        self._require_connected()
        r = self.radius
        return [v for v, e in enumerate(self._ecc) if e == r]


def _girth(g: Graph):
    best = None
    for root in range(g.n):
        dist = [-1] * g.n
        parent = [-1] * g.n
        dist[root] = 0
        q = deque([root])
        while q:
            v = q.popleft()
            for u in bits_of(g.adj[v]):
                if dist[u] < 0:
                    dist[u] = dist[v] + 1
                    parent[u] = v
                    q.append(u)
                elif u != parent[v]:
                    cyc = dist[v] + dist[u] + 1
                    if best is None or cyc < best:
                        best = cyc
    return ACYCLIC if best is None else best


def metrics(g: Graph) -> Metrics:
    """Exact eccentricities, radius and diameter via BFS; the girth is
    computed when first read."""
    connected = g.is_connected()
    ecc = None
    if connected:
        ecc = tuple(max(g.bfs_distances(v)) for v in range(g.n))
    return Metrics(connected, ecc, g)


# -- structural queries ------------------------------------------------


@dataclass(frozen=True)
class StructureReport:
    leaves: VertexSet
    supports: VertexSet
    full_vertices: VertexSet
    leaf_map: dict  # support vertex -> VertexSet of its leaves


def structure(g: Graph) -> StructureReport:
    leaf_mask = mask_of(v for v in range(g.n) if g.degree(v) == 1)
    leaf_map = {}
    for v in range(g.n):
        mine = g.adj[v] & leaf_mask
        if mine:
            leaf_map[v] = VertexSet(mine, g.n)
    supports = mask_of(leaf_map)
    return StructureReport(
        leaves=VertexSet(leaf_mask, g.n),
        supports=VertexSet(supports, g.n),
        full_vertices=g.full_vertices(),
        leaf_map=leaf_map,
    )


# -- radius-2 tree classification --------------------------------------


@dataclass(frozen=True)
class Star:
    center: int


@dataclass(frozen=True)
class PathFour:
    pass


@dataclass(frozen=True)
class DoubleStarClass:
    p: int
    q: int


@dataclass(frozen=True)
class Diam4:
    center: int
    ell: int


@dataclass(frozen=True)
class RadiusAtLeast3:
    pass


def is_tree(g: Graph) -> bool:
    return g.is_connected() and g.edge_count() == g.n - 1


def classify_radius2_tree(g: Graph):
    """Sort a tree into the radius-2 taxonomy: star, 4-path, double star,
    diameter-4 tree, or radius >= 3."""
    if not is_tree(g):
        raise NotATreeError("input is not a tree")
    m = metrics(g)
    if g.n == 1:
        return Star(center=0)
    rad, diam = m.radius, m.diameter
    if rad <= 1:
        centers = m.central_vertices()
        return Star(center=centers[0])
    if rad >= 3:
        return RadiusAtLeast3()
    if diam == 3:
        if g.n == 4 and sorted(g.degrees()) == [1, 1, 2, 2]:
            return PathFour()
        rep = structure(g)
        counts = sorted((len(rep.leaf_map[s]) for s in rep.supports), reverse=True)
        return DoubleStarClass(p=counts[0], q=counts[1])
    # diam == 4: unique central vertex
    center = m.central_vertices()[0]
    dist = g.bfs_distances(center)
    ell = sum(1 for d in dist if d == 2)
    return Diam4(center=center, ell=ell)
