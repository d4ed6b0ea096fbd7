"""Independent reference solver and isomorphism test used as oracles in tests.

Deliberately naive and structurally different from the package solver: plain
Python sets instead of bitmasks, an explicit complement neighborhood, and a
full Bell-number sweep over all set partitions via restricted-growth
recursion, with no pruning beyond predicate memoization.  Isomorphism is
decided by trying every vertex permutation, and so is the automorphism
group (``automorphisms``).  ``reference_certificate`` is the package's
canonical certificate computed with no automorphism pruning beyond twins
and no shortcuts in refinement; the reference enumerators try every pendant
vertex and every chord and deduplicate by that certificate.
"""

from __future__ import annotations

import itertools
from functools import lru_cache


def is_isomorphic(g1, g2) -> bool:
    """Brute force: some permutation of the vertices maps g1's edges onto g2's."""
    if g1.n != g2.n:
        return False
    edges1 = [frozenset(e) for e in g1.edges()]
    edges2 = {frozenset(e) for e in g2.edges()}
    if len(edges1) != len(edges2):
        return False
    return any(
        all(frozenset(perm[u] for u in e) in edges2 for e in edges1)
        for perm in itertools.permutations(range(g1.n))
    )


def automorphisms(g) -> list:
    """Brute force: every vertex permutation that maps g's edges onto
    g's edges, as lists of vertex images."""
    edges = [frozenset(e) for e in g.edges()]
    edge_set = set(edges)
    return [list(perm) for perm in itertools.permutations(range(g.n))
            if all(frozenset(perm[u] for u in e) in edge_set for e in edges)]


def _reference_refine(nbrs, colors):
    count = len(set(colors))
    while True:
        sigs = [(colors[v], tuple(sorted(colors[u] for u in vs))) for v, vs in enumerate(nbrs)]
        rank = {sig: i for i, sig in enumerate(sorted(set(sigs)))}
        colors = [rank[sig] for sig in sigs]
        if len(rank) == count:
            return colors
        count = len(rank)


def reference_certificate(g) -> int:
    """The least relabelled adjacency over all leaves of the
    individualisation-refinement tree, pruned by twins only; the package's
    ``canonical_hash`` must return the same int."""
    n, adj = g.n, g.adj
    nbrs = [[u for u in range(n) if row >> u & 1] for row in adj]

    def search(colors):
        cells = {}
        for v, c in enumerate(colors):
            cells.setdefault(c, []).append(v)
        if len(cells) == n:
            cert = n << (n * n)
            for v, vs in enumerate(nbrs):
                row = 0
                for u in vs:
                    row |= 1 << colors[u]
                cert |= row << (n * colors[v])
            return cert
        _, target = min((len(cell), c) for c, cell in cells.items() if len(cell) > 1)
        branches = []
        for v in cells[target]:
            if not any(adj[v] & ~(1 << w) == adj[w] & ~(1 << v) for w in branches):
                branches.append(v)
        return min(
            search(_reference_refine(nbrs, [2 * cu + (u != v) for u, cu in enumerate(colors)]))
            for v in branches
        )

    return search(_reference_refine(nbrs, [0] * n))


def _with_edge(g, u, v):
    adj = list(g.adj)
    adj[u] |= 1 << v
    adj[v] |= 1 << u
    return type(g)(g.n, adj)


def _new_classes(graphs, seen):
    """The graphs whose certificate is not in ``seen`` yet, first of each."""
    out = []
    for g in graphs:
        cert = reference_certificate(g)
        if cert not in seen:
            seen.add(cert)
            out.append(g)
    return out


def _radius(g):
    return min(max(g.bfs_distances(v)) for v in range(g.n))


def reference_pendant_growth(base, max_n, radius_cap):
    """``base`` and its pendant growths up to ``max_n`` vertices, trying a
    pendant at every vertex of every graph of the level before."""
    if base.n > max_n or (radius_cap is not None and _radius(base) > radius_cap):
        return []
    level, out = [base], [base]
    while level and level[0].n < max_n:
        children = []
        for g in level:
            for v in range(g.n):
                adj = list(g.adj) + [1 << v]
                adj[v] |= 1 << g.n
                child = type(g)(g.n + 1, adj)
                if radius_cap is None or _radius(child) <= radius_cap:
                    children.append(child)
        level = _new_classes(children, set())
        out += level
    return out


def reference_chord_levels(seeds, distance=5):
    """``seeds`` and every graph reached by adding chords between vertices
    at distance >= ``distance``, trying every pair, first of each class in
    the order reached."""
    seen, out = set(), []
    frontier = _new_classes(seeds, seen)
    while frontier:
        out += frontier
        children = []
        for g in frontier:
            for u in range(g.n):
                dist = g.bfs_distances(u)
                children += [_with_edge(g, u, v) for v in range(u + 1, g.n) if dist[v] >= distance]
        frontier = _new_classes(children, seen)
    return out


def set_partitions(n):
    """Every partition of range(n) as a list of frozensets (RGS order)."""
    parts: list[list[int]] = []

    def rec(i):
        if i == n:
            yield [frozenset(p) for p in parts]
            return
        for p in parts:
            p.append(i)
            yield from rec(i + 1)
            p.pop()
        parts.append([i])
        yield from rec(i + 1)
        parts.pop()

    yield from rec(0)


class ReferenceSolver:
    """Brute-force maximum partition sizes for one graph."""

    def __init__(self, g):
        self.n = g.n
        self.vertices = frozenset(range(g.n))
        nbrs = [set() for _ in range(g.n)]
        for u, v in g.edges():
            nbrs[u].add(v)
            nbrs[v].add(u)
        self.nbrs = [frozenset(s) for s in nbrs]
        self.cnbrs = [self.vertices - nbrs[v] - {v} for v in range(g.n)]

    @lru_cache(maxsize=None)
    def dominates(self, s: frozenset) -> bool:
        cov = set(s)
        for v in s:
            cov |= self.nbrs[v]
        return cov == self.vertices

    @lru_cache(maxsize=None)
    def cdominates(self, s: frozenset) -> bool:
        cov = set(s)
        for v in s:
            cov |= self.cnbrs[v]
        return cov == self.vertices

    def is_gds(self, s: frozenset) -> bool:
        return self.dominates(s) and self.cdominates(s)

    @lru_cache(maxsize=None)
    def perfect(self, s: frozenset) -> bool:
        return all(len(self.nbrs[v] & s) == 1 for v in self.vertices - s)

    @lru_cache(maxsize=None)
    def at_most_one(self, s: frozenset) -> bool:
        return all(len(self.nbrs[v] & s) <= 1 for v in self.vertices - s)

    def valid(self, classes, kind: str) -> bool:
        for i, a in enumerate(classes):
            if kind == "gc":
                if self.is_gds(a):
                    return False
                if not any(
                    j != i and not self.is_gds(b) and self.is_gds(a | b)
                    for j, b in enumerate(classes)
                ):
                    return False
            elif kind == "c":
                if self.dominates(a):
                    if len(a) == 1:
                        continue
                    return False
                if not any(
                    j != i and not self.dominates(b) and self.dominates(a | b)
                    for j, b in enumerate(classes)
                ):
                    return False
            else:  # prc
                if self.dominates(a):
                    if len(a) == 1:
                        continue
                    return False
                if not self.at_most_one(a):
                    return False
                if not any(
                    j != i
                    and not self.dominates(b)
                    and self.at_most_one(b)
                    and self.perfect(a | b)
                    for j, b in enumerate(classes)
                ):
                    return False
        return True

    def max_value(self, kind: str) -> int:
        best = 0
        for classes in set_partitions(self.n):
            if len(classes) > best and self.valid(classes, kind):
                best = len(classes)
        return best

    def all_optima(self, kind: str):
        """Every maximum-size valid partition, as sorted lists of lists."""
        best = self.max_value(kind)
        out = []
        for classes in set_partitions(self.n):
            if len(classes) == best and self.valid(classes, kind):
                out.append(sorted(sorted(c) for c in classes))
        return best, out


def reference_max(g, kind: str) -> int:
    return ReferenceSolver(g).max_value(kind)
