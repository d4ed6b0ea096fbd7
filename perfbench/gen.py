"""Seeded input generators.

Every generator draws from a ``random.Random`` that the caller builds from
the run's ``--seed``, so one seed always yields the same inputs.  Graphs are
plain data here, ``(n, edges)`` with ``edges`` a sorted tuple of ``(u, v)``
pairs, ``u < v``; the workloads turn them into package objects.  Nothing in
this module imports the package under test.
"""

from __future__ import annotations

import random

import networkx as nx


def _neighbours(n, edges) -> list:
    nbrs = [[] for _ in range(n)]
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    return nbrs


def edge(u, v):
    """The pair ``(u, v)`` as a sorted edge tuple."""
    return (u, v) if u < v else (v, u)


def random_tree(rng: random.Random, n: int) -> set:
    """Uniform random attachment tree over a shuffled labelling."""
    order = list(range(n))
    rng.shuffle(order)
    return {edge(order[i], order[rng.randrange(i)]) for i in range(1, n)}


def sparse_graph(rng: random.Random, n: int, chords: int) -> tuple:
    """A random tree on ``n`` vertices plus ``chords`` distinct extra edges."""
    edges = random_tree(rng, n)
    while len(edges) < n - 1 + chords:
        u, v = rng.sample(range(n), 2)
        edges.add(edge(u, v))
    return n, tuple(sorted(edges))


def is_connected(n: int, edges) -> bool:
    nbrs = _neighbours(n, edges)
    seen = {0}
    stack = [0]
    while stack:
        for w in nbrs[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def connected_gnp(rng: random.Random, n: int, p: float) -> tuple:
    """G(n, p) conditioned on being connected (rejection sampling)."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    while True:
        edges = tuple(e for e in pairs if rng.random() < p)
        if is_connected(n, edges):
            return n, edges


def connected_cubic(rng: random.Random, n: int) -> tuple:
    """A connected random 3-regular graph (all vertices look alike to
    degree refinement, so isomorphism hashes collide on these)."""
    while True:
        g = nx.random_regular_graph(3, n, seed=rng.randrange(1 << 30))
        edges = tuple(sorted(edge(u, v) for u, v in g.edges()))
        if is_connected(n, edges):
            return n, edges


def relabel(rng: random.Random, graph: tuple) -> tuple:
    n, edges = graph
    perm = list(range(n))
    rng.shuffle(perm)
    return n, tuple(sorted(edge(perm[u], perm[v]) for u, v in edges))


def _layer_sizes(nbrs, s) -> tuple:
    """Sizes of the BFS layers around ``s``."""
    seen = {s}
    frontier = [s]
    sizes = []
    while frontier:
        layer = []
        for v in frontier:
            for w in nbrs[v]:
                if w not in seen:
                    seen.add(w)
                    layer.append(w)
        frontier = layer
        sizes.append(len(layer))
    return tuple(sizes)


def certificate(n: int, edges) -> tuple:
    """Isomorphism invariant: two rounds of degree refinement."""
    nbrs = _neighbours(n, edges)
    colors = [len(a) for a in nbrs]
    for _ in range(2):
        sigs = [(colors[v], tuple(sorted(colors[w] for w in nbrs[v]))) for v in range(n)]
        index = {s: i for i, s in enumerate(sorted(set(sigs)))}
        colors = [index[s] for s in sigs]
    return n, len(edges), tuple(sorted(sigs)), tuple(
        sorted(edge(colors[u], colors[v]) for u, v in edges)
    )


def invariant(n: int, edges) -> tuple:
    """Isomorphism invariant finer than ``certificate``: it adds the sorted
    BFS layer sizes of every vertex."""
    nbrs = _neighbours(n, edges)
    return certificate(n, edges), tuple(sorted(_layer_sizes(nbrs, v) for v in range(n)))


class IsoClasses:
    """Reference dedup up to isomorphism: invariants pick the bucket and
    ``networkx.is_isomorphic`` decides within it.  BFS layer sizes split
    most regular graphs, on which degree refinement learns nothing."""

    def __init__(self):
        self._buckets: dict = {}

    def add(self, graph: tuple) -> bool:
        """Record ``graph``; True when no isomorphic copy was seen before."""
        n, edges = graph
        bucket = self._buckets.setdefault(invariant(n, edges), [])
        g = nx.Graph()
        g.add_nodes_from(range(n))
        g.add_edges_from(edges)
        if any(nx.is_isomorphic(g, h) for h in bucket):
            return False
        bucket.append(g)
        return True
