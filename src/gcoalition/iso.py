"""Canonical certificates and isomorphism for small graphs.

``canonical_hash`` computes a complete invariant by individualisation-
refinement (McKay & Piperno, "Practical graph isomorphism, II", 2014).
Colour refinement runs to the stable colouring; colour ids are the ranks of
(old colour, sorted neighbour colours), so they are isomorphism-invariant.
The search individualises each vertex of the smallest non-singleton cell in
turn and refines again.  A vertex that is a twin of an earlier one in the
cell is skipped: swapping the two is an automorphism that fixes the current
colouring, so its subtree holds the same leaves.  No other automorphism
prunes the search, so k interchangeable parts that are not twins (the legs
of a spider with legs of length 2) give at least k! leaves.  At a leaf every
vertex has its own colour, which relabels the graph; the certificate is the
least relabelled adjacency over all leaves.  Two graphs have equal
certificates exactly when they are isomorphic, so no collision check
follows.
"""

from __future__ import annotations

from .bitset import bits_of
from .graph import Graph


def _refine(nbrs, colors: list) -> list:
    """The stable refinement of ``colors``, as dense isomorphism-invariant ranks."""
    count = len(set(colors))
    while True:
        sigs = [(colors[v], tuple(sorted(colors[u] for u in vs))) for v, vs in enumerate(nbrs)]
        rank = {sig: i for i, sig in enumerate(sorted(set(sigs)))}
        colors = [rank[sig] for sig in sigs]
        if len(rank) == count:
            return colors
        count = len(rank)


def canonical_hash(g: Graph) -> int:
    """Canonical certificate: equal for two graphs exactly when they are
    isomorphic.

    The int packs the canonically relabelled adjacency rows, row ``i`` at
    bits ``i*n .. i*n + n - 1``, with ``n`` above them.
    """
    n, adj = g.n, g.adj
    nbrs = [tuple(bits_of(row)) for row in adj]

    def search(colors):
        cells: dict[int, list[int]] = {}
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
            search(_refine(nbrs, [2 * cu + (u != v) for u, cu in enumerate(colors)]))
            for v in branches
        )

    return search(_refine(nbrs, [0] * n))


def are_isomorphic(g1: Graph, g2: Graph) -> bool:
    """Exact isomorphism test: a comparison of canonical certificates."""
    return canonical_hash(g1) == canonical_hash(g2)


class IsoDedup:
    """Collects graphs up to isomorphism by their canonical certificates;
    ``graphs`` keeps the first graph of each class, in the order added."""

    def __init__(self):
        self._seen: set[int] = set()
        self.graphs: list[Graph] = []

    def add(self, g: Graph) -> bool:
        """Add if new up to isomorphism; returns True when kept."""
        key = canonical_hash(g)
        if key in self._seen:
            return False
        self._seen.add(key)
        self.graphs.append(g)
        return True
