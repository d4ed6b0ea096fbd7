"""Canonical certificates and isomorphism for small graphs.

``canonical_hash`` computes a complete invariant by individualisation-
refinement (McKay & Piperno, "Practical graph isomorphism, II", 2014).
Colour refinement runs to the stable colouring; colour ids are the ranks of
(old colour, sorted neighbour colours), so they are isomorphism-invariant.
The search individualises each vertex of the smallest non-singleton cell in
turn and refines again.  At a leaf every vertex has its own colour, which
relabels the graph; the certificate is the least relabelled adjacency over
all leaves.  Two graphs have equal certificates exactly when they are
isomorphic, so no collision check follows.

Refinement and individualisation order each vertex's new colour first by
its old one, so a vertex alone in its cell at a node has, in every leaf
below the node, the colour that counts the vertices of the earlier cells.
Hence two leaves with equal relabelled graphs show an automorphism (map
each vertex of the first leaf to the vertex of the same colour in the
second) that fixes every vertex individualised above the node where their
paths part.  An automorphism ``a`` that fixes a node's individualised
vertices fixes its colouring, since refinement is isomorphism-invariant,
and maps the subtree of branch ``v`` onto the subtree of branch ``a(v)``
with the same relabelled graphs at the leaves.  Three rules skip such
subtrees, each a copy of one already searched, so the least leaf survives:

- a vertex that is a twin of an earlier branch (equal open or closed
  neighbourhood) is skipped: swapping the two is such an automorphism.
  One set holds both kinds of neighbourhood: ``N(w) = N[v]`` is
  impossible, as ``v`` in ``N(w)`` puts ``w`` in ``N(v)``, inside ``N(w)``;
- a branch in the orbit of a searched branch, under the automorphisms
  found so far that fix the node's individualised vertices, is skipped;
- when a leaf shows an automorphism, the branch it lies in at the node
  where its path parts from the earlier leaf's is abandoned: that branch is
  the image of the earlier one, which has been searched.

A pruned subtree has the same least leaf as the whole subtree, so the
arguments nest.  The legs of a spider, interchangeable but not twins, then
cost about one extra leaf per leg instead of k! leaves.

The search is the cost; the root refinement before it is cheap and already
an invariant.  ``are_isomorphic`` and ``IsoDedup`` compare the roots'
invariants first and search only the graphs they cannot tell apart.
``IsoDedup`` keeps the rest unsearched until ``IsoDedup.automorphisms`` asks
for one of them; that is a method, so a search runs only where its result
is read, and ``IsoDedup.root_colors`` gives the root colouring, which
automorphisms keep, without a search.
"""

from __future__ import annotations

from functools import lru_cache

from .bitset import bits_of
from .graph import Graph


@lru_cache(maxsize=1 << 12)
def _members(row: int) -> tuple:
    """The vertices of an adjacency row; rows recur across the graphs of a
    corpus."""
    return tuple(bits_of(row))


def _refine(nbrs, colors: list, count: int) -> tuple:
    """The stable refinement of the dense colouring ``colors`` with
    ``count`` colours, as ``(colors, count, quotient)``.

    Each pass gives every vertex the rank of its signature (colour, sorted
    neighbour colours).  A strictly increasing relabelling of the colours
    keeps the order of the signatures, so a pass depends only on the order
    of its input colours: the dense degree ranks the search starts from are
    what a first pass from one colour gives, and a dense individualised
    colouring refines as a sparse one in the same order would.  A vertex
    alone in its colour is ordered by that colour alone, so its signature
    leaves the neighbour colours out.  A pass that adds no colour maps a
    dense colouring to itself, so the loop stops there, and at once when
    the colouring is discrete.  ``quotient`` is None for a discrete result,
    else that last pass's cell sizes and sorted distinct signatures: ranks
    are isomorphism-invariant, so it is too.
    """
    n = len(nbrs)
    quotient = None
    while count < n:
        get = colors.__getitem__
        sizes = [0] * count
        for c in colors:
            sizes[c] += 1
        sigs = [(c,) if sizes[c] == 1 else (c, tuple(sorted(map(get, vs))))
                for c, vs in zip(colors, nbrs)]
        distinct = sorted(set(sigs))
        if len(distinct) == count:
            quotient = sizes, distinct
            break
        rank = {sig: i for i, sig in enumerate(distinct)}
        colors = [rank[sig] for sig in sigs]
        count = len(distinct)
    return colors, count, quotient


def _leaf(nbrs, colors: list) -> int:
    """The certificate of a discrete colouring: the adjacency relabelled by
    it, row ``i`` at bits ``i*n .. i*n + n - 1``, with ``n`` above them."""
    n = len(nbrs)
    bit = [1 << c for c in colors]
    cert = n << (n * n)
    for v, vs in enumerate(nbrs):
        cert |= sum(map(bit.__getitem__, vs)) << (n * colors[v])
    return cert


def canonical_hash(g: Graph) -> int:
    """Canonical certificate: equal for two graphs exactly when they are
    isomorphic.

    The int packs the canonically relabelled adjacency rows, row ``i`` at
    bits ``i*n .. i*n + n - 1``, with ``n`` above them.
    """
    return _canonical_form(g)[0]


def _refined_root(g: Graph) -> tuple:
    """The root of ``g``'s search, ``(nbrs, colors, count, quotient)``: the
    stable refinement of the degree ranks, and an isomorphism invariant of
    ``g`` that tells most non-isomorphic graphs of one order apart.  It is
    the refinement's ``quotient``, or for a discrete root the certificate
    itself, which that root's one leaf gives."""
    nbrs = list(map(_members, g.adj))
    degrees = [len(vs) for vs in nbrs]
    rank = {d: i for i, d in enumerate(sorted(set(degrees)))}
    colors, count, quotient = _refine(nbrs, [rank[d] for d in degrees], len(rank))
    if quotient is None:
        return nbrs, colors, count, _leaf(nbrs, colors)
    sizes, distinct = quotient
    return nbrs, colors, count, (tuple(sizes), tuple(distinct))


def _canonical_form(g: Graph) -> tuple:
    """``(canonical_hash(g), auts)``: ``auts`` lists the automorphisms the
    search found, each as the list of vertex images.  They need not generate
    the whole automorphism group: twin branches are skipped without one."""
    return _search(g.adj, *_refined_root(g)[:3])


def _search(adj: list, nbrs: list, colors: list, count: int) -> tuple:
    """``_canonical_form`` of the graph with adjacency rows ``adj``, searched
    from its refined root ``colors``."""
    n = len(adj)
    leaves: dict[int, tuple] = {}  # certificate -> (path, colours) of its first leaf
    auts: list[list[int]] = []

    def search(colors, count, path):
        """Searches below the node individualising ``path``; returns None, or
        the depth whose current branch is to be abandoned."""
        if count == n:
            first = leaves.setdefault(_leaf(nbrs, colors), (path, colors))
            if first[0] is path:
                return None
            other, theirs = first
            where = [0] * n
            for v, c in enumerate(colors):
                where[c] = v
            auts.append([where[c] for c in theirs])
            depth = 0
            while other[depth] == path[depth]:
                depth += 1
            return depth
        sizes = [0] * count
        for c in colors:
            sizes[c] += 1
        _, t = min((size, c) for c, size in enumerate(sizes) if size > 1)
        cell = [v for v, c in enumerate(colors) if c == t]
        shifted = [c + (c > t) for c in colors]
        for u in cell:
            shifted[u] = t + 1
        orbit = None  # union-find over vertices, once an automorphism fixes path
        used = 0
        hoods, searched = set(), []
        for v in cell:
            row, closed = adj[v], adj[v] | 1 << v
            if row in hoods or closed in hoods:
                continue  # a twin of an earlier branch
            hoods.add(row)
            hoods.add(closed)
            for gamma in auts[used:]:
                if all(gamma[p] == p for p in path):
                    if orbit is None:
                        orbit = list(range(n))
                    for x, y in enumerate(gamma):
                        orbit[_root(orbit, x)] = _root(orbit, y)
            used = len(auts)
            if orbit is not None and any(_root(orbit, v) == _root(orbit, w) for w in searched):
                continue
            searched.append(v)
            # v keeps colour t, the rest of its cell moves to t + 1 and every
            # later colour up one: dense, in the order of (colour, u != v)
            child = shifted.copy()
            child[v] = t
            depth = search(*_refine(nbrs, child, count + 1)[:2], path + [v])
            if depth is not None and depth < len(path):
                return depth
        return None

    search(colors, count, [])
    return min(leaves), auts


def _root(parent: list, x: int) -> int:
    while parent[x] != x:
        parent[x] = x = parent[parent[x]]
    return x


def are_isomorphic(g1: Graph, g2: Graph) -> bool:
    """Exact isomorphism test: orders and root invariants first, then a
    comparison of canonical certificates."""
    if g1.n != g2.n:
        return False
    root1, root2 = _refined_root(g1), _refined_root(g2)
    if root1[3] != root2[3]:
        return False
    return _search(g1.adj, *root1[:3])[0] == _search(g2.adj, *root2[:3])[0]


class IsoDedup:
    """Collects graphs up to isomorphism; ``graphs`` keeps the first graph
    of each class, in the order added, and ``automorphisms(i)`` gives the
    automorphisms that the certificate search of ``graphs[i]`` finds.

    Certificates are computed lazily.  ``add`` buckets graphs by order and
    root invariant (``_refined_root``): a graph alone in its bucket differs
    from every graph kept so far, so it is kept unsearched.  Once a bucket
    holds two graphs, its graphs are compared by full certificates, each
    searched from its stored root.  ``automorphisms(i)`` runs the search of
    ``graphs[i]`` if no collision has yet, and ``root_colors(i)`` gives the
    root colouring, which bounds the orbits without a search.
    """

    def __init__(self):
        # (n, invariant) -> the index of its one kept graph, or, after a
        # collision, the certificates of all its kept graphs
        self._buckets: dict = {}
        self._roots: list = []  # i -> the search root of graphs[i]
        self._forms: list = []  # i -> (certificate, auts) once searched, else None
        self.graphs: list[Graph] = []

    def add(self, g: Graph) -> bool:
        """Add if new up to isomorphism; returns True when kept."""
        root = _refined_root(g)
        key = (g.n, root[3])
        held = self._buckets.get(key)
        if held is None:
            self._buckets[key] = len(self.graphs)
            form = None
        else:
            form = _search(g.adj, *root[:3])
            if type(held) is int:
                held = self._buckets[key] = {self._form(held)[0]}
            if form[0] in held:
                return False
            held.add(form[0])
        self.graphs.append(g)
        self._roots.append(root[:3])
        self._forms.append(form)
        return True

    def root_colors(self, i: int) -> list:
        """The stable refinement of ``graphs[i]``'s degree ranks, a colour
        per vertex.  Refinement is isomorphism-invariant, so automorphisms
        keep these colours."""
        return self._roots[i][1]

    def automorphisms(self, i: int) -> list:
        """The automorphisms of ``graphs[i]`` that its certificate search
        finds, as lists of vertex images (``_canonical_form``)."""
        return self._form(i)[1]

    def _form(self, i: int) -> tuple:
        form = self._forms[i]
        if form is None:
            form = self._forms[i] = _search(self.graphs[i].adj, *self._roots[i])
        return form
