"""Domination predicates on vertex sets, and domination invariants.

The predicates themselves are defined once, on masks, in :mod:`.tables`;
this module wraps them for :class:`VertexSet` arguments.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import NamedTuple

from .bitset import VertexSet, bits_of
from .errors import NotGlobalDominatingError
from .graph import Graph
from .tables import Tables, at_most_one, cover, dominates, is_gds, perfect


@dataclass(frozen=True)
class DominationReport:
    dominates_g: bool
    dominates_complement: bool
    uncovered_g: VertexSet
    uncovered_complement: VertexSet

    @property
    def is_global(self) -> bool:
        return self.dominates_g and self.dominates_complement

    def __bool__(self) -> bool:
        return self.is_global


def is_dominating(g: Graph, s: VertexSet) -> bool:
    """True iff the union of closed neighborhoods over ``s`` covers V."""
    return dominates(g, s.bits)


def is_global_dominating(g: Graph, s: VertexSet) -> DominationReport:
    c, cc = cover(g, s.bits)
    uncovered = g.full_mask & ~c
    uncovered_c = g.full_mask & ~cc
    return DominationReport(
        dominates_g=not uncovered,
        dominates_complement=not uncovered_c,
        uncovered_g=VertexSet(uncovered, g.n),
        uncovered_complement=VertexSet(uncovered_c, g.n),
    )


def is_perfect_dominating(g: Graph, s: VertexSet) -> bool:
    """Every vertex outside ``s`` has exactly one neighbor inside ``s``."""
    return perfect(g, s.bits)


def at_most_one_neighbor(g: Graph, s: VertexSet) -> bool:
    """Every vertex outside ``s`` has at most one neighbor inside ``s``."""
    return at_most_one(g, s.bits)


class MinSet(NamedTuple):
    value: int
    witness: VertexSet


def _min_set(g: Graph, accept) -> MinSet:
    for size in range(1, g.n + 1):
        for combo in combinations(range(g.n), size):
            mask = 0
            for v in combo:
                mask |= 1 << v
            if accept(g, mask):
                return MinSet(size, VertexSet(mask, g.n))
    raise AssertionError("V itself always qualifies")  # pragma: no cover


def gamma(g: Graph) -> MinSet:
    """Domination number with a lexicographically-first witness."""
    return _min_set(g, dominates)


def gamma_g(g: Graph) -> MinSet:
    """Global domination number with a lexicographically-first witness."""
    return _min_set(g, is_gds)


def minimal_gds_within(g: Graph, s: VertexSet) -> VertexSet:
    """Shrink a global dominating set to an inclusion-minimal one.

    Vertices are dropped greedily in ascending index order, which makes the
    result deterministic; one ascending pass suffices because global
    domination is monotone under vertex addition.
    """
    mask = s.bits
    if not is_gds(g, mask):
        raise NotGlobalDominatingError("input set is not a global dominating set")
    for v in list(bits_of(mask)):
        trial = mask & ~(1 << v)
        if trial and is_gds(g, trial):
            mask = trial
    return VertexSet(mask, g.n)


@dataclass(frozen=True)
class DomaticWitness:
    k: int
    classes: tuple  # tuple of VertexSet, each a global dominating set


def global_domatic(g: Graph) -> DomaticWitness:
    """Exact global domatic number with a witness partition.

    One restricted-growth DFS in lexicographic order, the search of
    :mod:`.solvers` under another rule.  With ``rest`` the unassigned
    vertices, every class ``m`` keeps ``m | rest`` a global dominating set
    (a superset of its final class), and a leaf is kept when every class is
    one and it has more classes than the best so far.  Each of the ``short``
    classes that is not yet one needs a vertex of ``rest``, and each new
    class needs two, since no single vertex dominates both a graph with
    ``n >= 2`` and its complement; so no leaf below a node has more than
    ``k + (|rest| - short) // 2`` classes, which is the bound.  ``{V}``
    always qualifies, so the search starts from it.  By the argument in
    :mod:`.solvers`, the witness is the lexicographically least partition
    into ``d_g(G)`` global dominating sets.
    """
    n = g.n
    gds = Tables(g).gds
    rests = [g.full_mask >> i << i for i in range(n + 1)]
    best = [g.full_mask]
    classes: list[int] = []

    def dfs(i):
        rest = rests[i]
        short = 0
        for m in classes:
            if not gds[m | rest]:
                return
            short += not gds[m]
        k = len(classes)
        if k + (n - i - short) // 2 <= len(best):
            return
        if i == n:
            best[:] = classes
            return
        bit = 1 << i
        for j in range(k):
            classes[j] |= bit
            dfs(i + 1)
            classes[j] ^= bit
        classes.append(bit)
        dfs(i + 1)
        classes.pop()

    dfs(0)
    return DomaticWitness(k=len(best), classes=tuple(VertexSet(m, n) for m in best))
