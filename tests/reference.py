"""Independent reference solver and isomorphism test used as oracles in tests.

Deliberately naive and structurally different from the package solver: plain
Python sets instead of bitmasks, an explicit complement neighborhood, and a
full Bell-number sweep over all set partitions via restricted-growth
recursion, with no pruning beyond predicate memoization.  Isomorphism is
decided by trying every vertex permutation.
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
