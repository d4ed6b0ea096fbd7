"""Subset predicates, defined once, and per-graph tables of them.

A vertex mask may dominate G, dominate G and its complement (a global
dominating set), be seen at most once from every outside vertex, or exactly
once (perfect domination).  Callers that test single sets use the mask
predicates.  Callers that test many unions of one graph build a
:class:`Tables`: for small universes each predicate is a flat array indexed
by mask, so the branch-and-bound inner loop runs on plain list lookups;
above the table cutoff the same predicates are memoized in dictionaries.
"""

from __future__ import annotations

from functools import partial

from .bitset import bits_of
from .graph import Graph

TABLE_MAX_N = 16


def cover(g: Graph, mask: int) -> tuple[int, int]:
    """Unions of the closed neighborhoods of ``mask`` in G and in its
    complement."""
    adj = g.adj
    c = mask
    common = full = g.full_mask
    for v in bits_of(mask):
        a = adj[v]
        c |= a
        common &= a
    # V minus N(v) is v's closed neighborhood in the complement; their union
    # is V minus the common neighbors of ``mask``
    return c, full & ~common


def dominates(g: Graph, mask: int) -> bool:
    return cover(g, mask)[0] == g.full_mask


def is_gds(g: Graph, mask: int) -> bool:
    """``mask`` dominates both G and its complement."""
    c, cc = cover(g, mask)
    return c & cc == g.full_mask


def at_most_one(g: Graph, mask: int) -> bool:
    """Every vertex outside ``mask`` has at most one neighbor inside it."""
    adj = g.adj
    for v in range(g.n):
        if not mask >> v & 1 and bin(adj[v] & mask).count("1") > 1:
            return False
    return True


def perfect(g: Graph, mask: int) -> bool:
    """Every vertex outside ``mask`` has exactly one neighbor inside it."""
    adj = g.adj
    for v in range(g.n):
        if not mask >> v & 1 and bin(adj[v] & mask).count("1") != 1:
            return False
    return True


class _LazyTable:
    """Dict-backed mask -> bool predicate with the same indexing surface."""

    __slots__ = ("_fn", "_memo")

    def __init__(self, fn):
        self._fn = fn
        self._memo = {}

    def __getitem__(self, mask):
        memo = self._memo
        val = memo.get(mask)
        if val is None:
            val = memo[mask] = self._fn(mask)
        return val


class Tables:
    """Subset predicate tables for one graph."""

    def __init__(self, g: Graph):
        self.g = g
        self._perf = None
        if g.n <= TABLE_MAX_N:
            size = 1 << g.n
            full = g.full_mask
            closed = [g.adj[v] | 1 << v for v in range(g.n)]
            cclosed = [full & ~g.adj[v] for v in range(g.n)]
            cov = [0] * size
            ccov = [0] * size
            for m in range(1, size):
                lsb = m & -m
                v = lsb.bit_length() - 1
                rest = m ^ lsb
                cov[m] = cov[rest] | closed[v]
                ccov[m] = ccov[rest] | cclosed[v]
            self.dom = bytearray(1 if c == full else 0 for c in cov)
            self.gds = bytearray(1 if c & cc == full else 0 for c, cc in zip(cov, ccov))
        else:
            self.dom = _LazyTable(partial(dominates, g))
            self.gds = _LazyTable(partial(is_gds, g))

    @property
    def perf(self):
        if self._perf is None:
            g = self.g
            if g.n <= TABLE_MAX_N:
                self._perf = bytearray(1 if perfect(g, m) else 0 for m in range(1 << g.n))
            else:
                self._perf = _LazyTable(partial(perfect, g))
        return self._perf
