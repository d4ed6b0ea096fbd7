"""Independent output checker and exhaustive oracle.

Written against the definitions, not the package: vertex sets are Python
``frozenset``s, the complement is materialised, and nothing here imports
``gcoalition``.  ``SetGraph.valid`` checks a witness partition of kind
``gc``, ``c`` or ``prc``; ``exact_values`` sweeps all Bell(n) set partitions
and is used once, when the expected-values file is made, for n <= 9.
"""

from __future__ import annotations

KINDS = ("gc", "c", "prc")


class SetGraph:
    def __init__(self, n: int, edges):
        self.n = n
        self.vertices = frozenset(range(n))
        nbrs = [set() for _ in range(n)]
        for u, v in edges:
            nbrs[u].add(v)
            nbrs[v].add(u)
        self.nbrs = [frozenset(s) for s in nbrs]
        self.cnbrs = [self.vertices - nbrs[v] - {v} for v in range(n)]

    def edge_set(self) -> set:
        return {(u, v) for u in range(self.n) for v in self.nbrs[u] if u < v}

    def _covers(self, s, nbrs) -> bool:
        covered = set(s)
        for v in s:
            covered |= nbrs[v]
        return len(covered) == self.n

    def dominates(self, s) -> bool:
        return self._covers(s, self.nbrs)

    def gds(self, s) -> bool:
        """Dominates the graph and its complement."""
        return self._covers(s, self.nbrs) and self._covers(s, self.cnbrs)

    def at_most_one(self, s) -> bool:
        return all(len(self.nbrs[v] & s) <= 1 for v in self.vertices - s)

    def perfect(self, s) -> bool:
        return all(len(self.nbrs[v] & s) == 1 for v in self.vertices - s)

    def is_partition(self, classes) -> bool:
        seen = set()
        for c in classes:
            if not c or seen & c or not c <= self.vertices:
                return False
            seen |= c
        return seen == self.vertices

    def class_ok(self, classes, i: int, kind: str) -> bool:
        """Class ``i`` satisfies the partition condition of ``kind``."""
        a = classes[i]
        others = [b for j, b in enumerate(classes) if j != i]
        if kind == "gc":
            return not self.gds(a) and any(
                not self.gds(b) and self.gds(a | b) for b in others
            )
        if self.dominates(a):
            return len(a) == 1  # a dominating singleton needs no partner
        if kind == "c":
            return any(not self.dominates(b) and self.dominates(a | b) for b in others)
        return self.at_most_one(a) and any(
            not self.dominates(b) and self.at_most_one(b) and self.perfect(a | b)
            for b in others
        )

    def valid(self, lists, kind: str) -> bool:
        """``lists`` (vertex lists) is a valid partition of the given kind."""
        classes = [frozenset(c) for c in lists]
        if not self.is_partition(classes):
            return False
        return all(self.class_ok(classes, i, kind) for i in range(len(classes)))

    def gc_pairs(self, lists) -> set:
        """Index pairs ``(i, j)``, ``i < j``, of classes forming a global coalition."""
        classes = [frozenset(c) for c in lists]
        return {
            (i, j)
            for i in range(len(classes))
            for j in range(i + 1, len(classes))
            if not self.gds(classes[i])
            and not self.gds(classes[j])
            and self.gds(classes[i] | classes[j])
        }


def exact_values(sg: SetGraph) -> dict:
    """Maximum gc/c/prc class counts and the global domatic number, by a
    sweep over every set partition (Bell(n) of them)."""
    n = sg.n
    subsets = [frozenset(v for v in range(n) if m >> v & 1) for m in range(1 << n)]
    dom = [sg.dominates(s) for s in subsets]
    gds = [d and sg.gds(s) for d, s in zip(dom, subsets)]
    amo = [sg.at_most_one(s) for s in subsets]
    perf = [sg.perfect(s) for s in subsets]
    single = [bin(m).count("1") == 1 for m in range(1 << n)]

    def ok(masks, kind):
        for i, a in enumerate(masks):
            if kind == "gc":
                if gds[a] or not any(
                    j != i and not gds[b] and gds[a | b] for j, b in enumerate(masks)
                ):
                    return False
            elif dom[a]:
                if not single[a]:
                    return False
            elif kind == "c":
                if not any(j != i and not dom[b] and dom[a | b] for j, b in enumerate(masks)):
                    return False
            elif not amo[a] or not any(
                j != i and not dom[b] and amo[b] and perf[a | b]
                for j, b in enumerate(masks)
            ):
                return False
        return True

    best = {"gc": 0, "c": 0, "prc": 0, "dg": 0}
    masks: list = []

    def rec(i):
        if i == n:
            k = len(masks)
            for kind in KINDS:
                if k > best[kind] and ok(masks, kind):
                    best[kind] = k
            if k > best["dg"] and all(gds[m] for m in masks):
                best["dg"] = k
            return
        bit = 1 << i
        for j in range(len(masks)):
            masks[j] |= bit
            rec(i + 1)
            masks[j] ^= bit
        masks.append(bit)
        rec(i + 1)
        masks.pop()

    rec(0)
    return best


def min_gds_size(sg: SetGraph) -> int:
    """Global domination number by exhaustive search."""
    best = sg.n
    for m in range(1, 1 << sg.n):
        size = bin(m).count("1")
        if size < best and sg.gds(frozenset(v for v in range(sg.n) if m >> v & 1)):
            best = size
    return best
