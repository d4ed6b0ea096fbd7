"""Exact maximum-partition solvers and the constructive algorithms.

The maximizer is one restricted-growth branch-and-bound in lexicographic
order: vertex ``i`` joins the open classes ``0..k-1`` in turn and then opens
class ``k``.  It keeps every improvement and never stops early, so one pass
gives both the maximum and its lexicographically least witness.  Leaves are
reached in lex order.  The bound ``k + (n - i) <= best`` cuts a node only
when no leaf below it has more than ``best`` classes, and every other prune
removes only subtrees without a valid leaf.  Let ``L*`` be the lex-least
optimal leaf.  Every leaf accepted before it precedes it in lex order, so it
has fewer classes and ``best`` stays below the optimum.  Every node on the
path to ``L*`` has ``L*``, with more than ``best`` classes, below it, so the
bound cannot cut one.  The first optimal leaf accepted is therefore ``L*``.

Classes that become (global) dominating sets are pruned on the spot because
both properties are monotone under vertex addition.  A partner rule applies
at every interior node.  Let ``R`` be the vertices not yet assigned.  Every
class must end with a partner, and a final class ``M_i`` lies inside
``m_i | R``, where ``m_i`` is the class now; its partner is either a grown
open class ``M_j`` inside ``m_j | R`` or a new class inside ``R``.  Global
domination and domination are monotone under supersets, so a gc node is
pruned when some class has neither ``gds[m_i | R]`` nor, for any ``j !=
i``, ``gds[m_i | m_j | R]``.  For c and prc the rule reads ``dom`` and skips
a dominating class: it is a singleton, exempt as long as nothing joins it,
and no other class can take it as a partner.  The rule holds for prc because
a perfect dominating union is dominating.  A pruned node has no valid leaf
below it, so values and witnesses are those of the plain search; only the
node count falls.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

from .bitset import VertexSet, bits_of
from .coalition import Partition
from .domination import DomaticWitness, global_domatic, minimal_gds_within
from .errors import TrivialGraphError
from .graph import Graph
from .tables import Tables, is_gds

DEFAULT_BUDGET = 50_000_000


@dataclass(frozen=True)
class SolveResult:
    kind: str
    value: int
    witness: Optional[Partition]
    nodes_explored: int
    elapsed: float
    exact: bool


class _BudgetExhausted(Exception):
    pass


def _partnered(masks, rest, exempt, union):
    """Partner rule over the unassigned vertices ``rest``: every class that
    is not exempt still has a non-exempt partner with ``union`` over the two
    classes and ``rest``, or ``union[mi | rest]`` (a partner opened inside
    ``rest``).  With ``rest = 0`` it is the leaf rule, since no class that
    reaches a leaf has ``union[mi]``.  gc passes ``(gds, gds)``, c
    ``(dom, dom)``, prc ``(dom, dom)`` inside the search and ``(dom, perf)``
    at the leaves."""
    for i, mi in enumerate(masks):
        if exempt[mi]:
            continue
        mr = mi | rest
        if union[mr]:
            continue
        for j, mj in enumerate(masks):
            if j != i and not exempt[mj] and union[mr | mj]:
                break
        else:
            return False
    return True


class _Search:
    def __init__(self, g: Graph, kind: str, budget: int):
        self.kind = kind
        self.budget = budget
        self.nodes = 0
        self.tables = Tables(g)
        self.adj = g.adj
        self.n = g.n
        self.best = 0
        self.best_masks = None

    def run(self):
        """Restricted-growth DFS in lex order that keeps every valid leaf
        with more than ``self.best`` classes; see the module docstring."""
        n, adj = self.n, self.adj
        prc = self.kind == "prc"
        t = self.tables
        exempt = t.gds if self.kind == "gc" else t.dom
        leaf_union = t.perf if prc else exempt
        rests = [t.g.full_mask ^ ((1 << i) - 1) for i in range(n)]
        classes: list[int] = []

        def dfs(i):
            self.nodes += 1
            if self.nodes > self.budget:
                raise _BudgetExhausted
            k = len(classes)
            if i == n:
                if k > self.best and _partnered(classes, 0, exempt, leaf_union):
                    self.best = k
                    self.best_masks = list(classes)
                return
            if k + (n - i) <= self.best or not _partnered(classes, rests[i], exempt, exempt):
                return
            bit = 1 << i
            a = adj[i]
            if prc:
                conflicts = [j for j in range(k) if bin(a & classes[j]).count("1") >= 2]
                if len(conflicts) >= 2:
                    return
                if conflicts:
                    self._try_join(dfs, classes, i, conflicts[0], bit, a)
                    return
            for j in range(k):
                self._try_join(dfs, classes, i, j, bit, a)
            classes.append(bit)
            dfs(i + 1)
            classes.pop()

        dfs(0)

    def _try_join(self, dfs, classes, i, j, bit, a):
        m = classes[j]
        m2 = m | bit
        kind = self.kind
        t = self.tables
        if kind == "gc":
            if t.gds[m2]:
                return
        else:
            if t.dom[m2]:
                return  # m2 has size >= 2, can never be valid or exempt
            if kind == "prc":
                # a previously assigned neighbor of i outside m2 must not now
                # see two vertices of this class
                assigned = (1 << i) - 1
                for v in bits_of(a & assigned & ~m2):
                    if bin(self.adj[v] & m2).count("1") >= 2:
                        return
        classes[j] = m2
        dfs(i + 1)
        classes[j] = m


def max_partition(g: Graph, kind: str, budget: Optional[int] = None) -> SolveResult:
    """Exact maximum class count over valid partitions of the given kind.

    One lex-order pass finds the maximum and its lexicographically least
    witness together.  ``exact`` says the search finished, so the value is
    the maximum and the witness the lex-least one; it is false when the node
    budget ran out, and the value is then the best found so far (a lower
    bound) with the witness that attains it.
    """
    if kind not in ("c", "gc", "prc"):
        raise ValueError(f"unknown partition kind {kind!r}")
    if kind == "gc" and g.n == 1:
        raise TrivialGraphError("no gc-partition exists for the one-vertex graph")
    start = time.perf_counter()
    search = _Search(g, kind, DEFAULT_BUDGET if budget is None else budget)
    exact = False
    try:
        search.run()
        exact = True
    except _BudgetExhausted:
        pass
    witness = None
    if search.best_masks is not None:
        witness = Partition.from_masks(g, search.best_masks)
    return SolveResult(
        kind=kind,
        value=search.best,
        witness=witness,
        nodes_explored=search.nodes,
        elapsed=time.perf_counter() - start,
        exact=exact,
    )


def construct_center_partition(g: Graph, a: int) -> Partition:
    """Partition into the open neighborhood of ``a`` plus singletons.

    Validity is not guaranteed; callers verify.  Size is n - deg(a) + 1 when
    ``a`` has neighbors.
    """
    if not 0 <= a < g.n:
        raise ValueError(f"vertex {a} out of range")
    na = g.adj[a]
    masks = []
    if na:
        masks.append(na)
    masks.extend(1 << v for v in range(g.n) if not na >> v & 1)
    return Partition.from_masks(g, masks)


def construct_gc_from_domatic(g: Graph) -> Partition:
    """Turn a maximum global domatic partition into a gc-partition.

    Each of the first k-1 classes is trimmed to a minimal global dominating
    set (surplus moves to the last class) and split in two; the last class is
    handled the same way, with its surplus either joining the partition as its
    own class (when it has a partner) or merging into the second half of the
    last split.  The result always has at least 2 * d_g(G) classes.
    """
    if g.n < 2:
        raise TrivialGraphError("construction needs at least two vertices")
    return _gc_from_domatic(g, global_domatic(g))


def _gc_from_domatic(g: Graph, witness: DomaticWitness) -> Partition:
    """``construct_gc_from_domatic`` from a given maximum global domatic
    partition ``witness`` of ``g``, for callers that already hold one."""
    k = witness.k
    masks = [vs.bits for vs in witness.classes]
    # trim the first k-1 classes, dumping surplus into the last
    for i in range(k - 1):
        minimal = minimal_gds_within(g, VertexSet(masks[i], g.n)).bits
        masks[-1] |= masks[i] & ~minimal
        masks[i] = minimal

    def split(mask):
        lsb = mask & -mask
        return lsb, mask ^ lsb

    out = []
    for i in range(k - 1):
        out.extend(split(masks[i]))
    last = masks[-1]
    minimal = minimal_gds_within(g, VertexSet(last, g.n)).bits
    surplus = last & ~minimal
    half1, half2 = split(minimal)
    out.append(half1)
    out.append(half2)
    if surplus:
        partnered = False
        for m in out:
            if is_gds(g, m):
                continue
            if is_gds(g, m | surplus):
                partnered = True
                break
        if partnered:
            out.append(surplus)
        else:
            out[-1] = half2 | surplus
    return Partition.from_masks(g, out)
