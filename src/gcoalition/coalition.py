"""Coalition pair predicates and partition verifiers.

Three partition kinds share one verifier skeleton but differ in their
exemption rule: a plain or perfect coalition partition exempts a singleton
dominating class from needing a partner, while a global coalition partition
exempts nothing (every class must be a non global dominating set with a
partner).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

from .bitset import VertexSet
from .errors import MalformedPartitionError, OverlappingSetsError
from .graph import Graph
from .tables import at_most_one, dominates, is_gds, perfect

KINDS = ("c", "gc", "prc")


@dataclass(frozen=True)
class Partition:
    """Ordered list of disjoint non-empty vertex sets covering V."""

    classes: tuple
    graph_n: int

    def __post_init__(self):
        union = 0
        for vs in self.classes:
            if not isinstance(vs, VertexSet) or vs.universe != self.graph_n:
                raise MalformedPartitionError("class with wrong universe")
            if not vs.bits:
                raise MalformedPartitionError("empty partition class")
            if union & vs.bits:
                raise MalformedPartitionError("overlapping partition classes")
            union |= vs.bits
        if union != (1 << self.graph_n) - 1:
            raise MalformedPartitionError("partition does not cover V")

    @classmethod
    def from_lists(cls, g: Graph, lists: Sequence[Sequence[int]]) -> "Partition":
        return cls(tuple(VertexSet.from_indices(g.n, ix) for ix in lists), g.n)

    @classmethod
    def from_masks(cls, g: Graph, masks: Sequence[int]) -> "Partition":
        return cls(tuple(VertexSet(m, g.n) for m in masks), g.n)

    @classmethod
    def singletons(cls, g: Graph) -> "Partition":
        return cls.from_lists(g, [[v] for v in range(g.n)])

    def __len__(self) -> int:
        return len(self.classes)

    def to_lists(self) -> list[list[int]]:
        return [vs.indices() for vs in self.classes]


class Reason(enum.Enum):
    IS_GLOBAL_DOMINATING = "IsGlobalDominating"
    IS_DOMINATING_SINGLETON_EXEMPTION = "IsDominatingSingletonExemption"
    NO_PARTNER = "NoPartner"
    PERFECT_CONDITION_FAILED = "PerfectConditionFailed"


@dataclass(frozen=True)
class Violation:
    class_index: int
    reason: Reason


@dataclass(frozen=True)
class PartitionVerdict:
    valid: bool
    kind: str
    partners: tuple  # per-class tuple of partner class indices
    violations: tuple


def _blocked(g: Graph, kind: str, m: int):
    """Why class ``m`` can be in no coalition pair of ``kind``, or None."""
    if kind == "gc":
        return Reason.IS_GLOBAL_DOMINATING if is_gds(g, m) else None
    if dominates(g, m):
        return Reason.IS_DOMINATING_SINGLETON_EXEMPTION
    if kind == "prc" and not at_most_one(g, m):
        return Reason.PERFECT_CONDITION_FAILED
    return None


# what the union of a coalition pair must be
_UNION = {"c": dominates, "gc": is_gds, "prc": perfect}


def _pair(g: Graph, kind: str, a: int, b: int) -> bool:
    return (
        _blocked(g, kind, a) is None
        and _blocked(g, kind, b) is None
        and _UNION[kind](g, a | b)
    )


def _pair_masks(a: VertexSet, b: VertexSet) -> tuple[int, int]:
    if not a.bits or not b.bits:
        raise OverlappingSetsError("pair sets must be non-empty")
    if a.bits & b.bits:
        raise OverlappingSetsError("pair sets must be disjoint")
    return a.bits, b.bits


def is_gc_pair(g: Graph, a: VertexSet, b: VertexSet) -> bool:
    """Neither side is a global dominating set but their union is."""
    return _pair(g, "gc", *_pair_masks(a, b))


def is_c_pair(g: Graph, a: VertexSet, b: VertexSet) -> bool:
    """Neither side dominates but their union does."""
    return _pair(g, "c", *_pair_masks(a, b))


def is_prc_pair(g: Graph, a: VertexSet, b: VertexSet) -> bool:
    """Perfect coalition pair: non-dominating sides, each seen at most once
    from outside, whose union is a perfect dominating set."""
    return _pair(g, "prc", *_pair_masks(a, b))


def _partners(g: Graph, kind: str, masks: list) -> tuple[list, list]:
    """Per-class blocking reasons and partner lists: each class's own
    predicate is tested once, and then only the unions of unblocked pairs."""
    blocked = [_blocked(g, kind, m) for m in masks]
    union = _UNION[kind]
    k = len(masks)
    partners = [[] for _ in range(k)]
    for i in range(k):
        if blocked[i] is not None:
            continue
        for j in range(i + 1, k):
            if blocked[j] is None and union(g, masks[i] | masks[j]):
                partners[i].append(j)
                partners[j].append(i)
    return blocked, partners


def verify_partition(g: Graph, p: Partition, kind: str) -> PartitionVerdict:
    """Full verdict with exhaustive partner lists for every class."""
    if kind not in KINDS:
        raise ValueError(f"unknown partition kind {kind!r}")
    if p.graph_n != g.n:
        raise MalformedPartitionError("partition universe does not match graph")
    masks = [vs.bits for vs in p.classes]
    blocked, partners = _partners(g, kind, masks)
    violations = []
    for i, m in enumerate(masks):
        reason = blocked[i]
        if reason is None:
            if not partners[i]:
                violations.append(Violation(i, Reason.NO_PARTNER))
        elif reason is not Reason.IS_DOMINATING_SINGLETON_EXEMPTION or m & (m - 1):
            # a singleton dominating class is exempt
            violations.append(Violation(i, reason))
    return PartitionVerdict(
        valid=not violations,
        kind=kind,
        partners=tuple(tuple(px) for px in partners),
        violations=tuple(violations),
    )


def count_gc_partners(g: Graph, p: Partition, i: int) -> int:
    """Number of classes forming a global coalition with class ``i``."""
    if not 0 <= i < len(p.classes):
        raise IndexError(f"class index {i} out of range")
    masks = [vs.bits for vs in p.classes]
    return sum(1 for j, m in enumerate(masks) if j != i and _pair(g, "gc", masks[i], m))


def gc_partner_bound(g: Graph, a: VertexSet) -> int:
    """Upper bound on the number of global coalitions a set can join:
    ``max(maxdeg + 1, min(n - |a|, n - mindeg))``."""
    if not a.bits:
        raise OverlappingSetsError("set must be non-empty")
    n = g.n
    return max(g.max_degree() + 1, min(n - len(a), n - g.min_degree()))


@dataclass(frozen=True)
class CoalitionGraph:
    base: Graph
    class_map: tuple  # index -> originating VertexSet


def build_gcg(g: Graph, p: Partition) -> CoalitionGraph:
    """Graph on partition classes; edges are the global coalition pairs."""
    if p.graph_n != g.n:
        raise MalformedPartitionError("partition universe does not match graph")
    _, partners = _partners(g, "gc", [vs.bits for vs in p.classes])
    adj = [sum(1 << j for j in px) for px in partners]
    return CoalitionGraph(base=Graph(len(adj), adj), class_map=tuple(p.classes))
