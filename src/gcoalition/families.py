"""Named graph families: generators, closed-form values, optimal partitions.

Vertex labelings are fixed per family (documented in ``generate``) so that
the hand-checkable witness partitions can be written down directly.  The
unicyclic variant generators are INFERRED: their defining diagrams are not
available, so the shapes are reconstructed from the closed forms and witness
constructions they are meant to exhibit, and theorem sweeps treat a formula
mismatch on them as a finding rather than a failure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from .bitset import bits_of
from .coalition import Partition
from .errors import (
    InvalidParamsError,
    NoKnownConstructionError,
    NoKnownFormulaError,
)
from .graph import Graph, from_edge_list, metrics
from .iso import IsoDedup, _members

# The INFERRED unicyclic shapes, reconstructed from their closed forms and
# witness constructions with no authoritative diagram available:
# tag -> (cycle length, tail edges, supports).  The cycle is 0..cycle_len-1
# (a=0, b=1, c=2, d=3, e=4), the tail edges add the next vertices, and each
# parameter is the number of leaves on its support, appended in order.
UNICYCLIC_SHAPES = {
    "u5_1": (5, (), (0,)),
    "u5_2": (5, (), (0, 4)),
    "u5_3": (5, (), (0, 1, 4)),
    "u5_4": (5, (), (1, 4)),
    "u4_1": (4, (), (0,)),
    "u4_2": (4, (), (0, 1)),
    "u4_3": (4, (), (0, 2)),
    "u3_1": (3, (), (0,)),
    "u3_2": (3, (), (1, 2)),
    "u3_3": (3, (), (0, 1, 2)),
    # the triangle with the tail 0-3-4 (central vertex 3); u3_14 adds leaves on 0
    "u3_10": (3, ((0, 3), (3, 4)), ()),
    "u3_14": (3, ((0, 3), (3, 4)), (0,)),
}

_ARITY = {
    "path": 1, "cycle": 1, "complete": 1, "bipartite": 2, "multipartite": None,
    "wheel": 1, "fan": 1, "doublestar": 2, "spider": 2, "gk": 1,
    "t1": 1, "t2": 3,
    **{tag: len(supports) for tag, (_, _, supports) in UNICYCLIC_SHAPES.items()},
}


@dataclass(frozen=True)
class FamilySpec:
    tag: str
    params: tuple

    def __post_init__(self):
        if self.tag not in _ARITY:
            raise InvalidParamsError(f"unknown family {self.tag!r}")
        arity = _ARITY[self.tag]
        if arity is not None and len(self.params) != arity:
            raise InvalidParamsError(
                f"family {self.tag!r} takes {arity} parameter(s), got {len(self.params)}"
            )
        if any(not isinstance(p, int) for p in self.params):
            raise InvalidParamsError("family parameters must be integers")

    def __str__(self):
        return f"{self.tag}:{','.join(map(str, self.params))}" if self.params else self.tag


def spec(tag: str, *params: int) -> FamilySpec:
    return FamilySpec(tag, tuple(params))


def parse_spec(text: str) -> FamilySpec:
    """Parse ``tag:p1,p2,...`` strings, e.g. ``cycle:7`` or ``u5_2:2,1``."""
    tag, _, rest = text.strip().partition(":")
    if not rest:
        return FamilySpec(tag, ())
    try:
        params = tuple(int(p) for p in rest.split(","))
    except ValueError as exc:
        raise InvalidParamsError(f"bad family parameters in {text!r}") from exc
    return FamilySpec(tag, params)


@dataclass(frozen=True)
class LowerBound:
    value: int


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise InvalidParamsError(msg)


def _cycle_edges(offset: int, length: int):
    return [(offset + i, offset + (i + 1) % length) for i in range(length)]


def _with_leaves(n: int, edges: list, attach) -> tuple[int, list]:
    """Append leaf blocks; ``attach`` yields (support, count) pairs."""
    for support, count in attach:
        for _ in range(count):
            edges.append((support, n))
            n += 1
    return n, edges


def generate(g_spec: FamilySpec) -> Graph:
    """Build the family instance with its documented deterministic labeling.

    path/cycle: vertices in order.  complete: any order.  bipartite n,m:
    side one is 0..n-1.  wheel/fan: hub 0, rim/path 1..n.  doublestar p,q:
    supports 0 (p leaves) and 1 (q leaves), leaves of 0 first.  spider l,x:
    center 0, mid vertices 1..l, leg tips l+1..2l, then x center leaves.
    gk: u=0, v block 1..k, w block k+1..2k.  u-families: cycle first
    (a=0,b=1,...), then the tail, then leaf blocks in the parameter order
    (``UNICYCLIC_SHAPES``).
    """
    t, p = g_spec.tag, g_spec.params
    if t == "path":
        _require(p[0] >= 1, "path needs n >= 1")
        return from_edge_list(p[0], [(i, i + 1) for i in range(p[0] - 1)])
    if t == "cycle":
        _require(p[0] >= 3, "cycle needs n >= 3")
        return from_edge_list(p[0], _cycle_edges(0, p[0]))
    if t == "complete":
        _require(p[0] >= 1, "complete needs n >= 1")
        n = p[0]
        return from_edge_list(n, [(i, j) for i in range(n) for j in range(i + 1, n)])
    if t == "bipartite":
        n, m = p
        _require(n >= 1 and m >= 1, "bipartite needs n,m >= 1")
        return from_edge_list(n + m, [(i, n + j) for i in range(n) for j in range(m)])
    if t == "multipartite":
        _require(len(p) >= 2 and all(x >= 1 for x in p), "multipartite needs >= 2 positive parts")
        bounds = [0]
        for size in p:
            bounds.append(bounds[-1] + size)
        edges = []
        for i in range(len(p)):
            for j in range(i + 1, len(p)):
                for u in range(bounds[i], bounds[i + 1]):
                    for v in range(bounds[j], bounds[j + 1]):
                        edges.append((u, v))
        return from_edge_list(bounds[-1], edges)
    if t == "wheel":
        _require(p[0] >= 3, "wheel needs rim >= 3")
        n = p[0]
        edges = [(0, 1 + i) for i in range(n)] + [(1 + i, 1 + (i + 1) % n) for i in range(n)]
        return from_edge_list(n + 1, edges)
    if t == "fan":
        _require(p[0] >= 2, "fan needs path >= 2")
        n = p[0]
        edges = [(0, 1 + i) for i in range(n)] + [(1 + i, 2 + i) for i in range(n - 1)]
        return from_edge_list(n + 1, edges)
    if t == "doublestar":
        a, b = p
        _require(a >= b >= 1, "doublestar needs p >= q >= 1")
        n, edges = _with_leaves(2, [(0, 1)], [(0, a), (1, b)])
        return from_edge_list(n, edges)
    if t == "spider":
        legs, extra = p
        _require(legs >= 2 and extra >= 0, "spider needs >= 2 legs")
        edges = [(0, 1 + i) for i in range(legs)]
        edges += [(1 + i, 1 + legs + i) for i in range(legs)]
        n, edges = _with_leaves(1 + 2 * legs, edges, [(0, extra)])
        return from_edge_list(n, edges)
    if t == "gk":
        k = p[0]
        _require(k >= 2, "gk needs k >= 2")
        edges = [(0, 1 + i) for i in range(k)]
        edges += [(1 + i, 1 + k + i) for i in range(k)]
        edges += [(1 + k + i, 1 + k + (i + 1) % k) for i in range(k)]
        labels = ["u"] + [f"v{i+1}" for i in range(k)] + [f"w{i+1}" for i in range(k)]
        return from_edge_list(2 * k + 1, edges, labels)
    if t == "t1":
        r = p[0]
        _require(r >= 2, "t1 needs r >= 2")
        edges = [(i, r + j) for i in range(r) for j in range(r) if i != j]
        return from_edge_list(2 * r, edges)
    if t == "t2":
        r, s, mu = p
        _require(r >= 2 and s >= 2, "t2 needs r,s >= 2")
        _require(0 <= mu < min(r, s), "t2 matching must satisfy |M| < min(r,s)")
        edges = [(i, r + j) for i in range(r) for j in range(s) if not (i == j and i < mu)]
        return from_edge_list(r + s, edges)
    if t in UNICYCLIC_SHAPES:
        return _unicyclic_variant(t, p)
    raise InvalidParamsError(f"unknown family {t!r}")  # pragma: no cover


def _unicyclic_variant(tag: str, p: tuple) -> Graph:
    cycle_len, tail, supports = UNICYCLIC_SHAPES[tag]
    _require(all(c >= 1 for c in p), f"{tag} leaf counts must be >= 1")
    edges = _cycle_edges(0, cycle_len) + list(tail)
    n, edges = _with_leaves(cycle_len + len(tail), edges, zip(supports, p))
    return from_edge_list(n, edges)


def closed_form_gc(g_spec: FamilySpec):
    """Closed-form value of the global coalition number, or a lower bound.

    Raises NoKnownFormulaError for families without a closed form (the
    partner-bound sharpness family, for instance).
    """
    t, p = g_spec.tag, g_spec.params
    if t == "path":
        n = p[0]
        if n < 2:
            raise NoKnownFormulaError("no gc-partition for the trivial path")
        if n <= 4:
            return n
        if n == 5:
            return 4
        if n <= 9:
            return 5
        return 6
    if t == "cycle":
        n = p[0]
        if n == 3:
            return 2
        if n in (4, 5):
            return 4
        if n == 7:
            return 5
        return 6
    if t == "complete":
        if p[0] < 2:
            raise NoKnownFormulaError("no gc-partition for the trivial graph")
        return 2
    if t == "bipartite":
        return p[0] + p[1]
    if t == "multipartite":
        sizes = sorted(p, reverse=True)
        return LowerBound(sizes[0] + sizes[-1])
    if t == "wheel":
        return p[0] - 1
    if t == "fan":
        # Small-order carve-outs where the usual n-1 closed form fails: the
        # two-vertex fan is a triangle (value 2, not 1) and the three-vertex
        # fan is the diamond, which admits the valid 3-partition
        # {{hub, middle}, {end}, {end}} (value 3, not 2).
        if p[0] == 2:
            return 2
        if p[0] == 3:
            return 3
        return p[0] - 1
    if t == "doublestar":
        a, b = p
        if a == b == 1:  # this double star is the four-vertex path
            return 4
        return a + 2
    if t == "spider":
        return p[0] + 2
    if t == "t1":
        return 2 * p[0]
    if t == "t2":
        return p[0] + p[1]
    if t == "u5_1":
        return 5 + p[0] - 1
    if t == "u5_2":
        return 4 + max(p)
    if t == "u5_3":
        return 4 + p[1] + p[2]
    if t == "u5_4":
        return 5 + sum(p) - 1
    if t == "u4_1":
        return 5 if p[0] == 1 else 4 + p[0] - 1
    if t == "u4_2":
        return 5 if p == (1, 1) else 3 + max(p)
    if t == "u4_3":
        return 4 + sum(p) - 1
    if t in ("u3_1", "u3_2"):
        return 3 + sum(p) - 1
    if t == "u3_3":
        top = sorted(p, reverse=True)
        return top[0] + top[1] + 2
    if t == "u3_10":
        return 4
    if t == "u3_14":
        return 5 + p[0] - 1
    raise NoKnownFormulaError(f"no closed form for family {t!r}")


def _singleton_rest(g: Graph, blocks: list) -> Partition:
    used = 0
    for m in blocks:
        used |= m
    masks = list(blocks) + [1 << v for v in range(g.n) if not used >> v & 1]
    return Partition.from_masks(g, masks)


def _leaf_mask(g: Graph, support: int) -> int:
    return sum(1 << u for u in bits_of(g.adj[support]) if g.degree(u) == 1)


def proof_partition(g_spec: FamilySpec) -> Partition:
    """Explicit hand-checkable partition attaining the closed-form value."""
    t, p = g_spec.tag, g_spec.params
    g = generate(g_spec)
    if t == "path":
        n = p[0]
        if 2 <= n <= 4:
            return Partition.singletons(g)
        if n == 5:
            return Partition.from_lists(g, [[0], [1, 2], [3], [4]])
        raise NoKnownConstructionError("no explicit construction for long paths")
    if t == "cycle":
        n = p[0]
        if n == 3:
            return Partition.from_lists(g, [[0, 1], [2]])
        if n == 4:
            return Partition.singletons(g)
        if n == 5:
            return Partition.from_lists(g, [[0, 2], [1], [3], [4]])
        raise NoKnownConstructionError("no explicit construction for long cycles")
    if t == "complete":
        if p[0] < 2:
            raise NoKnownConstructionError("trivial graph")
        return _singleton_rest(g, [g.full_mask & ~1])
    if t in ("bipartite", "t1", "t2"):
        return Partition.singletons(g)
    if t == "multipartite":
        sizes = sorted(enumerate(p), key=lambda kv: -kv[1])
        bounds = [0]
        for size in p:
            bounds.append(bounds[-1] + size)
        order = [kv[0] for kv in sizes]
        big, small = order[0], order[-1]
        middles = order[1:-1]
        n_m = p[small]
        blocks = [1 << v for v in range(bounds[big], bounds[big + 1])]
        buckets = [1 << (bounds[small] + j) for j in range(n_m)]
        for mid in middles:
            for pos, v in enumerate(range(bounds[mid], bounds[mid + 1])):
                buckets[pos % n_m] |= 1 << v
        return Partition.from_masks(g, blocks + buckets)
    if t == "wheel" or (t == "fan" and p[0] >= 4):
        return _singleton_rest(g, [1 | 1 << 1 | 1 << 3])
    if t == "fan":
        if p[0] == 2:  # a triangle
            return Partition.from_lists(g, [[0, 1], [2]])
        return Partition.from_lists(g, [[0, 2], [1], [3]])  # the diamond
    if t == "doublestar":
        a, b = p
        if a == b == 1:  # the four-vertex path: singletons are optimal
            return Partition.singletons(g)
        lb = _leaf_mask(g, 1)
        return _singleton_rest(g, [1 << 1, 1 | lb])
    if t == "spider":
        return _singleton_rest(g, [1, g.adj[0]])
    if t == "gk":
        k = p[0]
        vblock = sum(1 << (1 + i) for i in range(k))
        return _singleton_rest(g, [1, vblock])
    if t == "u5_1":
        return _singleton_rest(g, [1 | 1 << 3])  # {a, d}
    if t == "u5_2":
        n_a, n_e = p
        if n_a >= n_e:
            big = 1 | 1 << 3 | _leaf_mask(g, 4)  # {a,d} plus leaves of e
            return _singleton_rest(g, [big, 1 << 4, 1 << 1, 1 << 2])
        big = 1 << 4 | 1 << 1 | _leaf_mask(g, 0)  # mirrored: {e,b} plus leaves of a
        return _singleton_rest(g, [big, 1, 1 << 3, 1 << 2])
    if t == "u5_3":
        big = _leaf_mask(g, 0) | 1 << 1 | 1 << 4  # L_a plus {b, e}
        return _singleton_rest(g, [big, 1, 1 << 2, 1 << 3])
    if t == "u5_4":
        return _singleton_rest(g, [1 << 1 | 1 << 4])  # {b, e}
    if t == "u4_1":
        if p[0] == 1:
            return Partition.singletons(g)
        return _singleton_rest(g, [1 | 1 << 2])  # {a, c}
    if t == "u4_2":
        n_a, n_b = p
        if n_a == n_b == 1:
            return _singleton_rest(g, [_leaf_mask(g, 0) | _leaf_mask(g, 1)])
        if n_a >= n_b:
            return _singleton_rest(g, [1 | 1 << 2 | _leaf_mask(g, 1), 1 << 1, 1 << 3])
        return _singleton_rest(g, [1 << 1 | 1 << 3 | _leaf_mask(g, 0), 1, 1 << 2])
    if t == "u4_3":
        return _singleton_rest(g, [1 | 1 << 2])  # the two supports {a, c}
    if t in ("u3_1", "u3_2"):
        return _singleton_rest(g, [1 << 1 | 1 << 2])  # {b, c}
    if t == "u3_3":
        smallest = min(range(3), key=lambda i: (p[i], i))
        return _singleton_rest(g, [g.adj[smallest]])
    if t in ("u3_10", "u3_14"):
        return _singleton_rest(g, [g.adj[3]])  # neighborhood of the central tail vertex
    raise NoKnownConstructionError(f"no explicit partition for family {t!r}")


# -- bipartite-minus-matching membership -------------------------------


@dataclass(frozen=True)
class T1Membership:
    r: int


@dataclass(frozen=True)
class T2Membership:
    r: int
    s: int
    matching_size: int


def _two_color(g: Graph):
    """Per-component 2-coloring; None when an odd cycle exists."""
    color = [-1] * g.n
    comps = []
    for start in range(g.n):
        if color[start] >= 0:
            continue
        color[start] = 0
        stack = [start]
        members = []
        while stack:
            v = stack.pop()
            members.append(v)
            for u in bits_of(g.adj[v]):
                if color[u] < 0:
                    color[u] = color[v] ^ 1
                    stack.append(u)
                elif color[u] == color[v]:
                    return None, None
        comps.append(members)
    return color, comps


def is_T1_or_T2(g: Graph):
    """Membership in the bipartite complete-minus-matching families."""
    color, comps = _two_color(g)
    if color is None:
        return None
    for flip_bits in range(1 << len(comps)):
        side = [0] * g.n
        for ci, members in enumerate(comps):
            flip = flip_bits >> ci & 1
            for v in members:
                side[v] = color[v] ^ flip
        left = [v for v in range(g.n) if side[v] == 0]
        right = [v for v in range(g.n) if side[v] == 1]
        r, s = len(left), len(right)
        if r == 0 or s == 0:
            continue
        missing = [(u, v) for u in left for v in right if not g.has_edge(u, v)]
        touched = [v for uv in missing for v in uv]
        if len(touched) != len(set(touched)):
            continue  # missing edges are not a matching
        mu = len(missing)
        if r == s and mu == r and r >= 2:
            return T1Membership(r=r)
        if r >= 2 and s >= 2 and mu < min(r, s):
            rr, ss = sorted((r, s))
            return T2Membership(r=rr, s=ss, matching_size=mu)
    return None


# -- enumerators -------------------------------------------------------


def _symmetries(g: Graph, auts: list) -> list:
    """Automorphisms of ``g``, as lists of vertex images: the found ones
    ``auts`` and the swap of each vertex with its first earlier twin.

    Twins have equal open or equal closed neighbourhoods, and the search
    behind ``auts`` skips twin branches without recording their swap.  One
    dict holds both kinds of neighbourhood: ``N(w) = N[v]`` is impossible,
    as ``v`` in ``N(w)`` puts ``w`` in ``N(v)``, inside ``N(w)``.
    """
    gens = list(auts)
    first = {}
    for v, row in enumerate(g.adj):
        closed = row | 1 << v
        w = first.get(row, first.get(closed))
        if w is None:
            first[row] = first[closed] = v
        else:
            swap = list(range(g.n))
            swap[v], swap[w] = w, v
            gens.append(swap)
    return gens


def _orbit_leaders(points: list, gens: list) -> list:
    """The ``points`` (sorted vertex tuples), in order, that no earlier point
    maps to under the group the permutations ``gens`` generate.

    ``points`` must be closed under ``gens``; then each orbit's leader is its
    first point, so every point skipped is the image of an earlier leader.
    A finite group's orbit is the closure of a point under its generators.
    """
    seen, leaders = set(), []
    for p in points:
        if p in seen:
            continue
        leaders.append(p)
        seen.add(p)
        stack = [p]
        while stack:
            q = stack.pop()
            for gamma in gens:
                r = tuple(sorted(map(gamma.__getitem__, q)))
                if r not in seen:
                    seen.add(r)
                    stack.append(r)
    return leaders


def _pendant_radii(g: Graph) -> list:
    """The radius of ``g`` plus a pendant vertex at ``v``, for each ``v`` of
    the connected graph ``g``, from one all-pairs BFS of ``g``.

    A pendant ``x`` at ``v`` has ``d(u, x) = d(u, v) + 1`` and changes no
    other distance, so ``ecc'(u) = max(ecc(u), d(u, v) + 1)``; ``x`` itself,
    with ``ecc'(x) = ecc(v) + 1``, is never more central than ``v``.
    """
    dist = [g.bfs_distances(u) for u in range(g.n)]
    ecc = [max(row) for row in dist]
    return [min(max(e, row[v] + 1) for e, row in zip(ecc, dist)) for v in range(g.n)]


# -- the key filter in front of each level's dedup ---------------------
#
# A grown child reaches its level's IsoDedup only if the element the growth
# added (a leaf or an edge) has the greatest key among the child's elements
# of that kind whose deletion leaves a graph of the level before (McKay,
# "Isomorph-free exhaustive generation", J. Algorithms 1998).  Keys read no
# vertex index, so a graph's elements of greatest key map onto those of any
# isomorphic graph; each growth's docstring shows from this that no class
# is lost.  The filter only removes duplicates, and the dedup stays, so
# correctness never depends on the found automorphisms generating the whole
# group.  Both growths run the first, degree tier on the parent already
# (``_pendant_points``, ``_chord_points``), before any child is built.  A
# fourth tier passes under 1% fewer children than three.
_TIERS = 3


def _greatest(adj: list, new, rivals, key, deletable=None) -> bool:
    """Whether ``new`` has the greatest key among itself and those of
    ``rivals`` that ``deletable`` accepts (all of them when it is None), in
    the graph with adjacency rows ``adj``; ties count as greatest.

    Keys compare tier by tier.  At tier ``t`` a vertex's key is the number
    of walks of length ``t`` from it (its degree at tier 1), and
    ``key(walks, x)`` reads the key of ``x`` off that list.  A tier compares
    only the rivals that tie with ``new`` on every earlier tier, and
    ``deletable`` runs only for a rival whose key beats ``new``'s, so most
    children are decided on degrees alone.
    """
    walks = [row.bit_count() for row in adj]
    for tier in range(_TIERS):
        if tier:
            walks = [sum(map(walks.__getitem__, _members(row))) for row in adj]
        mine = key(walks, new)
        ties = []
        for x in rivals:
            k = key(walks, x)
            if k == mine:
                ties.append(x)
            elif k > mine and (deletable is None or deletable(x)):
                return False
        if not ties:
            return True
        rivals = ties
    return True


def _vertex_key(walks: list, v: int) -> int:
    return walks[v]


def _edge_key(walks: list, e: tuple) -> tuple:
    a, b = walks[e[0]], walks[e[1]]
    return (a, b) if a <= b else (b, a)


def _closure(adj: list, seen: int, frontier: int) -> int:
    """``seen`` plus every vertex that ``frontier`` reaches without passing
    through ``seen``."""
    seen |= frontier
    while frontier:
        reach = 0
        for v in _members(frontier):
            reach |= adj[v]
        frontier = reach & ~seen
        seen |= frontier
    return seen


def _leaf_supports(adj: list) -> set:
    """The neighbours of the degree-1 vertices."""
    return {row.bit_length() - 1 for row in adj if row and not row & row - 1}


def _is_cycle_edge(adj: list, e: tuple) -> bool:
    """Whether deleting the edge ``e`` keeps its endpoints connected."""
    a, b = e
    return bool(_closure(adj, 1 << a, adj[a] & ~(1 << b)) >> b & 1)


def _pendant_points(adj: list) -> list:
    """The vertices ``v`` of a parent, in order and as the 1-tuples
    ``_orbit_leaders`` takes, whose pendant child passes ``_greatest``'s
    first tier: no leaf ``x != v`` has a support ``s != v`` with
    ``deg(s) > deg(v) + 1``.  Those are the child's rival supports with
    their child degrees, against the new leaf's support ``v``."""
    deg = [row.bit_count() for row in adj]
    leaves = [(x, row.bit_length() - 1) for x, row in enumerate(adj) if deg[x] == 1]
    return [(v,) for v in range(len(adj))
            if not any(deg[s] > deg[v] + 1 and v != x and v != s for x, s in leaves)]


def _chord_points(adj: list, edges: list, pairs: list) -> list:
    """The ``pairs`` ``(u, v)`` of a parent, in order, whose chord child may
    pass ``_greatest``'s first tier: no cycle edge of the parent has a
    sorted degree pair above ``sorted(deg(u) + 1, deg(v) + 1)``.  Degrees
    only grow in the child and a cycle edge stays one, so such an edge beats
    the new chord there too."""
    deg = [row.bit_count() for row in adj]
    keys = sorted(((_edge_key(deg, e), e) for e in edges), reverse=True)
    top = next((k for k, e in keys if _is_cycle_edge(adj, e)), None)
    if top is None:
        return pairs
    plus = [d + 1 for d in deg]
    return [p for p in pairs if _edge_key(plus, p) >= top]


def _leaders(dedup: IsoDedup, i: int, points: list) -> list:
    """``_orbit_leaders`` of ``points`` under the ``_symmetries`` of
    ``dedup.graphs[i]``.  Automorphisms keep the root colours, so points
    whose sorted colours differ lie in different orbits: when no two points
    share them, each point leads its orbit and the automorphisms are never
    searched for."""
    colors = dedup.root_colors(i)
    if len({tuple(sorted(map(colors.__getitem__, p))) for p in points}) == len(points):
        return points
    return _orbit_leaders(points, _symmetries(dedup.graphs[i], dedup.automorphisms(i)))


def _pendant_growth(base: Graph, max_n: int, radius_cap: Optional[int]) -> Iterator[IsoDedup]:
    """``base`` and every graph grown from it by pendant vertices, orders up
    to ``max_n``, up to isomorphism, as one ``IsoDedup`` per level: its
    ``graphs`` are the level's graphs, and it gives their root colourings
    and automorphisms.

    Pendant vertices are attached level by level, to a cycle or to ``K1``.
    A parent gets one child per orbit of its vertices, at the orbit's first
    vertex, under the automorphisms its certificate search found and its
    twin swaps (``_symmetries``).  A child reaches the level's dedup only if
    its new leaf has the greatest key (its support's, ``_greatest``) among
    its leaves.  No class is lost: every graph ``G`` of the next level has
    a leaf, and deleting a leaf of greatest key leaves a graph of this level
    (the same cycle, or a tree) whose radius is no larger, as a leaf lies
    on no shortest path between other vertices and its support is at least
    as central as it; the kept representative of that graph offers a child
    isomorphic to ``G`` whose new leaf has that greatest key.  The radius
    filter prunes during generation (radius never decreases under pendant
    addition), reading each child's radius off its parent
    (``_pendant_radii``).

    The radius filter and the degree tier (``_pendant_points``) run on the
    parent, before its orbits: both read only degrees, leaves and distances,
    which automorphisms keep, so the vertices they keep are a union of
    orbits, closed under the generators, and have the same orbit leaders in
    the same order.  A parent is searched for automorphisms only when two of
    the vertices left share a root colour (``_leaders``).
    """
    if base.n > max_n or (radius_cap is not None and metrics(base).radius > radius_cap):
        return
    level = IsoDedup()
    level.add(base)
    while level.graphs:
        yield level
        if level.graphs[0].n == max_n:
            return
        dedup = IsoDedup()
        for i, g in enumerate(level.graphs):
            points = _pendant_points(g.adj)
            if radius_cap is not None:
                radii = _pendant_radii(g)
                points = [(v,) for v, in points if radii[v] <= radius_cap]
            for (v,) in _leaders(level, i, points):
                child = g._plus_edge(v, g.n)
                if _greatest(child.adj, v, _leaf_supports(child.adj) - {v}, _vertex_key):
                    dedup.add(child)
        level = dedup


def enumerate_trees(max_n: int) -> Iterator[Graph]:
    """All free trees up to isomorphism, orders 1..max_n, by pendant growth
    from ``K1``."""
    for level in _pendant_growth(from_edge_list(1, []), max_n, None):
        yield from level.graphs


def enumerate_unicyclic(
    cycle_len: int, max_n: int, radius_cap: Optional[int] = 2
) -> Iterator[Graph]:
    """Connected unicyclic graphs with the given cycle length, up to iso,
    by pendant growth from the cycle."""
    if cycle_len >= 3:
        for level in _pendant_growth(generate(spec("cycle", cycle_len)), max_n, radius_cap):
            yield from level.graphs


def _far_pairs(g: Graph, distance: int) -> list:
    """The pairs ``u < v`` of the connected graph ``g`` at distance >=
    ``distance`` >= 2, in order: ``v`` lies outside the radius-``distance -
    1`` ball around ``u``.  The radius-``k + 1`` ball around ``u`` is the
    union of the radius-``k`` balls around the closed neighbourhood of
    ``u``, so all balls grow together."""
    closed = [row | 1 << v for v, row in enumerate(g.adj)]
    balls = closed
    for _ in range(distance - 2):
        grown = []
        for row in closed:
            ball = 0
            for w in _members(row):
                ball |= balls[w]
            grown.append(ball)
        balls = grown
    pairs = []
    for u, ball in enumerate(balls):
        far = g.full_mask & ~ball
        pairs += [(u, v) for v in _members(far >> u + 1 << u + 1)]
    return pairs


def _chord_growth(levels: list, distance: int) -> list:
    """The graphs of the ``IsoDedup`` levels ``levels`` (the seeds, pairwise
    non-isomorphic), then every graph grown from them by chords between
    vertices at distance >= ``distance``, up to isomorphism, chord level by
    chord level.  A graph with ``k`` chords has ``k`` edges more than its
    seed, so each chord level is deduplicated on its own.

    A parent gets one chord per orbit of its far pairs, at the orbit's first
    pair, under the automorphisms its certificate search found and its twin
    swaps (``_symmetries``): automorphisms keep distances, so a skipped
    chord gives a graph isomorphic to an earlier chord's of the same parent.
    A child reaches the dedup only if its new edge has the greatest key (the
    sorted pair of its endpoints' keys, ``_greatest``) among its non-bridge
    edges.  No class is lost when the seeds of each order are all its
    connected graphs of girth > ``distance`` with the seeds' edge count: let
    ``G`` be such a graph with ``k >= 1`` edges more.  Deleting a non-bridge
    edge ``uv`` of greatest key leaves a connected graph ``H`` with
    ``k - 1`` chords whose cycles are cycles of ``G``, so of girth >
    ``distance``; ``uv`` closes a cycle of length ``d_H(u, v) + 1`` in
    ``G``, so ``d_H(u, v) >= distance``.  By induction on ``k``, the kept
    representative of ``H`` offers a chord child isomorphic to ``G`` whose
    new edge has that greatest key.

    The degree tier runs on the parent first (``_chord_points``): it reads
    only degrees and cycle edges, which automorphisms keep, so the far pairs
    it keeps are a union of orbits, closed under the generators, and have
    the same orbit leaders in the same order.  A parent is searched for
    automorphisms only when two of the pairs left share sorted root colours
    (``_leaders``).
    """
    graphs = []
    frontier = [(level, i) for level in levels for i in range(len(level.graphs))]
    while frontier:
        dedup = IsoDedup()
        for level, i in frontier:
            g = level.graphs[i]
            graphs.append(g)
            edges = g.edges()
            for u, v in _leaders(level, i, _chord_points(g.adj, edges, _far_pairs(g, distance))):
                child = g._plus_edge(u, v)
                if _greatest(child.adj, (u, v), edges, _edge_key,
                             lambda e: _is_cycle_edge(child.adj, e)):
                    dedup.add(child)
        frontier = [(dedup, i) for i in range(len(dedup.graphs))]
    return graphs


_CONNECTED_CACHE: dict[int, list] = {}


def connected_graphs(n: int) -> list:
    """All connected graphs of order n up to isomorphism (desk scale), by
    edge count: the trees of order ``n``, which are its connected graphs
    with fewest edges, and their chord levels at distance >= 2, as every
    graph has girth > 2."""
    if n not in _CONNECTED_CACHE:
        trees = list(_pendant_growth(from_edge_list(1, []), n, None))[-1:]  # order n
        _CONNECTED_CACHE[n] = _chord_growth(trees, 2)
    return _CONNECTED_CACHE[n]


def girth_at_least_6_graphs(max_n: int) -> list:
    """Connected graphs of order <= max_n that contain a cycle and have
    girth >= 6: the unicyclic graphs of cycle length >= 6 (one cycle length
    per pendant growth, so pairwise non-isomorphic) and their chord levels
    at distance >= 5, as a chord between vertices at distance ``d`` closes
    only cycles of length ``d + 1`` or more."""
    return _chord_growth([level for cl in range(6, max_n + 1)
                          for level in _pendant_growth(generate(spec("cycle", cl)), max_n, None)],
                         5)
