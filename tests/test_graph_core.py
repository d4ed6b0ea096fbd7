"""Graph kernel: construction, metrics, serialization, isomorphism."""

import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcoalition import (
    ACYCLIC,
    DisconnectedError,
    Graph,
    GraphFormatError,
    NotATreeError,
    VertexSet,
    are_isomorphic,
    canonical_hash,
    classify_radius2_tree,
    from_edge_list,
    from_graph6,
    is_tree,
    metrics,
    parse_edge_list,
    structure,
    to_dot,
    to_edge_list,
    to_graph6,
)
from gcoalition.families import _symmetries, generate, spec
from gcoalition.graph import Diam4, DoubleStarClass, PathFour, RadiusAtLeast3, Star
from gcoalition import iso
from gcoalition.iso import IsoDedup, _canonical_form, _refined_root

from .reference import is_isomorphic, reference_certificate


def path(n):
    return from_edge_list(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n):
    return from_edge_list(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n):
    return from_edge_list(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def relabel(g, rnd):
    perm = list(range(g.n))
    rnd.shuffle(perm)
    return from_edge_list(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def random_cubic(rnd, n):
    """A uniform random 3-regular graph on ``n`` (even) vertices, by the
    pairing model with rejection of loops and multiple edges."""
    while True:
        points = [v for v in range(n) for _ in range(3)]
        rnd.shuffle(points)
        edges = {(min(a, b), max(a, b)) for a, b in zip(points[::2], points[1::2])}
        if len(edges) == 3 * n // 2 and all(a != b for a, b in edges):
            return from_edge_list(n, sorted(edges))


def cube():
    return from_edge_list(8, [(u, u | b) for u in range(8) for b in (1, 2, 4) if not u & b])


def wagner():
    """The Moebius ladder on 8 vertices: cubic like the cube, not bipartite."""
    return from_edge_list(8, [(i, (i + 1) % 8) for i in range(8)] + [(i, i + 4) for i in range(4)])


# Regular graphs of one order and degree: each pair has equal root
# invariants, so telling it apart takes the certificates.
REGULAR_POOL = [
    cycle(6), from_edge_list(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]),
    from_edge_list(6, [(i, 3 + j) for i in range(3) for j in range(3)]),
    from_edge_list(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3), (1, 4), (2, 5)]),
    cycle(7), from_edge_list(7, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 6), (6, 3)]),
]


# Graphs closed under a random permutation, found by a random search, on
# which abandoning a branch above the node where two equal leaves part loses
# the least leaf.
SYMMETRIC_G6 = ["I}p|[ildo", "J\\t}n~j~~~_", "Jvvj~||l~V_", "J~n|~~}|^{_"]


def assert_sound_form(g):
    """``_canonical_form`` gives ``canonical_hash``'s certificate, and every
    permutation the enumerators skip by (the found automorphisms, then the
    twin swaps) maps edges onto edges: a child is skipped when one of them
    maps it onto an earlier child, which is sound only if both hold."""
    cert, auts = _canonical_form(g)
    assert cert == canonical_hash(g)
    edges = set(g.edges())
    gens = _symmetries(g, auts)
    assert gens[:len(auts)] == auts
    for gamma in gens:
        assert sorted(gamma) == list(range(g.n))
        assert {tuple(sorted((gamma[u], gamma[v]))) for u, v in edges} == edges


@st.composite
def certificate_inputs(draw):
    """Random graphs on up to 9 vertices at any density, relabelled spiders
    (interchangeable legs that are not twins) and random cubic graphs
    (degree refinement splits nothing)."""
    rnd = draw(st.randoms(use_true_random=False))
    kind = draw(st.sampled_from(("gnp", "spider", "cubic")))
    if kind == "gnp":
        n, p = draw(st.integers(1, 9)), draw(st.floats(0, 1))
        return from_edge_list(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                                  if rnd.random() < p])
    if kind == "spider":
        legs, extra = draw(st.integers(2, 6)), draw(st.integers(0, 2))
        return relabel(generate(spec("spider", legs, extra)), rnd)
    return random_cubic(rnd, draw(st.sampled_from((4, 6, 8, 10))))


class TestConstruction:
    def test_rejects_loops(self):
        with pytest.raises(GraphFormatError):
            from_edge_list(2, [(0, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(GraphFormatError):
            from_edge_list(2, [(0, 2)])

    def test_rejects_asymmetric_adjacency(self):
        with pytest.raises(GraphFormatError):
            Graph(2, [0b10, 0b00])

    def test_rejects_oversized(self):
        with pytest.raises(GraphFormatError):
            from_edge_list(65, [])

    def test_immutable(self):
        g = path(3)
        with pytest.raises(AttributeError):
            g.n = 5

    def test_degrees_and_edges(self):
        g = path(4)
        assert g.degrees() == [1, 2, 2, 1]
        assert g.edges() == [(0, 1), (1, 2), (2, 3)]
        assert g.edge_count() == 3

    def test_full_vertices(self):
        g = complete(4)
        assert g.full_vertices().indices() == [0, 1, 2, 3]
        assert path(4).full_vertices().indices() == []

    def test_plus_edge(self):
        g = path(3)
        assert g._plus_edge(2, 3) == path(4)
        assert g._plus_edge(0, 2) == cycle(3)
        for u, v in ((1, 1), (0, 4), (3, 0)):
            with pytest.raises(GraphFormatError):
                g._plus_edge(u, v)


class TestComplement:
    def test_complement_of_path4_is_path4(self):
        g = path(4)
        c = g.complement()
        assert are_isomorphic(g, c)

    def test_double_complement_identity(self):
        g = from_edge_list(5, [(0, 1), (1, 2), (0, 3), (3, 4)])
        assert g.complement().complement() == g


class TestMetrics:
    def test_path_metrics(self):
        m = metrics(path(5))
        assert m.radius == 2 and m.diameter == 4 and m.girth is ACYCLIC

    def test_cycle_girth(self):
        assert metrics(cycle(7)).girth == 7

    def test_complete_girth(self):
        assert metrics(complete(4)).girth == 3

    def test_disconnected_raises(self):
        g = from_edge_list(4, [(0, 1), (2, 3)])
        m = metrics(g)
        assert not m.connected
        with pytest.raises(DisconnectedError):
            m.radius

    def test_central_vertices(self):
        assert metrics(path(5)).central_vertices() == [2]

    def test_petersen_girth(self):
        outer = [(i, (i + 1) % 5) for i in range(5)]
        spokes = [(i, i + 5) for i in range(5)]
        inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
        m = metrics(from_edge_list(10, outer + spokes + inner))
        assert m.girth == 5 and m.radius == 2 and m.diameter == 2


class TestStructure:
    def test_leaves_and_supports(self):
        g = from_edge_list(5, [(0, 1), (0, 2), (0, 3), (3, 4)])
        rep = structure(g)
        assert rep.leaves.indices() == [1, 2, 4]
        assert rep.supports.indices() == [0, 3]
        assert rep.leaf_map[0].indices() == [1, 2]

    def test_k2_both_supports(self):
        rep = structure(from_edge_list(2, [(0, 1)]))
        assert rep.supports.indices() == [0, 1]


class TestTreeClassification:
    def test_star(self):
        g = from_edge_list(4, [(0, 1), (0, 2), (0, 3)])
        assert classify_radius2_tree(g) == Star(center=0)

    def test_path4(self):
        assert classify_radius2_tree(path(4)) == PathFour()

    def test_double_star(self):
        g = from_edge_list(6, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5)])
        assert classify_radius2_tree(g) == DoubleStarClass(p=2, q=2)

    def test_diam4(self):
        g = from_edge_list(5, [(2, 1), (1, 0), (2, 3), (3, 4)])
        shape = classify_radius2_tree(g)
        assert shape == Diam4(center=2, ell=2)

    def test_radius3(self):
        assert classify_radius2_tree(path(7)) == RadiusAtLeast3()

    def test_not_a_tree(self):
        with pytest.raises(NotATreeError):
            classify_radius2_tree(cycle(4))
        assert not is_tree(cycle(4))


class TestGraph6:
    def test_known_strings(self):
        k2 = from_graph6("A_")
        assert k2.n == 2 and k2.has_edge(0, 1)
        k3 = from_graph6("Bw")
        assert k3.n == 3 and k3.edge_count() == 3

    def test_header_prefix(self):
        assert from_graph6(">>graph6<<A_").edge_count() == 1

    def test_round_trip_families(self):
        for g in (path(6), cycle(9), complete(5)):
            assert from_graph6(to_graph6(g)) == g

    def test_extended_header_round_trip(self):
        g = path(64)
        s = to_graph6(g)
        assert s.startswith("~")
        assert from_graph6(s) == g

    def test_rejects_garbage(self):
        for bad in ("", "A", "A_X", "\x1f_"):
            with pytest.raises(GraphFormatError):
                from_graph6(bad)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 9), st.data())
    def test_round_trip_random(self, n, data):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        chosen = data.draw(st.lists(st.sampled_from(pairs), unique=True))
        g = from_edge_list(n, chosen)
        assert from_graph6(to_graph6(g)) == g


class TestEdgeListAndDot:
    def test_edge_list_round_trip(self):
        g = cycle(5)
        assert parse_edge_list(to_edge_list(g)) == g

    def test_edge_list_comments(self):
        g = parse_edge_list("# a comment\nn 3\n0 1\n1 2\n")
        assert g.edges() == [(0, 1), (1, 2)]

    def test_edge_list_bad_header(self):
        with pytest.raises(GraphFormatError):
            parse_edge_list("3\n0 1\n")

    def test_dot_deterministic(self):
        g = path(3)
        assert to_dot(g) == to_dot(g)
        assert "0 -- 1" in to_dot(g)


class TestIsomorphism:
    def test_relabeled_path(self):
        g1 = path(5)
        g2 = from_edge_list(5, [(4, 2), (2, 0), (0, 1), (1, 3)])
        assert are_isomorphic(g1, g2)
        assert canonical_hash(g1) == canonical_hash(g2)

    def test_same_degree_sequence_not_isomorphic(self):
        k33 = from_edge_list(6, [(i, 3 + j) for i in range(3) for j in range(3)])
        prism = from_edge_list(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3),
                                   (0, 3), (1, 4), (2, 5)])
        assert k33.edge_count() == prism.edge_count() == 9
        assert not are_isomorphic(k33, prism)
        assert canonical_hash(k33) != canonical_hash(prism)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 7), st.data())
    def test_certificate_matches_brute_force(self, n, data):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        edges = set(data.draw(st.lists(st.sampled_from(pairs), unique=True)))
        a = from_edge_list(n, sorted(edges))
        perm = data.draw(st.permutations(range(n)))
        relabeled = from_edge_list(n, [(perm[u], perm[v]) for u, v in edges])
        assert canonical_hash(relabeled) == canonical_hash(a)
        # b is a relabelled copy of a with up to two pairs toggled: isomorphic
        # to a when none are, often a near miss when some are
        toggled = set(data.draw(st.lists(st.sampled_from(pairs), max_size=2)))
        perm = data.draw(st.permutations(range(n)))
        b = from_edge_list(n, [(perm[u], perm[v]) for u, v in edges ^ toggled])
        assert (canonical_hash(a) == canonical_hash(b)) == is_isomorphic(a, b)

    @settings(max_examples=300, deadline=None)
    @given(certificate_inputs())
    def test_certificate_equals_reference(self, g):
        # the pruned search must return the very int the unpruned one does
        assert canonical_hash(g) == reference_certificate(g)
        assert_sound_form(g)

    @pytest.mark.parametrize("text", SYMMETRIC_G6)
    def test_certificate_equals_reference_on_symmetric_graphs(self, text):
        g = from_graph6(text)
        assert canonical_hash(g) == reference_certificate(g)
        assert canonical_hash(relabel(g, random.Random(text))) == reference_certificate(g)
        assert_sound_form(g)
        assert_sound_form(relabel(g, random.Random(text)))

    def test_spider_legs(self):
        # 8 interchangeable legs of length 2: k! leaves without orbit pruning
        spider = generate(spec("spider", 8, 0))
        relabeled = relabel(spider, random.Random(8))
        longer = from_edge_list(spider.n + 1, spider.edges() + [(spider.n - 1, spider.n)])
        assert are_isomorphic(spider, relabeled)
        assert not are_isomorphic(spider, longer)
        assert not are_isomorphic(relabeled, longer)

    def test_dedup_counts(self):
        dedup = IsoDedup()
        assert dedup.add(path(4))
        assert not dedup.add(from_edge_list(4, [(3, 1), (1, 0), (0, 2)]))
        assert dedup.add(cycle(4))
        assert len(dedup.graphs) == 2

    def test_are_isomorphic_reads_the_invariant_first(self, monkeypatch):
        # equal degree sequences; the degree-3 vertex sees two leaves in one
        # graph and one in the other, which the root refinement tells apart
        g1 = from_edge_list(6, [(0, 1), (1, 2), (2, 3), (3, 4), (1, 5)])
        g2 = from_edge_list(6, [(0, 1), (1, 2), (2, 3), (3, 4), (2, 5)])
        assert sorted(map(g1.degree, range(6))) == sorted(map(g2.degree, range(6)))
        assert _refined_root(g1)[3] != _refined_root(g2)[3]

        def no_search(*args):
            raise AssertionError("searched")

        monkeypatch.setattr(iso, "_search", no_search)
        assert not are_isomorphic(g1, g2)
        assert not are_isomorphic(g1, path(5))


class TestLazyDedup:
    def test_equal_invariants_fall_back_to_certificates(self):
        a, b = cube(), wagner()
        assert _refined_root(a)[3] == _refined_root(b)[3]
        assert not are_isomorphic(a, b)
        dedup = IsoDedup()
        assert dedup.add(a) and dedup.add(b)
        rnd = random.Random(8)
        assert not dedup.add(relabel(a, rnd))
        assert not dedup.add(relabel(b, rnd))
        assert dedup.graphs == [a, b]

    def test_searches_only_on_collision_or_request(self, monkeypatch):
        graphs = [cube(), path(5), wagner(), cycle(6)]
        auts = [_canonical_form(g)[1] for g in graphs]
        searches = []
        search = iso._search

        def counted(*args):
            searches.append(args[0])
            return search(*args)

        monkeypatch.setattr(iso, "_search", counted)
        dedup = IsoDedup()
        assert all(dedup.add(g) for g in graphs)
        assert len(searches) == 2  # the cube once the ladder collides, and the ladder
        # searched or not, each kept graph gives its own search's automorphisms
        assert [dedup.automorphisms(i) for i in range(4)] == auts
        assert [dedup.automorphisms(i) for i in range(4)] == auts
        assert len(searches) == 4  # P5 and C6 on request, nothing twice

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_kept_flags_match_brute_force(self, data):
        # relabelled copies of a few bases, some random, some regular with
        # equal root invariants; kept exactly when no earlier graph is
        # isomorphic to it
        rnd = data.draw(st.randoms(use_true_random=False))
        bases = []
        for _ in range(data.draw(st.integers(1, 4))):
            if data.draw(st.booleans()):
                bases.append(data.draw(st.sampled_from(REGULAR_POOL)))
            else:
                n, p = data.draw(st.integers(1, 7)), data.draw(st.floats(0, 1))
                bases.append(from_edge_list(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                                                if rnd.random() < p]))
        picks = data.draw(st.lists(st.integers(0, len(bases) - 1), min_size=1, max_size=10))
        graphs = [relabel(bases[i], rnd) for i in picks]
        dedup, kept = IsoDedup(), []
        for g in graphs:
            new = not any(is_isomorphic(g, h) for h in kept)
            assert dedup.add(g) == new
            if new:
                kept.append(g)
        assert dedup.graphs == kept
        for i, g in enumerate(kept):
            assert dedup.automorphisms(i) == _canonical_form(g)[1]


def test_import_does_not_load_networkx():
    import gcoalition

    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(gcoalition.__file__)))
    code = "import sys, gcoalition; assert 'networkx' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


class TestVertexSet:
    def test_algebra(self):
        a = VertexSet.from_indices(5, [0, 2])
        b = VertexSet.from_indices(5, [2, 4])
        assert (a | b).indices() == [0, 2, 4]
        assert (a & b).indices() == [2]
        assert (a - b).indices() == [0]
        assert a.complement().indices() == [1, 3, 4]

    def test_universe_guard(self):
        with pytest.raises(ValueError):
            VertexSet(0b100, 2)
        with pytest.raises(ValueError):
            VertexSet.from_indices(3, [0]) | VertexSet.from_indices(4, [0])
