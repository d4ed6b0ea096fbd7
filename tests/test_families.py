"""Family generators, closed forms, proof partitions, enumerators."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcoalition import (
    InvalidParamsError,
    NoKnownConstructionError,
    NoKnownFormulaError,
    T1Membership,
    T2Membership,
    are_isomorphic,
    closed_form_gc,
    enumerate_unicyclic,
    from_edge_list,
    generate,
    girth_at_least_6_graphs,
    is_T1_or_T2,
    is_tree,
    max_partition,
    metrics,
    parse_spec,
    proof_partition,
    spec,
    verify_partition,
)
from gcoalition.families import (
    UNICYCLIC_SHAPES,
    LowerBound,
    _edge_key,
    _greatest,
    _is_cycle_edge,
    _is_non_cut,
    _leaf_supports,
    _pendant_radii,
    _vertex_key,
    connected_graphs,
    enumerate_trees,
)

from .reference import (
    reference_certificate,
    reference_chord_levels,
    reference_pendant_growth,
)


def _same_classes(got, want, level=lambda g: g.n):
    """``got`` holds one graph of each class of ``want``, and ``level``
    (the order, or the chord count of a girth >= 6 graph) never decreases
    along it."""
    got = list(got)
    certs = [reference_certificate(g) for g in got]
    assert len(set(certs)) == len(certs)  # no class repeats
    assert sorted(certs) == sorted(reference_certificate(g) for g in want)
    levels = list(map(level, got))
    assert levels == sorted(levels)


def _chords(g):
    return g.edge_count() - g.n


def _random_connected(n, data):
    """A random tree plus random extra edges: any connected graph."""
    edges = [(data.draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if pairs:
        edges += data.draw(st.lists(st.sampled_from(pairs), max_size=n))
    return from_edge_list(n, edges)


def _filter_winners(g):
    """The leaves, edges and vertices of ``g`` that the growth filters may
    delete and that have the greatest key of their kind."""
    adj, vertices, edges = list(g.adj), range(g.n), g.edges()
    supports = _leaf_supports(adj)
    top = {s for s in supports if _greatest(adj, s, supports - {s}, _vertex_key)}
    leaves = {x for x in vertices if g.degree(x) == 1 and adj[x].bit_length() - 1 in top}
    cycle_edges = [e for e in edges if _is_cycle_edge(adj, e)]
    edges = {e for e in cycle_edges
             if _greatest(adj, e, [f for f in edges if f != e], _edge_key,
                          lambda f: _is_cycle_edge(adj, f))}
    non_cut = [v for v in vertices if _is_non_cut(adj, v)]
    vertices = {v for v in non_cut
                if _greatest(adj, v, [w for w in vertices if w != v], _vertex_key,
                             lambda w: _is_non_cut(adj, w))}
    return leaves, edges, vertices, set(cycle_edges), set(non_cut)


class TestSpecs:
    def test_parse_round_trip(self):
        s = parse_spec("u5_2:2,1")
        assert s.tag == "u5_2" and s.params == (2, 1)
        assert str(s) == "u5_2:2,1"
        assert parse_spec("u3_10").params == ()

    def test_parse_rejects_garbage(self):
        with pytest.raises(InvalidParamsError):
            parse_spec("cycle:abc")
        with pytest.raises(InvalidParamsError):
            parse_spec("nosuch:3")
        with pytest.raises(InvalidParamsError):
            spec("cycle", 3, 4)  # wrong arity

    def test_domain_guards(self):
        for bad in (spec("cycle", 2), spec("wheel", 2), spec("doublestar", 1, 2),
                    spec("t2", 3, 3, 3), spec("u5_1", 0)):
            with pytest.raises(InvalidParamsError):
                generate(bad)


class TestGenerators:
    def test_orders_and_sizes(self):
        cases = {
            "path:6": (6, 5),
            "cycle:5": (5, 5),
            "complete:4": (4, 6),
            "bipartite:2,3": (5, 6),
            "multipartite:2,2,2": (6, 12),
            "wheel:5": (6, 10),
            "fan:5": (6, 9),
            "doublestar:3,2": (7, 6),
            "spider:3,1": (8, 7),
            "gk:4": (9, 12),
            "t1:3": (6, 6),
            "t2:2,3,1": (5, 5),
            "u5_1:2": (7, 7),
            "u5_3:1,1,1": (8, 8),
            "u4_2:2,1": (7, 7),
            "u3_3:1,1,1": (6, 6),
            "u3_10": (5, 5),
            "u3_14:2": (7, 7),
        }
        for text, (n, m) in cases.items():
            g = generate(parse_spec(text))
            assert (g.n, g.edge_count()) == (n, m), text

    def test_fan2_is_triangle(self):
        assert are_isomorphic(generate(spec("fan", 2)), generate(spec("complete", 3)))

    def test_t1_is_c6_for_r3(self):
        assert are_isomorphic(generate(spec("t1", 3)), generate(spec("cycle", 6)))

    def test_unicyclic_shapes(self):
        g = generate(spec("u5_2", 2, 1))
        assert metrics(g).girth == 5
        assert g.degree(0) == 4 and g.degree(4) == 3  # supports a and e

    @pytest.mark.parametrize("tag", sorted(UNICYCLIC_SHAPES))
    def test_unicyclic_shape_table(self, tag):
        cycle_len, tail, supports = UNICYCLIC_SHAPES[tag]
        g = generate(spec(tag, *[1] * len(supports)))
        assert g.is_connected() and g.edge_count() == g.n
        assert metrics(g).girth == cycle_len
        assert g.n == cycle_len + len(tail) + len(supports)

    def test_gk_labels(self):
        g = generate(spec("gk", 3))
        assert g.labels[0] == "u" and g.labels[3] == "v3" and g.labels[6] == "w3"


class TestClosedForms:
    def test_no_formula_cases(self):
        with pytest.raises(NoKnownFormulaError):
            closed_form_gc(spec("gk", 4))
        with pytest.raises(NoKnownFormulaError):
            closed_form_gc(spec("complete", 1))

    def test_multipartite_is_lower_bound(self):
        cf = closed_form_gc(spec("multipartite", 3, 2, 2))
        assert cf == LowerBound(5)

    def test_spot_values(self):
        assert closed_form_gc(spec("path", 7)) == 5
        assert closed_form_gc(spec("cycle", 7)) == 5
        assert closed_form_gc(spec("bipartite", 3, 4)) == 7
        assert closed_form_gc(spec("wheel", 6)) == 5
        assert closed_form_gc(spec("doublestar", 3, 2)) == 5
        assert closed_form_gc(spec("spider", 4, 0)) == 6
        assert closed_form_gc(spec("t2", 3, 3, 2)) == 6
        assert closed_form_gc(spec("u5_2", 1, 3)) == 7
        assert closed_form_gc(spec("u4_2", 1, 1)) == 5


class TestProofPartitions:
    SPECS = [
        "path:3", "path:5", "cycle:3", "cycle:5", "complete:5", "bipartite:2,3",
        "multipartite:3,2,2", "wheel:5", "fan:2", "fan:3", "fan:6",
        "doublestar:1,1", "doublestar:3,2", "spider:2,1", "spider:3,0",
        "t1:2", "t2:2,2,1", "u5_1:2", "u5_2:2,1", "u5_2:1,2", "u5_3:1,2,1",
        "u5_4:1,2", "u4_1:1", "u4_1:2", "u4_2:1,1", "u4_2:2,1", "u4_2:1,2",
        "u4_3:1,2", "u3_1:3", "u3_2:1,2", "u3_3:2,1,3", "u3_10", "u3_14:1",
    ]

    @pytest.mark.parametrize("text", SPECS)
    def test_partition_verifies_and_matches_value(self, text):
        s = parse_spec(text)
        g = generate(s)
        p = proof_partition(s)
        assert verify_partition(g, p, "gc").valid
        cf = closed_form_gc(s)
        target = cf.value if isinstance(cf, LowerBound) else cf
        assert len(p) == target

    def test_no_construction_for_long_paths(self):
        with pytest.raises(NoKnownConstructionError):
            proof_partition(spec("path", 8))
        with pytest.raises(NoKnownConstructionError):
            proof_partition(spec("cycle", 9))

    def test_gk_partition_verifies(self):
        s = spec("gk", 4)
        assert verify_partition(generate(s), proof_partition(s), "gc").valid


class TestBipartiteMinusMatching:
    def test_c6_is_t1(self):
        assert is_T1_or_T2(generate(spec("cycle", 6))) == T1Membership(r=3)

    def test_k23_is_t2_empty_matching(self):
        out = is_T1_or_T2(generate(spec("bipartite", 2, 3)))
        assert out == T2Membership(r=2, s=3, matching_size=0)

    def test_c5_is_none(self):
        assert is_T1_or_T2(generate(spec("cycle", 5))) is None

    def test_generators_self_identify(self):
        assert is_T1_or_T2(generate(spec("t1", 3))) == T1Membership(r=3)
        assert is_T1_or_T2(generate(spec("t2", 3, 3, 2))) == T2Membership(3, 3, 2)

    def test_star_is_not_t(self):
        # K_{1,3}: one side has a single vertex, below the r,s >= 2 floor
        assert is_T1_or_T2(generate(spec("bipartite", 1, 3))) is None


class TestEnumerators:
    def test_unicyclic_c5_max6(self):
        graphs = list(enumerate_unicyclic(5, 6))
        assert [g.n for g in graphs] == [5, 6]  # C5 and C5-plus-one-leaf

    def test_unicyclic_c3_max3(self):
        graphs = list(enumerate_unicyclic(3, 3))
        assert len(graphs) == 1 and graphs[0].edge_count() == 3

    def test_unicyclic_c4_max4(self):
        assert len(list(enumerate_unicyclic(4, 4))) == 1

    def test_unicyclic_invariants(self):
        seen = []
        for g in enumerate_unicyclic(4, 8, radius_cap=2):
            assert g.is_connected()
            assert g.edge_count() == g.n  # exactly one cycle
            m = metrics(g)
            assert m.girth == 4 and m.radius <= 2
            for other in seen:
                assert not are_isomorphic(g, other)
            seen.append(g)

    def test_tree_counts(self, trees13):
        counts = {}
        for g in trees13:
            assert is_tree(g)
            counts[g.n] = counts.get(g.n, 0) + 1
        # OEIS A000055, free trees on n nodes
        assert counts == {1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23,
                          9: 47, 10: 106, 11: 235, 12: 551, 13: 1301}

    # The filtered enumerators must keep one graph of each class that trying
    # every pendant vertex and every chord keeps.
    @pytest.mark.parametrize("cap", [2, None])
    @pytest.mark.parametrize("cl", [3, 4, 5, 6])
    def test_unicyclic_matches_reference(self, cl, cap):
        want = reference_pendant_growth(generate(spec("cycle", cl)), 9, cap)
        _same_classes(enumerate_unicyclic(cl, 9, radius_cap=cap), want)

    def test_trees_match_reference(self):
        want = reference_pendant_growth(generate(spec("path", 1)), 10, None)
        _same_classes(enumerate_trees(10), want)

    def test_girth6_matches_reference(self):
        seeds = [g for cl in range(6, 11)
                 for g in reference_pendant_growth(generate(spec("cycle", cl)), 10, None)]
        _same_classes(girth_at_least_6_graphs(10), reference_chord_levels(seeds), _chords)

    # the largest calls of the enumerate_iso benchmark
    @pytest.mark.parametrize("cap", [2, None])
    def test_unicyclic_matches_reference_at_n10(self, cap):
        want = reference_pendant_growth(generate(spec("cycle", 3)), 10, cap)
        _same_classes(enumerate_unicyclic(3, 10, radius_cap=cap), want)

    def test_girth6_matches_reference_at_n11(self):
        seeds = [g for cl in range(6, 12)
                 for g in reference_pendant_growth(generate(spec("cycle", cl)), 11, None)]
        _same_classes(girth_at_least_6_graphs(11), reference_chord_levels(seeds), _chords)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 9), st.data())
    def test_pendant_radii_match_metrics(self, n, data):
        g = _random_connected(n, data)
        assert _pendant_radii(g) == [metrics(g._plus_edge(v, n)).radius for v in range(n)]

    def test_unicyclic_counts(self):
        counts = {}
        for cl in range(3, 11):
            for g in enumerate_unicyclic(cl, 10, radius_cap=None):
                counts[g.n] = counts.get(g.n, 0) + 1
        # OEIS A001429, connected unicyclic graphs on n nodes
        assert counts == {3: 1, 4: 2, 5: 5, 6: 13, 7: 33, 8: 89, 9: 240, 10: 657}

    def test_connected_counts(self, corpus8):
        # OEIS A001349, connected graphs on n nodes
        counts = [len(connected_graphs(n)) for n in range(1, 8)] + [len(corpus8)]
        assert counts == [1, 1, 2, 6, 21, 112, 853, 11117]

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 9), st.data())
    def test_filter_winners_are_invariant(self, n, data):
        # a relabelling maps the winners of each growth filter onto the
        # relabelled graph's winners: the keys read no vertex index
        g = _random_connected(n, data)
        perm = data.draw(st.permutations(range(n)))
        h = from_edge_list(n, [(perm[u], perm[v]) for u, v in g.edges()])
        leaves, edges, vertices, cycle_edges, non_cut = _filter_winners(g)
        moved = lambda es: {tuple(sorted((perm[u], perm[v]))) for u, v in es}
        assert _filter_winners(h) == ({perm[x] for x in leaves}, moved(edges),
                                      {perm[v] for v in vertices}, moved(cycle_edges),
                                      {perm[v] for v in non_cut})
        # what the filters may delete, against deleting it
        es = g.edges()
        assert cycle_edges == {e for e in es
                               if from_edge_list(n, [f for f in es if f != e]).is_connected()}
        assert non_cut == {v for v in range(n) if n == 1 or from_edge_list(
            n - 1, [(a - (a > v), b - (b > v)) for a, b in es if v not in (a, b)]).is_connected()}

    def test_girth6_corpus(self):
        graphs = girth_at_least_6_graphs(8)
        assert graphs  # C6, C7, C8 plus leafed variants
        for g in graphs:
            m = metrics(g)
            assert m.connected and isinstance(m.girth, int) and m.girth >= 6

    def test_girth6_includes_multicyclic(self):
        # the theta graph of three length-3 paths is bicyclic, girth 6, n=8
        graphs = girth_at_least_6_graphs(8)
        assert any(g.edge_count() == g.n + 1 for g in graphs)


class TestMultipartitePartition:
    def test_bound_attained(self):
        s = spec("multipartite", 3, 2, 2)
        g = generate(s)
        p = proof_partition(s)
        assert verify_partition(g, p, "gc").valid
        assert max_partition(g, "gc").value >= 5
