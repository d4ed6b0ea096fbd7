"""Domination predicates, invariants, and the global domatic search."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcoalition import (
    NotGlobalDominatingError,
    VertexSet,
    from_edge_list,
    gamma,
    gamma_g,
    global_domatic,
    is_dominating,
    is_global_dominating,
    is_perfect_dominating,
    at_most_one_neighbor,
    minimal_gds_within,
)

from .reference import set_partitions


def path(n):
    return from_edge_list(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n):
    return from_edge_list(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n):
    return from_edge_list(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def vs(g, *idx):
    return VertexSet.from_indices(g.n, idx)


class TestPredicates:
    def test_p5_global_pair(self):
        g = path(5)
        rep = is_global_dominating(g, vs(g, 0, 3))
        assert rep.is_global and bool(rep)
        assert gamma_g(g).value == 2

    def test_report_uncovered_sets(self):
        g = path(5)
        rep = is_global_dominating(g, vs(g, 0))
        assert not rep.dominates_g
        assert rep.uncovered_g.indices() == [2, 3, 4]

    def test_complete_graph_needs_everything(self):
        g = complete(4)
        # complement is edgeless: only V itself dominates it
        assert gamma_g(g).value == 4

    def test_perfect_domination(self):
        g = path(4)
        assert is_perfect_dominating(g, vs(g, 0, 3))
        assert not is_perfect_dominating(g, vs(g, 0, 2))  # 1 sees both

    def test_at_most_one(self):
        g = cycle(4)
        assert at_most_one_neighbor(g, vs(g, 0))
        assert not at_most_one_neighbor(g, vs(g, 0, 2))  # 1 sees both

    def test_virtual_complement_matches_materialized(self):
        g = cycle(6)
        c = g.complement()
        for bits in range(1, 1 << 6):
            s = VertexSet(bits, 6)
            assert is_global_dominating(g, s).dominates_complement == is_dominating(c, s)


class TestGamma:
    @pytest.mark.parametrize("n,expected", [(2, 1), (3, 1), (4, 2), (6, 2), (7, 3)])
    def test_gamma_paths(self, n, expected):
        assert gamma(path(n)).value == expected

    def test_witness_is_lex_first(self):
        g = path(6)
        ms = gamma(g)
        assert is_dominating(g, ms.witness)
        # no dominating set of the same size is lexicographically earlier
        for combo in itertools.combinations(range(6), ms.value):
            if list(combo) < ms.witness.indices():
                assert not is_dominating(g, vs(g, *combo))

    def test_gamma_g_at_least_gamma(self):
        for g in (path(5), cycle(6), complete(3)):
            assert gamma_g(g).value >= gamma(g).value


class TestMinimalGds:
    def test_shrinks_to_minimal(self):
        g = path(5)
        out = minimal_gds_within(g, VertexSet.full(5))
        rep = is_global_dominating(g, out)
        assert rep.is_global
        for v in out:
            assert not is_global_dominating(g, out.without_vertex(v)).is_global

    def test_rejects_non_gds(self):
        g = path(5)
        with pytest.raises(NotGlobalDominatingError):
            minimal_gds_within(g, vs(g, 0))

    def test_deterministic(self):
        g = cycle(6)
        a = minimal_gds_within(g, VertexSet.full(6))
        b = minimal_gds_within(g, VertexSet.full(6))
        assert a == b


class TestGlobalDomatic:
    def test_c4_splits_in_two(self):
        w = global_domatic(cycle(4))
        assert w.k == 2
        assert sorted(c.indices() for c in w.classes) == [[0, 1], [2, 3]]

    def test_classes_are_gds(self):
        for g in (path(6), cycle(5), complete(3)):
            w = global_domatic(g)
            for c in w.classes:
                assert is_global_dominating(g, c).is_global

    def test_upper_bound_respected(self):
        for g in (path(7), cycle(8)):
            assert global_domatic(g).k <= g.n // gamma_g(g).value

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 6), st.data())
    def test_exhaustive_agreement(self, n, data):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        g = from_edge_list(n, data.draw(st.lists(st.sampled_from(pairs), unique=True)))
        w = global_domatic(g)
        # brute force over all partitions in restricted-growth order: the
        # witness is the first one into w.k GDS classes, and none has w.k + 1
        # (so none has more: a union of GDS classes is one)
        def gds_partitions(k):
            return (
                c for c in set_partitions(n)
                if len(c) == k and all(
                    is_global_dominating(g, VertexSet.from_indices(n, m)).is_global for m in c
                )
            )

        first = next(gds_partitions(w.k))
        assert [sorted(m) for m in first] == [c.indices() for c in w.classes]
        assert next(gds_partitions(w.k + 1), None) is None
