"""Branch-and-bound solver and the constructive procedures."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcoalition import (
    Partition,
    TrivialGraphError,
    construct_center_partition,
    construct_gc_from_domatic,
    from_edge_list,
    global_domatic,
    max_partition,
    verify_partition,
)
from gcoalition.families import generate, spec

from .reference import ReferenceSolver, set_partitions
from .test_tables import graphs


def path(n):
    return from_edge_list(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n):
    return from_edge_list(n, [(i, (i + 1) % n) for i in range(n)])


class TestKnownValues:
    @pytest.mark.parametrize("n,expected", [(2, 2), (3, 3), (4, 4), (5, 4), (6, 5), (9, 5), (10, 6)])
    def test_gc_paths(self, n, expected):
        assert max_partition(path(n), "gc").value == expected

    @pytest.mark.parametrize("n,expected", [(3, 2), (4, 4), (5, 4), (6, 6), (7, 5), (8, 6)])
    def test_gc_cycles(self, n, expected):
        assert max_partition(cycle(n), "gc").value == expected

    def test_three_kinds_differ_where_expected(self):
        g = generate(spec("complete", 4))
        assert max_partition(g, "gc").value == 2
        # every class of K_n is dominating, so only singleton-exempt classes
        # survive: the singleton partition is a valid c-partition
        assert max_partition(g, "c").value == 4


class TestWitnesses:
    def test_witness_verifies(self):
        for g in (path(6), cycle(7)):
            for kind in ("gc", "c", "prc"):
                res = max_partition(g, kind)
                if res.value:
                    assert verify_partition(g, res.witness, kind).valid
                    assert len(res.witness) == res.value

    @staticmethod
    def _rgs(classes, n):
        """Restricted-growth string of a partition given as lists."""
        owner = {}
        for ci, c in enumerate(sorted(classes, key=min)):
            for v in c:
                owner[v] = ci
        return tuple(owner[v] for v in range(n))

    def test_witness_is_lex_least_rgs(self):
        for g in (path(5), cycle(5), cycle(6)):
            for kind in ("gc", "c", "prc"):
                res = max_partition(g, kind)
                best, optima = ReferenceSolver(g).all_optima(kind)
                assert res.value == best and res.exact
                if best:
                    got = self._rgs(res.witness.to_lists(), g.n)
                    assert got == min(self._rgs(o, g.n) for o in optima)

    @settings(max_examples=200, deadline=None)
    @given(graphs(max_n=8), st.sampled_from(["gc", "c", "prc"]))
    def test_matches_brute_force(self, g, kind):
        # the partner rule prunes interior nodes, so a cut valid leaf would
        # lower the value or move the witness past the first valid partition
        # of that size in set_partitions (restricted-growth) order
        res = max_partition(g, kind)
        ref = ReferenceSolver(g)
        assert res.value == ref.max_value(kind) and res.exact
        first = next(
            (c for c in set_partitions(g.n) if len(c) == res.value and ref.valid(c, kind)),
            None,
        )
        if res.value:
            assert res.witness.to_lists() == [sorted(c) for c in first]
        else:
            assert res.witness is None

    def test_all_exempt_singletons(self):
        # both vertices of K2 dominate, so the singleton partition is valid
        # for the exempting kinds purely through the exemption rule
        g = from_edge_list(2, [(0, 1)])
        assert max_partition(g, "prc").value == 2
        assert max_partition(g, "c").value == 2


class TestBudget:
    def test_budget_exhaustion_flags_inexact(self):
        res = max_partition(path(8), "gc", budget=50)
        assert not res.exact
        assert res.nodes_explored >= 50

    def test_trivial_graph(self):
        with pytest.raises(TrivialGraphError):
            max_partition(from_edge_list(1, []), "gc")

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            max_partition(path(3), "zz")


class TestCenterConstruction:
    def test_path5_center(self):
        g = path(5)
        p = construct_center_partition(g, 2)
        assert p.to_lists() == [[1, 3], [0], [2], [4]]

    def test_wheel_hub_suboptimal_but_valid(self):
        g = generate(spec("wheel", 5))
        p = construct_center_partition(g, 0)  # hub: N(hub) = whole rim
        assert len(p) == 2
        # the rim is not a GDS (the hub is isolated in the complement), so
        # rim and hub form a valid 2-class partition, far below GC(W5) = 4
        assert verify_partition(g, p, "gc").valid
        assert max_partition(g, "gc").value == 4

    def test_vertex_range(self):
        with pytest.raises(ValueError):
            construct_center_partition(path(3), 7)


class TestDomaticConstruction:
    def test_valid_and_large_enough(self):
        for g in (path(6), cycle(4), cycle(7), generate(spec("bipartite", 2, 3))):
            dg = global_domatic(g).k
            p = construct_gc_from_domatic(g)
            assert verify_partition(g, p, "gc").valid
            assert len(p) >= 2 * dg

    def test_trivial_graph(self):
        with pytest.raises(TrivialGraphError):
            construct_gc_from_domatic(from_edge_list(1, []))

    def test_is_partition(self):
        p = construct_gc_from_domatic(cycle(6))
        assert isinstance(p, Partition)
