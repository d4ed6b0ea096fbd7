"""The predicate layer: mask predicates and the per-graph tables of them."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from gcoalition import from_edge_list
from gcoalition.tables import TABLE_MAX_N, Tables, at_most_one, dominates, is_gds, perfect

from .reference import ReferenceSolver

PREDICATES = {"dom": dominates, "gds": is_gds, "perf": perfect}


@st.composite
def graphs(draw, max_n=10):
    n = draw(st.integers(2, max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return from_edge_list(n, draw(st.lists(st.sampled_from(pairs), unique=True)))


def _vertex_set(mask, n):
    return frozenset(v for v in range(n) if mask >> v & 1)


def _assert_tables_match(g, masks):
    t = Tables(g)
    for name, pred in PREDICATES.items():
        table = getattr(t, name)
        for m in masks:
            assert bool(table[m]) == pred(g, m), (name, m)


@settings(max_examples=30, deadline=None)
@given(graphs())
def test_tables_equal_mask_predicates(g):
    _assert_tables_match(g, range(1 << g.n))


@settings(max_examples=30, deadline=None)
@given(graphs(max_n=8))
def test_mask_predicates_match_set_reference(g):
    ref = ReferenceSolver(g)
    for m in range(1 << g.n):
        s = _vertex_set(m, g.n)
        assert dominates(g, m) == ref.dominates(s)
        assert is_gds(g, m) == ref.is_gds(s)
        assert at_most_one(g, m) == ref.at_most_one(s)
        assert perfect(g, m) == ref.perfect(s)


@settings(max_examples=30, deadline=None)
@given(graphs())
def test_gds_dominates_g_and_materialized_complement(g):
    c = g.complement()
    for m in range(1 << g.n):
        assert is_gds(g, m) == (dominates(g, m) and dominates(c, m))


def test_memo_tables_above_cutoff():
    rng = random.Random(17)
    n = TABLE_MAX_N + 1
    g = from_edge_list(n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.2])
    masks = [
        sum(1 << v for v in range(n) if rng.random() < density)
        for density in (0.1, 0.2, 0.3, 0.5)
        for _ in range(400)
    ]
    # the first pass fills the memo, the second reads from it
    _assert_tables_match(g, masks + masks)
    t = Tables(g)
    for name in ("dom", "gds"):
        assert {bool(getattr(t, name)[m]) for m in masks} == {False, True}
