"""Shared fixtures: cached exact solves and graph corpora."""

from __future__ import annotations

import pytest

from gcoalition import max_partition, to_graph6
from gcoalition.families import connected_graphs, enumerate_trees


@pytest.fixture(scope="session")
def solve():
    """Session-wide memoized exact solver: solve(graph, kind) -> SolveResult."""
    cache = {}

    def _solve(g, kind):
        key = (to_graph6(g), kind)
        if key not in cache:
            cache[key] = max_partition(g, kind)
        return cache[key]

    return _solve


@pytest.fixture(scope="session")
def corpus7():
    """All connected graphs with 1 <= n <= 7 (996 isomorphism classes)."""
    return [g for n in range(1, 8) for g in connected_graphs(n)]


@pytest.fixture(scope="session")
def corpus8():
    """All connected graphs with n = 8 (11117 isomorphism classes)."""
    return connected_graphs(8)


@pytest.fixture(scope="session")
def trees13():
    return list(enumerate_trees(13))


@pytest.fixture(scope="session")
def gc_witness_store():
    """Witness partitions collected by the family-table acceptance tests and
    audited for the partner bound afterwards: list of (graph, Partition)."""
    return []
