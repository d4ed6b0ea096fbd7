"""Theorem sweep driver: registry, row statuses, report emission."""

import csv
import io

import pytest

from gcoalition import checks

from .reference import reference_certificate


class TestRegistry:
    def test_unknown_name(self):
        with pytest.raises(KeyError):
            checks.check_theorem("nope")

    def test_rad3_instances_are_pairwise_non_isomorphic(self):
        # the corpus meets some classes in two enumerators, under different
        # labellings, and keeps one graph of each
        certs = [reference_certificate(g) for g in checks._rad3_corpus(9)]
        assert len(set(certs)) == len(certs)

    def test_rows_sorted(self):
        rows = checks.check_theorem("gc_cycles", max_n=8)
        keys = [(r.check, r.instance) for r in rows]
        assert keys == sorted(keys)

    def test_paths_all_pass(self):
        rows = checks.check_theorem("gc_paths", max_n=8)
        assert rows and all(r.status == "pass" for r in rows)

    def test_bipartite_all_pass(self):
        rows = checks.check_theorem("gc_bipartite", max_n=6)
        assert rows and all(r.status == "pass" for r in rows)

    def test_partner_bound_small(self):
        rows = checks.check_theorem("partner_bound", max_n=5)
        assert rows and all(r.status == "pass" for r in rows)

    def test_unicyclic_findings_are_soft(self):
        rows = checks.check_theorem("unicyclic_exact", max_n=6)
        assert all(r.status in ("pass", "finding") for r in rows)
        # the inferred triangle-with-tail shape disagrees with its formula
        u310 = [r for r in rows if r.instance == "u3_10"]
        assert u310 and u310[0].status == "finding"

    def test_center_bound_rows(self):
        rows = checks.check_theorem("center_bound_unicyclic", max_n=6)
        assert rows and all(r.status == "pass" for r in rows)

    def test_prc_full(self):
        rows = checks.check_theorem("prc_full", max_n=6)
        assert rows and all(r.status == "pass" for r in rows)

    def test_budget_exhaustion_inconclusive(self):
        rows = checks.check_theorem("gc_paths", max_n=8, budget=10)
        # tiny instances finish inside even a 10-node budget; larger ones
        # must come back inconclusive, never as a false pass/fail
        assert any(r.status == "inconclusive" for r in rows)
        assert all(r.status in ("pass", "inconclusive") for r in rows)


@pytest.mark.parametrize("name", sorted(checks.REGISTRY))
def test_inconclusive_rows_are_uniform(name):
    full = {(r.check, r.instance): r for r in checks.check_theorem(name, max_n=6)}
    small = checks.check_theorem(name, max_n=6, budget=30)
    # an undecided instance reads inconclusive; it never drops out
    assert {(r.check, r.instance) for r in small} == set(full)
    for r in small:
        ref = full[(r.check, r.instance)]
        if r.status == "inconclusive":
            assert r.detail == "budget exhausted"
            assert r.expected == ref.expected
        else:
            assert r.status == ref.status


class TestReports:
    def test_csv_shape(self):
        rows = checks.check_theorem("gc_complete", max_n=5)
        text = checks.rows_to_csv(rows)
        parsed = list(csv.reader(io.StringIO(text)))
        assert parsed[0] == ["check", "instance", "expected", "actual", "status", "detail"]
        assert len(parsed) == len(rows) + 1

    def test_worst_status_ordering(self):
        mk = lambda s: checks.CheckRow("x", "i", "e", "a", s)
        assert checks.worst_status([]) == "pass"
        assert checks.worst_status([mk("pass"), mk("finding")]) == "finding"
        assert checks.worst_status([mk("inconclusive"), mk("fail")]) == "fail"
