"""Theorem sweep driver: generate instances, solve exactly, compare.

Every check emits one row per instance with one of four statuses: ``pass``;
``fail`` (the claim is false there; the detail is ``graph6=...``);
``finding`` (an INFERRED unicyclic shape disagrees with its closed form,
flagged for human review rather than failing); or ``inconclusive`` (a solve
ran out of node budget: the row keeps its ``expected``, its ``actual`` is
``>=v`` for a single solve and ``?`` for two, and its detail is ``budget
exhausted``).  Rows are sorted by instance key so reports are deterministic.
``gcoalition check`` exits 0 on pass or finding, 2 on fail and 3 on
inconclusive (the worst row decides).
"""

from __future__ import annotations

import csv
import io
import itertools
from dataclasses import dataclass
from typing import Callable, Optional

from .coalition import count_gc_partners, gc_partner_bound, verify_partition
from .domination import global_domatic
from .families import (
    UNICYCLIC_SHAPES,
    closed_form_gc,
    connected_graphs,
    enumerate_trees,
    enumerate_unicyclic,
    generate,
    girth_at_least_6_graphs,
    proof_partition,
    spec,
)
from .graph import classify_radius2_tree, metrics
from .graph import Diam4, DoubleStarClass, Star
from .graphio import to_graph6
from .iso import canonical_hash
from .solvers import _gc_from_domatic, construct_center_partition, max_partition


@dataclass(frozen=True)
class CheckRow:
    check: str
    instance: str
    expected: str
    actual: str
    status: str  # pass | fail | finding | inconclusive
    detail: str = ""


def _sweep(check: str, cases, budget, soft=False) -> list[CheckRow]:
    """One row per case ``(instance, graph, expected, solves, judge)``.

    ``solves`` lists the ``(graph, kind)`` pairs to solve exactly and
    ``judge(*results)`` reads their ``SolveResult`` records and returns
    ``(actual, ok)``.  A row whose solves do not all finish inside
    ``budget`` is inconclusive, with the same ``expected`` and ``actual``
    ``>=v`` for a single solve (``?`` otherwise).  A row that is not ok is a
    fail, or a finding when ``soft``.
    """
    rows = []
    for instance, g, expected, solves, judge in cases:
        results = [max_partition(h, kind, budget) for h, kind in solves]
        if not all(r.exact for r in results):
            actual = f">={results[0].value}" if len(results) == 1 else "?"
            rows.append(CheckRow(check, instance, expected, actual,
                                 "inconclusive", "budget exhausted"))
            continue
        actual, ok = judge(*results)
        status = "pass" if ok else "finding" if soft else "fail"
        rows.append(CheckRow(check, instance, expected, str(actual), status,
                             "" if ok else f"graph6={to_graph6(g)}"))
    return rows


def _value_case(instance: str, g, kind: str, expected: int):
    """A case asserting that the exact ``kind`` value of ``g`` is ``expected``."""
    return instance, g, str(expected), [(g, kind)], lambda r: (r.value, r.value == expected)


def _formula_rows(check: str, specs, budget, soft=False) -> list[CheckRow]:
    cases = (_value_case(str(s), generate(s), "gc", closed_form_gc(s)) for s in specs)
    return _sweep(check, cases, budget, soft)


def check_gc_paths(max_n=12, budget=None):
    return _formula_rows("gc_paths", [spec("path", n) for n in range(2, min(max_n, 12) + 1)], budget)


def check_gc_cycles(max_n=12, budget=None):
    return _formula_rows("gc_cycles", [spec("cycle", n) for n in range(3, min(max_n, 12) + 1)], budget)


def check_gc_complete(max_n=10, budget=None):
    return _formula_rows("gc_complete", [spec("complete", n) for n in range(2, min(max_n, 10) + 1)], budget)


def check_gc_bipartite(max_n=10, budget=None):
    cap = min(max_n, 10)
    specs = [
        spec("bipartite", a, b)
        for a in range(1, cap)
        for b in range(a, cap)
        if a + b <= cap
    ]
    return _formula_rows("gc_bipartite", specs, budget)


def check_gc_wheels(max_n=10, budget=None):
    return _formula_rows("gc_wheels", [spec("wheel", n) for n in range(3, min(max_n - 1, 9) + 1)], budget)


def check_gc_fans(max_n=10, budget=None):
    return _formula_rows("gc_fans", [spec("fan", n) for n in range(2, min(max_n - 1, 9) + 1)], budget)


def _rad2_tree_gc(g) -> int:
    """Closed-form GC of a tree of radius at most 2, by its shape."""
    shape = classify_radius2_tree(g)
    if isinstance(shape, Star):
        return g.n
    if isinstance(shape, Diam4):
        return shape.ell + 2
    if isinstance(shape, DoubleStarClass) and (shape.p, shape.q) != (1, 1):
        return shape.p + 2
    return 4  # the four-vertex path


def check_gc_rad2_trees(max_n=11, budget=None):
    """Radius-2 tree values against the classified closed forms."""
    cases = (
        _value_case(f"tree:{to_graph6(g)}", g, "gc", _rad2_tree_gc(g))
        for g in enumerate_trees(min(max_n, 11))
        if g.n >= 2 and metrics(g).radius <= 2
    )
    return _sweep("gc_rad2_trees", cases, budget)


def _small_connected(max_n: int):
    return (g for n in range(2, min(max_n, 8) + 1) for g in connected_graphs(n))


def _partner_judge(g, res):
    """Classes of the solver witness with more partners than their bound."""
    bad = []
    for i, vs in enumerate(res.witness.classes):
        bound = gc_partner_bound(g, vs)
        cnt = count_gc_partners(g, res.witness, i)
        if cnt > bound:
            bad.append((i, cnt, bound))
    return (str(bad) if bad else "ok"), not bad


def check_partner_bound(max_n=7, budget=None):
    """Partner counts on solver witnesses respect the degree/order bound."""
    cases = (
        (f"g6:{to_graph6(g)}", g, "partners<=bound", [(g, "gc")],
         lambda res, g=g: _partner_judge(g, res))
        for n in range(2, min(max_n, 7) + 1)
        for g in connected_graphs(n)
    )
    rows = _sweep("partner_bound", cases, budget)
    # sharpness on the k=4 sharpness graph: the middle class meets the bound
    if max_n >= 9:
        g_spec = spec("gk", 4)
        g = generate(g_spec)
        p = proof_partition(g_spec)
        bound = gc_partner_bound(g, p.classes[1])
        cnt = count_gc_partners(g, p, 1)
        rows.append(CheckRow("partner_bound", str(g_spec), f"partners=={bound}", str(cnt),
                             "pass" if cnt == bound else "fail"))
    return rows


def check_gc_ge_2dg(max_n=7, budget=None):
    """Constructed partition from a maximum global domatic partition."""
    rows = []
    for g in _small_connected(max_n):
        witness = global_domatic(g)
        dg = witness.k
        part = _gc_from_domatic(g, witness)
        verdict = verify_partition(g, part, "gc")
        ok = verdict.valid and len(part) >= 2 * dg
        rows.append(CheckRow("gc_ge_2dg", f"g6:{to_graph6(g)}", f"valid,k>={2 * dg}",
                             f"valid={verdict.valid},k={len(part)}", "pass" if ok else "fail",
                             "" if ok else f"graph6={to_graph6(g)} classes={part.to_lists()}"))
    return rows


def _rad3_corpus(max_n: int):
    """Enumerable connected graphs of radius >= 3 (full corpus through n=8,
    then trees / unicyclic / sparse girth->=6 graphs up to max_n)."""
    out = {}  # certificate -> graph, in first-seen order

    def push(g):
        m = metrics(g)
        if m.connected and m.radius >= 3:
            out.setdefault(canonical_hash(g), g)

    for n in range(1, min(max_n, 8) + 1):
        for g in connected_graphs(n):
            push(g)
    if max_n > 8:
        for g in enumerate_trees(max_n):
            push(g)
        for cl in range(3, max_n + 1):
            for g in enumerate_unicyclic(cl, max_n, radius_cap=None):
                push(g)
        for g in girth_at_least_6_graphs(max_n):
            push(g)
    return list(out.values())


def _gc_eq_c(check: str, graphs, budget):
    cases = (
        (f"g6:{to_graph6(g)}", g, "GC=C", [(g, "gc"), (g, "c")],
         lambda gc, c: (f"GC={gc.value},C={c.value}", gc.value == c.value))
        for g in graphs
    )
    return _sweep(check, cases, budget)


def check_gc_eq_c_rad3(max_n=9, budget=None):
    return _gc_eq_c("gc_eq_c_rad3", _rad3_corpus(max_n), budget)


def check_gc_eq_c_girth6(max_n=9, budget=None):
    return _gc_eq_c("gc_eq_c_girth6", girth_at_least_6_graphs(max_n), budget)


def check_gc_vs_prc(max_n=7, budget=None):
    """On full-vertex-free connected graphs: GC >= PRC and GC=n <=> PRC=n."""
    cases = (
        (f"g6:{to_graph6(g)}", g, "GC>=PRC and GC=n<=>PRC=n", [(g, "gc"), (g, "prc")],
         lambda gc, prc, n=g.n: (f"GC={gc.value},PRC={prc.value},n={n}",
                                 gc.value >= prc.value and (gc.value == n) == (prc.value == n)))
        for g in _small_connected(max_n)
        if not g.full_vertices().bits
    )
    return _sweep("gc_vs_prc", cases, budget)


def check_gc_complement(max_n=7, budget=None):
    cases = (
        (f"g6:{to_graph6(g)}", g, "GC(G)=GC(co-G)", [(g, "gc"), (g.complement(), "gc")],
         lambda gc, gcc: (f"{gc.value}/{gcc.value}", gc.value == gcc.value))
        for g in _small_connected(max_n)
    )
    return _sweep("gc_complement", cases, budget)


def _unicyclic_specs(max_n: int):
    return [
        spec(tag, *counts)
        for tag, (cycle_len, tail, supports) in UNICYCLIC_SHAPES.items()
        for counts in itertools.product(range(1, max_n + 1), repeat=len(supports))
        if cycle_len + len(tail) + sum(counts) <= max_n
    ]


def check_unicyclic_exact(max_n=11, budget=None):
    """Inferred unicyclic generators vs their closed forms (soft rows)."""
    return _formula_rows("unicyclic_exact", _unicyclic_specs(min(max_n, 11)), budget, soft=True)


def check_center_bound_unicyclic(max_n=9, budget=None):
    """Center-neighborhood partitions on radius-<=2 unicyclic graphs."""
    rows = []
    for cl in (3, 4, 5):
        check = f"center_bound_unicyclic_c{cl}"
        cases = []
        for g in enumerate_unicyclic(cl, min(max_n, 9), radius_cap=2):
            key = f"g6:{to_graph6(g)}"
            parts = (construct_center_partition(g, a) for a in metrics(g).central_vertices())
            sizes = [len(p) for p in parts if verify_partition(g, p, "gc").valid]
            if not sizes:
                rows.append(CheckRow(check, key, "valid center partition", "none valid",
                                     "pass", "bound not asserted"))
                continue
            need = max(sizes)
            cases.append((key, g, f"GC>={need}", [(g, "gc")],
                          lambda r, need=need: (r.value, r.value >= need)))
        rows += _sweep(check, cases, budget)
    return rows


def check_prc_full(max_n=6, budget=None):
    """Complete-bipartite-minus-matching families attain PRC = n."""
    specs = [spec("t1", r) for r in (2, 3) if 2 * r <= max_n]
    specs += [
        spec("t2", r, s, mu)
        for r in (2, 3) for s in (2, 3) for mu in range(min(r, s))
        if r + s <= max_n
    ]
    graphs = ((s, generate(s)) for s in specs)
    cases = (_value_case(str(s), g, "prc", g.n) for s, g in graphs)
    return _sweep("prc_full", cases, budget)


REGISTRY: dict[str, Callable] = {
    "gc_paths": check_gc_paths,
    "gc_cycles": check_gc_cycles,
    "gc_complete": check_gc_complete,
    "gc_bipartite": check_gc_bipartite,
    "gc_wheels": check_gc_wheels,
    "gc_fans": check_gc_fans,
    "gc_rad2_trees": check_gc_rad2_trees,
    "partner_bound": check_partner_bound,
    "gc_ge_2dg": check_gc_ge_2dg,
    "gc_eq_c_rad3": check_gc_eq_c_rad3,
    "gc_eq_c_girth6": check_gc_eq_c_girth6,
    "gc_vs_prc": check_gc_vs_prc,
    "gc_complement": check_gc_complement,
    "unicyclic_exact": check_unicyclic_exact,
    "center_bound_unicyclic": check_center_bound_unicyclic,
    "prc_full": check_prc_full,
}


def check_theorem(name: str, max_n: Optional[int] = None, budget: Optional[int] = None):
    """Run one registered theorem sweep; rows come back sorted by instance."""
    if name not in REGISTRY:
        raise KeyError(f"unknown theorem check {name!r}")
    kwargs = {}
    if max_n is not None:
        kwargs["max_n"] = max_n
    rows = REGISTRY[name](budget=budget, **kwargs)
    return sorted(rows, key=lambda r: (r.check, r.instance))


def run_all(max_n: Optional[int] = None, budget: Optional[int] = None):
    rows = []
    for name in sorted(REGISTRY):
        rows.extend(check_theorem(name, max_n=max_n, budget=budget))
    return rows


def rows_to_csv(rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["check", "instance", "expected", "actual", "status", "detail"])
    for r in rows:
        writer.writerow([r.check, r.instance, r.expected, r.actual, r.status, r.detail])
    return buf.getvalue()


def worst_status(rows) -> str:
    order = {"pass": 0, "finding": 1, "inconclusive": 2, "fail": 3}
    if not rows:
        return "pass"
    return max((r.status for r in rows), key=order.__getitem__)
