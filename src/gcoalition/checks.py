"""Theorem sweep driver: generate instances, solve exactly, compare.

Every check emits one row per instance with status ``pass``, ``fail``,
``finding`` (an inferred generator disagreeing with its closed form, flagged
for human review rather than failing), or ``inconclusive`` (solver budget
exhausted).  Row order is sorted by instance key so reports are
deterministic.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import asdict, dataclass
from typing import Callable, Optional

from .coalition import count_gc_partners, gc_partner_bound, verify_partition
from .domination import global_domatic
from .families import (
    LowerBound,
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
from .graph import Diam4, DoubleStarClass, PathFour, Star
from .graphio import to_graph6
from .solvers import (
    construct_center_partition,
    construct_gc_from_domatic,
    max_partition,
)


@dataclass(frozen=True)
class CheckRow:
    check: str
    instance: str
    expected: str
    actual: str
    status: str  # pass | fail | finding | inconclusive
    detail: str = ""


def _row(check, instance, expected, actual, ok, detail="", soft=False):
    if ok:
        status = "pass"
    else:
        status = "finding" if soft else "fail"
    return CheckRow(check, instance, str(expected), str(actual), status, detail)


def _formula_rows(check: str, specs, budget, soft=False) -> list[CheckRow]:
    rows = []
    for g_spec in specs:
        g = generate(g_spec)
        expected = closed_form_gc(g_spec)
        res = max_partition(g, "gc", budget)
        if not res.exact:
            rows.append(CheckRow(check, str(g_spec), str(expected), f">={res.value}",
                                 "inconclusive", "budget exhausted"))
            continue
        if isinstance(expected, LowerBound):
            ok = res.value >= expected.value
            exp_str = f">={expected.value}"
        else:
            ok = res.value == expected
            exp_str = str(expected)
        detail = "" if ok else f"graph6={to_graph6(g)}"
        rows.append(_row(check, str(g_spec), exp_str, res.value, ok, detail, soft))
    return rows


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


def check_gc_rad2_trees(max_n=11, budget=None):
    """Radius-2 tree values against the classified closed forms."""
    rows = []
    for g in enumerate_trees(min(max_n, 11)):
        if g.n < 2 or metrics(g).radius > 2:
            continue
        shape = classify_radius2_tree(g)
        if isinstance(shape, Star):
            expected = g.n
        elif isinstance(shape, PathFour):
            expected = 4
        elif isinstance(shape, DoubleStarClass):
            expected = 4 if shape.p == shape.q == 1 else shape.p + 2
        elif isinstance(shape, Diam4):
            expected = shape.ell + 2
        else:  # pragma: no cover
            continue
        res = max_partition(g, "gc", budget)
        key = f"tree:{to_graph6(g)}"
        if not res.exact:
            rows.append(CheckRow("gc_rad2_trees", key, str(expected), f">={res.value}",
                                 "inconclusive", "budget exhausted"))
            continue
        rows.append(_row("gc_rad2_trees", key, expected, res.value, res.value == expected))
    return rows


def check_partner_bound(max_n=7, budget=None):
    """Partner counts on solver witnesses respect the degree/order bound."""
    rows = []
    for n in range(2, min(max_n, 7) + 1):
        for g in connected_graphs(n):
            res = max_partition(g, "gc", budget)
            if res.witness is None:
                continue
            bad = []
            for i, vs in enumerate(res.witness.classes):
                bound = gc_partner_bound(g, vs)
                cnt = count_gc_partners(g, res.witness, i)
                if cnt > bound:
                    bad.append((i, cnt, bound))
            rows.append(_row("partner_bound", f"g6:{to_graph6(g)}",
                             "partners<=bound", "ok" if not bad else str(bad), not bad))
    # sharpness on the k=4 sharpness graph: the middle class meets the bound
    if max_n >= 9:
        g_spec = spec("gk", 4)
        g = generate(g_spec)
        p = proof_partition(g_spec)
        vblock = p.classes[1]
        bound = gc_partner_bound(g, vblock)
        cnt = count_gc_partners(g, p, 1)
        rows.append(_row("partner_bound", str(g_spec), f"partners=={bound}", cnt, cnt == bound))
    return rows


def check_gc_ge_2dg(max_n=7, budget=None):
    """Constructed partition from a maximum global domatic partition."""
    rows = []
    for n in range(2, min(max_n, 8) + 1):
        for g in connected_graphs(n):
            dg = global_domatic(g).k
            part = construct_gc_from_domatic(g)
            verdict = verify_partition(g, part, "gc")
            ok = verdict.valid and len(part) >= 2 * dg
            detail = "" if ok else f"graph6={to_graph6(g)} classes={part.to_lists()}"
            rows.append(_row("gc_ge_2dg", f"g6:{to_graph6(g)}",
                             f"valid,k>={2 * dg}", f"valid={verdict.valid},k={len(part)}",
                             ok, detail))
    return rows


def _rad3_corpus(max_n: int):
    """Enumerable connected graphs of radius >= 3 (full corpus through n=8,
    then trees / unicyclic / sparse girth->=6 graphs up to max_n)."""
    seen = set()
    out = []

    def push(g):
        m = metrics(g)
        if not m.connected or m.radius < 3:
            return
        key = to_graph6(g)
        if key not in seen:
            seen.add(key)
            out.append((key, g))

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
    return out


def check_gc_eq_c_rad3(max_n=9, budget=None):
    rows = []
    for key, g in _rad3_corpus(max_n):
        gc = max_partition(g, "gc", budget)
        c = max_partition(g, "c", budget)
        if not (gc.exact and c.exact):
            rows.append(CheckRow("gc_eq_c_rad3", f"g6:{key}", "GC=C", "?",
                                 "inconclusive", "budget exhausted"))
            continue
        rows.append(_row("gc_eq_c_rad3", f"g6:{key}", "GC=C",
                         f"GC={gc.value},C={c.value}", gc.value == c.value,
                         "" if gc.value == c.value else f"graph6={key}"))
    return rows


def check_gc_eq_c_girth6(max_n=9, budget=None):
    rows = []
    for g in girth_at_least_6_graphs(max_n):
        key = to_graph6(g)
        gc = max_partition(g, "gc", budget)
        c = max_partition(g, "c", budget)
        if not (gc.exact and c.exact):
            rows.append(CheckRow("gc_eq_c_girth6", f"g6:{key}", "GC=C", "?",
                                 "inconclusive", "budget exhausted"))
            continue
        rows.append(_row("gc_eq_c_girth6", f"g6:{key}", "GC=C",
                         f"GC={gc.value},C={c.value}", gc.value == c.value,
                         "" if gc.value == c.value else f"graph6={key}"))
    return rows


def check_gc_vs_prc(max_n=7, budget=None):
    """On full-vertex-free connected graphs: GC >= PRC and GC=n <=> PRC=n."""
    rows = []
    for n in range(2, min(max_n, 8) + 1):
        for g in connected_graphs(n):
            if g.full_vertices().bits:
                continue
            gc = max_partition(g, "gc", budget)
            prc = max_partition(g, "prc", budget)
            if not (gc.exact and prc.exact):
                rows.append(CheckRow("gc_vs_prc", f"g6:{to_graph6(g)}", "", "?",
                                     "inconclusive", "budget exhausted"))
                continue
            ok = gc.value >= prc.value and (gc.value == g.n) == (prc.value == g.n)
            rows.append(_row("gc_vs_prc", f"g6:{to_graph6(g)}",
                             "GC>=PRC and GC=n<=>PRC=n",
                             f"GC={gc.value},PRC={prc.value},n={g.n}", ok,
                             "" if ok else f"graph6={to_graph6(g)}"))
    return rows


def check_gc_complement(max_n=7, budget=None):
    rows = []
    for n in range(2, min(max_n, 8) + 1):
        for g in connected_graphs(n):
            gc = max_partition(g, "gc", budget)
            gcc = max_partition(g.complement(), "gc", budget)
            if not (gc.exact and gcc.exact):
                rows.append(CheckRow("gc_complement", f"g6:{to_graph6(g)}", "", "?",
                                     "inconclusive", "budget exhausted"))
                continue
            ok = gc.value == gcc.value
            rows.append(_row("gc_complement", f"g6:{to_graph6(g)}", "GC(G)=GC(co-G)",
                             f"{gc.value}/{gcc.value}", ok,
                             "" if ok else f"graph6={to_graph6(g)}"))
    return rows


def _unicyclic_specs(max_n: int):
    out = []

    def grid(tag, arity, base):
        budget_n = max_n - base
        if arity == 0:
            if base <= max_n:
                out.append(spec(tag))
            return
        ranges = range(1, budget_n + 1)
        if arity == 1:
            out.extend(spec(tag, a) for a in ranges if base + a <= max_n)
        elif arity == 2:
            out.extend(spec(tag, a, b) for a in ranges for b in ranges if base + a + b <= max_n)
        else:
            out.extend(
                spec(tag, a, b, c)
                for a in ranges for b in ranges for c in ranges
                if base + a + b + c <= max_n
            )

    grid("u5_1", 1, 5)
    grid("u5_2", 2, 5)
    grid("u5_3", 3, 5)
    grid("u5_4", 2, 5)
    grid("u4_1", 1, 4)
    grid("u4_2", 2, 4)
    grid("u4_3", 2, 4)
    grid("u3_1", 1, 3)
    grid("u3_2", 2, 3)
    grid("u3_3", 3, 3)
    grid("u3_10", 0, 5)
    grid("u3_14", 1, 5)
    return out


def check_unicyclic_exact(max_n=11, budget=None):
    """Inferred unicyclic generators vs their closed forms (soft rows)."""
    return _formula_rows("unicyclic_exact", _unicyclic_specs(min(max_n, 11)), budget, soft=True)


def check_center_bound_unicyclic(max_n=9, budget=None):
    """Center-neighborhood partitions on radius-<=2 unicyclic graphs."""
    rows = []
    for cl in (3, 4, 5):
        for g in enumerate_unicyclic(cl, min(max_n, 9), radius_cap=2):
            key = f"g6:{to_graph6(g)}"
            m = metrics(g)
            valid_sizes = []
            for a in m.central_vertices():
                part = construct_center_partition(g, a)
                if verify_partition(g, part, "gc").valid:
                    valid_sizes.append(len(part))
            if not valid_sizes:
                rows.append(CheckRow(f"center_bound_unicyclic_c{cl}", key,
                                     "valid center partition", "none valid", "pass",
                                     "bound not asserted"))
                continue
            res = max_partition(g, "gc", budget)
            if not res.exact:
                rows.append(CheckRow(f"center_bound_unicyclic_c{cl}", key, "", "?",
                                     "inconclusive", "budget exhausted"))
                continue
            need = max(valid_sizes)
            rows.append(_row(f"center_bound_unicyclic_c{cl}", key,
                             f"GC>={need}", res.value, res.value >= need,
                             "" if res.value >= need else f"graph6={to_graph6(g)}"))
    return rows


def check_prc_full(max_n=6, budget=None):
    """Complete-bipartite-minus-matching families attain PRC = n."""
    rows = []
    specs = [spec("t1", r) for r in (2, 3) if 2 * r <= max_n]
    specs += [
        spec("t2", r, s, mu)
        for r in (2, 3) for s in (2, 3) for mu in range(min(r, s))
        if r + s <= max_n
    ]
    for g_spec in specs:
        g = generate(g_spec)
        res = max_partition(g, "prc", budget)
        if not res.exact:
            rows.append(CheckRow("prc_full", str(g_spec), str(g.n), f">={res.value}",
                                 "inconclusive", "budget exhausted"))
            continue
        rows.append(_row("prc_full", str(g_spec), g.n, res.value, res.value == g.n))
    return rows


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


def rows_to_json(rows) -> str:
    return json.dumps([asdict(r) for r in rows], indent=2, sort_keys=True)


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
