"""Acceptance gate: thirteen criteria, one pass/fail line each.

Each test prints an ``ACCEPTANCE nn <name>: PASS|FAIL`` line.  Criterion 4
carries a documented deviation: the usual n-1 value for fans is wrong at
the two smallest orders (the 2-vertex fan is a triangle with value 2, the
3-vertex fan is the diamond with value 3), so those two instances are
asserted under strict xfail instead of being silently patched.
"""

import time

import pytest

from gcoalition import checks
from gcoalition.cli import run
from gcoalition.coalition import count_gc_partners, gc_partner_bound, verify_partition
from gcoalition.families import generate, proof_partition, spec

from .reference import ReferenceSolver


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"\nACCEPTANCE {num:02d} {name}: {status}{suffix}")
    assert ok, f"criterion {num} {name} failed: {detail}"


def _statuses(rows, allowed=("pass",)):
    bad = [r for r in rows if r.status not in allowed]
    return not bad, "; ".join(f"{r.instance}: {r.actual} != {r.expected}" for r in bad[:5])


PATH_TABLE = {2: 2, 3: 3, 4: 4, 5: 4, 6: 5, 7: 5, 8: 5, 9: 5, 10: 6, 11: 6, 12: 6}
CYCLE_TABLE = {3: 2, 4: 4, 5: 4, 6: 6, 7: 5, 8: 6, 9: 6, 10: 6, 11: 6, 12: 6}


def test_criterion_01_path_table(solve, gc_witness_store):
    bad = []
    for n, expected in PATH_TABLE.items():
        g = generate(spec("path", n))
        t0 = time.perf_counter()
        res = solve(g, "gc")
        elapsed = time.perf_counter() - t0
        if not (res.exact and res.value == expected and elapsed < 60.0):
            bad.append((n, res.value, expected, elapsed))
        if res.witness is not None:
            gc_witness_store.append((g, res.witness))
    report(1, "path-table", not bad, str(bad))


def test_criterion_02_cycle_table(solve, gc_witness_store):
    bad = []
    for n, expected in CYCLE_TABLE.items():
        g = generate(spec("cycle", n))
        res = solve(g, "gc")
        if not (res.exact and res.value == expected):
            bad.append((n, res.value, expected))
        if res.witness is not None:
            gc_witness_store.append((g, res.witness))
    report(2, "cycle-table", not bad, str(bad))


def test_criterion_03_complete_and_bipartite(solve, gc_witness_store):
    bad = []
    for n in range(2, 11):
        g = generate(spec("complete", n))
        res = solve(g, "gc")
        if res.value != 2:
            bad.append(("complete", n, res.value))
        gc_witness_store.append((g, res.witness))
    for a in range(1, 10):
        for b in range(a, 10):
            if a + b > 10:
                continue
            g = generate(spec("bipartite", a, b))
            res = solve(g, "gc")
            if res.value != a + b:
                bad.append(("bipartite", (a, b), res.value))
            gc_witness_store.append((g, res.witness))
    report(3, "complete-and-bipartite", not bad, str(bad))


def test_criterion_04_wheels_and_fans(solve, gc_witness_store):
    bad = []
    for n in range(3, 10):
        g = generate(spec("wheel", n))
        res = solve(g, "gc")
        if res.value != n - 1:
            bad.append(("wheel", n, res.value))
        gc_witness_store.append((g, res.witness))
    for n in range(4, 10):
        g = generate(spec("fan", n))
        res = solve(g, "gc")
        if res.value != n - 1:
            bad.append(("fan", n, res.value))
        gc_witness_store.append((g, res.witness))
    report(4, "wheels-and-fans", not bad,
           str(bad) or "fans n=2,3 carried separately as documented deviations")


@pytest.mark.xfail(strict=True, reason="quoted fan value n-1 is wrong for the "
                   "two smallest orders: the 2-vertex fan is a triangle (value 2) "
                   "and the 3-vertex fan is the diamond (value 3)")
@pytest.mark.parametrize("n", [2, 3])
def test_criterion_04_fan_small_orders_quoted_value(solve, n):
    res = solve(generate(spec("fan", n)), "gc")
    assert res.value == n - 1


def test_criterion_05_radius2_trees(solve):
    rows = checks.check_theorem("gc_rad2_trees", max_n=11)
    ok, detail = _statuses(rows)
    report(5, "radius-2-trees", ok and len(rows) > 50, detail)


def test_criterion_06_partner_bound(solve, gc_witness_store):
    bad = []
    for g, witness in gc_witness_store:
        for i, vs in enumerate(witness.classes):
            if count_gc_partners(g, witness, i) > gc_partner_bound(g, vs):
                bad.append(("witness", g, i))
    rows = checks.check_theorem("partner_bound", max_n=7)
    ok_rows, detail = _statuses(rows)
    # sharpness: the middle class of the k=4 sharpness graph meets the bound
    s = spec("gk", 4)
    g = generate(s)
    p = proof_partition(s)
    bound = gc_partner_bound(g, p.classes[1])
    cnt = count_gc_partners(g, p, 1)
    sharp = bound == cnt == 5
    report(6, "partner-bound", not bad and ok_rows and sharp,
           f"witnesses={len(gc_witness_store)} bad={bad[:3]} {detail} "
           f"sharpness {cnt}/{bound}")


def test_criterion_07_domatic_construction():
    rows = checks.check_theorem("gc_ge_2dg", max_n=8)
    ok, detail = _statuses(rows)
    report(7, "domatic-construction", ok and len(rows) > 11000, detail)


def test_criterion_08_equivalences():
    rad3 = checks.check_theorem("gc_eq_c_rad3", max_n=10)
    girth6 = checks.check_theorem("gc_eq_c_girth6", max_n=10)
    prc = checks.check_theorem("gc_vs_prc", max_n=8)
    ok1, d1 = _statuses(rad3)
    ok2, d2 = _statuses(girth6)
    ok3, d3 = _statuses(prc)
    report(8, "equivalences", ok1 and ok2 and ok3,
           f"rad3 n={len(rad3)} {d1}; girth6 n={len(girth6)} {d2}; "
           f"prc n={len(prc)} {d3}")


def test_criterion_09_complement_invariance():
    rows = checks.check_theorem("gc_complement", max_n=8)
    ok, detail = _statuses(rows)
    report(9, "complement-invariance", ok and len(rows) > 12000, detail)


def test_criterion_10_unicyclic_exact():
    rows = checks.check_theorem("unicyclic_exact", max_n=11)
    # formula mismatches on inferred generators are findings, not failures
    ok, detail = _statuses(rows, allowed=("pass", "finding"))
    findings = [r.instance for r in rows if r.status == "finding"]
    report(10, "unicyclic-exact", ok and len(rows) > 150,
           f"{detail} findings={findings}")


def test_criterion_11_unicyclic_bounds():
    rows = checks.check_theorem("center_bound_unicyclic", max_n=9)
    ok, detail = _statuses(rows)
    report(11, "unicyclic-center-bounds", ok and len(rows) > 150, detail)


def test_criterion_12_oracle_equivalence(solve, corpus7):
    t0 = time.perf_counter()
    bad = []
    for g in corpus7:
        ref = ReferenceSolver(g)
        for kind in ("gc", "c", "prc"):
            if g.n == 1 and kind == "gc":
                continue  # the solver refuses the trivial gc instance
            res = solve(g, kind)
            if ref.max_value(kind) != res.value:
                bad.append((g, kind))
            elif res.value and not (
                len(res.witness) == res.value and verify_partition(g, res.witness, kind).valid
            ):
                bad.append((g, kind, "witness"))
    elapsed = time.perf_counter() - t0
    report(12, "oracle-equivalence", not bad and elapsed < 1800.0 and len(corpus7) == 996,
           f"{len(corpus7)} graphs in {elapsed:.0f}s; bad={bad[:3]}")


def test_criterion_13_cli_determinism():
    argvs = [["compute", "--kind", "gc", "--graph", f"path:{n}"] for n in PATH_TABLE]
    argvs += [["compute", "--kind", "gc", "--graph", f"cycle:{n}"] for n in CYCLE_TABLE]
    bad = []
    for argv in argvs:
        outs = {run(argv + ["--threads", str(t)]) for t in (1, 8)}
        if len(outs) != 1:
            bad.append(argv)
    report(13, "cli-determinism", not bad, str(bad))
