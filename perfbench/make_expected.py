"""Write perfbench/expected.json: expected outputs for seeds 0-10.

    python3 perfbench/make_expected.py [WORKLOAD ...]

For each of the seeds 0 (the default) and 1-10 (the seeds steady.py uses),
the file holds the expected values of the inputs a workload draws in set-up
(its ``POOL``).  Values come from the package and, for every graph with
n <= 9, are checked against the exhaustive oracle in oracle.py before they
are written; the script stops on the first disagreement.  Enumerator counts
are pinned for every seed.  Rerun it whenever the workload generators
change; naming workloads rebuilds only theirs.  Seeds run in ``JOBS``
worker processes.
"""

from __future__ import annotations

import argparse
import json
import sys
from multiprocessing import Pool

import run  # importing the runner only defines its paths and helpers

sys.path.insert(0, str(run.SRC))

import gcoalition  # noqa: E402
import workloads  # noqa: E402
from oracle import SetGraph, exact_values, min_gds_size  # noqa: E402

SEEDS = range(11)
JOBS = 2
ORACLE_MAX_N = 9


class Values:
    """Package values per (graph, invariant), oracle-checked for small n."""

    def __init__(self):
        self.memo = {}
        self.oracle = {}

    def get(self, graph, kind):
        key = (graph, kind)
        if key not in self.memo:
            g = gcoalition.from_edge_list(*graph)
            if kind == "gamma_g":
                value = gcoalition.gamma_g(g).value
            elif kind == "dg":
                value = gcoalition.global_domatic(g).k
            else:
                res = gcoalition.max_partition(g, kind)
                assert res.exact, (graph, kind)
                value = res.value
            if graph[0] <= ORACLE_MAX_N:
                sg = SetGraph(*graph)
                if kind == "gamma_g":
                    want = min_gds_size(sg)
                else:
                    if graph not in self.oracle:
                        self.oracle[graph] = exact_values(sg)
                    want = self.oracle[graph][kind]
                if value != want:
                    raise SystemExit(f"oracle disagrees on {graph} {kind}: {value} != {want}")
            self.memo[key] = value
        return self.memo[key]


def closed_form(values, spec, graph):
    try:
        cf = gcoalition.closed_form_gc(gcoalition.parse_spec(spec))
    except gcoalition.GcoalitionError:
        return None
    if isinstance(cf, gcoalition.LowerBound):
        return {"lower_bound": cf.value}
    if cf != values.get(graph, "gc"):
        raise SystemExit(f"closed form of {spec} disagrees with the exact value")
    return cf


def solve_values(values, wl):
    return [values.get(graph, kind) for graph, kind, _ in wl.items[:wl.POOL]]


def cli_values(values, wl):
    expect = []
    for argv, graph, _ in wl.items[:wl.POOL]:
        if argv[0] == "compute":
            expect.append(values.get(graph, argv[2]))
        elif argv[0] == "family":
            expect.append(closed_form(values, argv[2], graph))
        else:
            expect.append(None)
    return expect


BUILDERS = {"solve_sparse": solve_values, "cli_requests": cli_values}


def seed_entries(job):
    """Expected-value entries of the named workloads for one seed."""
    seed, names = job
    values = Values()
    entries = {}
    for name in names:
        wl = workloads.WORKLOADS[name](seed)
        entries[name] = {"inputs_sha256": run.input_digest(wl, wl.POOL),
                         "values": BUILDERS[name](values, wl)}
        print(f"seed {seed} {name} done", flush=True)
    return seed, entries


def main(argv):
    """Rebuild the entries of the named workloads (all by default); keep
    the others from the existing file."""
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("workloads", nargs="*", metavar="WORKLOAD")
    args = p.parse_args(argv)
    unknown = set(args.workloads) - set(BUILDERS)
    if unknown:
        p.error(f"no expected values for {sorted(unknown)}; choose from {list(BUILDERS)}")
    names = args.workloads or list(BUILDERS)
    out = {"pinned": {}, "seeds": {}}
    if args.workloads and run.EXPECTED.exists():
        out = json.loads(run.EXPECTED.read_text())
    with Pool(JOBS) as pool:
        for seed, entries in pool.imap_unordered(seed_entries, [(s, names) for s in SEEDS]):
            out["seeds"].setdefault(str(seed), {}).update(entries)
    out["seeds"] = dict(sorted(out["seeds"].items(), key=lambda kv: int(kv[0])))

    for cl, mx, cap in workloads.UNICYCLIC_CALLS:
        graphs = list(gcoalition.enumerate_unicyclic(cl, mx, radius_cap=cap))
        out["pinned"][f"unicyclic:{(cl, mx, cap)}"] = len(graphs)
    for mx in workloads.GIRTH6_CALLS:
        out["pinned"][f"girth6:{mx}"] = len(gcoalition.girth_at_least_6_graphs(mx))

    text = json.dumps(out, separators=(",", ":"))
    run.EXPECTED.write_text(text + "\n")
    print(f"wrote {run.EXPECTED} ({len(text)} bytes)")


if __name__ == "__main__":
    main(sys.argv[1:])
