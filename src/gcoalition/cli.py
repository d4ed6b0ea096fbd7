"""Command-line surface for the toolkit.

Exit codes: 0 success, 1 malformed input or malformed arguments (structured
error JSON), 2 a verification or theorem check came back invalid/failed, 3
the node budget ran out before the search finished (``"exact": false``; an
exact solve's witness is the lexicographically least one).  All output is
deterministic for fixed inputs; wall-clock timings are only emitted behind
``--timings`` so byte-identical reruns are the default.  ``--threads`` is
accepted for interface stability; the exact solver runs sequentially, which
is what makes its output reproducible.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict
from pathlib import Path

from . import __version__
from . import checks
from .coalition import Partition, build_gcg, verify_partition
from .domination import gamma, gamma_g, global_domatic
from .errors import GcoalitionError, InvalidParamsError
from .families import (
    LowerBound,
    closed_form_gc,
    connected_graphs,
    enumerate_trees,
    enumerate_unicyclic,
    generate,
    girth_at_least_6_graphs,
    parse_spec,
)
from .graph import Graph
from .graphio import from_graph6, parse_edge_list, to_dot, to_edge_list, to_graph6
from .solvers import (
    DEFAULT_BUDGET,
    construct_center_partition,
    construct_gc_from_domatic,
    max_partition,
)


def resolve_graph(source: str) -> Graph:
    """Load a graph from ``file:<path>``, ``g6:<string>``, or a family spec."""
    if source.startswith("file:"):
        return parse_edge_list(Path(source[5:]).read_text())
    if source.startswith("g6:"):
        return from_graph6(source[3:])
    return generate(parse_spec(source))


def resolve_partition(source: str, g: Graph) -> Partition:
    if source == "singletons":
        return Partition.singletons(g)
    if source.startswith("file:"):
        text = Path(source[5:]).read_text()
    else:
        text = source
    try:
        lists = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidParamsError(f"partition is not valid JSON: {exc}") from exc
    if not isinstance(lists, list) or not all(isinstance(c, list) for c in lists):
        raise InvalidParamsError("partition JSON must be a list of vertex lists")
    if not all(type(v) is int for c in lists for v in c):  # bool is an int subclass
        raise InvalidParamsError("partition vertices must be integers")
    return Partition.from_lists(g, lists)


def _witness_lists(partition):
    return None if partition is None else partition.to_lists()


def _solve_payload(res):
    return {
        "kind": res.kind,
        "value": res.value,
        "witness": _witness_lists(res.witness),
        "nodes_explored": res.nodes_explored,
        "exact": res.exact,
    }


def _cmd_compute(args):
    g = resolve_graph(args.graph)
    kind = args.kind
    if kind in ("gc", "c", "prc"):
        res = max_partition(g, kind, args.budget)
        return (0 if res.exact else 3), _solve_payload(res)
    if kind == "gamma":
        ms = gamma(g)
        return 0, {"kind": kind, "value": ms.value, "witness": ms.witness.indices()}
    if kind == "gamma_g":
        ms = gamma_g(g)
        return 0, {"kind": kind, "value": ms.value, "witness": ms.witness.indices()}
    if kind == "dg":
        w = global_domatic(g)
        return 0, {"kind": kind, "value": w.k,
                   "witness": [vs.indices() for vs in w.classes]}
    raise InvalidParamsError(f"unknown invariant {kind!r}")


def _cmd_verify(args):
    g = resolve_graph(args.graph)
    p = resolve_partition(args.partition, g)
    verdict = verify_partition(g, p, args.kind)
    payload = {
        "kind": verdict.kind,
        "valid": verdict.valid,
        "classes": p.to_lists(),
        "partners": [list(px) for px in verdict.partners],
        "violations": [
            {"class_index": v.class_index, "reason": v.reason.value}
            for v in verdict.violations
        ],
    }
    return (0 if verdict.valid else 2), payload


def _cmd_construct(args):
    g = resolve_graph(args.graph)
    if args.op == "center":
        if args.vertex is None:
            raise InvalidParamsError("construct --op center needs --vertex")
        p = construct_center_partition(g, args.vertex)
    elif args.op == "from-domatic":
        p = construct_gc_from_domatic(g)
    else:
        raise InvalidParamsError(f"unknown construction {args.op!r}")
    verdict = verify_partition(g, p, "gc")
    return 0, {
        "op": args.op,
        "classes": p.to_lists(),
        "size": len(p),
        "valid_gc": verdict.valid,
    }


def _cmd_family(args):
    g_spec = parse_spec(args.spec)
    g = generate(g_spec)
    if args.format == "dot":
        return 0, to_dot(g)
    if args.format == "text":
        return 0, to_edge_list(g)
    try:
        cf = closed_form_gc(g_spec)
    except GcoalitionError:
        cf = None
    if isinstance(cf, LowerBound):
        cf = {"lower_bound": cf.value}
    return 0, {
        "spec": str(g_spec),
        "n": g.n,
        "edges": [list(e) for e in g.edges()],
        "graph6": to_graph6(g),
        "closed_form_gc": cf,
    }


def _cmd_check(args):
    if args.all:
        rows = checks.run_all(max_n=args.max_n, budget=args.budget)
    elif args.theorem:
        rows = checks.check_theorem(args.theorem, max_n=args.max_n, budget=args.budget)
    else:
        raise InvalidParamsError("check needs --theorem <name> or --all")
    worst = checks.worst_status(rows)
    code = {"pass": 0, "finding": 0, "inconclusive": 3, "fail": 2}[worst]
    if args.format == "csv":
        return code, checks.rows_to_csv(rows)
    if args.format == "text":
        lines = [f"{r.status:12s} {r.check} {r.instance} expected={r.expected} actual={r.actual}"
                 for r in rows]
        lines.append(f"worst: {worst}")
        return code, "\n".join(lines) + "\n"
    return code, [asdict(r) for r in rows]


def _cmd_gcg(args):
    g = resolve_graph(args.graph)
    p = resolve_partition(args.partition, g)
    cg = build_gcg(g, p)
    if args.format == "dot":
        labels = ["{" + ",".join(map(str, vs.indices())) + "}" for vs in cg.class_map]
        return 0, to_dot(Graph(cg.base.n, cg.base.adj, labels), name="GCG")
    return 0, {
        "classes": [vs.indices() for vs in cg.class_map],
        "edges": [list(e) for e in cg.base.edges()],
    }


def _cmd_enumerate(args):
    what = args.what
    if what == "trees":
        graphs = list(enumerate_trees(args.max_n))
    elif what == "unicyclic":
        if args.cycle_len is None:
            raise InvalidParamsError("enumerate --what unicyclic needs --cycle-len")
        cap = None if args.no_radius_cap else 2
        graphs = list(enumerate_unicyclic(args.cycle_len, args.max_n, radius_cap=cap))
    elif what == "connected":
        graphs = [g for n in range(1, args.max_n + 1) for g in connected_graphs(n)]
    elif what == "girth6":
        graphs = girth_at_least_6_graphs(args.max_n)
    else:
        raise InvalidParamsError(f"unknown enumeration {what!r}")
    lines = [to_graph6(g) for g in graphs]
    if args.format == "text":
        return 0, "\n".join(lines) + ("\n" if lines else "")
    return 0, {"count": len(lines), "graph6": lines}


def _int_from(low: int):
    """An argparse ``type``: an int of at least ``low``.  argparse reports
    a bad value as a usage error, which ``_Parser`` raises (exit 1)."""

    def parse(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


class _Parser(argparse.ArgumentParser):
    """Raises argparse's usage errors as ``InvalidParamsError`` (exit 1)
    instead of exiting with status 2, which means "verification failed".
    Subparsers are built with the parent's class, so they raise too."""

    def error(self, message):
        raise InvalidParamsError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gcoalition",
        description="Exact global coalition partition toolkit for small graphs.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, graph=True, fmt=("json", "text")):
        if graph:
            p.add_argument("--graph", required=True,
                           help="file:<path> | g6:<string> | <family>:<params>")
        p.add_argument("--format", choices=fmt, default=fmt[0])
        p.add_argument("--budget", type=_int_from(0), default=DEFAULT_BUDGET,
                       help="search node budget")
        p.add_argument("--threads", type=int, default=1,
                       help="worker count (output is identical for any value)")
        p.add_argument("--timings", action="store_true",
                       help="include wall-clock timings in JSON output")

    p = sub.add_parser("compute", help="compute an invariant")
    p.add_argument("--kind", required=True,
                   choices=["gc", "c", "prc", "gamma", "gamma_g", "dg"])
    common(p)
    p.set_defaults(fn=_cmd_compute)

    p = sub.add_parser("verify", help="verify a partition")
    p.add_argument("--kind", required=True, choices=["gc", "c", "prc"])
    common(p)
    p.add_argument("--partition", required=True,
                   help='JSON list of lists, file:<path>, or "singletons"')
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("construct", help="run a constructive procedure")
    p.add_argument("--op", required=True, choices=["center", "from-domatic"])
    p.add_argument("--vertex", type=int, help="center vertex for --op center")
    common(p)
    p.set_defaults(fn=_cmd_construct)

    p = sub.add_parser("family", help="emit a family instance")
    p.add_argument("--spec", required=True, help="e.g. cycle:7, gk:4, u5_2:2,1")
    common(p, graph=False, fmt=("json", "dot", "text"))
    p.set_defaults(fn=_cmd_family)

    p = sub.add_parser("check", help="run theorem sweeps")
    p.add_argument("--theorem", choices=sorted(checks.REGISTRY))
    p.add_argument("--all", action="store_true")
    p.add_argument("--max-n", type=_int_from(1), default=None, dest="max_n")
    common(p, graph=False, fmt=("csv", "json", "text"))
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("gcg", help="build the coalition graph of a partition")
    common(p, fmt=("json", "dot"))
    p.add_argument("--partition", required=True)
    p.set_defaults(fn=_cmd_gcg)

    p = sub.add_parser("enumerate", help="stream graph corpora as graph6")
    p.add_argument("--what", required=True,
                   choices=["trees", "unicyclic", "connected", "girth6"])
    p.add_argument("--max-n", type=_int_from(1), required=True, dest="max_n")
    p.add_argument("--cycle-len", type=_int_from(3), dest="cycle_len")
    p.add_argument("--no-radius-cap", action="store_true")
    common(p, graph=False, fmt=("text", "json"))
    p.set_defaults(fn=_cmd_enumerate)
    return parser


def _envelope(command, payload=None, error=None, elapsed_ms=None):
    record = {
        "command": command,
        "version": __version__,
    }
    if elapsed_ms is not None:
        record["elapsed_ms"] = elapsed_ms
    if error is not None:
        record["error"] = {"type": type(error).__name__, "message": str(error)}
    else:
        record["result"] = payload
    return json.dumps(record, indent=2, sort_keys=True)


def run(argv) -> tuple[int, str]:
    """Execute one command; returns (exit code, stdout text)."""
    try:
        args = build_parser().parse_args(argv)
    except InvalidParamsError as exc:
        return 1, _envelope(argv[0] if argv else "", error=exc)
    start = time.perf_counter()
    try:
        code, payload = args.fn(args)
    except (GcoalitionError, OSError, ValueError, KeyError) as exc:
        return 1, _envelope(args.subcommand, error=exc)
    if isinstance(payload, str):  # csv / dot / text are emitted raw
        return code, payload
    elapsed_ms = round((time.perf_counter() - start) * 1000.0, 3) if args.timings else None
    return code, _envelope(args.subcommand, payload=payload, elapsed_ms=elapsed_ms)


def main(argv=None) -> int:
    code, text = run(sys.argv[1:] if argv is None else argv)
    sys.stdout.write(text if text.endswith("\n") else text + "\n")
    return code


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
