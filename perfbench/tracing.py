"""Per-layer tracing from outside the package.

``install`` replaces each layer entry point below with a wrapper that
records a span (span id, parent span id, op id, name, start, end) in
memory.  A wrapper is bound under every name that refers to the original
object in any ``gcoalition`` module, so calls that one layer makes into
another through an imported name (``gcoalition.solvers.Tables``,
``gcoalition.cli.max_partition``) are traced too.  ``layer_metrics`` turns
the spans into per-layer calls, self times, counts and ratios; a span's self
time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

# (module, attribute, span name); attribute may be "Class.method"
ENTRY_POINTS = [
    ("gcoalition.solvers", "max_partition", "solvers.max_partition"),
    ("gcoalition.solvers", "construct_gc_from_domatic", "solvers.construct_gc_from_domatic"),
    ("gcoalition.solvers", "Tables", "tables.Tables"),
    ("gcoalition.domination", "global_domatic", "domination.global_domatic"),
    ("gcoalition.domination", "minimal_gds_within", "domination.minimal_gds_within"),
    ("gcoalition.domination", "gamma_g", "domination.gamma_g"),
    ("gcoalition.coalition", "verify_partition", "coalition.verify_partition"),
    ("gcoalition.coalition", "Partition.__init__", "coalition.Partition"),
    ("gcoalition.iso", "canonical_hash", "iso.canonical_hash"),
    ("gcoalition.iso", "are_isomorphic", "iso.are_isomorphic"),
    ("gcoalition.iso", "IsoDedup.add", "iso.IsoDedup.add"),
    ("gcoalition.families", "enumerate_unicyclic", "families.enumerate"),
    ("gcoalition.families", "girth_at_least_6_graphs", "families.enumerate"),
    ("gcoalition.families", "generate", "families.generate"),
    ("gcoalition.graph", "metrics", "graph.metrics"),
    ("gcoalition.graphio", "from_graph6", "graphio.from_graph6"),
    ("gcoalition.graphio", "to_graph6", "graphio.to_graph6"),
    ("gcoalition.cli", "run", "cli.run"),
]

GENERATORS = {"enumerate_unicyclic"}

SPAN_NAMES = sorted({name for _, _, name in ENTRY_POINTS})


class Tracer:
    def __init__(self):
        self.spans = []  # [span_id, parent_id, op_id, name, start, end]
        self.stack = []
        self.op_id = -1
        self.calls = Counter()
        self.counts = Counter()
        self.enum_depth = 0

    def begin(self, name):
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([sid, parent, self.op_id, name, time.perf_counter(), 0.0])
        self.stack.append(sid)
        return sid

    def end(self, sid):
        self.spans[sid][5] = time.perf_counter()
        self.stack.pop()

    def write(self, path):
        with open(path, "w") as fh:
            fh.write("span_id\tparent_id\top_id\tname\tstart\tend\n")
            for s in self.spans:
                fh.write("%d\t%d\t%d\t%s\t%.9f\t%.9f\n" % tuple(s))


def _observe(tracer, name, result):
    c = tracer.counts
    if name == "solvers.max_partition":
        c["nodes"] += result.nodes_explored
        c["inexact"] += not result.exact
    elif name == "coalition.verify_partition":
        c["invalid"] += not result.valid
    elif name == "iso.are_isomorphic":
        c["iso_true"] += bool(result)
    elif name == "iso.IsoDedup.add":
        c["kept"] += bool(result)
    elif name == "cli.run":
        c["exit_nonzero"] += result[0] != 0


def _wrap(tracer, name, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.calls[name] += 1
        sid = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(sid)
        _observe(tracer, name, result)
        return result

    if name != "families.enumerate":
        return wrapper

    @functools.wraps(fn)
    def enumerate_wrapper(*args, **kwargs):
        outer = tracer.enum_depth == 0
        tracer.enum_depth += 1
        try:
            result = wrapper(*args, **kwargs)
        finally:
            tracer.enum_depth -= 1
        if outer:
            tracer.counts["graphs"] += len(result)
        return result

    return enumerate_wrapper


def _wrap_generator(tracer, name, fn):
    """One span per resumption, so time spent by the consumer between
    items is not charged to the generator."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.calls[name] += 1
        outer = tracer.enum_depth == 0
        it = fn(*args, **kwargs)
        while True:
            sid = tracer.begin(name)
            tracer.enum_depth += 1
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                tracer.enum_depth -= 1
                tracer.end(sid)
            if outer:
                tracer.counts["graphs"] += 1
            yield item

    return wrapper


def install(tracer):
    """Wrap every entry point; the package stays wrapped for the process."""
    modules = [m for k, m in sys.modules.items() if k == "gcoalition" or k.startswith("gcoalition.")]
    for module_name, attr, name in ENTRY_POINTS:
        module = sys.modules[module_name]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            setattr(cls, meth, _wrap(tracer, name, getattr(cls, meth)))
            continue
        original = getattr(module, attr)
        maker = _wrap_generator if attr in GENERATORS else _wrap
        wrapped = maker(tracer, name, original)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    setattr(m, key, wrapped)


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer) -> dict:
    """Per-layer metric values (plain numbers) from the recorded spans."""
    child_time = Counter()
    for sid, parent, _, _, start, end in tracer.spans:
        if parent >= 0:
            child_time[parent] += end - start
    self_s = Counter()
    total_s = Counter()
    for sid, _, _, name, start, end in tracer.spans:
        self_s[name] += end - start - child_time[sid]
        total_s[name] += end - start
    calls, c = tracer.calls, tracer.counts
    out = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s[name]
    out.update({
        "solvers.max_partition.nodes": c["nodes"],
        "solvers.max_partition.knodes_per_s": _ratio(c["nodes"] / 1000.0, total_s["solvers.max_partition"]),
        "solvers.max_partition.inexact": c["inexact"],
        "coalition.verify_partition.invalid_ratio": _ratio(c["invalid"], calls["coalition.verify_partition"]),
        "iso.are_isomorphic.true_ratio": _ratio(c["iso_true"], calls["iso.are_isomorphic"]),
        "iso.IsoDedup.add.kept_ratio": _ratio(c["kept"], calls["iso.IsoDedup.add"]),
        "families.enumerate.graphs": c["graphs"],
        "cli.run.exit_nonzero": c["exit_nonzero"],
        "trace.spans": len(tracer.spans),
    })
    return out
