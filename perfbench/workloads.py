"""The three benchmark workloads.

Each workload draws its inputs from an endless seeded stream
(``inputs(rng)``): the first ``POOL`` in ``__init__`` (this is set-up work)
and any further ones between ops, outside the timed region (``extend``).
Op ``i`` always gets the ``i``-th input of the stream, so the inputs of a run
do not depend on how fast the code under test is, and no input is reused.
``run(i)`` runs one operation on input ``i`` (the timed part) and
``check(i, out)`` returns ``None`` when the output is correct and a short
reason otherwise.

Every workload is a closed loop with one client: the next op starts when the
previous one has returned, as a library or CLI caller waits for its answer.
"""

from __future__ import annotations

import heapq
import itertools
import json
import random
from collections import Counter

import networkx as nx

import gcoalition
import gcoalition.cli
import gen
from oracle import KINDS, SetGraph


def _package_graph(graph):
    return gcoalition.from_edge_list(*graph)


def _g6(graph) -> str:
    n, edges = graph
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges)
    return nx.to_graph6_bytes(g, header=False).decode().strip()


def _solve_problem(sg, res, kind):
    """Reason a SolveResult is wrong for ``kind``, or None."""
    if not res.exact:
        return f"{kind}: node budget exhausted"
    if res.witness is None:
        return None if res.value == 0 else f"{kind}: value without witness"
    lists = res.witness.to_lists()
    if len(lists) != res.value:
        return f"{kind}: witness size {len(lists)} != value {res.value}"
    if not sg.valid(lists, kind):
        return f"{kind}: witness rejected"
    return None


def _domatic_problem(sg, classes, k):
    if len(classes) != k or not sg.is_partition([frozenset(c) for c in classes]):
        return "dg: witness is not a partition of size k"
    if not all(sg.gds(frozenset(c)) for c in classes):
        return "dg: a class is not global dominating"
    return None


class InputsExhausted(Exception):
    """The stream found no new distinct input: a run needs more inputs than
    the workload's input space holds."""


MAX_REJECTS = 3000  # consecutive repeats after which an input space is spent


def _new_graph(draw, seen, tag=None):
    """A graph from ``draw()`` whose (invariant, tag) is not in ``seen``."""
    for _ in range(MAX_REJECTS):
        graph = draw()
        key = (gen.invariant(*graph), tag)
        if key not in seen:
            seen.add(key)
            return graph
    raise InputsExhausted(f"no new graph in {MAX_REJECTS} draws ({tag or 'any kind'})")


class Workload:
    name = ""
    POOL = 0  # inputs drawn in set-up; expected.json covers these
    # percentile reported as op_tail_ms: the highest round one that keeps at
    # least 10 ops beyond it in a run on the seed commit (lower on
    # cli_requests, see there)
    tail_pct = 99.0
    # ops in one round of the input stream's fixed mix; a timed phase ends
    # on a round boundary, so that ops_per_s does not depend on where in a
    # round the time ran out
    ROUND_OPS = 1
    # Set by the runner: expected outputs of the first inputs (seeds listed
    # in expected.json only) and seed-independent pinned enumerator counts.
    expected_values: list = []
    pinned: dict = {}

    def __init__(self, seed):
        self.items = []
        self._stream = self.inputs(random.Random(seed))
        self.extend(self.POOL)

    def inputs(self, rng):
        """Endless generator of op inputs drawn from ``rng``."""
        raise NotImplementedError

    def extend(self, count):
        """Draw inputs until there are at least ``count``."""
        while len(self.items) < count:
            self.items.append(next(self._stream))

    def value_checked(self, i) -> bool:
        return i < len(self.expected_values)

    def expected(self, i):
        return self.expected_values[i]

    def digest_source(self, count) -> list:
        """Plain-data description of the first ``count`` inputs; the
        expected-values file stores its hash to make sure it describes
        these inputs."""
        raise NotImplementedError

    def describe(self, i) -> tuple:
        """(op label, repeat keys, input graphs, isomorphic repeats among
        them) of op ``i``, for the input-property report."""
        raise NotImplementedError

    def op(self, item):
        """One operation on one input."""
        raise NotImplementedError

    def run(self, i):
        return self.op(self.items[i])

    def warm_up(self):
        """One untimed op of the kind the timed loop runs, on the first input
        of seed 0, so that set-up does the same work for every seed."""
        self.op(next(self.inputs(random.Random(0))))


class SolveSparse(Workload):
    """max_partition on sparse connected graphs, n in 9..11: a random tree
    plus 0-3 chords, no two isomorphic for the same kind.

    Search cost varies tenfold between graphs of one order, and a run holds
    only twenty to thirty n=11 solves, so ops follow a fixed round of
    (n, kind) slots: n=9 and n=11 each carry a quarter of the ops, gc and c
    alike, and n=10 the middle half, as c-solves only.  The median op is then the
    median n=10 c-solve and the p85 op (``tail_pct``) lies 40% of the way
    into the n=11 solves, never at a point between two orders or between
    the gc and c costs of one order.  Within a slot the chord count cycles
    0..3.  Any prefix of the stream holds the same mix, whatever the speed
    of the code under test.  One n=10 tree is drawn per round, and n=10 has
    106 trees, so the stream runs dry after about 830 inputs, seven to ten
    times what a run on the seed commit uses.
    """

    name = "solve_sparse"
    tail_pct = 85.0  # a run holds 80 or more ops; p85 keeps 12 or more beyond it
    ROUND = [(9, "gc"), (9, "c")] + [(10, "c")] * 4 + [(11, "gc"), (11, "c")]
    ROUND_OPS = len(ROUND)
    POOL = 30 * len(ROUND)

    def inputs(self, rng):
        seen = set()
        slot_uses = Counter()
        while True:
            for n, kind in self.ROUND:
                chords = slot_uses[n, kind] % 4
                slot_uses[n, kind] += 1
                graph = _new_graph(lambda: gen.sparse_graph(rng, n, chords), seen, kind)
                yield graph, kind, _package_graph(graph)

    def op(self, item):
        _, kind, g = item
        return gcoalition.max_partition(g, kind)

    def check(self, i, out):
        graph, kind, _ = self.items[i]
        problem = _solve_problem(SetGraph(*graph), out, kind)
        if problem is None and self.value_checked(i) and out.value != self.expected(i):
            problem = f"{kind}: value {out.value} != expected {self.expected(i)}"
        return problem

    def digest_source(self, count):
        return [[g, kind] for g, kind, _ in self.items[:count]]

    def describe(self, i):
        graph, kind, _ = self.items[i]
        return f"n{graph[0]}/{kind}", {"input": i}, [graph], 0


# -- CLI requests ------------------------------------------------------

FAMILY_SPECS = (
    [f"path:{k}" for k in range(4, 10)]
    + [f"cycle:{k}" for k in range(4, 10)]
    + [f"complete:{k}" for k in range(3, 8)]
    + [f"wheel:{k}" for k in range(4, 9)]
    + [f"fan:{k}" for k in range(3, 9)]
    + [f"bipartite:{a},{b}" for a in range(1, 5) for b in range(1, 5)]
)


def family_graph(text: str) -> tuple:
    """Independent construction of a family instance, following the vertex
    labelling documented by the package."""
    tag, _, params = text.partition(":")
    p = [int(x) for x in params.split(",")]
    if tag == "path":
        return p[0], tuple((i, i + 1) for i in range(p[0] - 1))
    if tag == "cycle":
        return p[0], tuple(sorted(gen.edge(i, (i + 1) % p[0]) for i in range(p[0])))
    if tag == "complete":
        return p[0], tuple((i, j) for i in range(p[0]) for j in range(i + 1, p[0]))
    if tag in ("wheel", "fan"):
        k = p[0]
        rim = [(1 + i, 1 + (i + 1) % k) for i in range(k if tag == "wheel" else k - 1)]
        return k + 1, tuple(sorted({gen.edge(u, v) for u, v in rim} | {(0, 1 + i) for i in range(k)}))
    if tag == "bipartite":
        a, b = p
        return a + b, tuple((i, a + j) for i in range(a) for j in range(b))
    raise ValueError(text)


def _random_partition(rng, n) -> list:
    k = rng.randint(2, n)
    labels = list(range(k)) + [rng.randrange(k) for _ in range(n - k)]
    rng.shuffle(labels)
    return [[v for v in range(n) if labels[v] == c] for c in range(k)]


class CliRequests(Workload):
    """In-process ``gcoalition.cli.run(argv)`` requests.

    Every fresh request is sent once more, exactly, 1 to ``2 * DELAY``
    requests later, so half of the requests repeat a recent one, as in a
    cache-friendly stream.  Each request is sent exactly twice: with a
    random number of repeats, up to four copies of one costly request fell
    among the 70 ops beyond a run's p99.
    Fresh requests take the next slot of a shuffled cycle of 100 (command,
    order) slots, so every run holds the same mix of costly requests (the
    slowest are solves on n=9).  The graph is a family spec for family
    requests and for every fifth use of any other slot, dealt from a
    shuffled deck of all specs; otherwise it is a g6 graph G(n, p) whose
    density p cycles through the four quarters of [0.3, 0.7] on successive
    uses of its slot, since the sparsest graphs are the costliest to solve.
    """

    name = "cli_requests"
    # p95, lower than the p99 that a run of 8000 or more ops supports: p99
    # falls among a few dozen costly n=9 requests, each sent twice, and
    # moved with the host's stalls.  Over seven 24 s runs on a shared 2-vCPU
    # VM (one seed run twice read 16.1 and 12.0 ms) the quartiles of p99 lay
    # 0.29 of its median apart, those of p95 0.10.
    tail_pct = 95.0
    POOL = 16000
    DELAY = 1000
    # per 20 fresh requests: compute 10 (by kind), verify 3, construct 2,
    # family 2, gcg 3
    COMMANDS = ([("compute", k) for k, w in {"gc": 3, "c": 2, "prc": 1, "gamma_g": 2, "dg": 2}.items()
                 for _ in range(w)]
                + [("verify", None)] * 3 + [("construct", None)] * 2
                + [("family", None)] * 2 + [("gcg", None)] * 3)
    ORDERS = range(5, 10)

    def __init__(self, seed):
        self.checked = {}
        super().__init__(seed)

    def inputs(self, rng):
        due = []  # heap of (op index, op index of the original, request)
        slots, deck = [], []
        uses = Counter()
        for i in itertools.count():
            if due and due[0][0] <= i:
                yield heapq.heappop(due)[2]
                continue
            if not slots:
                slots = [(cmd, kind, n) for cmd, kind in self.COMMANDS for n in self.ORDERS]
                rng.shuffle(slots)
            slot = slots.pop()
            request = self._fresh(rng, *slot, uses[slot], deck)
            heapq.heappush(due, (i + rng.randint(1, 2 * self.DELAY), i, request))
            uses[slot] += 1
            yield request

    def _fresh(self, rng, cmd, kind, n, use, deck):
        if cmd == "family" or use % 5 == 4:
            if not deck:
                deck.extend(FAMILY_SPECS)
                rng.shuffle(deck)
            source = deck.pop()
            graph = family_graph(source)
        else:
            graph = gen.connected_gnp(rng, n, 0.3 + 0.1 * (use % 4 + rng.random()))
            source = "g6:" + _g6(graph)
        n = graph[0]
        if cmd == "family":
            return ("family", "--spec", source), graph, None
        if cmd == "compute":
            return ("compute", "--kind", kind, "--graph", source), graph, None
        if cmd == "construct":
            if use % 2:
                return ("construct", "--op", "from-domatic", "--graph", source), graph, None
            v = rng.randrange(n)
            return ("construct", "--op", "center", "--vertex", str(v), "--graph", source), graph, v
        part = [[v] for v in range(n)] if rng.random() < 0.3 else _random_partition(rng, n)
        text = "singletons" if len(part) == n else json.dumps(part)
        if cmd == "verify":
            kind = rng.choice(KINDS)
            return ("verify", "--kind", kind, "--graph", source, "--partition", text), graph, part
        return ("gcg", "--graph", source, "--partition", text), graph, part

    def op(self, item):
        return gcoalition.cli.run(list(item[0]))

    def check(self, i, out):
        argv, graph, extra = self.items[i]
        digest = hash(out)  # a digest keeps memory flat as runs get longer
        if self.checked.get(argv) == digest:
            return None  # identical to an output that passed
        problem = self._check(i, argv, graph, extra, out)
        if problem is None:
            self.checked[argv] = digest
        return problem

    def _check(self, i, argv, graph, extra, out):
        code, text = out
        sg = SetGraph(*graph)
        cmd = argv[0]
        want_code = 0
        if cmd == "verify":
            want_code = 0 if sg.valid(extra, argv[2]) else 2
        if code != want_code:
            return f"{cmd}: exit {code}, expected {want_code}"
        try:
            result = json.loads(text)["result"]
        except (ValueError, KeyError):
            return f"{cmd}: output is not a result envelope"
        return getattr(self, "_check_" + cmd)(i, argv, sg, extra, result)

    def _value_matches(self, i, value):
        return not self.value_checked(i) or value == self.expected(i)

    def _check_compute(self, i, argv, sg, extra, r):
        kind, value, witness = argv[2], r["value"], r["witness"]
        if kind in KINDS:
            if witness is None:
                if value != 0:
                    return f"compute {kind}: value without witness"
            elif not r["exact"] or len(witness) != value or not sg.valid(witness, kind):
                return f"compute {kind}: witness rejected"
        elif kind == "gamma_g":
            if len(witness) != value or not sg.gds(frozenset(witness)):
                return "compute gamma_g: witness rejected"
        else:
            problem = _domatic_problem(sg, witness, value)
            if problem:
                return "compute " + problem
        if not self._value_matches(i, value):
            return f"compute {kind}: value {value} != expected {self.expected(i)}"
        return None

    def _check_verify(self, i, argv, sg, part, r):
        if sorted(map(sorted, r["classes"])) != sorted(map(sorted, part)):
            return "verify: classes differ from the request"
        if r["valid"] != sg.valid(part, argv[2]):
            return "verify: wrong verdict"
        return None

    def _check_construct(self, i, argv, sg, vertex, r):
        classes = r["classes"]
        ok = sg.valid(classes, "gc")
        if not sg.is_partition([frozenset(c) for c in classes]) or r["valid_gc"] != ok:
            return "construct: wrong partition or verdict"
        if argv[2] == "from-domatic" and not ok:
            return "construct: from-domatic result is not a gc-partition"
        if argv[2] == "center" and sg.nbrs[vertex] and frozenset(sg.nbrs[vertex]) not in map(frozenset, classes):
            return "construct: center class missing"
        return None

    def _check_family(self, i, argv, sg, extra, r):
        edges = sg.edge_set()
        if r["n"] != sg.n or {tuple(e) for e in r["edges"]} != edges:
            return "family: wrong graph"
        decoded = nx.from_graph6_bytes(r["graph6"].encode())
        if {gen.edge(u, v) for u, v in decoded.edges()} != edges:
            return "family: graph6 does not decode to the graph"
        if not self._value_matches(i, r["closed_form_gc"]):
            return f"family: closed form {r['closed_form_gc']} != expected {self.expected(i)}"
        return None

    def _check_gcg(self, i, argv, sg, part, r):
        classes = r["classes"]
        if sorted(map(sorted, classes)) != sorted(map(sorted, part)):
            return "gcg: classes differ from the request"
        if {tuple(sorted(e)) for e in r["edges"]} != sg.gc_pairs(classes):
            return "gcg: wrong coalition edges"
        return None

    def digest_source(self, count):
        return [list(argv) for argv, _, _ in self.items[:count]]

    def describe(self, i):
        argv, graph, _ = self.items[i]
        source = argv[argv.index("--spec" if argv[0] == "family" else "--graph") + 1]
        label = argv[0] + ("" if argv[0] != "compute" else " " + argv[2])
        return label, {"request": argv, "graph": source}, [graph], 0


# -- enumerators and isomorphism dedup ---------------------------------

UNICYCLIC_CALLS = [(cl, mx, cap) for cl in (3, 4, 5) for mx in (9, 10) for cap in (2, None)]
GIRTH6_CALLS = [10, 11]


class EnumerateIso(Workload):
    """Uncached enumerator calls and IsoDedup passes; no solver work.

    Each round holds every unicyclic call once, girth_at_least_6_graphs(10)
    three times, girth_at_least_6_graphs(11) four times and two dedup
    passes, in a seeded order.  The repeated calls put the percentiles
    reported inside a group of equal ops, not between two groups or at the
    edge of one, where a single slow or fast call moves them: nine cheaper
    calls and the three n=10 girth calls make the median op the middle
    n=10 one, and the n=11 girth call, the slowest, makes 4 of every 21
    ops, so the p89 op (``tail_pct``) falls in the middle of that group.
    A dedup pass feeds about 400 graphs with n in 8..10 to a fresh
    IsoDedup: pairwise non-isomorphic base graphs (mostly G(n, p),
    some cubic, whose refinement hashes collide), each appearing 1-4 times
    under random relabellings.  These ops repeat by design: every round
    makes the same enumerator calls, and the dedup passes cycle through
    ``PASSES`` prepared passes, each checked against its networkx reference.
    """

    name = "enumerate_iso"
    tail_pct = 89.0  # a run holds 5 or more whole rounds; p89 keeps 10 or more ops beyond it
    PASSES = 4
    PASS_SIZE = 400
    ROUND = ([("unicyclic", c) for c in UNICYCLIC_CALLS]
             + [("girth6", 10)] * 3 + [("girth6", 11)] * 4
             + [("dedup", None)] * 2)
    ROUND_OPS = len(ROUND)
    POOL = 20 * ROUND_OPS

    def __init__(self, seed):
        self.first_output = {}
        super().__init__(seed)

    def inputs(self, rng):
        self.passes = [self._make_pass(rng) for _ in range(self.PASSES)]
        dedups = 0
        while True:
            ops = list(self.ROUND)
            rng.shuffle(ops)
            for what, arg in ops:
                if what == "dedup":
                    arg, dedups = dedups % self.PASSES, dedups + 1
                yield what, arg

    def _make_pass(self, rng):
        classes = gen.IsoClasses()
        graphs, base_ids = [], []
        bases = 0
        while len(graphs) < self.PASS_SIZE:
            if rng.random() < 0.15:
                base = gen.connected_cubic(rng, rng.choice((8, 10)))
            else:
                base = gen.connected_gnp(rng, rng.randint(8, 10), rng.uniform(0.2, 0.5))
            if not classes.add(base):
                continue
            bases += 1
            for _ in range(rng.randint(1, 4)):
                graphs.append(gen.relabel(rng, base))
                base_ids.append(bases)
        order = list(range(len(graphs)))
        rng.shuffle(order)
        graphs = [graphs[j] for j in order]
        base_ids = [base_ids[j] for j in order]
        seen = set()
        flags = []
        for b in base_ids:
            flags.append(b not in seen)
            seen.add(b)
        return graphs, [_package_graph(g) for g in graphs], flags

    def warm_up(self):
        # a fixed cheap call: drawing an input would build the dedup passes
        # again, and the calls differ 200-fold in cost
        list(gcoalition.enumerate_unicyclic(5, 9, radius_cap=2))

    def op(self, item):
        what, arg = item
        if what == "unicyclic":
            cl, mx, cap = arg
            return list(gcoalition.enumerate_unicyclic(cl, mx, radius_cap=cap))
        if what == "girth6":
            return gcoalition.girth_at_least_6_graphs(arg)
        dedup = gcoalition.IsoDedup()
        return [dedup.add(g) for g in self.passes[arg][1]]

    def check(self, i, out):
        what, arg = self.items[i]
        if what == "dedup":
            return None if out == self.passes[arg][2] else "dedup: kept flags differ from networkx"
        key = f"{what}:{arg}"
        pinned = self.pinned.get(key)
        if pinned is not None and len(out) != pinned:
            return f"{key}: {len(out)} graphs, pinned {pinned}"
        adj = [tuple(g.adj) for g in out]
        if key in self.first_output:
            return None if adj == self.first_output[key] else f"{key}: output changed between calls"
        for g in out:
            problem = self._graph_problem(what, arg, g)
            if problem:
                return f"{key}: {problem}"
        self.first_output[key] = adj
        return None

    @staticmethod
    def _graph_problem(what, arg, g):
        n = g.n
        sg = SetGraph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if g.adj[u] >> v & 1])
        dist = [_bfs(sg, v) for v in range(n)]
        if any(len(d) != n for d in dist):
            return "disconnected graph"
        m = len(sg.edge_set())
        girth = _girth(sg)
        if what == "unicyclic":
            cl, mx, cap = arg
            if n > mx or m != n or girth != cl:
                return "not unicyclic with the requested cycle"
            if cap is not None and min(max(d.values()) for d in dist) > cap:
                return "radius above cap"
        elif n > arg or girth is None or girth < 6:
            return "girth below 6"
        return None

    def digest_source(self, count):
        return [[w, a] for w, a in self.items[:count]] + [p[0] for p in self.passes]

    def describe(self, i):
        what, arg = self.items[i]
        if what != "dedup":
            return f"{what}:{arg}", {"call": f"{what}:{arg}"}, [], 0
        graphs, _, flags = self.passes[arg]
        return what, {"call": f"dedup:{arg}"}, graphs, flags.count(False)


def _bfs(sg, s) -> dict:
    dist = {s: 0}
    frontier = [s]
    while frontier:
        nxt = []
        for v in frontier:
            for w in sg.nbrs[v]:
                if w not in dist:
                    dist[w] = dist[v] + 1
                    nxt.append(w)
        frontier = nxt
    return dist


def _girth(sg):
    """Shortest cycle length, or None for a forest."""
    best = None
    for u, v in sg.edge_set():
        # shortest u-v path avoiding the edge uv, plus the edge itself
        dist = {u: 0}
        frontier = [u]
        while frontier and v not in dist:
            nxt = []
            for x in frontier:
                for y in sg.nbrs[x]:
                    if y not in dist and {x, y} != {u, v}:
                        dist[y] = dist[x] + 1
                        nxt.append(y)
            frontier = nxt
        if v in dist and (best is None or dist[v] + 1 < best):
            best = dist[v] + 1
    return best


WORKLOADS = {w.name: w for w in (SolveSparse, CliRequests, EnumerateIso)}
