"""gcoalition benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The package is imported from ``src/`` next
to this directory; without it the runner exits with code 2.  One run:

1. set-up: import, seeded input generation and one warm-up op, timed from
   process start.  Two more set-ups run in child processes and ``setup_s``
   is the median of the three;
2. a closed loop with one client that runs ops back to back until their
   summed latency reaches ``--seconds`` and the workload's current round of
   ops is complete, checking each output and drawing further inputs between
   ops (neither is timed).  A workload whose input stream runs dry makes
   the runner exit with code 3 and no result;
3. a report: a few human-readable lines, then one JSON line with the
   end-to-end metrics (``--trace 0``) or the per-layer metrics
   (``--trace 1``) named in BENCHMARK.json.

With ``--trace 1`` the first half of the time runs untraced and the second
half runs with span wrappers installed (see tracing.py); spans are written to
``perfbench/out/``.  End-to-end metrics always come from untraced ops.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXPECTED = HERE / "expected.json"
OUT_DIR = HERE / "out"
CHILD_SETUPS = 2


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def percentile(values, q):
    """Linear-interpolated percentile ``q`` (0..100) of ``values``."""
    v = sorted(values)
    pos = (len(v) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def _cpu_s():
    s = resource.getrusage(resource.RUSAGE_SELF)
    c = resource.getrusage(resource.RUSAGE_CHILDREN)
    return s.ru_utime + s.ru_stime + c.ru_utime + c.ru_stime


def child_setup_s(args):
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=170, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def input_digest(wl, count):
    text = json.dumps(wl.digest_source(count), separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def attach_expected(wl, seed):
    """Expected outputs of the first inputs, for the seeds that
    expected.json lists, and pinned enumerator counts."""
    data = json.loads(EXPECTED.read_text())
    wl.pinned = data["pinned"]
    entry = data["seeds"].get(str(seed), {}).get(wl.name)
    if entry is None:
        return
    if input_digest(wl, len(entry["values"])) != entry["inputs_sha256"]:
        raise RuntimeError(f"{EXPECTED.name} does not describe the {wl.name} inputs")
    wl.expected_values = entry["values"]


class Phase:
    """One closed-loop timed phase starting at op index ``first``."""

    def __init__(self, wl, seconds, first=0, tracer=None):
        self.first = first
        self.lats, self.failures = [], []
        self.cpu_s = self.busy = 0.0
        i = first
        while self.busy < seconds or i % wl.ROUND_OPS:
            wl.extend(i + 1)
            if tracer is not None:
                tracer.op_id = i
                sid = tracer.begin("op")
            c0 = _cpu_s()
            t0 = time.perf_counter()
            try:
                out, problem = wl.run(i), None
            except Exception as exc:  # a failed op is counted, not fatal
                out, problem = None, f"{type(exc).__name__}: {exc}"
            lat = time.perf_counter() - t0
            self.cpu_s += _cpu_s() - c0
            if tracer is not None:
                tracer.end(sid)
            self.lats.append(lat)
            self.busy += lat
            if problem is None:
                try:
                    problem = wl.check(i, out)
                except Exception as exc:
                    problem = f"output not checkable: {type(exc).__name__}: {exc}"
            if problem is not None:
                self.failures.append((i, problem))
            i += 1
        self.next = i

    def value_checked(self, wl):
        return sum(wl.value_checked(i) for i in range(self.first, self.next))

    @property
    def ops_per_s(self):
        return (len(self.lats) - len(self.failures)) / self.busy


def overhead_frac(wl, plain, traced):
    """Extra time per op with tracing on, comparing ops of the same label."""

    def by_label(phase):
        acc = {}
        for k, lat in enumerate(phase.lats):
            acc.setdefault(wl.describe(phase.first + k)[0], []).append(lat)
        return acc

    u, t = by_label(plain), by_label(traced)
    common = u.keys() & t.keys()
    traced_s = sum(sum(t[label]) for label in common)
    plain_s = sum(len(t[label]) * statistics.mean(u[label]) for label in common)
    return traced_s / plain_s - 1.0


def input_properties(wl, first, count):
    """Input properties of ops ``first .. first+count-1``."""
    labels = Counter()
    seen, repeats = {}, Counter()
    orders, density = Counter(), Counter()
    graphs = sparse = iso_repeats = 0
    for i in range(first, first + count):
        label, keys, gs, iso = wl.describe(i)
        labels[label] += 1
        for name, key in keys.items():
            key = tuple(key) if isinstance(key, list) else key
            bucket = seen.setdefault(name, set())
            repeats[name] += key in bucket
            bucket.add(key)
        for n, edges in gs:
            orders[n] += 1
            d = len(edges) / (n * (n - 1) / 2)
            density[f"{min(int(d * 10), 9) / 10:.1f}"] += 1
            sparse += len(edges) <= n + 3
        graphs += len(gs)
        iso_repeats += iso
    props = {
        "ops": dict(sorted(labels.items())),
        "repeat_share": {k: repeats[k] / count for k in seen},
    }
    if graphs:
        props.update({
            "graphs": graphs,
            "order_hist": {str(k): orders[k] for k in sorted(orders)},
            "density_hist": dict(sorted(density.items())),
            "sparse_share": sparse / graphs,
            "iso_repeat_share_within_ops": iso_repeats / graphs,
        })
    return props


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (SRC / "gcoalition" / "__init__.py").is_file():
        print(f"perfbench: package sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload](args.seed)
    wl.warm_up()
    setup_s = time.perf_counter() - T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    setups = [setup_s] + [child_setup_s(args) for _ in range(CHILD_SETUPS)]
    attach_expected(wl, args.seed)
    # The inputs drawn in set-up stay alive for the whole run; frozen, they
    # are not rescanned by every full collection during the timed ops.
    gc.collect()
    gc.freeze()
    try:
        return report(args, bench, wl, setups)
    except workloads.InputsExhausted as exc:
        print(f"perfbench: {args.workload} ran out of distinct inputs after "
              f"{len(wl.items)} inputs: {exc}", file=sys.stderr)
        return 3


def report(args, bench, wl, setups):
    head = f"{args.workload} seed={args.seed} trace={args.trace}"
    if not args.trace:
        phase = Phase(wl, args.seconds)
        phases = [phase]
        n = len(phase.lats)
        tail = wl.tail_pct
        values = {
            "setup_s": statistics.median(setups),
            "ops_per_s": phase.ops_per_s,
            "op_p50_ms": percentile(phase.lats, 50) * 1000.0,
            "op_tail_ms": percentile(phase.lats, tail) * 1000.0,
            "correct_frac": (n - len(phase.failures)) / n,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        specs = bench["end_to_end"]
        beyond = sum(1 for x in phase.lats if x > percentile(phase.lats, tail))
        notes = [f"op_tail_ms is p{tail:g}: {beyond} of {n} ops lie beyond it",
                 f"failed_frac {len(phase.failures) / n:.6f} ratio",
                 "set-ups (s): " + " ".join(f"{s:.4f}" for s in setups)]
    else:
        import tracing

        plain = Phase(wl, args.seconds / 2.0)
        tracer = tracing.Tracer()
        tracing.install(tracer)
        traced = Phase(wl, args.seconds / 2.0, first=plain.next, tracer=tracer)
        phases = [plain, traced]
        values = tracing.layer_metrics(tracer)
        values.update({
            "proc.cpu_s": plain.cpu_s,
            "proc.cpu_util": plain.cpu_s / plain.busy,
            "trace.overhead_frac": overhead_frac(wl, plain, traced),
            "trace.ops": len(traced.lats),
        })
        specs = bench["per_layer"]
        OUT_DIR.mkdir(exist_ok=True)
        span_file = OUT_DIR / f"spans-{args.workload}-{args.seed}.tsv"
        tracer.write(span_file)
        notes = [f"{len(tracer.spans)} spans written to {span_file.relative_to(ROOT)}"]

    attempted = sum(len(p.lats) for p in phases)
    failures = [f for p in phases for f in p.failures]
    checked = sum(p.value_checked(wl) for p in phases)
    print(f"{head}: {attempted} ops, {len(failures)} failed; {checked} values "
          f"compared with {EXPECTED.name}")
    for i, problem in failures[:10]:
        print(f"  FAILED op {i}: {problem}")
    print("inputs " + json.dumps(input_properties(wl, 0, len(phases[0].lats))))
    for note in notes:
        print("  " + note)
    metrics = {}
    for spec in specs:
        metrics[spec["name"]] = {"value": values[spec["name"]], "unit": spec["unit"]}
        print(f"  {spec['name']:<44} {values[spec['name']]:>14.6g} {spec['unit']}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
