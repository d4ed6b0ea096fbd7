"""Steadiness report: repeat each workload over several seeds.

    python3 perfbench/steady.py [--runs 10] [--first-seed 1]
        [--workloads solve_sparse,cli_requests] [--seconds S] [--baseline FILE]

Runs ``run.py --trace 0`` once per seed and workload, one run at a time,
and prints for every end-to-end metric the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, the
interquartile distance as a share of the median, next to the metric's bound
from BENCHMARK.json.  A metric whose spread exceeds its bound is marked
UNRESOLVED: a change smaller than the spread cannot be told from noise.
``--baseline`` also writes the medians, quartiles, tail percentile and the
input properties of the first seed to a JSON file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def one_run(workload, seed, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed:\n{done.stdout}\n{done.stderr}")
    result = json.loads(lines[-1])
    inputs = next((json.loads(ln[len("inputs "):]) for ln in lines if ln.startswith("inputs ")), None)
    tail = next((ln.split()[2].rstrip(":") for ln in lines if ln.strip().startswith("op_tail_ms is")), None)
    return result, inputs, tail


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    p.add_argument("--seconds", type=float, default=bench["run_seconds"])
    p.add_argument("--baseline", type=Path)
    args = p.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {}
    unresolved = 0
    for workload in args.workloads.split(","):
        samples = {name: [] for name in bounds}
        failed = 0
        inputs = tail = None
        for seed in range(args.first_seed, args.first_seed + args.runs):
            result, props, pct = one_run(workload, seed, args.seconds)
            failed += result["failed"]
            inputs, tail = inputs or props, tail or pct
            for name in bounds:
                samples[name].append(result["metrics"][name]["value"])
            print(f"  {workload} seed {seed}: " + " ".join(
                f"{k}={v[-1]:.5g}" for k, v in samples.items()), flush=True)
        print(f"{workload}: {args.runs} runs, {failed} failed ops, op_tail_ms is {tail}")
        print(f"  {'metric':<14} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        rows = {}
        for name, values in samples.items():
            s = summary(values)
            status = "ok" if s["spread"] <= bounds[name] else "UNRESOLVED"
            unresolved += status != "ok"
            print(f"  {name:<14} {s['median']:>12.6g} {s['q1']:>12.6g} {s['q3']:>12.6g} "
                  f"{s['spread']:>8.4f} {bounds[name]:>6.2f} {status}")
            rows[name] = dict(s, values=values)
        report[workload] = {"seeds": [args.first_seed, args.first_seed + args.runs - 1],
                            "op_tail_percentile": tail, "failed_ops": failed,
                            "metrics": rows, "inputs_first_seed": inputs}
    if args.baseline:
        report = {"run_seconds": args.seconds, "workloads": report}
        args.baseline.write_text(json.dumps(report, indent=1) + "\n")
    return 1 if unresolved else 0


if __name__ == "__main__":
    sys.exit(main())
