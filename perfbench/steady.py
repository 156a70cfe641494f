#!/usr/bin/env python3
"""Steadiness self-check for the benchmark.

Runs each workload repeatedly through perfbench/run.py and prints, per
metric, the median, the quartiles and the spread (interquartile distance
over the median) against the metric's bound in BENCHMARK.json.

    python3 perfbench/steady.py                      # 10 seeds, every workload
    python3 perfbench/steady.py --runs 5 --workloads research
    python3 perfbench/steady.py --trace 1 --same-seed --runs 3
    python3 perfbench/steady.py --overhead --runs 3

--trace 1 --same-seed also asserts that the counts marked as exact repeat
on every run of the seed.  --overhead runs each seed untraced and traced
and prints the tracing overhead: traced minus untraced ops_per_s and
latency_p50_ms.  Exits 1 if a run fails, a count does not repeat, or an
end-to-end metric spreads wider than its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# per-layer counts that must repeat exactly across runs of one seed
EXACT_PREFIXES = ("cache.mem_hits", "cache.disk_hits", "cache.misses",
                  "cache.stores", "cache.evictions", "factored.nodes",
                  "lang.tier_hits.", "search.nodes", "gc.minor_mw.")


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    if out.returncode != 0 or result is None or not result["correct"]:
        print(out.stdout[-3000:])
        sys.exit(f"{workload} seed {seed} trace {trace}: run failed "
                 f"(exit {out.returncode})")
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread_table(workload, runs, bounds):
    bad = []
    print(f"\n{workload}: {len(runs)} runs")
    print(f"  {'metric':<30} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}  verdict")
    for name in runs[0]:
        values = [r[name] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        if bound is None:
            verdict = ""
        elif spread < bound / 3:
            verdict = "steady"
        elif spread <= bound:
            verdict = "within bound"
        else:
            verdict = "UNSTEADY"
            bad.append(f"{workload} {name}")
        b = f"{bound:6.2f}" if bound is not None else "     -"
        print(f"  {name:<30} {med:12.4f} {q1:12.4f} {q3:12.4f} "
              f"{spread:8.4f} {b}  {verdict}")
    return bad


def main():
    ap = argparse.ArgumentParser(description="benchmark steadiness check")
    ap.add_argument("--workloads", default="")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--same-seed", action="store_true")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--overhead", action="store_true")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    bad = []
    for w in workloads:
        seeds = [1 + (0 if args.same_seed else i)
                 for i in range(args.runs)]
        if args.overhead:
            print(f"\n{w}: tracing overhead (traced - untraced)")
            for s in seeds:
                plain = run(w, s, seconds, 0)
                traced = run(w, s, seconds, 1)
                d_ops = traced["trace.ops_per_s"] - plain["ops_per_s"]
                d_p50 = traced["trace.latency_p50_ms"] - plain["latency_p50_ms"]
                print(f"  seed {s}: ops_per_s {d_ops:+.2f} 1/s "
                      f"({d_ops / plain['ops_per_s']:+.1%}), latency_p50_ms "
                      f"{d_p50:+.4f} ms ({d_p50 / plain['latency_p50_ms']:+.1%})")
            continue
        runs = [run(w, s, seconds, args.trace) for s in seeds]
        bad += spread_table(w, runs, bounds if args.trace == 0 else {})
        if args.trace == 1 and args.same_seed:
            for name in runs[0]:
                if name.startswith(EXACT_PREFIXES):
                    values = {r[name] for r in runs}
                    if len(values) != 1:
                        bad.append(f"{w} {name} does not repeat: {sorted(values)}")
    for b in bad:
        print("FAIL", b)
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
