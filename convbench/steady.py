#!/usr/bin/env python3
"""Steadiness check for the converge benchmark.

Runs every workload ten times, each in a fresh process with its own seed
(1 to 10) and BENCHMARK.json's run length, and prints for every end-to-end
metric the median, the quartiles and the spread (q3 - q1) / median, beside
the metric's bound in BENCHMARK.json and whether the spread is below a
third of it; it exits 1 if any spread is not. With --trace it then makes
one traced run per workload and prints the tracing overhead (traced minus
untraced cycle_ms_p50) and the share of the preview that the front-end
stages account for.

Run from the repository root:

    python3 convbench/steady.py [--workloads a,b] [--trace]
"""

import argparse
import json
import statistics
import subprocess
import sys

RUNS = 10
SEED0 = 1


def run_once(command, workload, seed, seconds, trace):
    args = command + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", "1" if trace else "0",
    ]
    proc = subprocess.run(args, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(args)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: outputs are wrong:\n{proc.stderr[-2000:]}")
    return result


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--trace", action="store_true")
    opts = ap.parse_args()
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    steady = True
    untraced = {}
    for workload in opts.workloads.split(","):
        results = []
        for k in range(RUNS):
            seed = SEED0 + k
            results.append(run_once(bench["command"], workload, seed, seconds, False))
            print(f"{workload} seed {seed}: "
                  + ", ".join(f"{n}={m['value']:.4g}" for n, m in results[-1]["metrics"].items()),
                  flush=True)
        untraced[workload] = results[0]
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"\n{workload}: {RUNS} runs, seeds {SEED0}..{SEED0 + RUNS - 1}, "
              f"failed share {sorted(shares)}")
        print(f"  {'metric':<20} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for name, bound in bounds.items():
            med, q1, q3, sp = spread([r["metrics"][name]["value"] for r in results])
            ok = sp < bound / 3
            steady &= ok
            print(f"  {name:<20} {med:>12.4f} {q1:>12.4f} {q3:>12.4f} {sp:>8.4f} {bound:>6.2f}"
                  f"{'' if ok else '  <-- spread above bound/3'}")
        print(flush=True)
    if opts.trace:
        for workload in opts.workloads.split(","):
            traced = run_once(bench["command"], workload, SEED0, seconds, True)["metrics"]
            plain = untraced[workload]["metrics"]
            overhead = traced["trace.cycle_ms_p50"]["value"] - plain["cycle_ms_p50"]["value"]
            print(f"{workload}: tracing overhead on cycle_ms_p50 = {overhead:+.1f} ms "
                  f"({traced['trace.cycle_ms_p50']['value']:.1f} traced vs "
                  f"{plain['cycle_ms_p50']['value']:.1f} untraced, seed {SEED0}); "
                  f"front-end stages = {traced['frontend.plan_share']['value']:.1%} of the preview")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
