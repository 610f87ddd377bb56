#!/usr/bin/env python3
"""Steadiness check for the perfledger benchmark.

Runs every workload named in BENCHMARK.json k times for its run_seconds,
each round with its own seed and alternating the workload order, then
prints for each end-to-end metric its median, quartiles and min/max, and
the spread (third minus first quartile, as a share of the median)
against the metric's bound in BENCHMARK.json. It exits 1 if a spread
exceeds its bound, a run is not correct, or any operation failed.

    python3 perfledger/steady.py --runs 10
    python3 perfledger/steady.py --runs 5 --workloads serve-churn --seed 100

Run it from the repository root.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds):
    cmd = command + ["--workload", workload, "--seed", str(seed),
                     "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    diag = json.loads(lines[-2]) if len(lines) >= 2 else {}
    return json.loads(lines[-1]), diag


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10, help="runs per workload")
    ap.add_argument("--seed", type=int, default=1, help="seed of the first round")
    ap.add_argument("--workloads", help="comma-separated subset of the workloads")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = [n for n in args.workloads.split(",") if n]

    runs = {n: [] for n in names}
    for r in range(args.runs):
        order = names if r % 2 == 0 else list(reversed(names))
        for name in order:
            result, diag = run_once(bench["command"], name, args.seed + r, bench["run_seconds"])
            runs[name].append(result)
            print(f"round {r} {name} seed {args.seed + r}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  f"steal_ms={diag.get('steal_ms')} runq_wait_ms={diag.get('runq_wait_ms')}",
                  file=sys.stderr)

    all_ok = True
    for name in names:
        results = runs[name]
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        correct = all(r["correct"] for r in results)
        print(f"\n{name}: {len(results)} runs, correct={correct}, failed shares={shares}")
        print(f"  {'metric':32} {'median':>14} {'q1':>14} {'q3':>14} {'min':>14} {'max':>14} "
              f"{'spread':>8} {'bound':>6}")
        for m in bench["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            bound = m["bound"]
            if spread <= bound / 3:
                verdict = "steady"
            elif spread <= bound:
                verdict = "within bound"
            else:
                verdict = "TOO WIDE"
                all_ok = False
            print(f"  {m['name']:32} {med:14.6g} {q1:14.6g} {q3:14.6g} {min(values):14.6g} "
                  f"{max(values):14.6g} {spread:8.4f} {bound:>6} {verdict}")
        all_ok = all_ok and correct and shares == [0.0]
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
