#!/usr/bin/env python3
"""Steadiness check for the benchmark in BENCHMARK.json.

Runs the benchmark command on each workload once per seed and prints, for
every metric, the median, the first and third quartiles
(statistics.quantiles with n=4) and the quartile spread as a share of the
median, next to the metric's bound. A spread at or above a third of its
bound is marked WIDE, one above the bound OVER; setup_s is judged only by
the drift of its median, so its spread is shown but not marked. Also
checks that the share of failed operations is the same in every run.

Run it from the root of the checkout:

    python3 perfbench/steady.py --runs 10              # every workload
    python3 perfbench/steady.py --runs 5 large serve   # some of them
    python3 perfbench/steady.py --runs 3 --trace 1     # per-layer figures

Exit status: 0 when every bounded spread is below a third of its bound
and every failed share agrees, 1 otherwise.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds, trace):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(argv, check=True, capture_output=True, text=True, timeout=900)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    with open("BENCHMARK.json") as f:
        manifest = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workloads", nargs="*", help="workloads to run (default: all)")
    ap.add_argument("--runs", type=int, default=10, help="runs per workload, one seed each")
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=manifest["run_seconds"])
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = ap.parse_args()
    names = args.workloads or [w["name"] for w in manifest["workloads"]]
    bounds = {m["name"]: m["bound"] for m in manifest["end_to_end"]}
    steady = True
    for name in names:
        results = []
        for k in range(args.runs):
            seed = args.first_seed + k
            res = run_once(manifest["command"], name, seed, args.seconds, args.trace)
            results.append(res)
            print(f"{name} seed {seed}: correct {res['correct']}, "
                  f"{res['failed']}/{res['attempted']} failed", file=sys.stderr)
        shares = {r["failed"] / r["attempted"] for r in results}
        if len(shares) != 1 or not all(r["correct"] for r in results):
            steady = False
        print(f"\n{name}: {args.runs} runs, failed shares {sorted(shares)}")
        print(f"  {'metric':30} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
        for metric in results[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in results]
            med = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = med
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(metric)
            mark = ""
            if bound is not None and metric != "setup_s":
                if spread > bound:
                    mark, steady = "OVER", False
                elif spread >= bound / 3:
                    mark, steady = "WIDE", False
            unit = results[0]["metrics"][metric]["unit"]
            print(f"  {metric + ' (' + unit + ')':30} {med:14.6g} {q1:14.6g} {q3:14.6g} "
                  f"{spread:8.4f} {'' if bound is None else bound:>6} {mark}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
