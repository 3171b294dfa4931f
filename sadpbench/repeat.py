#!/usr/bin/env python3
"""Run one workload N times, each with its own seed, and summarise each metric.

    python3 sadpbench/repeat.py --workload NAME [--runs 10] [--sets 2]
                                [--first-seed 1] [--seconds S] [--trace 0|1]

For every metric it prints the first set's median and quartiles
(statistics.quantiles, n=4), its spread (q3 - q1) / median, and, with
--sets 2, the second set's spread and how much worse the second set's median
is than the first's, as a share of the first.  Those figures are what the
end-to-end bounds in BENCHMARK.json are set from: a bound must exceed each
of them.  Each run's metric values go to stderr.  The share of failed operations must be equal in
every run.  Run from the repository root; --seconds defaults to
BENCHMARK.json's run_seconds.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    if proc.returncode != 0 or not result or not result["correct"]:
        sys.exit("seed %d: run failed (exit %d): %s" % (seed, proc.returncode, result))
    return result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    metrics = {m["name"]: m for m in spec["per_layer" if args.trace else "end_to_end"]}
    sets = []
    seed = args.first_seed
    for s in range(args.sets):
        results = []
        for _ in range(args.runs):
            result = run_once(args.workload, seed, args.seconds, args.trace)
            share = result["failed"] / result["attempted"]
            print("set %d seed %d: attempted %d failed %d (share %.6f) %s" % (
                s + 1, seed, result["attempted"], result["failed"], share,
                json.dumps({n: m["value"] for n, m in result["metrics"].items()})),
                file=sys.stderr, flush=True)
            results.append(result)
            seed += 1
        sets.append(results)

    shares = {r["failed"] / r["attempted"] for results in sets for r in results}
    print("workload %s: %d run(s) x %d set(s), %.0f s each, failed shares %s" % (
        args.workload, args.runs, args.sets, args.seconds, sorted(shares)))
    print("%-32s %12s %12s %12s %8s %8s %8s %8s" % (
        "metric", "median", "q1", "q3", "spread", "spread2", "gap", "bound"))
    for name, meta in metrics.items():
        stats = []  # (median, spread) per set
        for results in sets:
            values = [r["metrics"][name]["value"] for r in results]
            q1, _, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            stats.append((median, q1, q3, (q3 - q1) / median if median else float("nan")))
        median, q1, q3, spread = stats[0]
        spread2 = gap = ""
        if len(stats) == 2:
            spread2 = "%.4f" % stats[1][3]
            if median:
                worse = stats[1][0] - median
                if meta["better"] == "higher":
                    worse = -worse
                gap = "%.4f" % (worse / median)
        print("%-32s %12.6g %12.6g %12.6g %8.4f %8s %8s %8s" % (
            name, median, q1, q3, spread, spread2, gap, meta.get("bound", "")))

if __name__ == "__main__":
    main()
