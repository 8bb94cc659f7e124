#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs the command of BENCHMARK.json once per seed on one workload and prints,
for each end-to-end metric, the median of the runs and the distance between
the first and third quartile as a share of the median (Python's
statistics.quantiles with n=4), next to the metric's bound.

    python3 perfbench/spread.py --workload design_sweep --runs 10 [--first-seed 1] [--record out.json]

Run it from the repository root.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--record", help="also write the runs and their summary to this JSON file")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    values = {m["name"]: [] for m in spec["end_to_end"]}
    for i in range(args.runs):
        seed = args.first_seed + i
        cmd = spec["command"] + ["--workload", args.workload, "--seed", str(seed),
                                 "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, check=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            sys.exit(f"seed {seed}: {result['failed']} of {result['attempted']} checks failed")
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + ", ".join(f"{k}={v[-1]:.6g}" for k, v in values.items()), flush=True)

    summary = {}
    print(f"{'metric':<18} {'median':>14} {'iqr/median':>11} {'bound':>6}")
    for metric in spec["end_to_end"]:
        xs = values[metric["name"]]
        q1, _, q3 = statistics.quantiles(xs, n=4)
        med = statistics.median(xs)
        summary[metric["name"]] = {"median": med, "iqr_share": (q3 - q1) / med, "unit": metric["unit"]}
        print(f"{metric['name']:<18} {med:>14.6g} {(q3 - q1) / med:>11.4f} {metric['bound']:>6}")
    if args.record:
        seeds = list(range(args.first_seed, args.first_seed + args.runs))
        with open(args.record, "w") as f:
            json.dump({"workload": args.workload, "seeds": seeds, "runs": values, "summary": summary}, f, indent=1)


if __name__ == "__main__":
    main()
