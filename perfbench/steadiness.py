#!/usr/bin/env python3
"""Run-to-run spread of every benchmark metric.

Runs every workload once per seed 1..10 with --trace 0 and once with
--trace 1, and prints, per metric, the median and the interquartile range
as a share of the median (statistics.quantiles, n=4); end-to-end metrics
show their BENCHMARK.json bound beside it and the value of every run.
Run from the repository root:

    python3 perfbench/steadiness.py
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = range(1, 11)


def run(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, check=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed} --trace {trace}: incorrect result")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, metrics in (("0", bench["end_to_end"]),
                               ("1", bench["per_layer"])):
            runs = [run(workload, seed, bench["run_seconds"], trace)
                    for seed in SEEDS]
            print(f"{workload} --trace {trace}")
            for metric in metrics:
                values = [r[metric["name"]] for r in runs]
                q1, _, q3 = statistics.quantiles(values, n=4)
                med = statistics.median(values)
                spread = (q3 - q1) / med if med else 0.0
                bound = f"  bound {metric['bound']}" if "bound" in metric else ""
                print(f"  {metric['name']:38s} median {med:<14.6g} "
                      f"iqr/median {spread:7.4f}{bound}")
                if "bound" in metric:  # end-to-end: show every run
                    print("    " + " ".join(f"{v:.6g}" for v in values))
            sys.stdout.flush()


if __name__ == "__main__":
    main()
