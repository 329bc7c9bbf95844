#!/usr/bin/env python3
"""Self-test of the benchmark harness's own checks.

Runs short passes of each workload from the repository root and asserts:
  * a clean run is correct (pass_frac == 1) and reports exactly the metric
    names BENCHMARK.json lists for its mode (--trace 0: end_to_end,
    --trace 1: per_layer);
  * a wrong expected digest (--inject digest) on every workload, and the
    fig8_mission deadline-miss check with nothing to find (--inject
    drop-miss: the faulty process is never started), each set correct to
    false and lower pass_frac by more than its BENCHMARK.json bound.

    python3 perfbench/selftest.py
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SECONDS = "0.5"


def run(workload, trace, inject=None, seed=7):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", SECONDS, "--trace",
           trace]
    if inject:
        cmd += ["--inject", inject]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"FAIL {' '.join(cmd)} exited {proc.returncode}:\n"
                 f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = {"0": [m["name"] for m in bench["end_to_end"]],
             "1": [m["name"] for m in bench["per_layer"]]}
    bound = next(m["bound"] for m in bench["end_to_end"]
                 if m["name"] == "pass_frac")
    failures = 0

    def expect(ok, what):
        nonlocal failures
        print(("ok   " if ok else "FAIL ") + what)
        failures += 0 if ok else 1

    workloads = [w["name"] for w in bench["workloads"]]
    for workload in workloads:
        for trace in ("0", "1"):
            result = run(workload, trace)
            expect(result["correct"] and result["failed"] == 0,
                   f"{workload} --trace {trace}: clean run is correct")
            expect(sorted(result["metrics"]) == sorted(names[trace]),
                   f"{workload} --trace {trace}: metric names match "
                   "BENCHMARK.json")
    mutants = [(w, "digest") for w in workloads]
    mutants.append(("fig8_mission", "drop-miss"))
    for workload, inject in mutants:
        result = run(workload, "0", inject)
        drop = 1 - result["metrics"]["pass_frac"]["value"]
        expect(not result["correct"] and drop > bound,
               f"{workload} --inject {inject}: pass_frac drops by {drop:.3f}"
               f" (bound {bound})")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
