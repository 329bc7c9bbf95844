#!/usr/bin/env python3
"""End-to-end benchmark of the AIR stack.

Builds the AIR libraries and the harness (perfbench/CMakeLists.txt,
Release + LTO) into .bench_build/perfbench, then runs one workload:

    python3 perfbench/run.py --workload fig8_mission --seed 1 \
        --seconds 10 --trace 0

Run it from the repository root. The last line of standard output is the
result: {"correct", "attempted", "failed", "metrics"}. --trace 0 reports
the end-to-end metrics, --trace 1 every per-layer metric BENCHMARK.json
lists, in its order; a layer the workload does not run (the World on
fig8_mission, the simulator on batch_schedule, the per-tick stack on
constellation_128, which reaches it only through warp_advance) reads 0.
Build output goes to standard error. Exits non-zero, without a result
line, when the sources or the build are missing or the harness fails.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "air_perfbench")
WORKLOADS = ("fig8_mission", "constellation_128", "batch_schedule")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("error: AIR sources (src/) not found next to perfbench/")
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "--target", "air_perfbench", "-j", jobs],
    ):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("error: build failed: " + " ".join(cmd))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--inject", choices=("digest", "drop-miss"),
                        help="deliberately break one check (self-test)")
    args = parser.parse_args()

    build()
    # Per-seed records are compared only between runs of the same binary.
    with open(BINARY, "rb") as f:
        build_id = hashlib.sha1(f.read()).hexdigest()[:16]
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--record-dir", os.path.join(BUILD, "records", build_id)]
    if args.inject:
        cmd += ["--inject", args.inject]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if proc.returncode:
        sys.exit(proc.returncode)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if args.trace == "1":
        result["metrics"] = per_layer(result["metrics"])
    print(json.dumps(result))


def per_layer(measured):
    """The BENCHMARK.json per-layer list, filled from `measured`."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        listed = json.load(f)["per_layer"]
    units = {m["name"]: m["unit"] for m in listed}
    for name, metric in measured.items():
        if units.get(name) != metric["unit"]:
            sys.exit(f"error: harness metric {name} ({metric['unit']}) is "
                     "not listed in BENCHMARK.json per_layer")
    return {m["name"]: measured.get(m["name"],
                                    {"value": 0, "unit": m["unit"]})
            for m in listed}


if __name__ == "__main__":
    main()
