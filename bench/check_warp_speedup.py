#!/usr/bin/env python3
"""CI gate: assert the time warp speeds up a module benchmark.

Reads a Google Benchmark JSON file containing BENCH/0 (warp off) and
BENCH/1 (warp on), BENCH being BM_ModuleTick_IdleHeavy unless --bench names
another (BM_ModuleTick_Fig8Mission), and fails unless the warp-on
sim_ticks_per_second is at least MIN_SPEEDUP x the warp-off rate.

Usage: check_warp_speedup.py BENCH_module_tick.json [min_speedup]
                             [--bench BM_ModuleTick_Fig8Mission]
"""
import argparse
import json
import sys


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n")[0],
        usage=__doc__.split("Usage: ")[1].split("\n\n")[0])
    parser.add_argument("path")
    parser.add_argument("min_speedup", nargs="?", type=float, default=2.0)
    parser.add_argument("--bench", default="BM_ModuleTick_IdleHeavy")
    args = parser.parse_args()

    with open(args.path, encoding="utf-8") as fh:
        data = json.load(fh)

    rates = {}
    for bench in data.get("benchmarks", []):
        name = bench.get("name", "")
        if not name.startswith(args.bench + "/"):
            continue
        if bench.get("run_type") == "aggregate":
            continue
        arg = name.split("/")[1]
        rate = bench.get("sim_ticks_per_second")
        if rate is not None:
            # Keep the best repetition per arg.
            rates[arg] = max(rates.get(arg, 0.0), float(rate))

    if "0" not in rates or "1" not in rates:
        print(f"error: {args.path} lacks {args.bench}/0 and /1 "
              f"(found: {sorted(rates)})", file=sys.stderr)
        return 2

    off, on = rates["0"], rates["1"]
    speedup = on / off if off > 0 else float("inf")
    print(f"{args.bench} sim ticks/sec: warp off {off:.3e}, warp on "
          f"{on:.3e} -> speedup {speedup:.1f}x (gate: >= "
          f"{args.min_speedup}x)")
    if speedup < args.min_speedup:
        print("error: time warp speedup below the gate", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
