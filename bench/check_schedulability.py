#!/usr/bin/env python3
"""CI gate: assert the schedulability service pays for itself.

Reads a Google Benchmark JSON file containing BM_BatchAnalyze_Baseline/N
and BM_BatchAnalyze_Service/N and fails unless, at N = 256 candidates:

  1. service configs_per_second >= MIN_RATIO x the baseline rate. The
     baseline is the pre-service workflow -- every candidate analysed in
     isolation, rebuilding its PST and its O(MTF) PartitionSupply from
     scratch. The service builds each distinct PST once and memoises the
     supplies by canonical window set. Both run on one lane, so the whole
     ratio comes from memoisation, which is why the floor is a property of
     the candidate stream (distinct PSTs ~= count / 8), not of the
     machine. MIN_RATIO is 80% of the lowest of ten same-host runs (4-CPU
     x86-64, Release+LTO, --benchmark_min_time=0.2: 2.65x-3.79x), rounded
     down to a quarter; a service that does not memoise reads about 1.0x.
  2. service configs_per_second >= MIN_FLOOR absolute (a ratio can also be
     met by slowing the strawman; the floor pins the real rate).
  3. service cache_hit_rate >= MIN_HIT_RATE (sanity: the stream actually
     exercised the supply cache; a broken canonical key silently degrades
     to miss-every-time and shows up here before it shows up in wall time).

Usage: check_schedulability.py BENCH_schedulability.json
                               [min_ratio] [min_floor] [min_hit_rate]
"""
import json
import sys


def main() -> int:
    if len(sys.argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    path = sys.argv[1]
    min_ratio = float(sys.argv[2]) if len(sys.argv) > 2 else 2.0
    min_floor = float(sys.argv[3]) if len(sys.argv) > 3 else 2.0e3
    min_hit_rate = float(sys.argv[4]) if len(sys.argv) > 4 else 0.6

    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)

    rates = {}
    hit_rate = None
    for bench in data.get("benchmarks", []):
        if bench.get("run_type") == "aggregate":
            continue
        name = bench.get("name", "")
        for kind in ("Baseline", "Service"):
            if name.startswith(f"BM_BatchAnalyze_{kind}/"):
                rate = bench.get("configs_per_second")
                if rate is not None:
                    rates[kind] = max(rates.get(kind, 0.0), rate)
                if kind == "Service" and "cache_hit_rate" in bench:
                    hit_rate = bench["cache_hit_rate"]

    missing = [k for k in ("Baseline", "Service") if k not in rates]
    if missing:
        print(f"FAIL: no configs_per_second for {missing} in {path}",
              file=sys.stderr)
        return 1
    if hit_rate is None:
        print(f"FAIL: no cache_hit_rate on BM_BatchAnalyze_Service in {path}",
              file=sys.stderr)
        return 1

    ratio = rates["Service"] / rates["Baseline"]
    print(f"schedulability service: {rates['Service']:.0f} configs/s vs "
          f"baseline {rates['Baseline']:.0f} configs/s "
          f"(ratio {ratio:.2f}x, cache hit rate {hit_rate:.3f})")

    ok = True
    if ratio < min_ratio:
        print(f"FAIL: service/baseline ratio {ratio:.2f} < {min_ratio}",
              file=sys.stderr)
        ok = False
    if rates["Service"] < min_floor:
        print(f"FAIL: service rate {rates['Service']:.0f} configs/s < "
              f"floor {min_floor:.0f}", file=sys.stderr)
        ok = False
    if hit_rate < min_hit_rate:
        print(f"FAIL: cache hit rate {hit_rate:.3f} < {min_hit_rate}",
              file=sys.stderr)
        ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
