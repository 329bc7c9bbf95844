#!/usr/bin/env python3
"""CI gate: assert the switched topology pays off at constellation scale.

Reads a Google Benchmark JSON file containing BM_Constellation_Switched/N
and BM_Constellation_Flat/N and fails unless, at N = 1000 modules:

  1. flat mean_latency_ticks >= MIN_RATIO x the switched one (per-switch
     TDMA cycles deliver a beacon within a few ticks; the flat 2 * N-tick
     cycle makes it wait about N/2 ticks for its slot),
  2. switched mean_epoch_ticks >= MIN_RATIO x the flat one (switched
     bursts drain and the epoch driver warps the quiet gaps; the flat bus
     never drains and pins the World to one-tick epochs), and
  3. switched modules_per_second >= MIN_FLOOR absolute (the real rate,
     in wall time, construction and teardown excluded).

Both ratios are deterministic counters of the simulated flight, the same
on every host. Host rate ratios are deliberately not gated: the sparse
epoch driver runs only the modules with an event in each epoch, so a
one-tick flat epoch no longer pays a full module sweep, and the flat
flight, which delivers a third as many beacons, takes about as much host
time as the switched one (bench_constellation.cpp, DESIGN.md §13).

Usage: check_constellation.py BENCH_constellation.json
                              [min_ratio] [min_floor] [modules]
"""
import json
import sys


def main() -> int:
    if len(sys.argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    path = sys.argv[1]
    min_ratio = float(sys.argv[2]) if len(sys.argv) > 2 else 4.0
    min_floor = float(sys.argv[3]) if len(sys.argv) > 3 else 2.0e6
    modules = sys.argv[4] if len(sys.argv) > 4 else "1000"

    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)

    rates = {}
    latency = {}
    epochs = {}
    for bench in data.get("benchmarks", []):
        name = bench.get("name", "")
        if bench.get("run_type") == "aggregate":
            continue
        for kind in ("Switched", "Flat"):
            prefix = f"BM_Constellation_{kind}/"
            if not name.startswith(prefix):
                continue
            key = (kind, name[len(prefix):].split("/")[0])
            rate = bench.get("modules_per_second")
            if rate is not None:
                # Keep the best repetition per (kind, module count).
                rates[key] = max(rates.get(key, 0.0), float(rate))
            if "mean_latency_ticks" in bench:
                latency[key] = float(bench["mean_latency_ticks"])
            if "mean_epoch_ticks" in bench:
                epochs[key] = float(bench["mean_epoch_ticks"])

    switched = ("Switched", modules)
    flat = ("Flat", modules)
    missing = [f"{key[0]}/{modules} {field}"
               for key in (switched, flat)
               for field, table in (("modules_per_second", rates),
                                    ("mean_latency_ticks", latency),
                                    ("mean_epoch_ticks", epochs))
               if key not in table]
    if missing:
        print(f"error: {path} lacks {', '.join(missing)}", file=sys.stderr)
        return 2

    def ratio(num: float, den: float) -> float:
        return num / den if den > 0 else float("inf")

    latency_ratio = ratio(latency[flat], latency[switched])
    epoch_ratio = ratio(epochs[switched], epochs[flat])
    print(f"constellation at {modules} modules: "
          f"mean latency flat {latency[flat]:.2f} / switched "
          f"{latency[switched]:.2f} ticks -> {latency_ratio:.1f}x; "
          f"mean epoch switched {epochs[switched]:.2f} / flat "
          f"{epochs[flat]:.2f} ticks -> {epoch_ratio:.1f}x "
          f"(gate: >= {min_ratio}x each); switched "
          f"{rates[switched]:.3e} module-ticks/sec (floor {min_floor:.1e}), "
          f"flat {rates[flat]:.3e}")
    failed = False
    if latency_ratio < min_ratio:
        print("error: flat/switched mean frame latency below the gate",
              file=sys.stderr)
        failed = True
    if epoch_ratio < min_ratio:
        print("error: switched/flat mean epoch length below the gate",
              file=sys.stderr)
        failed = True
    if rates[switched] < min_floor:
        print("error: switched modules_per_second below the absolute floor",
              file=sys.stderr)
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
