#!/usr/bin/env python3
"""CI gate: compare fresh Release bench JSONs against checked-in baselines.

For every BENCH_*.json baseline in the baseline directory, loads the
same-named file from the fresh directory and compares each benchmark's
cpu_time by name. A file run with repetitions holds one iteration row per
repetition; a benchmark's cpu_time is the median of its rows, so one
outlier repetition neither fails nor passes the gate. A benchmark regresses
when its fresh cpu_time exceeds baseline * (1 + tolerance); missing
benchmarks and missing files fail too (a silently-dropped benchmark is not
an improvement).

Both documents must carry the "cmake_build_type": "Release" stamp written
by bench/run_benches.sh -- comparing a debug run against a Release baseline
(or vice versa) produces noise, not a verdict (DESIGN.md §11).

Usage: check_regression.py --baseline-dir DIR --fresh-dir DIR
                           [--tolerance 0.10]
                           [--tolerance-for BENCH_NAME=0.25 ...]

Per-benchmark overrides (--tolerance-for) exist for benchmarks whose inner
loop is microseconds-long and scheduler-noise-bound; the default tolerance
covers the rest. New benchmarks present only in the fresh run pass (they
have no baseline yet); improvements always pass.

On every run (pass or fail) the per-benchmark percent-delta table is
printed; when $GITHUB_STEP_SUMMARY is set the same table is appended there
as Markdown, so the CI job summary shows the drift of every benchmark, not
just the ones that breached the gate.
"""
import argparse
import glob
import json
import os
import statistics
import sys


def load(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def benchmarks_by_name(doc: dict) -> dict:
    """{name: (median cpu_time of its iteration rows, time_unit)}."""
    rows = {}
    for bench in doc.get("benchmarks", []):
        if bench.get("run_type") == "aggregate":
            continue
        name = bench.get("name")
        if name and "cpu_time" in bench:
            times, _ = rows.setdefault(name, ([], bench.get("time_unit", "ns")))
            times.append(float(bench["cpu_time"]))
    return {name: (statistics.median(times), unit)
            for name, (times, unit) in rows.items()}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--baseline-dir", required=True)
    parser.add_argument("--fresh-dir", required=True)
    parser.add_argument("--tolerance", type=float, default=0.10,
                        help="allowed fractional cpu_time growth (default 0.10)")
    parser.add_argument("--tolerance-for", action="append", default=[],
                        metavar="NAME=FRAC",
                        help="per-benchmark tolerance override, repeatable")
    args = parser.parse_args()

    overrides = {}
    for spec in args.tolerance_for:
        name, _, frac = spec.partition("=")
        if not frac:
            print(f"error: bad --tolerance-for '{spec}' (want NAME=FRAC)",
                  file=sys.stderr)
            return 2
        overrides[name] = float(frac)

    baselines = sorted(glob.glob(os.path.join(args.baseline_dir, "BENCH_*.json")))
    if not baselines:
        print(f"error: no BENCH_*.json under {args.baseline_dir}", file=sys.stderr)
        return 2

    failures = []
    rows = []  # (name, fresh_cpu, base_cpu, unit, delta_frac, tol, verdict)
    compared = 0
    for base_path in baselines:
        fname = os.path.basename(base_path)
        fresh_path = os.path.join(args.fresh_dir, fname)
        if not os.path.exists(fresh_path):
            failures.append(f"{fname}: no fresh run (bench binary dropped?)")
            continue
        base_doc = load(base_path)
        fresh_doc = load(fresh_path)
        for label, doc in (("baseline", base_doc), ("fresh", fresh_doc)):
            stamp = doc.get("cmake_build_type")
            if stamp != "Release":
                failures.append(
                    f"{fname}: {label} cmake_build_type is "
                    f"{stamp!r}, not 'Release' -- not comparable")
        base_times = benchmarks_by_name(base_doc)
        fresh_times = benchmarks_by_name(fresh_doc)
        for name, (base_cpu, base_unit) in sorted(base_times.items()):
            if name not in fresh_times:
                failures.append(f"{fname}: {name} missing from fresh run")
                continue
            fresh_cpu, fresh_unit = fresh_times[name]
            if fresh_unit != base_unit:
                failures.append(
                    f"{fname}: {name} time_unit changed "
                    f"({base_unit} -> {fresh_unit}); re-baseline")
                continue
            tol = overrides.get(name, args.tolerance)
            limit = base_cpu * (1.0 + tol)
            ratio = fresh_cpu / base_cpu if base_cpu > 0 else float("inf")
            verdict = "ok" if fresh_cpu <= limit else "REGRESSED"
            rows.append((name, fresh_cpu, base_cpu, base_unit,
                         ratio - 1.0, tol, verdict))
            compared += 1
            if fresh_cpu > limit:
                failures.append(
                    f"{fname}: {name} cpu_time {fresh_cpu:.1f} {base_unit} vs "
                    f"baseline {base_cpu:.1f} {base_unit} "
                    f"(+{(ratio - 1):.0%} > {tol:.0%})")

    # Percent-delta table: negative = faster than baseline. Printed on pass
    # too -- slow drift inside the tolerance band is invisible otherwise.
    if rows:
        width = max(len(name) for name, *_ in rows)
        print(f"{'verdict':>9}  {'benchmark':<{width}} {'fresh':>12} "
              f"{'baseline':>12} {'delta':>8} {'tol':>5}")
        for name, fresh_cpu, base_cpu, unit, delta, tol, verdict in rows:
            print(f"{verdict:>9}  {name:<{width}} {fresh_cpu:>10.1f}{unit} "
                  f"{base_cpu:>10.1f}{unit} {delta:>+7.1%} {tol:>5.0%}")

    summary_path = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary_path and rows:
        with open(summary_path, "a", encoding="utf-8") as fh:
            fh.write("### Bench regression gate\n\n")
            fh.write("| benchmark | fresh | baseline | delta | tol | verdict |\n")
            fh.write("|---|---:|---:|---:|---:|---|\n")
            for name, fresh_cpu, base_cpu, unit, delta, tol, verdict in rows:
                marker = "✅" if verdict == "ok" else "❌"
                fh.write(f"| `{name}` | {fresh_cpu:.1f} {unit} "
                         f"| {base_cpu:.1f} {unit} | {delta:+.1%} "
                         f"| {tol:.0%} | {marker} {verdict} |\n")
            fh.write(f"\ncompared {compared} benchmark(s) across "
                     f"{len(baselines)} file(s)\n")

    print(f"compared {compared} benchmark(s) across {len(baselines)} file(s)")
    if failures:
        print(f"\n{len(failures)} regression gate failure(s):", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("bench regression gate: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
