#!/usr/bin/env bash
# Run every bench_* binary in --json mode, writing one BENCH_<name>.json per
# binary -- the machine-readable perf trajectory the ROADMAP asks for.
#
# Usage: bench/run_benches.sh [--allow-debug] [--only name[,name...]]
#                             [build-dir] [out-dir] [extra bench args...]
# Example: bench/run_benches.sh                      # Release tree, CWD output
#          bench/run_benches.sh build-release perf --benchmark_min_time=0.1
#          bench/run_benches.sh --only constellation  # BENCH_constellation.json
#
# --only builds and runs just the named binaries (bench_<name>), so one
# BENCH_<name>.json can be re-recorded without touching the others.
#
# With no build-dir (or the default "build-release") the script *owns* the
# tree: it configures it as CMAKE_BUILD_TYPE=Release with
# CMAKE_INTERPROCEDURAL_OPTIMIZATION=ON and (re)builds the bench binaries
# before running them, so every number in a BENCH_*.json comes from an
# optimised, LTO'd build -- the Release contract (DESIGN.md §11).
#
# Pointing it at an existing non-Release tree is an error: debug timings
# silently poisoning the checked-in baselines is exactly the failure mode
# this script exists to prevent. --allow-debug is the escape hatch for local
# smoke runs (the JSON is still stamped with the real build type, so a stray
# debug artifact remains self-incriminating).
set -euo pipefail

allow_debug=0
only=""
while [[ "${1:-}" == "--allow-debug" || "${1:-}" == "--only" ]]; do
  if [[ "$1" == "--allow-debug" ]]; then
    allow_debug=1
    shift
  else
    [[ $# -ge 2 ]] || { echo "error: --only needs a bench name" >&2; exit 1; }
    IFS=, read -r -a names <<< "$2"
    only=",$2,"
    shift 2
  fi
done

repo_root=$(cd "$(dirname "$0")/.." && pwd)
build_dir=${1:-build-release}
out_dir=${2:-.}
if [[ $# -ge 2 ]]; then shift 2; elif [[ $# -ge 1 ]]; then shift 1; fi

# Configure the dedicated Release tree on first use. An existing cache is
# reused as-is (incremental rebuild below); a foreign tree is only checked,
# never reconfigured behind its owner's back.
if [[ ! -f "$build_dir/CMakeCache.txt" ]]; then
  echo "== configuring Release bench tree: $build_dir"
  cmake -S "$repo_root" -B "$build_dir" \
    -DCMAKE_BUILD_TYPE=Release \
    -DCMAKE_INTERPROCEDURAL_OPTIMIZATION=ON >/dev/null
fi

build_type=$(sed -n 's/^CMAKE_BUILD_TYPE:[^=]*=//p' "$build_dir/CMakeCache.txt")
if [[ "$build_type" != "Release" ]]; then
  echo "error: bench tree '$build_dir' has CMAKE_BUILD_TYPE='${build_type:-<unset>}'" >&2
  echo "error: baselines must come from a Release tree; re-run with no" >&2
  echo "error: build-dir argument to use the managed 'build-release' tree," >&2
  echo "error: or pass --allow-debug for a local (non-baseline) smoke run" >&2
  [[ $allow_debug -eq 1 ]] || exit 1
  echo "WARNING: --allow-debug: numbers below are NOT comparable to Release baselines" >&2
fi

targets=()
if [[ -n "$only" ]]; then
  for name in "${names[@]}"; do targets+=(--target "bench_${name}"); done
fi
echo "== building bench binaries in $build_dir (${build_type:-unset})"
cmake --build "$build_dir" -j"$(nproc)" "${targets[@]}" >/dev/null

mkdir -p "$out_dir"
found=0
for bin in "$build_dir"/bench/bench_*; do
  [[ -x "$bin" && -f "$bin" ]] || continue
  name=$(basename "$bin")
  name=${name#bench_}
  [[ -z "$only" || "$only" == *",$name,"* ]] || continue
  out="$out_dir/BENCH_${name}.json"
  echo "== $name -> $out"
  # Explicit status check: a crashing or failing bench binary must fail the
  # whole run (set -e alone is silent about *which* binary died).
  if ! "$bin" --json="$out" "$@"; then
    echo "error: $name exited non-zero" >&2
    exit 1
  fi
  # Sanity: the file must exist and be parseable JSON-ish (non-empty).
  [[ -s "$out" ]] || { echo "error: $out is empty" >&2; exit 1; }
  # Stamp the build type into the document (top-level key), so a stray
  # debug-tree run is self-incriminating instead of silently polluting the
  # perf trajectory.
  python3 - "$out" "$build_type" <<'EOF'
import json, sys
path, build_type = sys.argv[1], sys.argv[2]
with open(path) as f:
    doc = json.load(f)
doc["cmake_build_type"] = build_type or "unset"
with open(path, "w") as f:
    json.dump(doc, f, indent=1)
    f.write("\n")
EOF
  found=1
done

if [[ $found -eq 0 ]]; then
  echo "error: no bench binaries found under $build_dir/bench" >&2
  exit 1
fi
