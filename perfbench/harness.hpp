// Shared plumbing of the AIR end-to-end benchmark: command-line options,
// wall-clock spans, order statistics, correctness checks, the result line
// and the profiler calibration. Each workload lives in its own source file
// and fills one Report; main.cpp prints it.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "telemetry/profiler.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{10.0};
  bool trace{false};
  /// Deliberate harness fault for the self-test (selftest.py): "digest"
  /// corrupts an expected digest, "drop-miss" flies fig8_mission without
  /// the faulty process so the Algorithm 3 check has nothing to find.
  std::string inject;
  /// Directory for per-seed output records (empty = no record kept).
  std::string record_dir;
};

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Order statistics over a sample; nearest-rank percentiles.
[[nodiscard]] double median(std::vector<double> values);
[[nodiscard]] double percentile(std::vector<double> values, double q);

/// FNV-1a 64 over bytes, chainable.
[[nodiscard]] std::uint64_t fnv1a(std::string_view bytes,
                                  std::uint64_t hash = 0xcbf29ce484222325ULL);

/// Derive an independent stream seed from (seed, index).
[[nodiscard]] std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t index);

/// Correctness checks, grouped into families (one per property: the
/// Algorithm 3 miss pattern, warped vs per-tick, ...). Every check counts
/// as attempted; a failure is printed to stderr, counted, and fails its
/// whole family. pass_frac is the share of families with no failed check,
/// so a broken property costs a whole family however many of its checks
/// still pass, and pass_frac drops by at least 1 / (number of families).
class Checks {
 public:
  bool expect(std::string_view family, bool ok, std::string_view what);
  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  [[nodiscard]] double pass_frac() const;

 private:
  std::uint64_t attempted_{0};
  std::uint64_t failed_{0};
  std::map<std::string, bool, std::less<>> families_;  // family -> passed
};

struct MetricValue {
  std::string name;
  double value{0};
  std::string unit;
  bool count{false};  // deterministic program state, repeats per seed
};

struct Report {
  Checks checks;
  std::vector<MetricValue> metrics;

  /// A host measurement.
  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit), false});
  }
  /// A count (or ratio of counts) that must repeat exactly for a seed.
  void add_count(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit), true});
  }
};

/// Per-chunk wall times of one timed loop plus the discarded warm-up.
struct ChunkTimes {
  std::vector<double> chunk_s;
  std::size_t warmup_chunks{0};
  double warmup_s{0};

  [[nodiscard]] double total_s() const;
  void append(const ChunkTimes& other);
};

/// One chunk in three parts; only `step` is inside the chunk's clock
/// reads. `before` and `after` hold the seeded inputs and the checks.
struct ChunkSteps {
  std::function<void(std::size_t)> before;  // may be empty
  std::function<void(std::size_t)> step;
  std::function<void(std::size_t)> after;  // may be empty
};

/// Chunks [0, warmup) untimed (reported as the discarded warm-up), then
/// `at_timed_start`, then chunks [warmup, warmup + timed) timed.
[[nodiscard]] ChunkTimes time_chunks(
    const ChunkSteps& steps, std::size_t warmup, std::size_t timed,
    const std::function<void()>& at_timed_start = {});

/// The end-to-end metrics every workload reports (trace off).
///
/// Timings are taken at the host's quiet floor. On a few vCPUs of a shared
/// host, other tenants can slow this code by up to 2x for seconds or
/// minutes at a time, so a run's mean or median chunk time says more about
/// the neighbours than the program. Interference only ever adds time, so
/// the fastest executions of a piece of work are the repeatable measure
/// of its cost: `peak_per_s` is work per second at that floor (see each
/// workload for how it is taken). setup_s is the fastest of the
/// workload's set-ups, spread over the run.
void add_end_to_end(Report& report, double peak_per_s, double setup_s);

/// The fastest of `values` (0 when empty).
[[nodiscard]] double fastest(const std::vector<double>& values);

/// Harness bookkeeping reported with the per-layer metrics: the run's
/// sustained figures (harness.throughput_per_s over every timed chunk,
/// harness.chunk_ms_p50 / _p90), which move with the host, and how many
/// warm-up chunks were discarded, how long they took and how many chunks
/// were timed.
void add_harness_layer(Report& report, const ChunkTimes& times,
                       double work_per_chunk);

/// Peak resident set of this process in MB (getrusage).
[[nodiscard]] double peak_rss_mb();

/// Empty-scope cost of telemetry::HostProfiler measured through its public
/// API: the nanoseconds one scope with nothing inside records. The median
/// of several rounds, so one preempted round cannot skew it.
[[nodiscard]] double profiler_scope_ns();

/// Self nanoseconds per profile point, summed over every stack path the
/// point appears in, with calls x `scope_ns` subtracted (never below 0)
/// when `scope_ns` > 0.
struct PointSelf {
  double self_ns{0};
  std::uint64_t calls{0};
};
[[nodiscard]] std::vector<PointSelf> self_by_point(
    const air::telemetry::HostProfiler& profiler, double scope_ns);

/// Sum of self time and calls over every point.
[[nodiscard]] PointSelf total(const std::vector<PointSelf>& points);

/// trace.* metrics of a traced pass: its overhead against the untraced
/// run, the empty-scope cost, and the share of traced chunk time the
/// layer self times leave unexplained, raw and after subtracting
/// `scopes` x `scope_ns` from both sides.
void add_trace_quality(Report& report, const ChunkTimes& untraced,
                       const ChunkTimes& traced, double attributed_ns,
                       std::uint64_t scopes, double scope_ns);

/// Cross-run determinism: the first run with a given (workload, seed,
/// seconds, key) writes `value` under the record directory; later runs
/// must match it (check family "record-<key>").
void check_record(Report& report, const Options& options,
                  std::string_view key, std::uint64_t value);

/// Result line: {"correct", "attempted", "failed", "metrics"}.
[[nodiscard]] std::string result_json(const Report& report);

// --- workloads ---
void run_fig8_mission(const Options& options, Report& report);
void run_constellation(const Options& options, Report& report);
void run_batch_schedule(const Options& options, Report& report);

}  // namespace perfbench
