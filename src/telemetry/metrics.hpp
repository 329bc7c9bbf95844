// Deterministic metrics registry (observability layer).
//
// Quantitative counterpart of the event trace: every layer of the stack
// (PMK, PAL, POS, IPC router, HAL, HM) publishes counters, gauges and
// fixed-bucket histograms here, keyed by {metric, index} where the index is
// a partition, channel or error-code value depending on the metric (see the
// catalogue in DESIGN.md "Observability"). There is deliberately no wall
// clock anywhere: values are tick-stamped by the caller, so two runs of the
// same configuration produce byte-identical snapshots -- the property
// test_determinism asserts and every EXPERIMENTS.md number relies on.
//
// Hot-path discipline: recording is a handful of integer operations behind
// one `enabled` branch; layers hold a nullable MetricsRegistry* and skip
// the call entirely when telemetry is off.
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <string_view>
#include <vector>

#include "util/types.hpp"

namespace air::telemetry {

/// Fixed metric catalogue. Adding a metric = one enum entry + one row in
/// the tables of metrics.cpp (name, kind) + a line in DESIGN.md.
enum class Metric : std::uint8_t {
  // --- PMK (index = partition; -1 = module-wide) ---
  kPartitionContextSwitches = 0,  // counter: dispatches that switched to it
  kPartitionPreemptions,          // counter: times switched away from it
  kPartitionBusyTicks,            // counter: window ticks a process ran
  kPartitionSlackTicks,           // counter: window ticks nothing ran
  kSchedulePreemptionPoints,      // counter (module): Alg. 1 points hit
  kScheduleSwitches,              // counter (module): effective switches
  // --- PAL (index = partition) ---
  kDeadlineChecks,                // counter: earliest-deadline retrievals
  kDeadlineMisses,                // counter: violations detected
  kDeadlineSlack,                 // histogram: deadline - now when a record
                                  //   first heads the registry (headroom)
  kDeadlineLateness,              // histogram: now - deadline, per miss
  kDeadlineRegistryDepth,         // gauge: registered deadlines
  // --- POS (index = partition) ---
  kProcessDispatches,             // counter: schedule() calls with an heir
  kProcessSwitches,               // counter: heir differed from current
  kReadyQueueDepth,               // gauge: ready+running processes
  // --- IPC (index = channel id) ---
  kIpcMessages,                   // counter: messages moved by the router
  kIpcBytes,                      // counter: payload bytes moved
  kIpcDrops,                      // counter: deliveries lost on full ports
  kIpcQueueDepth,                 // gauge: source-port depth after pump
  // --- HAL (index = -1, module-wide) ---
  kTlbHits,                       // counter
  kTlbMisses,                     // counter
  kMmuTableWalks,                 // counter
  kMmuFaults,                     // counter
  // --- spatial / HM ---
  kSpatialViolations,             // counter (index = partition)
  kHmErrors,                      // counter (index = partition)
  kHmErrorsByCode,                // counter (index = hm::ErrorCode)
  kHmActionsByKind,               // counter (index = hm::RecoveryAction)
  // --- telemetry self-observation (index = -1, module-wide) ---
  kSpansRecorded,                 // counter: spans closed by the recorder
  kSpansDropped,                  // counter: closed spans evicted (bounded)
  kSpansOpen,                     // gauge: spans open at snapshot time
  // --- schedulability service (index = -1; host-side batch analysis
  //     plane, published by model::BatchAnalyzer::publish) ---
  kBatchConfigs,                  // counter: candidate configs analysed
  kBatchSchedulable,              // counter: verdicts = schedulable
  kBatchUnschedulable,            // counter: verdicts = unschedulable
  kBatchInfeasible,               // counter: verdicts = infeasible
  kBatchSupplyHits,               // counter: memoised supplies reused
  kBatchSupplyMisses,             // counter: supplies constructed
  kCount
};

enum class MetricKind : std::uint8_t { kCounter, kGauge, kHistogram };

[[nodiscard]] std::string_view to_string(Metric metric);
[[nodiscard]] MetricKind kind_of(Metric metric);

/// Last-value gauge that also tracks the maximum ever set.
struct Gauge {
  std::int64_t last{0};
  std::int64_t max{std::numeric_limits<std::int64_t>::min()};
  std::uint64_t samples{0};
};

/// Fixed-bucket histogram over non-negative values: bucket b counts samples
/// with floor(log2(value+1)) == b, i.e. bounds 0, 1, 2-3, 4-7, ... Negative
/// samples are clamped into bucket 0 (they can only arise from clamped
/// slack) and min/sum/max keep the exact moments.
struct Histogram {
  static constexpr std::size_t kBuckets = 16;

  std::array<std::uint64_t, kBuckets> buckets{};
  std::uint64_t count{0};
  std::int64_t sum{0};
  std::int64_t min{std::numeric_limits<std::int64_t>::max()};
  std::int64_t max{std::numeric_limits<std::int64_t>::min()};

  void observe(std::int64_t value);
  /// Inclusive upper bound of bucket `b` (2^(b+1) - 2; last bucket is open).
  [[nodiscard]] static std::int64_t upper_bound(std::size_t b);
};

/// One snapshot row; exactly one of the value members is meaningful per
/// `kind`. `index` is the catalogue key (-1 = module-wide).
struct MetricSample {
  Metric metric{};
  std::int32_t index{-1};
  MetricKind kind{MetricKind::kCounter};
  std::uint64_t counter{0};
  Gauge gauge{};
  Histogram histogram{};
};

struct MetricsSnapshot {
  Ticks time{0};  // module time the snapshot was taken at
  std::vector<MetricSample> samples;  // ordered by (metric, index)

  /// First sample of `metric` with `index`; nullptr when absent.
  [[nodiscard]] const MetricSample* find(Metric metric,
                                         std::int32_t index = -1) const;
  /// Counter value, 0 when absent (convenience for report code).
  [[nodiscard]] std::uint64_t counter(Metric metric,
                                      std::int32_t index = -1) const;
};

class MetricsRegistry {
 public:
  void enable(bool on) { enabled_ = on; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Counter increment (no-op when disabled).
  void add(Metric metric, std::int32_t index, std::uint64_t delta = 1) {
    if (!enabled_) return;
    counter_slot(metric, index) += delta;
  }

  /// Counter overwrite -- used when scraping a layer-local total into the
  /// registry (scheduler tick counters, MMU stats, ...).
  void set_counter(Metric metric, std::int32_t index, std::uint64_t total) {
    if (!enabled_) return;
    counter_slot(metric, index) = total;
  }

  /// Gauge sample.
  void set(Metric metric, std::int32_t index, std::int64_t value);

  /// Histogram sample.
  void observe(Metric metric, std::int32_t index, std::int64_t value);

  /// Deterministic snapshot: samples ordered by (metric, index), empty
  /// slots (never touched) omitted.
  [[nodiscard]] MetricsSnapshot snapshot(Ticks now) const;

  // --- point reads (online plane sampling; cheaper than a full snapshot) ---

  /// Current counter value; 0 when the slot was never touched.
  [[nodiscard]] std::uint64_t counter_value(Metric metric,
                                            std::int32_t index = -1) const;
  /// Sum of a counter across all touched indices.
  [[nodiscard]] std::uint64_t counter_total(Metric metric) const;
  /// Histogram slot; nullptr when never touched.
  [[nodiscard]] const Histogram* histogram(Metric metric,
                                           std::int32_t index = -1) const;

  void clear();

 private:
  // Per metric, a dense slot vector indexed by key+1 (key -1 = slot 0),
  // grown on demand. Separate stores per kind keep slots small.
  struct Slot {
    std::vector<std::uint64_t> counters;
    std::vector<Gauge> gauges;
    std::vector<Histogram> histograms;
    std::vector<bool> touched;

    void ensure(std::size_t n, MetricKind kind);
  };

  [[nodiscard]] std::uint64_t& counter_slot(Metric metric, std::int32_t index);

  bool enabled_{true};
  std::array<Slot, static_cast<std::size_t>(Metric::kCount)> slots_;
};

}  // namespace air::telemetry
