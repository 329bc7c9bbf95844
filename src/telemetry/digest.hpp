// Tick-windowed telemetry digests (online observability, data layer).
//
// A digest summarises one fixed-length window of ticks [start, end) from the
// *cumulative* counters the stack already maintains: per-partition deadline
// and utilisation deltas, a per-window slice of the log2 deadline-slack
// histogram (exact bucket subtraction of two cumulative snapshots), EWMA
// rates, and module-wide IPC / span-drop / trace-eviction deltas. Everything
// here is integer arithmetic on tick-stamped values -- no floats on the
// update path, no wall clock anywhere -- so digest sequences are
// byte-identical across runs and across the per-tick, warped, lockstep and
// epoch World drivers (tests/test_online.cpp).
//
// The online SLO watchdogs (online.hpp) evaluate each closed digest and emit
// tick-stamped HealthEvents; this header holds the shared value types and
// their deterministic NDJSON serialisation (one compact JSON object per
// line, the stream air-top tails).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "telemetry/metrics.hpp"
#include "util/types.hpp"

namespace air::telemetry {

/// Fixed-point exponentially weighted moving average with alpha = 1/2^shift.
/// The state is an integer scaled by 2^kFracBits, updated with shifts only:
/// deterministic, and cheap enough for per-window updates of many series.
class Ewma {
 public:
  static constexpr unsigned kFracBits = 16;

  explicit Ewma(unsigned shift = 3) : shift_(shift) {}

  void update(std::int64_t sample) {
    const std::int64_t scaled_sample = sample << kFracBits;
    if (samples_ == 0) {
      scaled_ = scaled_sample;  // seed with the first observation
    } else {
      scaled_ += (scaled_sample - scaled_) >> shift_;
    }
    ++samples_;
  }

  /// Current average scaled by 2^kFracBits (the serialised representation).
  [[nodiscard]] std::int64_t scaled() const { return scaled_; }
  /// Current average rounded to the nearest integer.
  [[nodiscard]] std::int64_t rounded() const {
    return (scaled_ + (std::int64_t{1} << (kFracBits - 1))) >> kFracBits;
  }
  [[nodiscard]] std::uint64_t samples() const { return samples_; }

 private:
  unsigned shift_;
  std::int64_t scaled_{0};
  std::uint64_t samples_{0};
};

/// Per-window slice of a cumulative log2 histogram: bucket counts, count and
/// sum subtract exactly. The window min/max are exact whenever the window
/// extended the cumulative extremes; otherwise they fall back to the bounds
/// of the lowest/highest bucket the window touched (log2 resolution) --
/// deterministically in both cases.
[[nodiscard]] Histogram histogram_delta(const Histogram& current,
                                        const Histogram& previous);

/// Quantile extraction over a (window) histogram: the inclusive upper bound
/// of the bucket holding the sample of rank ceil(permille/1000 * count) --
/// the exact rank within the fixed-bucket representation. -1 when empty.
/// `permille` in [0, 1000]; 500 = p50, 950 = p95, 990 = p99.
[[nodiscard]] std::int64_t histogram_quantile(const Histogram& histogram,
                                              unsigned permille);

/// Per-partition slice of one closed window.
struct PartitionWindow {
  std::int64_t deadline_misses{0};   // misses detected in the window
  std::int64_t deadline_checks{0};   // Algorithm 3 retrievals in the window
  std::int64_t busy_ticks{0};
  std::int64_t slack_ticks{0};
  std::int64_t dispatches{0};        // POS dispatches in the window
  std::int64_t hm_errors{0};         // HM reports attributed to the partition
  Histogram deadline_slack;          // window slice (histogram_delta)
  std::int64_t miss_rate_scaled{0};  // EWMA of misses/window, 2^16-scaled
};

/// One per-station (per attached module) slice of a bus window -- the
/// "virtual link" view of the TDMA bus.
struct StationWindow {
  std::int32_t module{-1};
  std::int64_t frames_sent{0};       // enqueued by the station in the window
  std::int64_t frames_delivered{0};  // delivered *into* the station
  std::int64_t backlog{0};           // tx queue depth at the window boundary
};

/// One closed digest window [start, end). Module planes fill `partitions`;
/// the World's bus plane fills `stations` and the bus fields instead.
struct WindowDigest {
  std::uint64_t index{0};  // 0-based window number
  Ticks start{0};
  Ticks end{0};

  // --- module plane ---
  std::vector<PartitionWindow> partitions;
  std::int64_t ipc_messages{0};
  std::int64_t ipc_bytes{0};
  std::int64_t ipc_drops{0};

  // --- bus plane ---
  std::vector<StationWindow> stations;
  std::int64_t bus_frames_sent{0};
  std::int64_t bus_frames_delivered{0};
  std::int64_t bus_backlog{0};  // pending_total at the boundary

  // --- telemetry self-observation (both planes) ---
  std::int64_t spans_dropped{0};
  std::int64_t trace_dropped{0};
  std::int64_t trace_dropped_critical{0};
};

/// The online SLO watchdog catalogue.
enum class Watchdog : std::uint8_t {
  kDeadlineMissRate = 0,  // in-window misses above threshold (per partition)
  kJitterBudget,          // deadline slack eroded below the jitter budget
  kHmErrorStorm,          // HM reports in one window at/above threshold
  kBusSaturation,         // bus tx backlog at/above threshold at a boundary
  kBusBacklogGrowth,      // backlog strictly growing across N boundaries
  kSpanDropPressure,      // span evictions / critical trace drops in-window
  kCount
};

[[nodiscard]] std::string_view to_string(Watchdog watchdog);

/// A watchdog breach: tick-stamped, attributed, and causally linked (when a
/// root-cause chain covers the window) to the span stream of PR 3.
struct HealthEvent {
  Ticks tick{0};                 // window-close tick the breach was raised at
  Watchdog kind{Watchdog::kDeadlineMissRate};
  std::int32_t partition{-1};    // -1 = module- or bus-wide
  std::int64_t value{0};         // observed value
  std::int64_t threshold{0};     // configured threshold it crossed
  std::uint64_t window_index{0};
  std::uint64_t cause{0};        // causal span id (0 = no chain recorded)
  std::string detail;
};

/// Deterministic single-line JSON ({"type":"digest",...}\n) for the
/// streaming NDJSON health sink. `source` names the emitting plane (module
/// name or "bus").
[[nodiscard]] std::string digest_ndjson(std::string_view source,
                                        const WindowDigest& digest);

/// Deterministic single-line JSON ({"type":"health",...}\n).
[[nodiscard]] std::string health_ndjson(std::string_view source,
                                        const HealthEvent& event);

}  // namespace air::telemetry
