// In-flight observability plane: windowed digests + online SLO watchdogs.
//
// Where air-analyze interprets a flight after landing, the online plane
// evaluates health *while the system flies*: at every window boundary (a
// deterministic multiple of the configured window length) it samples the
// stack's cumulative counters, folds the deltas into a WindowDigest, and
// runs the SLO watchdogs over the fresh window -- deadline-miss rate per
// partition, jitter-budget erosion, HM error storms, bus saturation and
// backlog growth, span-drop pressure. A breach becomes a tick-stamped
// HealthEvent that is kept in a bounded ring, mirrored as an instant
// kHealth span causally parented on the root-cause chain of the miss it
// covers, and streamed to the NDJSON health sink that tools/air-top tails.
//
// Retention: the sink *is* the digest stream -- a plane keeps no closed
// digest, only one scratch digest it rewrites at every close. HealthEvents
// are retained in a ring of kHealthCapacity (newest win, evictions counted
// exactly), so a plane's memory does not grow with the
// length of the flight. Readers that need every event take it from the sink.
//
// Determinism contract: a window closes at the end of its boundary tick,
// whether that tick is stepped or warped through (Module::warp_advance
// splits a span at each boundary inside it; the World drivers close bus
// windows at the same world ticks with the same frozen bus stats on every
// path). Digest sequences and HealthEvent
// streams are therefore byte-identical across per-tick, warped, lockstep
// and epoch execution -- asserted by tests/test_online.cpp.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "telemetry/digest.hpp"
#include "telemetry/spans.hpp"
#include "util/ring_buffer.hpp"
#include "util/types.hpp"

namespace air::telemetry {

/// Watchdog thresholds (see DESIGN.md section 10 for the rationale).
struct OnlineThresholds {
  /// Deadline watchdog: fires when a window's per-partition miss count
  /// exceeds this. 0 = any in-window miss is a breach (clean-flight SLO).
  std::int64_t max_misses_per_window{0};
  /// Jitter watchdog: fires when the window's minimum observed deadline
  /// slack fell below this budget (slack <= 0 with the default of 1:
  /// a deadline was already due when its record headed the registry).
  std::int64_t jitter_min_slack{1};
  /// HM storm watchdog: fires at/above this many HM reports in one window.
  std::int64_t hm_storm_errors{3};
  /// Span-pressure watchdog: fires at/above this many span evictions (or
  /// any critical trace-ring eviction) in one window.
  std::int64_t span_drop_limit{1};
  /// Bus saturation: fires when the boundary tx backlog reaches this.
  std::int64_t bus_backlog_limit{32};
  /// Bus growth: fires after this many consecutive boundaries of strictly
  /// increasing positive backlog.
  int bus_growth_windows{3};
};

/// Online-plane configuration (part of system::TelemetryConfig).
struct OnlineOptions {
  bool enabled{false};
  /// Window length in ticks. Windows do not cut warp spans (a boundary
  /// warped through closes inside the span), so the length trades digest
  /// resolution against close cost only; the default gives sub-MTF
  /// resolution on Fig. 8.
  Ticks window{256};
  /// EWMA smoothing: alpha = 1/2^ewma_shift per window.
  unsigned ewma_shift{3};
  OnlineThresholds thresholds;
};

/// Cumulative per-partition totals at a window boundary (sampled by the
/// module; the plane differences consecutive samples).
struct OnlinePartitionSample {
  std::uint64_t deadline_misses{0};
  std::uint64_t deadline_checks{0};
  std::uint64_t busy_ticks{0};
  std::uint64_t slack_ticks{0};
  std::uint64_t dispatches{0};
  std::uint64_t hm_errors{0};
  Histogram deadline_slack;  // cumulative registry histogram
};

/// Cumulative module totals at a window boundary.
struct OnlineSample {
  std::vector<OnlinePartitionSample> partitions;
  std::uint64_t ipc_messages{0};
  std::uint64_t ipc_bytes{0};
  std::uint64_t ipc_drops{0};
  std::uint64_t spans_dropped{0};
  std::uint64_t trace_dropped{0};
  std::uint64_t trace_dropped_critical{0};
};

/// Streaming NDJSON consumer (one complete line per call, newline
/// included): every closed digest and every HealthEvent, in emission order.
/// Fires synchronously inside the window close; must not re-enter the plane.
using HealthSink = std::function<void(const std::string& line)>;

/// HealthEvents each plane retains for inspection (newest win; evictions
/// are counted in events_evicted()). The sink still sees every event.
inline constexpr std::size_t kHealthCapacity = 256;

/// The bounded HealthEvent retention both planes share.
class HealthLog {
 public:
  HealthLog() : ring_(kHealthCapacity) {}

  /// Retain `event` (evicting the oldest when full); returns the retained
  /// copy.
  const HealthEvent& keep(HealthEvent event);
  /// Copies of the retained events, oldest first.
  [[nodiscard]] std::vector<HealthEvent> retained() const;
  /// The newest retained event (nullptr = none raised yet).
  [[nodiscard]] const HealthEvent* last() const {
    return ring_.empty() ? nullptr : &ring_.at(ring_.size() - 1);
  }
  /// Events ever kept (retained + evicted), monotonic.
  [[nodiscard]] std::uint64_t raised() const { return raised_; }
  [[nodiscard]] std::uint64_t evicted() const { return evicted_; }

 private:
  util::RingBuffer<HealthEvent> ring_;
  std::uint64_t raised_{0};
  std::uint64_t evicted_{0};
};

/// The per-module plane. Owned by system::Module; the module calls
/// close_window() at the end of every tick that next_close_tick() named.
class OnlinePlane {
 public:
  OnlinePlane(OnlineOptions options, std::string source,
              std::size_t partition_count);

  /// Emit instant kHealth spans, causally parented on root-cause chains.
  void set_spans(SpanRecorder* spans) { spans_ = spans; }
  void set_sink(HealthSink sink) { sink_ = std::move(sink); }

  [[nodiscard]] const OnlineOptions& options() const { return options_; }

  /// The tick whose end closes the next window: (k+1)*window - 1 for the
  /// k-th unclosed window. Always strictly greater than the last closed
  /// boundary, so a warp span can be split at it directly.
  [[nodiscard]] Ticks next_close_tick() const {
    return static_cast<Ticks>(windows_closed_ + 1) * options_.window - 1;
  }

  /// Close the window ending at now+1 with the cumulative totals at the end
  /// of tick `now` (== next_close_tick()). Evaluates the watchdogs and
  /// emits HealthEvents; O(partitions) plus the fixed histogram width.
  void close_window(Ticks now, const OnlineSample& sample);

  // --- inspection (oracles, status_report) ---
  /// Copies of the retained HealthEvents, oldest first.
  [[nodiscard]] std::vector<HealthEvent> events() const {
    return health_.retained();
  }
  [[nodiscard]] std::uint64_t windows_closed() const {
    return windows_closed_;
  }
  /// Breaches ever raised (retained + evicted), monotonic.
  [[nodiscard]] std::uint64_t breaches() const { return health_.raised(); }
  [[nodiscard]] std::uint64_t events_evicted() const {
    return health_.evicted();
  }

  /// One status_report() line: windows closed, breach count, evictions,
  /// last breach.
  [[nodiscard]] std::string summary_line() const;

 private:
  void raise(Ticks now, Watchdog kind, std::int32_t partition,
             std::int64_t value, std::int64_t threshold, std::string detail,
             std::uint64_t cause = 0);

  OnlineOptions options_;
  std::string source_;
  SpanRecorder* spans_{nullptr};
  HealthSink sink_;
  std::uint64_t windows_closed_{0};
  OnlineSample previous_;
  std::vector<Ewma> miss_rate_;  // one per partition
  WindowDigest digest_;          // scratch, rewritten at every close
  HealthLog health_;
};

/// Cumulative bus totals at a world window boundary.
struct BusSample {
  std::uint64_t frames_sent{0};
  std::uint64_t frames_delivered{0};
  std::uint64_t backlog{0};  // pending_total at the boundary
  std::uint64_t spans_dropped{0};
  std::vector<StationWindow> stations;  // cumulative counters per station
};

/// The World-level plane over the TDMA bus. The drivers call
/// close_through() after completing world ticks; boundaries inside warped
/// or fast-path spans close with the span's frozen bus stats, which per-tick
/// execution provably produces too (the bus is idle across such spans).
class BusPlane {
 public:
  BusPlane(OnlineOptions options, std::string source);

  void set_spans(SpanRecorder* spans) { spans_ = spans; }
  void set_sink(HealthSink sink) { sink_ = std::move(sink); }

  [[nodiscard]] const OnlineOptions& options() const { return options_; }
  [[nodiscard]] Ticks next_close_tick() const {
    return static_cast<Ticks>(windows_closed_ + 1) * options_.window - 1;
  }

  /// Close every window whose final tick is <= `completed` (the last world
  /// tick fully processed) with the current cumulative `sample`.
  void close_through(Ticks completed, const BusSample& sample);

  [[nodiscard]] std::vector<HealthEvent> events() const {
    return health_.retained();
  }
  [[nodiscard]] std::uint64_t breaches() const { return health_.raised(); }
  [[nodiscard]] std::uint64_t events_evicted() const {
    return health_.evicted();
  }
  [[nodiscard]] std::string summary_line() const;

 private:
  void close_one(Ticks now, const BusSample& sample);
  void raise(Ticks now, Watchdog kind, std::int64_t value,
             std::int64_t threshold, std::string detail);

  OnlineOptions options_;
  std::string source_;
  SpanRecorder* spans_{nullptr};
  HealthSink sink_;
  std::uint64_t windows_closed_{0};
  BusSample previous_;
  std::int64_t last_backlog_{0};
  int growth_streak_{0};
  WindowDigest digest_;  // scratch, rewritten at every close
  HealthLog health_;
};

}  // namespace air::telemetry
