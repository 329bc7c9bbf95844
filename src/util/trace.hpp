// Structured event trace.
//
// Every observable action in the simulated module (partition dispatches,
// schedule switches, deadline misses, HM reports, port traffic, spatial
// violations) is recorded here. Tests and benches assert on the trace, which
// is how we reproduce the paper's behavioural claims ("the deadline
// violation is detected every time, except the first, that P1 is scheduled
// and dispatched").
//
// Two recording modes:
//  * unbounded (default): append-only vector, complete history -- what the
//    reproduction tests assert on;
//  * flight recorder: two fixed-capacity rings (util::RingBuffer) with an
//    exact dropped-event count. Events are routed by severity: critical
//    events (deadline misses, HM reports, mode/schedule changes, spatial
//    violations) retire into their own ring so a flood of debug-level
//    traffic cannot evict the evidence -- multi-million-tick missions run
//    in O(1) memory and still land with the story of what went wrong.
//
// Independent of the mode, TraceSink observers receive every event as it is
// recorded (streaming consumption: consoles, online monitors, tests),
// instead of scanning the vector post-hoc.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/arena.hpp"
#include "util/ring_buffer.hpp"
#include "util/types.hpp"

namespace air::util {

enum class EventKind : std::uint8_t {
  kPartitionDispatch,   // a = heir partition, b = previous partition
  kPartitionPreempt,    // a = preempted partition, b = heir partition
  kScheduleSwitchReq,   // a = requested schedule
  kScheduleSwitch,      // a = new schedule, b = old schedule
  kScheduleChangeAction,// a = partition, b = action
  kProcessDispatch,     // a = partition, b = process
  kProcessStateChange,  // a = partition, b = process, c = new state
  kDeadlineRegistered,  // a = partition, b = process, c = absolute deadline
  kDeadlineRemoved,     // a = partition, b = process
  kDeadlineMiss,        // a = partition, b = process, c = missed deadline time
  kHmError,             // a = partition, b = process, c = error code
  kHmAction,            // a = partition, b = action taken
  kPortSend,            // a = partition, b = port, c = bytes
  kPortReceive,         // a = partition, b = port, c = bytes
  kSpatialViolation,    // a = partition, b = exec level, c = address
  kClockParavirtTrap,   // a = partition (generic POS tried to disable clock)
  kPartitionModeChange, // a = partition, b = new mode
  kUser,                // free-form, used by example applications
};

[[nodiscard]] std::string_view to_string(EventKind kind);

/// Flight-recorder retention class of an event kind.
enum class Severity : std::uint8_t { kDebug = 0, kInfo = 1, kCritical = 2 };

[[nodiscard]] Severity severity(EventKind kind);

struct TraceEvent {
  Ticks time{0};
  EventKind kind{};
  std::int64_t a{-1};
  std::int64_t b{-1};
  std::int64_t c{-1};
  // Interned: flight labels repeat, so steady-state recording allocates
  // nothing after each distinct label's first occurrence (DESIGN.md §12).
  InternedString label;
};

/// Streaming observer: receives every recorded event, in recording order,
/// at the moment it is recorded. Implementations must not re-enter the
/// trace. Registration is borrowed (the caller keeps ownership).
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void on_event(const TraceEvent& event) = 0;
};

/// Event recorder. Recording can be disabled for benches that measure
/// hot-path cost without trace overhead.
class Trace {
 public:
  void enable(bool on) { enabled_ = on; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  void record(Ticks time, EventKind kind, std::int64_t a = -1,
              std::int64_t b = -1, std::int64_t c = -1,
              std::string_view label = {}) {
    if (!enabled_) return;
    ++recorded_;
    const TraceEvent event{time, kind, a, b, c, intern(label)};
    if (recorder_ == nullptr && sinks_.empty()) {  // common fast path
      events_.push_back(event);
      return;
    }
    record_slow(event);
  }

  // --- label arena ---
  /// Use `arena` (borrowed, must outlive this trace and every retained
  /// event) for label storage instead of the lazily created private one.
  /// Call before the first labelled event is recorded: symbols minted in
  /// the old arena are not migrated.
  void set_arena(StringArena* arena) { arena_ = arena; }
  /// Arena backing the labels: the installed one, the lazily created
  /// private one, or nullptr when no label has been interned yet.
  [[nodiscard]] const StringArena* arena() const { return arena_; }
  /// Intern free text into the label arena (for callers that assemble a
  /// label once and reuse the symbol across events).
  InternedString intern(std::string_view text) {
    if (text.empty()) return {};
    if (arena_ == nullptr) {
      owned_arena_ = std::make_unique<StringArena>();
      arena_ = owned_arena_.get();
    }
    return {arena_, arena_->intern(text)};
  }

  // --- flight recorder ---
  /// Switch to bounded flight-recorder mode: at most `capacity` debug/info
  /// events plus `critical_capacity` critical events are retained (newest
  /// win); older ones are evicted and counted in dropped_events(). Existing
  /// events are re-routed into the rings. Call with the module idle.
  void set_flight_recorder(std::size_t capacity,
                           std::size_t critical_capacity = 256);
  [[nodiscard]] bool flight_recorder() const { return recorder_ != nullptr; }

  /// Exact count of events evicted from the rings (0 in unbounded mode).
  [[nodiscard]] std::uint64_t dropped_events() const;
  /// Subset of dropped_events() that was critical-severity.
  [[nodiscard]] std::uint64_t dropped_critical_events() const;
  /// Events ever recorded (retained + dropped), monotonic.
  [[nodiscard]] std::uint64_t recorded_events() const { return recorded_; }

  // --- streaming sinks ---
  void add_sink(TraceSink* sink);
  void remove_sink(TraceSink* sink);

  /// Retained events in recording order. In flight-recorder mode this is a
  /// materialised merge of the two rings (rebuilt lazily after recording);
  /// in unbounded mode it is the backing vector itself.
  [[nodiscard]] const std::vector<TraceEvent>& events() const;

  [[nodiscard]] std::vector<TraceEvent> filtered(EventKind kind) const;

  /// Events of `kind` satisfying `pred`.
  [[nodiscard]] std::vector<TraceEvent> filtered(
      EventKind kind,
      const std::function<bool(const TraceEvent&)>& pred) const;

  [[nodiscard]] std::size_t count(EventKind kind) const;

  void clear();

  /// Human-readable dump (one event per line), for debugging and examples.
  [[nodiscard]] std::string to_text() const;

 private:
  struct Stored {
    TraceEvent event;
    std::uint64_t seq{0};  // recording order, for the merged view
  };
  struct Recorder {
    Recorder(std::size_t capacity, std::size_t critical_capacity)
        : ring(capacity), critical(critical_capacity) {}
    RingBuffer<Stored> ring;      // severity < kCritical
    RingBuffer<Stored> critical;  // severity == kCritical
    std::uint64_t dropped{0};
    std::uint64_t dropped_critical{0};
    std::uint64_t seq{0};
  };

  void record_slow(const TraceEvent& event);
  void rebuild_view() const;

  bool enabled_{true};
  std::uint64_t recorded_{0};
  StringArena* arena_{nullptr};
  std::unique_ptr<StringArena> owned_arena_;
  // Unbounded-mode storage; in flight-recorder mode, the lazily rebuilt
  // merged view (mutable so the const events() accessor can refresh it).
  mutable std::vector<TraceEvent> events_;
  mutable bool view_dirty_{false};  // flight-recorder mode: events_ stale
  std::unique_ptr<Recorder> recorder_;
  std::vector<TraceSink*> sinks_;
};

}  // namespace air::util
