// Causal span layer (observability).
//
// Where the metrics registry answers "how much" and the event trace answers
// "what happened", spans answer *why*: every partition window, deadline
// episode (job), interpartition message leg and HM handler invocation is a
// tick-stamped span with a parent link, and message spans additionally carry
// a trace id that follows the payload across the router and the simulated
// bus into other modules of a World (the TraceContext rides inside
// ipc::Message and bus frames). On a PAL deadline violation the system layer
// walks the causal links backwards and attaches a structured root-cause
// chain to the miss ("job preempted by partition window end -> window
// shrunk by mode switch -> switch requested by ..."), which is what the
// post-mortem analyzer (tools/air-analyze) renders.
//
// Discipline is identical to the metrics registry: layers hold a nullable
// SpanRecorder* and pay one branch when spans are off; there is no wall
// clock anywhere, so span streams are byte-identical across runs and with
// the time warp on or off (every span-generating action happens on a
// stepped tick -- the warp's quiescence conditions guarantee it -- except
// the online plane's health spans, raised at a window's boundary tick,
// where a warp span is split).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "telemetry/arena.hpp"
#include "util/fixed_vector.hpp"
#include "util/ring_buffer.hpp"
#include "util/types.hpp"

namespace air::telemetry {

/// Span identifier: 0 = none. Ids are namespaced by the recorder's origin
/// ((origin + 1) << 32 | sequence) so spans from different modules of a
/// World -- and from the World's own bus recorder -- never collide and can
/// be joined offline by the analyzer.
using SpanId = std::uint64_t;

enum class SpanKind : std::uint8_t {
  kPartitionWindow = 0,  // a = partition
  kJob,                  // a = partition, b = process, c = absolute deadline
  kMsgSend,              // a = partition, b = port, c = payload bytes
  kMsgRouterHop,         // a = channel (-1 remote arrival), b = destination
                         //   count, c = payload bytes
  kMsgBusTransit,        // a = sending module, b = destination module,
                         //   c = payload bytes
  kMsgReceive,           // a = partition, b = port, c = payload bytes
  kHmHandler,            // a = partition, b = process, c = error code
  kScheduleSwitch,       // a = new schedule, b = old schedule
  kHealth,               // a = partition (-1 wide), b = Watchdog, c = value
  kCount
};

[[nodiscard]] std::string_view to_string(SpanKind kind);

enum class SpanStatus : std::uint8_t {
  kOpen = 0,      // still running
  kOk,            // completed normally
  kDeadlineMiss,  // job span retired by Algorithm 3
  kAborted,       // superseded / torn down (partition reset, lost frame)
};

[[nodiscard]] std::string_view to_string(SpanStatus status);

struct Span {
  SpanId id{0};
  SpanId parent{0};          // causal parent (0 = root)
  std::uint64_t trace_id{0};  // message flow id (0 = not part of a flow)
  SpanKind kind{SpanKind::kPartitionWindow};
  SpanStatus status{SpanStatus::kOpen};
  Ticks start{0};
  Ticks end{-1};  // -1 while open
  std::int64_t a{-1};
  std::int64_t b{-1};
  std::int64_t c{-1};
  // Interned (DESIGN.md §12): spans are trivially copyable records and a
  // steady-state flight retires them without touching the heap.
  InternedString label;
};

/// Steps of the root-cause chain grammar (DESIGN.md "Observability").
enum class Cause : std::uint8_t {
  kDeadlineMiss = 0,      // a = deadline, b = process
  kJobReleased,           // a = partition
  kWindowEndPreemption,
  kPartitionInactive,
  kScheduleSwitch,        // a = old schedule, b = new schedule
  kRequestedBy,
  kCapacityOverrun,
};

[[nodiscard]] std::string_view to_string(Cause cause);

/// One step of a root-cause chain. A link holds numbers only; its text is
/// rendered by detail() when the chain is exported or inspected, so a miss
/// interns nothing (DESIGN.md §12).
struct CauseLink {
  Cause what{Cause::kDeadlineMiss};
  SpanId span{0};  // causal span the link points at (0 = none recorded)
  Ticks at{-1};
  std::int64_t a{-1};
  std::int64_t b{-1};
};

/// The link's human-readable explanation ("job released at 40 in
/// partition 1").
[[nodiscard]] std::string detail(const CauseLink& link);

/// A deadline miss with its root-cause chain, built at detection time by
/// walking the recorder's causal caches backwards. The longest chain is
/// miss, release, window end, inactive, switch, request: six links.
struct Anomaly {
  Ticks detected_at{0};
  std::int32_t partition{-1};
  std::int32_t process{-1};
  Ticks deadline{-1};
  util::FixedVector<CauseLink, 6> chain;  // first link is the miss itself
};

class SpanRecorder {
 public:
  void enable(bool on) { enabled_ = on; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Id namespace of this recorder (module id; the World bus recorder uses
  /// kBusOrigin). Set once, before recording.
  void set_origin(std::uint32_t origin) { origin_ = origin; }
  [[nodiscard]] std::uint32_t origin() const { return origin_; }

  /// Reserved origin for the World's bus-transit recorder.
  static constexpr std::uint32_t kBusOrigin = 0xFFFF;

  /// Bounded mode: retain at most `capacity` closed spans and as many
  /// anomalies (newest win); evictions are counted exactly in
  /// dropped_spans() and dropped_anomalies(). 0 = unbounded.
  void set_capacity(std::size_t capacity);
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

  /// Use `arena` (borrowed, must outlive this recorder and every retained
  /// span) for label storage instead of the lazily created private one.
  /// Call before the first labelled span is recorded.
  void set_arena(StringArena* arena) { arena_ = arena; }
  /// Arena backing span labels (nullptr until first intern).
  [[nodiscard]] const StringArena* arena() const { return arena_; }

  /// Open a span. Returns 0 when disabled. Message-kind spans passed
  /// trace_id 0 become their own flow root (trace_id = id).
  SpanId begin(SpanKind kind, Ticks start, SpanId parent = 0,
               std::uint64_t trace_id = 0, std::int64_t a = -1,
               std::int64_t b = -1, std::int64_t c = -1,
               std::string_view label = {});

  /// Update the payload of an open span (no-op for unknown/closed ids).
  void annotate(SpanId id, std::int64_t a, std::int64_t b, std::int64_t c);

  /// Close an open span (no-op for unknown ids -- a span may have been
  /// retired through another path already).
  void end(SpanId id, Ticks end, SpanStatus status = SpanStatus::kOk);

  /// Zero-duration span (events that are points on the tick axis).
  SpanId instant(SpanKind kind, Ticks at, SpanId parent = 0,
                 std::uint64_t trace_id = 0, std::int64_t a = -1,
                 std::int64_t b = -1, std::int64_t c = -1,
                 std::string_view label = {});

  // --- causal brokerage between layers -------------------------------
  // Scalar caches maintained by begin()/end() so chain building never has
  // to look up a span that a bounded recorder may already have evicted.

  /// Open window span of `partition` (0 = partition not in a window).
  [[nodiscard]] SpanId current_window(std::int32_t partition) const;
  /// Copy of the last *closed* window span of `partition` (id 0 = none).
  [[nodiscard]] Span last_window(std::int32_t partition) const;
  /// Copy of the last span of `kind` that was closed (id 0 = none).
  [[nodiscard]] Span last_ended(SpanKind kind) const;

  /// One-shot latch: the span that caused the HM report about to be filed
  /// (set by the PAL immediately before invoking HM_DEADLINEVIOLATED,
  /// consumed by the Health Monitor when it records its handler span).
  void set_pending_cause(SpanId id) { pending_cause_ = id; }
  [[nodiscard]] SpanId take_pending_cause() {
    const SpanId id = pending_cause_;
    pending_cause_ = 0;
    return id;
  }

  /// The schedule-switch span opened by SET_MODULE_SCHEDULE and closed by
  /// the scheduler when the switch takes effect at the MTF boundary.
  void set_pending_schedule_switch(SpanId id) { pending_switch_ = id; }
  [[nodiscard]] SpanId take_pending_schedule_switch() {
    const SpanId id = pending_switch_;
    pending_switch_ = 0;
    return id;
  }

  void add_anomaly(const Anomaly& anomaly);
  /// Copies of the retained anomalies, oldest first.
  [[nodiscard]] std::vector<Anomaly> anomalies() const;
  [[nodiscard]] std::size_t anomaly_count() const {
    return anomalies_ == nullptr ? 0 : anomalies_->size();
  }
  /// Exact count of anomalies evicted in bounded mode.
  [[nodiscard]] std::uint64_t dropped_anomalies() const {
    return dropped_anomalies_;
  }
  /// The latest anomaly ever added for `partition` (nullptr = none), kept
  /// apart from the retained ring so eviction never hides it.
  [[nodiscard]] const Anomaly* last_anomaly(std::int32_t partition) const;

  // --- inspection ----------------------------------------------------
  [[nodiscard]] const Span* find_open(SpanId id) const;
  /// Retained closed spans, in retirement order. In bounded mode this is a
  /// lazily materialised view of the ring (rebuilt after retirements); in
  /// unbounded mode it is the backing vector itself.
  [[nodiscard]] const std::vector<Span>& closed() const;
  /// Copies of the still-open spans, in opening order.
  [[nodiscard]] std::vector<Span> open_spans() const;

  /// Spans ever closed (retained + dropped), monotonic.
  [[nodiscard]] std::uint64_t recorded_spans() const { return closed_total_; }
  /// Exact count of closed spans evicted in bounded mode.
  [[nodiscard]] std::uint64_t dropped_spans() const { return dropped_; }
  /// Closed spans held now (the size of closed(), without materialising it).
  [[nodiscard]] std::size_t retained_spans() const {
    return ring_ != nullptr ? ring_->size() : closed_.size();
  }
  [[nodiscard]] std::size_t open_count() const { return open_.size(); }

  void clear();

 private:
  InternedString intern(std::string_view text);
  void retire(Span span);
  /// Move the retained anomalies into a ring of `capacity` (counting the
  /// ones that no longer fit as dropped).
  void rehome_anomalies(std::size_t capacity);

  bool enabled_{true};
  std::uint32_t origin_{0};
  std::uint64_t seq_{0};
  std::size_t capacity_{0};
  StringArena* arena_{nullptr};
  std::unique_ptr<StringArena> owned_arena_;
  std::vector<Span> open_;
  // Unbounded-mode storage; in bounded mode, the lazily rebuilt view of
  // ring_ (mutable so the const closed() accessor can refresh it). Bounded
  // retirement is a preallocated ring write -- no heap traffic per span.
  mutable std::vector<Span> closed_;
  mutable bool view_dirty_{false};
  std::unique_ptr<util::RingBuffer<Span>> ring_;
  std::uint64_t closed_total_{0};
  std::uint64_t dropped_{0};
  std::array<Span, static_cast<std::size_t>(SpanKind::kCount)> last_ended_;
  // Flat keyed-by-partition caches (a handful of partitions; linear scan
  // beats std::map node churn and keeps the steady state allocation-free).
  std::vector<std::pair<std::int32_t, SpanId>> current_window_;
  std::vector<std::pair<std::int32_t, Span>> last_window_;
  SpanId pending_cause_{0};
  SpanId pending_switch_{0};
  // Created with the first anomaly: a recorder that never sees a miss holds
  // no slots. The ring starts at 16 and doubles when full, up to capacity_
  // in bounded mode, so its memory follows the misses actually seen.
  std::unique_ptr<util::RingBuffer<Anomaly>> anomalies_;
  std::uint64_t dropped_anomalies_{0};
  std::vector<std::pair<std::int32_t, Anomaly>> last_anomaly_;
};

/// Deterministic JSON export: {"meta": ..., "spans": [...] (closed + open,
/// ordered by (start, id)), "anomalies": [...]}. This is the span artifact
/// tools/air-analyze ingests.
[[nodiscard]] std::string spans_to_json(const SpanRecorder& spans,
                                        int indent = 2);

}  // namespace air::telemetry
