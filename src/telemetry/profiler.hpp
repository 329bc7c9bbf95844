// Hierarchical host profiler (wall-clock cost attribution).
//
// Measures where the real CPU time of a flight goes with nestable scoped
// probes over a static registry of profile points -- PMK partition
// scheduler and dispatcher, the POS kernel's announce and heir pick,
// PAL announce, channel router, bus pump, time-warp scan, epoch barrier,
// and the telemetry plane itself. Scopes aggregate per *stack path* (the
// chain of points from the root), so "router under tick" and "router under
// epoch replay" are separate rows; each path accumulates call count,
// total/max ns, and allocation deltas read from pluggable probes (the
// telemetry StringArena byte counter and the ipc::Payload pool's
// heap-allocation counter), which is how the zero-allocation claim of
// DESIGN.md §12 stays observable in production.
//
// This is *host* observability for the "fast as the hardware allows" goal:
// wall-clock readings never enter metrics snapshots, traces or spans, which
// must stay deterministic (host time differs run to run; simulated state
// must not). Disabled, a scope costs one predictable branch. Enabled, the
// default sampling stride measures one tick in N (the ~32 ns fig8 tick
// cannot afford two clock reads per scope every tick -- bench_telemetry
// mode 8 gates the always-on overhead at <=10%); air-record --profile uses
// stride 1 for exact capture.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "telemetry/arena.hpp"

namespace air::telemetry {

/// Static registry of instrumented sites. Adding a point means adding an
/// enumerator + its to_string name; scopes reference points by value so
/// the registry is closed at compile time (no string hashing at runtime).
enum class ProfilePoint : std::uint8_t {
  kTick = 0,         // Module::tick_once (root of the per-module tree)
  kScheduler,        // Algorithm 1, PMK partition scheduler, all cores
  kDispatcher,       // Algorithm 2, PMK dispatcher, all cores
  kRouter,           // PMK channel pump
  kPal,              // surrogate clock-tick announce + deadline checks
  kExecutor,         // process script interpretation
  kKernelDispatch,   // pos::Kernel tick announce and heir pick (schedule)
  kWarpScan,         // time-warp quiescence scan (Module::warp_headroom)
  kOnlineClose,      // online SLO plane window close
  kTelemetryScrape,  // metrics_snapshot() batched counter scrape
  kEpoch,            // World epoch (root of the World tree)
  kEpochBarrier,     // epoch merge barrier (frame staging -> delivery)
  kBusPump,          // net::Bus tick + frame delivery
  kCount
};

[[nodiscard]] std::string_view to_string(ProfilePoint point);

class HostProfiler {
 public:
  struct PathStats {
    std::uint64_t calls{0};
    std::uint64_t total_ns{0};
    std::uint64_t max_ns{0};
    std::uint64_t arena_bytes{0};  // arena bytes interned inside the scope
    std::uint64_t heap_allocs{0};  // payload-pool heap allocs inside
  };

  /// One stack path. Children of a node are a singly linked sibling list;
  /// node 0 is the synthetic root (point meaningless, never reported).
  struct Node {
    ProfilePoint point{ProfilePoint::kCount};
    std::uint32_t parent{0};
    std::uint32_t first_child{0};
    std::uint32_t next_sibling{0};
    std::uint32_t depth{0};
    PathStats stats;
  };

  HostProfiler() { clear(); }

  void enable(bool on) {
    enabled_ = on;
    if (!on) sampling_ = false;  // Scope reads sampling_ alone; keep it honest
  }
  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Sample one tick in `stride` (>=1). 1 = measure every tick (exact
  /// offline capture); the default keeps always-on overhead inside the
  /// bench_telemetry mode 8 gate. Takes effect at the next begin_tick().
  void set_stride(std::uint32_t stride) {
    stride_ = stride == 0 ? 1 : stride;
    countdown_ = 0;  // re-arm: the next tick starts a fresh sampling cycle
  }
  [[nodiscard]] std::uint32_t stride() const { return stride_; }

  /// Tick-root sampling decision; call once per tick before any Scope.
  /// Returns whether this tick's scopes will measure. A countdown, not a
  /// modulo: integer division costs tens of cycles on a ~30 ns tick.
  bool begin_tick() {
    if (!enabled_) return false;
    ++tick_counter_;
    if (countdown_ == 0) {
      sampling_ = true;
      countdown_ = stride_ - 1;
      ++sampled_ticks_;
    } else {
      sampling_ = false;
      --countdown_;
    }
    return sampling_;
  }
  /// sampling_ is only ever true while enabled (enable(false) clears it),
  /// so the per-scope fast path is a single bool load.
  [[nodiscard]] bool sampling() const { return sampling_; }

  // --- allocation probes ---
  /// Arena whose bytes_used feeds per-scope allocation deltas (borrowed).
  void set_arena_probe(const StringArena* arena) { arena_probe_ = arena; }
  /// Process-wide heap counter (e.g. ipc::Payload pool heap_allocs). A
  /// function pointer so telemetry need not link the layer it observes.
  using HeapProbe = std::uint64_t (*)();
  void set_heap_probe(HeapProbe probe) { heap_probe_ = probe; }

  /// RAII path measurement; a branch when disabled or off-stride.
  class Scope {
   public:
    Scope(HostProfiler& profiler, ProfilePoint point)
        : profiler_(profiler.sampling() ? &profiler : nullptr) {
      if (profiler_ != nullptr) {
        node_ = profiler_->enter(point);
        arena0_ = profiler_->arena_bytes();
        heap0_ = profiler_->heap_allocs();
        start_ = std::chrono::steady_clock::now();
      }
    }
    ~Scope() {
      if (profiler_ != nullptr) {
        const auto elapsed = std::chrono::steady_clock::now() - start_;
        profiler_->leave(
            node_,
            static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
                    .count()),
            profiler_->arena_bytes() - arena0_,
            profiler_->heap_allocs() - heap0_);
      }
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    HostProfiler* profiler_;
    std::uint32_t node_{0};
    std::uint64_t arena0_{0};
    std::uint64_t heap0_{0};
    std::chrono::steady_clock::time_point start_;
  };

  // --- inspection ----------------------------------------------------
  /// All stack paths; nodes_[0] is the synthetic root.
  [[nodiscard]] const std::vector<Node>& nodes() const { return nodes_; }

  /// Ticks actually measured (== total ticks when stride is 1).
  [[nodiscard]] std::uint64_t ticks() const { return sampled_ticks_; }

  /// Stats for `point` aggregated across every path it appears in.
  [[nodiscard]] PathStats point_stats(ProfilePoint point) const;

  /// Self time of a node: total_ns minus its children's total_ns.
  [[nodiscard]] std::uint64_t self_ns(std::uint32_t index) const;

  /// Path of a node from the root, ";"-joined ("tick;pal;kernel_dispatch").
  [[nodiscard]] std::string path(std::uint32_t index) const;

  /// Human-readable attribution table, paths sorted by total ns.
  [[nodiscard]] std::string report() const;

  /// Folded-stack lines ("tick;pal;kernel_dispatch 1234\n", value = self
  /// ns) -- feed to flamegraph.pl / speedscope / inferno.
  [[nodiscard]] std::string folded() const;

  void clear();

 private:
  std::uint32_t enter(ProfilePoint point);
  void leave(std::uint32_t index, std::uint64_t ns, std::uint64_t arena_bytes,
             std::uint64_t heap_allocs);

  [[nodiscard]] std::uint64_t arena_bytes() const {
    return arena_probe_ != nullptr ? arena_probe_->stats().bytes_used : 0;
  }
  [[nodiscard]] std::uint64_t heap_allocs() const {
    return heap_probe_ != nullptr ? heap_probe_() : 0;
  }

  bool enabled_{false};
  bool sampling_{false};
  std::uint32_t stride_{kDefaultStride};
  std::uint32_t countdown_{0};  // ticks until the next sampled one
  std::uint64_t tick_counter_{0};
  std::uint64_t sampled_ticks_{0};
  std::uint32_t current_{0};
  std::vector<Node> nodes_;
  const StringArena* arena_probe_{nullptr};
  HeapProbe heap_probe_{nullptr};

 public:
  /// One measured tick in 512: a sampled tick costs ~0.7 us (about ten
  /// scope pairs, two clock reads each), amortised to ~1.4 ns -- inside
  /// the mode 8 gate (<= 10% over metrics-only) on the ~50 ns fig8 tick.
  static constexpr std::uint32_t kDefaultStride = 512;
};

/// Deterministic-layout JSON export ({"meta": ..., "paths": [...]}) -- the
/// artifact tools/air-profile ingests. Wall-clock *values* differ run to
/// run by nature; the structure does not.
[[nodiscard]] std::string profile_to_json(const HostProfiler& profiler,
                                          std::string_view origin,
                                          int indent = 2);

}  // namespace air::telemetry
