// Multi-module world: several AIR modules in lockstep on a shared TDMA bus,
// for experiments with physically separated (remote) partitions.
//
// Two drivers with byte-identical observable behaviour (traces, metrics,
// spans, APEX-visible state -- enforced by tests/test_parallel_world.cpp):
//
//  - run_lockstep(): the reference semantics. Per tick: every module
//    executes tick_once() in attach order, outbound frames are injected
//    into the bus, the bus ticks. Quiescent spans are warped in lockstep.
//
//  - run(): the sparse epoch driver. Per epoch it computes a safe horizon
//    E (no bus delivery can land before the epoch's final tick, and no
//    module can emit a frame that would) and runs only the modules whose
//    next event falls inside the epoch, one after another, while remote
//    sends are staged into per-module queues. It then merges the staged
//    frames into the bus in (tick, module attach order) and replays the bus
//    across the epoch. Staging is what keeps the bus order right: a due
//    module runs its whole epoch before the next one starts, so a direct
//    Bus::send would land module 0's late frames ahead of module 1's early
//    ones.
//
//    Sparsity rests on two per-module columns: lag_[i], the ticks module i
//    still owes relative to now(), and quiet_[i], its warp_headroom() read
//    at its own clock. A module is due when quiet_ - lag_ < E (or its warp
//    is off); it then runs lag_ + E ticks at once. Every other module only
//    adds E to its lag: the whole span would have been one pure warp, and
//    a warp may be paid in pieces or at once with the same bytes (the
//    split-warp property, tests/test_time_warp.cpp). Deferred warps are
//    settled just before a bus delivery into the module and for every
//    module when run() returns, so a caller never sees a module behind
//    now(). The horizon reads quiet_ - lag_, which is exactly the headroom
//    a dense driver would have read, so epochs are unchanged. A third
//    column, close_[i], keeps a module from lagging past its own online
//    window close. See DESIGN.md section 8.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/bus.hpp"
#include "system/module.hpp"

namespace air::system {

class World {
 public:
  explicit World(net::BusConfig bus_config = {}) : bus_(bus_config) {
    // The bus gets its own recorder (origin 0xFFFF) so transit spans are
    // deterministically numbered regardless of module count; export it
    // alongside the per-module streams for cross-module flow stitching.
    // Its labels intern into a World-owned arena (transit spans are
    // unlabelled today, but the storage contract matches the modules').
    bus_spans_.set_arena(&arena_);
    bus_spans_.set_origin(telemetry::SpanRecorder::kBusOrigin);
    bus_.set_spans(&bus_spans_);
    profiler_.set_arena_probe(&arena_);
  }
  ~World();

  /// Construct and attach a module. The module's id must be unique.
  Module& add_module(ModuleConfig config);

  /// Advance every module and the bus by `ticks` (sparse epoch driver).
  /// Every module sits at now() when it returns.
  void run(Ticks ticks);

  /// Advance by `ticks` with the reference per-tick lockstep semantics.
  /// run() is byte-identical to this; tests use it as the oracle.
  void run_lockstep(Ticks ticks);

  /// Execution accounting for the drivers (deterministic; not part of the
  /// equivalence contract, exactly like Module::WarpStats).
  struct Stats {
    std::uint64_t epochs{0};           // epoch rounds executed by run()
    std::uint64_t epoch_ticks{0};      // world ticks advanced via epochs
    std::uint64_t module_runs{0};      // Module::run calls issued by epochs
    std::uint64_t settles{0};          // deferred warps paid off
    std::uint64_t frames_merged{0};    // staged frames injected at barriers
    std::uint64_t lockstep_ticks{0};   // per-tick steps in run_lockstep()
    std::uint64_t lockstep_warped{0};  // lockstep-warped ticks
    std::uint64_t lockstep_spans{0};   // lockstep warp spans
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

  /// World section of the integrator status report: module count, epoch
  /// totals, mean epoch length, module runs and settles, bus traffic and
  /// the bus recorder's span retention.
  [[nodiscard]] std::string status_report() const;

  /// Enable the online bus plane: digest windows over the TDMA bus (per
  /// station and global counters) plus the bus-side watchdogs (saturation,
  /// backlog growth, span pressure). Call before the first run; module
  /// planes are configured per module via TelemetryConfig.online.
  void enable_online(telemetry::OnlineOptions options);
  [[nodiscard]] telemetry::BusPlane* bus_plane() { return bus_plane_.get(); }
  [[nodiscard]] const telemetry::BusPlane* bus_plane() const {
    return bus_plane_.get();
  }

  /// Enable the World-level host profiler (epoch driver, merge barrier,
  /// bus pump). Per-module trees live in each module's own profiler; this
  /// one attributes the cross-module machinery. `stride` as in
  /// TelemetryConfig::profiler_stride (sampling unit: one epoch/tick round).
  void enable_profiler(
      std::uint32_t stride = telemetry::HostProfiler::kDefaultStride) {
    profiler_.enable(true);
    profiler_.set_stride(stride);
  }
  [[nodiscard]] telemetry::HostProfiler& profiler() { return profiler_; }
  [[nodiscard]] const telemetry::HostProfiler& profiler() const {
    return profiler_;
  }
  /// Arena backing the bus recorder's labels (status_report stats).
  [[nodiscard]] const telemetry::StringArena& arena() const { return arena_; }

  [[nodiscard]] Ticks now() const { return now_; }
  [[nodiscard]] net::Bus& bus() { return bus_; }
  /// Span recorder for bus transit legs (kMsgBusTransit). add_module
  /// bounds it like the modules: the largest module spans_capacity while
  /// every module is bounded, unbounded once any module is.
  [[nodiscard]] telemetry::SpanRecorder& bus_spans() { return bus_spans_; }
  [[nodiscard]] const telemetry::SpanRecorder& bus_spans() const {
    return bus_spans_;
  }
  [[nodiscard]] Module& module(std::size_t index) { return *modules_[index]; }
  [[nodiscard]] std::size_t module_count() const { return modules_.size(); }

 private:
  /// A remote_send captured during module execution, to be injected into
  /// the bus at the epoch barrier (or at the end of a lockstep tick).
  struct StagedFrame {
    Ticks tick{0};  // module time of the send
    ipc::RemotePortRef dest;
    ipc::Message message;
    ipc::ChannelKind kind{ipc::ChannelKind::kSampling};
  };

  /// Safe epoch length in [1, limit]: no bus delivery (from in-flight or
  /// queued frames, nor from anything a module could send this epoch) can
  /// land before the epoch's final tick. Reads only the live, lag and
  /// quiet columns -- no module is touched.
  [[nodiscard]] Ticks epoch_horizon(Ticks limit) const;

  /// Demote live_ bits for modules that stopped since the last refresh
  /// (stopping is monotone, so a cleared bit never needs rechecking).
  void refresh_live();

  /// Re-read every live module's warp switch and headroom: callers may
  /// mutate modules between runs (schedule switches, start_process,
  /// set_time_warp, tick hooks).
  void refresh_columns();

  /// Pay module i's deferred warp so it sits at now() (no-op at lag 0).
  void settle(std::size_t i);

  /// Inject the staged frames of epoch [start, start + ticks) in (tick,
  /// module attach order) and replay the bus across the span.
  void merge_and_run_bus(Ticks start, Ticks ticks);

  /// Lockstep warp span in [0, limit]: > 0 only when every module is
  /// quiescent for the span and the bus would neither transmit nor
  /// deliver. Caches the member that forced stepping (module index, or
  /// kBusBlocked) so steady stepping rechecks one entity instead of
  /// rescanning every module per tick.
  [[nodiscard]] Ticks lockstep_headroom(Ticks limit);

  /// Cumulative bus totals for the online bus plane, rebuilt in place into
  /// the member scratch (a digest-window sample at constellation scale must
  /// not allocate). Reads only bus and bus-recorder state, which every
  /// driver mutates identically -- the reason bus digests are
  /// byte-identical under lockstep and epochs.
  [[nodiscard]] const telemetry::BusSample& sample_bus() const;

  static constexpr std::uint8_t kStopped = 0;
  static constexpr std::uint8_t kWarping = 1;
  static constexpr std::uint8_t kStepping = 2;
  static constexpr std::size_t kUnblocked = static_cast<std::size_t>(-1);
  static constexpr std::size_t kBusBlocked = static_cast<std::size_t>(-2);

  telemetry::StringArena arena_;  // outlives bus_spans_ (declared first)
  telemetry::HostProfiler profiler_;
  telemetry::SpanRecorder bus_spans_;
  std::unique_ptr<telemetry::BusPlane> bus_plane_;
  net::Bus bus_;
  std::vector<std::unique_ptr<Module>> modules_;
  std::vector<std::vector<StagedFrame>> staged_;  // one queue per module
  // --- constellation hot columns (DESIGN.md §13) ---
  // Per-module per-tick state split out of the heap-owned Module rows so
  // the tick loops and the epoch driver's horizon scans walk compact
  // arrays, not a pointer chase over unique_ptrs:
  std::vector<Module*> mods_;        // flat pointers, attach order
  /// kStopped (monotone: never left), kWarping, or kStepping (time warp
  /// off: due every epoch).
  std::vector<std::uint8_t> live_;
  // Sparse-epoch columns, written by the epoch loop, the barrier's
  // deliveries and run()'s settle pass.
  std::vector<Ticks> lag_;    // ticks owed relative to now_ (pure warp)
  std::vector<Ticks> quiet_;  // warp_headroom() at the module's own clock
  // The module's next online window close (kInfiniteTime: no plane). A
  // module closing a window inside an epoch runs in it, so the planes'
  // shared sinks see the closes in the same order on every driver.
  std::vector<Ticks> close_;
  /// 1 = staged_[i] is non-empty: lets the merge/injection loops skip idle
  /// modules with a byte scan instead of touching every queue.
  std::vector<std::uint8_t> staged_dirty_;
  std::vector<std::size_t> merge_list_;    // scratch: dirty module indices
  std::vector<std::size_t> merge_cursor_;  // scratch, parallel to merge_list_
  mutable std::vector<net::StationStats> station_scratch_;
  mutable telemetry::BusSample bus_sample_;  // sample_bus() storage
  std::size_t warp_blocker_{kUnblocked};
  Stats stats_;
  Ticks now_{0};
};

}  // namespace air::system
