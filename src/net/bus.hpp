// Simulated inter-module communication infrastructure.
//
// Physically separated partitions exchange messages "through a communication
// infrastructure" (Sect. 2.1). We model a time-triggered (TDMA) network in
// the spirit of the TTP protocol the paper cites. Two topologies share one
// implementation:
//
//  - Flat broadcast (stations_per_switch == 0, the legacy default): every
//    attached module owns a transmission slot in one fixed round-robin
//    cycle and may transmit a bounded number of frames per slot; frames
//    arrive after a fixed propagation delay.
//
//  - Hierarchical switched (stations_per_switch > 0): stations hang off
//    switches in attach order, every switch arbitrates its *own* TDMA cycle
//    concurrently (switch-local cycles are stations_per_switch slots long
//    instead of N slots, so aggregate bandwidth grows with the switch
//    count), and frames crossing a switch boundary pay switch_hop_delay
//    extra propagation. Channels additionally map to *virtual links* --
//    unidirectional (source module, destination module) reservations with a
//    per-VL bandwidth budget (minimum gap between transmissions) and jitter
//    budget (accepted queueing delay), as in AFDX/ARINC 664 VLs.
//
// The APEX port API on top is identical for local and remote destinations.
//
// Hot-query contract (constellation scale, DESIGN.md §13): station lookup
// and pending() are O(1) via a ModuleId index; pending_total() is a
// maintained counter; idle_ticks() is O(1) off the in-flight heap;
// next_delivery() is O(active stations), never O(attached stations);
// in_flight_ is a (deliver_at, transmit order) min-heap, not a scanned
// deque. station_stats() fills a caller-provided buffer so digest-window
// sampling allocates nothing in the steady state.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "ipc/router.hpp"
#include "util/types.hpp"

namespace air::net {

struct BusConfig {
  Ticks slot_length{10};        // ticks each module may transmit per cycle
  std::size_t frames_per_slot{4};
  Ticks propagation_delay{1};   // ticks from transmission to delivery
  /// Hierarchical switched topology: stations are grouped onto switches of
  /// this size in attach order, each switch running its own TDMA cycle.
  /// 0 = flat broadcast (one arbitration domain over every station).
  std::size_t stations_per_switch{0};
  /// Extra propagation for frames crossing a switch boundary (the
  /// inter-switch trunk hop). Ignored on the flat topology.
  Ticks switch_hop_delay{2};
};

/// A virtual link: a unidirectional (source module -> destination module)
/// bandwidth reservation. Frames between the pair are accounted against it
/// at their transmit instant; min_gap enforces the bandwidth budget via
/// head-of-line gating at the source station.
struct VirtualLinkConfig {
  ModuleId source;
  ModuleId dest;
  /// Minimum ticks between consecutive transmissions on this VL (the
  /// AFDX bandwidth-allocation gap). 0 = no budget.
  Ticks min_gap{0};
  /// Accepted queueing delay (send -> transmit). A frame exceeding it is
  /// counted as a jitter violation; delivery is never blocked.
  Ticks jitter_budget{kInfiniteTime};
};

struct VirtualLinkStats {
  std::uint64_t frames{0};             // frames transmitted on this VL
  std::uint64_t gated{0};              // transmit slots deferred by min_gap
  std::uint64_t jitter_violations{0};  // queue wait exceeded the budget
  Ticks max_queue_wait{0};             // worst send -> transmit wait
};

/// Per-station counters, in attach order. Sampled by the World's online
/// bus plane at digest-window boundaries.
struct StationStats {
  ModuleId module;
  std::uint64_t frames_sent{0};       // enqueued by this station
  std::uint64_t frames_delivered{0};  // delivered *into* this station
  std::size_t backlog{0};             // tx queue depth at sampling time
};

struct BusStats {
  std::uint64_t frames_sent{0};
  std::uint64_t frames_delivered{0};
  std::uint64_t frames_dropped{0};  // destination module not attached
  Ticks total_latency{0};           // sum over delivered frames (queue+prop)
  // Fault-injection outcomes (src/fi): applied at the transmit point.
  std::uint64_t frames_fault_dropped{0};
  std::uint64_t frames_fault_corrupted{0};
  std::uint64_t frames_fault_delayed{0};
};

class Bus {
 public:
  explicit Bus(BusConfig config = {}) : config_(config) {}

  /// Deliver callback: invoked on the destination module's side with the
  /// destination partition/port and the message.
  using DeliverFn = std::function<void(PartitionId, const std::string& port,
                                       const ipc::Message&, ipc::ChannelKind)>;

  /// Attach a module; slot order (within its switch) is attach order.
  void attach(ModuleId module, DeliverFn deliver);

  /// Reserve a virtual link; returns its index. At most one VL per
  /// (source, dest) pair; frames of unreserved pairs ride unbudgeted.
  std::size_t define_virtual_link(const VirtualLinkConfig& config);

  /// Enqueue a frame for transmission during `from`'s next slot(s).
  void send(ModuleId from, const ipc::RemotePortRef& dest,
            const ipc::Message& message, ipc::ChannelKind kind, Ticks now);

  /// Advance the bus by one tick: every switch's slot owner transmits,
  /// frames whose propagation delay expired are delivered.
  void tick(Ticks now);

  /// How many consecutive calls tick(now), tick(now+1), ... would be
  /// no-ops: 0 while any station has frames queued (its slot will come),
  /// bounded by the earliest in-flight delivery otherwise, kInfiniteTime
  /// when the bus is completely idle. Lets the world-level time warp skip
  /// bus ticks without missing a transmission or delivery. O(1).
  [[nodiscard]] Ticks idle_ticks(Ticks now) const;

  /// Lower bound on the first tick >= `now` at which tick() could deliver a
  /// frame into a module: the earliest in-flight arrival, or -- for frames
  /// still queued at a station -- the first tick of the station's next TDMA
  /// slot plus the propagation delay (the minimum path: VL gating and
  /// switch hops can only push the real delivery later). kInfiniteTime when
  /// nothing is queued or in flight. This is the epoch-horizon query of the
  /// World epoch driver: modules may advance independently past ticks the
  /// bus provably cannot touch. O(stations with queued frames).
  [[nodiscard]] Ticks next_delivery(Ticks now) const;

  /// Total frames queued for transmission across all stations (in-flight
  /// frames excluded). Zero means replaying an epoch's bus ticks can skip
  /// straight to the delivery edge. O(1) (maintained counter).
  [[nodiscard]] std::size_t pending_total() const { return pending_total_; }

  [[nodiscard]] const BusConfig& config() const { return config_; }
  [[nodiscard]] const BusStats& stats() const { return stats_; }
  [[nodiscard]] std::size_t pending(ModuleId module) const;

  /// Fill `out` with cumulative per-station counters in attach order.
  /// Caller-provided storage: the online bus plane samples this every
  /// digest window, and a steady-state sample must not touch the heap
  /// (tests/test_zero_alloc.cpp's claim at constellation scale).
  void station_stats(std::vector<StationStats>& out) const;

  [[nodiscard]] std::size_t station_count() const { return stations_.size(); }
  /// Switch hosting the station attached `station_index`-th (0 on flat).
  [[nodiscard]] std::size_t switch_of(std::size_t station_index) const;
  [[nodiscard]] std::size_t switch_count() const {
    return config_.stations_per_switch == 0
               ? (stations_.empty() ? 0 : 1)
               : (stations_.size() + config_.stations_per_switch - 1) /
                     config_.stations_per_switch;
  }

  [[nodiscard]] std::size_t virtual_link_count() const { return vls_.size(); }
  [[nodiscard]] const VirtualLinkConfig& vl_config(std::size_t vl) const {
    return vls_[vl].config;
  }
  [[nodiscard]] const VirtualLinkStats& vl_stats(std::size_t vl) const {
    return vls_[vl].stats;
  }

  /// Record a transit span per traced frame (open at send, closed at
  /// delivery/drop) in the World's bus recorder. nullptr = off.
  void set_spans(telemetry::SpanRecorder* spans) { spans_ = spans; }

  // --- fault injection (src/fi) ---

  /// What a fault hook may do to one frame at its transmit instant. The
  /// payload is corrupted (never the routing or the trace context), and
  /// extra delay postpones arrival -- later frames with shorter paths then
  /// overtake it, which is how frame *reordering* is modelled.
  struct FaultDecision {
    bool drop{false};
    bool corrupt{false};
    Ticks extra_delay{0};
  };

  /// Consulted when a slot owner moves a frame onto the wire.
  /// `transmit_seq` is the 0-based count of transmissions so far -- a
  /// deterministic key that is identical under lockstep and the epoch
  /// driver (frames reach the transmit point in merged (tick,
  /// attach-order), and switches transmit in index order within a tick).
  using FaultHook = std::function<FaultDecision(
      std::uint64_t transmit_seq, ModuleId from, const ipc::RemotePortRef&)>;

  void set_fault_hook(FaultHook hook) { fault_hook_ = std::move(hook); }
  [[nodiscard]] std::uint64_t transmit_seq() const { return transmit_seq_; }

 private:
  static constexpr std::uint32_t kNoVl = 0xFFFFFFFFu;
  static constexpr std::size_t kNotActive = static_cast<std::size_t>(-1);

  struct Frame {
    ipc::RemotePortRef dest;
    ipc::Message message;
    ipc::ChannelKind kind{ipc::ChannelKind::kSampling};
    Ticks enqueued_at{0};
    telemetry::SpanId span{0};  // open transit span (0 = untraced)
    std::uint32_t vl{kNoVl};    // virtual link carrying this frame
  };
  struct InFlight {
    Frame frame;
    Ticks deliver_at{0};
    std::uint64_t seq{0};  // transmit order; FIFO tie-break in the heap
  };
  struct Station {
    ModuleId module;
    DeliverFn deliver;
    std::deque<Frame> tx_queue;
    std::uint64_t sent{0};       // frames enqueued here
    std::uint64_t delivered{0};  // frames delivered into this station
    std::size_t switch_index{0};
    std::size_t active_pos{kNotActive};  // index into active_stations_
  };
  struct VirtualLink {
    VirtualLinkConfig config;
    VirtualLinkStats stats;
    Ticks next_allowed{0};  // earliest transmit honouring min_gap
  };

  [[nodiscard]] Station* station(ModuleId module);
  [[nodiscard]] const Station* station(ModuleId module) const;
  void mark_active(std::size_t station_index);
  void mark_idle(std::size_t station_index);
  /// Transmit up to frames_per_slot frames from `owner`'s tx queue.
  void transmit_from(std::size_t owner_index, Ticks now);
  /// Min-heap push/pop over in_flight_ ordered by (deliver_at, seq).
  void push_in_flight(InFlight flight);
  [[nodiscard]] InFlight pop_in_flight();
  [[nodiscard]] static std::uint64_t vl_key(ModuleId from, ModuleId to) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(
                from.value()))
            << 32) |
           static_cast<std::uint32_t>(to.value());
  }

  BusConfig config_;
  std::vector<Station> stations_;
  /// ModuleId -> index into stations_ (satellite of DESIGN.md §13: station
  /// lookup and pending() are O(1) even on the flat topology).
  std::unordered_map<std::int32_t, std::size_t> station_index_;
  /// Indices of stations with a non-empty tx queue, unordered (queries over
  /// it are min-folds). Swap-erased via Station::active_pos.
  std::vector<std::size_t> active_stations_;
  /// Binary min-heap keyed (deliver_at, seq): pop order is exactly the
  /// delivery order the old stable-sorted deque produced.
  std::vector<InFlight> in_flight_;
  std::vector<VirtualLink> vls_;
  std::unordered_map<std::uint64_t, std::uint32_t> vl_index_;  // (src,dst)
  std::size_t pending_total_{0};
  BusStats stats_;
  telemetry::SpanRecorder* spans_{nullptr};
  FaultHook fault_hook_;
  std::uint64_t transmit_seq_{0};
  std::uint64_t flight_seq_{0};  // monotone in-flight insertion counter
};

}  // namespace air::net
