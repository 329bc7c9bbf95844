// E10 remote half: the TDMA bus and multi-module remote channels.
// Applications use the same APEX port services whether the peer partition
// is local or on another module (Sect. 2.1).
#include <gtest/gtest.h>

#include "net/bus.hpp"
#include "system/world.hpp"

namespace air {
namespace {

using pos::ScriptBuilder;

TEST(Bus, DeliversAfterPropagationDelay) {
  net::Bus bus({.slot_length = 1, .frames_per_slot = 4,
                .propagation_delay = 3});
  std::vector<std::string> received;
  bus.attach(ModuleId{0}, [](PartitionId, const std::string&,
                             const ipc::Message&, ipc::ChannelKind) {});
  bus.attach(ModuleId{1},
             [&](PartitionId, const std::string& port, const ipc::Message& m,
                 ipc::ChannelKind) {
               received.push_back(port + ":" + m.payload.str());
             });

  bus.send(ModuleId{0}, {ModuleId{1}, PartitionId{0}, "IN"},
           {"hello", 0, PartitionId{0}, {}}, ipc::ChannelKind::kQueuing, 0);
  bus.tick(0);  // module 0 owns slot 0 (slot_length 1): transmits
  bus.tick(1);
  bus.tick(2);
  EXPECT_TRUE(received.empty()) << "still propagating";
  bus.tick(3);
  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(received[0], "IN:hello");
  EXPECT_EQ(bus.stats().frames_delivered, 1u);
}

TEST(Bus, TdmaSlotOwnershipGatesTransmission) {
  net::Bus bus({.slot_length = 10, .frames_per_slot = 1,
                .propagation_delay = 0});
  int deliveries = 0;
  bus.attach(ModuleId{0}, [](PartitionId, const std::string&,
                             const ipc::Message&, ipc::ChannelKind) {});
  bus.attach(ModuleId{1}, [&](PartitionId, const std::string&,
                              const ipc::Message&,
                              ipc::ChannelKind) { ++deliveries; });

  // Module 1 wants to send during module 0's slot: it must wait.
  bus.send(ModuleId{1}, {ModuleId{1}, PartitionId{0}, "P"},
           {"x", 0, PartitionId{0}, {}}, ipc::ChannelKind::kQueuing, 0);
  for (Ticks t = 0; t < 10; ++t) bus.tick(t);
  EXPECT_EQ(deliveries, 0) << "not module 1's slot yet";
  bus.tick(10);  // slot of module 1
  bus.tick(11);
  EXPECT_EQ(deliveries, 1);
}

TEST(Bus, BandwidthPerSlotIsBounded) {
  net::Bus bus({.slot_length = 1, .frames_per_slot = 2,
                .propagation_delay = 0});
  int deliveries = 0;
  bus.attach(ModuleId{0}, [&](PartitionId, const std::string&,
                              const ipc::Message&,
                              ipc::ChannelKind) { ++deliveries; });
  for (int i = 0; i < 5; ++i) {
    bus.send(ModuleId{0}, {ModuleId{0}, PartitionId{0}, "P"},
             {"x", 0, PartitionId{0}, {}}, ipc::ChannelKind::kSampling, 0);
  }
  // A frame transmitted during tick N is delivered no earlier than tick
  // N+1, even with zero propagation delay (the delivery sweep runs before
  // transmission within a tick).
  bus.tick(0);
  EXPECT_EQ(deliveries, 0);
  bus.tick(1);
  EXPECT_EQ(deliveries, 2) << "two frames per visit of the slot";
  bus.tick(2);
  EXPECT_EQ(deliveries, 4);
  bus.tick(3);
  EXPECT_EQ(deliveries, 5);
}

TEST(Bus, UnattachedDestinationCountsAsDropped) {
  net::Bus bus({.slot_length = 1, .frames_per_slot = 4,
                .propagation_delay = 0});
  bus.attach(ModuleId{0}, [](PartitionId, const std::string&,
                             const ipc::Message&, ipc::ChannelKind) {});
  bus.send(ModuleId{0}, {ModuleId{7}, PartitionId{0}, "P"},
           {"x", 0, PartitionId{0}, {}}, ipc::ChannelKind::kSampling, 0);
  bus.tick(0);
  bus.tick(1);
  EXPECT_EQ(bus.stats().frames_dropped, 1u);
}

// ---------- idle_ticks / next_delivery edge cases ----------
// These two queries bound the world-level time warp and the epoch horizon
// respectively; off-by-one here silently corrupts both drivers.

TEST(Bus, IdleQueriesReportInfinityOnAnIdleBus) {
  net::Bus bus({.slot_length = 5, .frames_per_slot = 2,
                .propagation_delay = 3});
  bus.attach(ModuleId{0}, [](PartitionId, const std::string&,
                             const ipc::Message&, ipc::ChannelKind) {});
  bus.attach(ModuleId{1}, [](PartitionId, const std::string&,
                             const ipc::Message&, ipc::ChannelKind) {});
  EXPECT_EQ(bus.idle_ticks(0), kInfiniteTime);
  EXPECT_EQ(bus.next_delivery(0), kInfiniteTime);
  EXPECT_EQ(bus.pending_total(), 0u);
  // A tick leaves an idle bus idle.
  bus.tick(17);
  EXPECT_EQ(bus.idle_ticks(18), kInfiniteTime);
  EXPECT_EQ(bus.next_delivery(18), kInfiniteTime);
}

TEST(Bus, QueuedFrameForDetachedDestinationStillBlocksTheWarp) {
  // The destination is never attached: the transmission will end in a drop,
  // but until it happens the bus is NOT idle -- skipping those ticks would
  // skip the drop (and its stats/span bookkeeping).
  net::Bus bus({.slot_length = 1, .frames_per_slot = 4,
                .propagation_delay = 2});
  bus.attach(ModuleId{0}, [](PartitionId, const std::string&,
                             const ipc::Message&, ipc::ChannelKind) {});
  bus.send(ModuleId{0}, {ModuleId{7}, PartitionId{0}, "P"},
           {"x", 0, PartitionId{0}, {}}, ipc::ChannelKind::kSampling, 0);
  EXPECT_EQ(bus.idle_ticks(0), 0) << "station has a frame queued";
  EXPECT_EQ(bus.pending_total(), 1u);
  EXPECT_EQ(bus.next_delivery(0), 2) << "transmit at 0, arrive at 0+delay";
  bus.tick(0);  // transmits; now in flight toward a hole
  EXPECT_EQ(bus.pending_total(), 0u);
  EXPECT_EQ(bus.idle_ticks(1), 1) << "delivery (the drop) is due at tick 2";
  bus.tick(1);
  bus.tick(2);
  EXPECT_EQ(bus.stats().frames_dropped, 1u);
  EXPECT_EQ(bus.idle_ticks(3), kInfiniteTime);
}

TEST(Bus, NextDeliveryHonoursTdmaSlotBoundaries) {
  // Two stations, slot_length 5 (cycle 10), delay 3. Station 1 owns
  // [5, 10) of every cycle.
  net::Bus bus({.slot_length = 5, .frames_per_slot = 1,
                .propagation_delay = 3});
  bus.attach(ModuleId{0}, [](PartitionId, const std::string&,
                             const ipc::Message&, ipc::ChannelKind) {});
  bus.attach(ModuleId{1}, [](PartitionId, const std::string&,
                             const ipc::Message&, ipc::ChannelKind) {});
  bus.send(ModuleId{1}, {ModuleId{0}, PartitionId{0}, "P"},
           {"x", 0, PartitionId{0}, {}}, ipc::ChannelKind::kSampling, 0);
  // Before the slot: transmission waits for the slot's first tick.
  EXPECT_EQ(bus.next_delivery(0), 5 + 3);
  EXPECT_EQ(bus.next_delivery(4), 5 + 3) << "one tick before the boundary";
  // Exactly at the boundary and inside the slot: transmit immediately.
  EXPECT_EQ(bus.next_delivery(5), 5 + 3) << "first tick of the slot";
  EXPECT_EQ(bus.next_delivery(9), 9 + 3) << "last tick of the slot";
  // Exactly at the closing boundary: wait a full cycle for the next slot.
  EXPECT_EQ(bus.next_delivery(10), 15 + 3);
  EXPECT_EQ(bus.next_delivery(14), 15 + 3);
  // The bound is conservative and monotone in now, never in the past.
  EXPECT_GE(bus.next_delivery(100), 100);
}

TEST(Bus, NextDeliveryCoversInFlightAndQueuedFrames) {
  net::Bus bus({.slot_length = 1, .frames_per_slot = 1,
                .propagation_delay = 4});
  int deliveries = 0;
  bus.attach(ModuleId{0}, [&](PartitionId, const std::string&,
                              const ipc::Message&,
                              ipc::ChannelKind) { ++deliveries; });
  bus.send(ModuleId{0}, {ModuleId{0}, PartitionId{0}, "a"},
           {"x", 0, PartitionId{0}, {}}, ipc::ChannelKind::kSampling, 0);
  bus.send(ModuleId{0}, {ModuleId{0}, PartitionId{0}, "b"},
           {"x", 0, PartitionId{0}, {}}, ipc::ChannelKind::kSampling, 0);
  bus.tick(0);  // frame a transmits (1 frame/slot); b stays queued
  EXPECT_EQ(bus.pending_total(), 1u);
  // In-flight frame a arrives at 4; queued frame b transmits at 1 and
  // would arrive at 5: the earlier one is the bound.
  EXPECT_EQ(bus.next_delivery(1), 4);
  bus.tick(1);  // b transmits
  bus.tick(2);
  bus.tick(3);
  EXPECT_EQ(bus.next_delivery(4), 4) << "delivery due this very tick";
  bus.tick(4);
  EXPECT_EQ(deliveries, 1);
  EXPECT_EQ(bus.next_delivery(5), 5) << "b arrives at 5";
  bus.tick(5);
  EXPECT_EQ(deliveries, 2);
  EXPECT_EQ(bus.next_delivery(6), kInfiniteTime);
}

// ---------- switched topology (DESIGN.md §13) ----------

net::Bus::DeliverFn sink() {
  return [](PartitionId, const std::string&, const ipc::Message&,
            ipc::ChannelKind) {};
}

TEST(BusSwitched, SwitchLocalCyclesRunConcurrently) {
  // 4 stations on 2 switches: stations 0 and 2 both own slot 0 of their
  // switch-local cycle, so both transmit during the same tick -- the
  // aggregate bandwidth a flat cycle cannot offer.
  net::Bus bus({.slot_length = 1, .frames_per_slot = 4,
                .propagation_delay = 1, .stations_per_switch = 2,
                .switch_hop_delay = 2});
  int deliveries = 0;
  bus.attach(ModuleId{0}, sink());
  bus.attach(ModuleId{1}, [&](PartitionId, const std::string&,
                              const ipc::Message&,
                              ipc::ChannelKind) { ++deliveries; });
  bus.attach(ModuleId{2}, sink());
  bus.attach(ModuleId{3}, [&](PartitionId, const std::string&,
                              const ipc::Message&,
                              ipc::ChannelKind) { ++deliveries; });
  EXPECT_EQ(bus.switch_count(), 2u);
  EXPECT_EQ(bus.switch_of(0), 0u);
  EXPECT_EQ(bus.switch_of(3), 1u);

  bus.send(ModuleId{0}, {ModuleId{1}, PartitionId{0}, "P"},
           {"a", 0, PartitionId{0}, {}}, ipc::ChannelKind::kSampling, 0);
  bus.send(ModuleId{2}, {ModuleId{3}, PartitionId{0}, "P"},
           {"b", 0, PartitionId{0}, {}}, ipc::ChannelKind::kSampling, 0);
  bus.tick(0);  // both switches' slot-0 owners transmit concurrently
  EXPECT_EQ(bus.pending_total(), 0u);
  bus.tick(1);
  EXPECT_EQ(deliveries, 2) << "one TDMA tick served two transmissions";
}

TEST(BusSwitched, CrossSwitchFramesPayTheTrunkHop) {
  net::Bus bus({.slot_length = 1, .frames_per_slot = 4,
                .propagation_delay = 1, .stations_per_switch = 2,
                .switch_hop_delay = 2});
  std::vector<std::string> order;
  bus.attach(ModuleId{0}, sink());
  bus.attach(ModuleId{1},
             [&](PartitionId, const std::string&, const ipc::Message& m,
                 ipc::ChannelKind) { order.push_back(m.payload.str()); });
  bus.attach(ModuleId{2}, sink());
  bus.attach(ModuleId{3},
             [&](PartitionId, const std::string&, const ipc::Message& m,
                 ipc::ChannelKind) { order.push_back(m.payload.str()); });

  // Both frames leave station 0 during the same slot tick; the same-switch
  // one arrives after propagation_delay, the cross-switch one two ticks
  // later (the trunk hop).
  bus.send(ModuleId{0}, {ModuleId{3}, PartitionId{0}, "P"},
           {"cross", 0, PartitionId{0}, {}}, ipc::ChannelKind::kSampling, 0);
  bus.send(ModuleId{0}, {ModuleId{1}, PartitionId{0}, "P"},
           {"local", 0, PartitionId{0}, {}}, ipc::ChannelKind::kSampling, 0);
  bus.tick(0);
  bus.tick(1);
  ASSERT_EQ(order.size(), 1u) << "only the intra-switch frame is due";
  EXPECT_EQ(order[0], "local");
  bus.tick(2);
  EXPECT_EQ(order.size(), 1u);
  bus.tick(3);
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[1], "cross") << "propagation + switch_hop_delay";
}

TEST(BusSwitched, FaultDelayedFrameIsOvertakenByALaterTransmission) {
  // A fault-delayed frame stays in flight past a later, shorter-path frame:
  // the (deliver_at, seq) heap must reorder them exactly as the old sorted
  // deque did, and the warp queries must track the *earliest* arrival.
  net::Bus bus({.slot_length = 1, .frames_per_slot = 1,
                .propagation_delay = 1});
  std::vector<std::string> order;
  bus.attach(ModuleId{0}, sink());
  bus.attach(ModuleId{1},
             [&](PartitionId, const std::string&, const ipc::Message& m,
                 ipc::ChannelKind) { order.push_back(m.payload.str()); });
  bus.set_fault_hook([](std::uint64_t seq, ModuleId, const ipc::RemotePortRef&)
                         -> net::Bus::FaultDecision {
    return {.drop = false, .corrupt = false,
            .extra_delay = seq == 0 ? 5 : 0};
  });

  bus.send(ModuleId{0}, {ModuleId{1}, PartitionId{0}, "P"},
           {"first", 0, PartitionId{0}, {}}, ipc::ChannelKind::kSampling, 0);
  bus.send(ModuleId{0}, {ModuleId{1}, PartitionId{0}, "P"},
           {"second", 0, PartitionId{0}, {}}, ipc::ChannelKind::kSampling, 0);
  bus.tick(0);  // "first" transmits, delayed: arrives at 0 + 1 + 5 = 6
  // "second" is still queued; station 0's next slot is tick 2 (cycle 2),
  // so its arrival at 3 -- not the delayed in-flight frame at 6 -- is the
  // next-delivery bound.
  EXPECT_EQ(bus.next_delivery(1), 3);
  EXPECT_EQ(bus.idle_ticks(1), 0) << "a frame is still queued";
  bus.tick(1);
  bus.tick(2);  // "second" transmits: arrives at 2 + 1 = 3
  EXPECT_EQ(bus.idle_ticks(3), 0) << "delivery due this very tick";
  bus.tick(3);
  ASSERT_EQ(order.size(), 1u);
  EXPECT_EQ(order[0], "second") << "overtook the fault-delayed frame";
  EXPECT_EQ(bus.idle_ticks(4), 2) << "nothing to do until tick 6";
  bus.tick(4);
  bus.tick(5);
  bus.tick(6);
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[1], "first");
  EXPECT_EQ(bus.stats().frames_fault_delayed, 1u);
}

TEST(BusSwitched, EmptyVirtualLinksAreFreeForTheWarpQueries) {
  // Reserved-but-silent VLs are pure table entries: they keep no frames
  // alive, so they must not perturb idle_ticks / next_delivery, and
  // traffic of an *unreserved* pair rides past them unbudgeted.
  net::Bus bus({.slot_length = 1, .frames_per_slot = 4,
                .propagation_delay = 1, .stations_per_switch = 2});
  int deliveries = 0;
  bus.attach(ModuleId{0}, sink());
  bus.attach(ModuleId{1}, [&](PartitionId, const std::string&,
                              const ipc::Message&,
                              ipc::ChannelKind) { ++deliveries; });
  const std::size_t ab = bus.define_virtual_link(
      {ModuleId{0}, ModuleId{1}, /*min_gap=*/50, /*jitter_budget=*/10});
  const std::size_t ba = bus.define_virtual_link(
      {ModuleId{1}, ModuleId{0}, /*min_gap=*/50, /*jitter_budget=*/10});
  ASSERT_EQ(bus.virtual_link_count(), 2u);
  EXPECT_EQ(bus.idle_ticks(0), kInfiniteTime);
  EXPECT_EQ(bus.next_delivery(0), kInfiniteTime);

  // The (1, 1) self-pair has no VL: the frame is carried but no VL counter
  // moves, and the silent reservations stay silent.
  bus.send(ModuleId{1}, {ModuleId{1}, PartitionId{0}, "P"},
           {"x", 0, PartitionId{0}, {}}, ipc::ChannelKind::kSampling, 0);
  bus.tick(1);  // station 1 owns switch 0's slot 1
  bus.tick(2);
  EXPECT_EQ(deliveries, 1);
  EXPECT_EQ(bus.vl_stats(ab).frames, 0u);
  EXPECT_EQ(bus.vl_stats(ba).frames, 0u);
  EXPECT_EQ(bus.vl_stats(ab).gated, 0u);
  EXPECT_EQ(bus.idle_ticks(3), kInfiniteTime);
}

TEST(BusSwitched, VlMinGapGatesHeadOfLineTransmissions) {
  net::Bus bus({.slot_length = 1, .frames_per_slot = 4,
                .propagation_delay = 0, .stations_per_switch = 2});
  std::vector<Ticks> arrivals;
  Ticks now = 0;
  bus.attach(ModuleId{0}, sink());
  bus.attach(ModuleId{1},
             [&](PartitionId, const std::string&, const ipc::Message&,
                 ipc::ChannelKind) { arrivals.push_back(now); });
  const std::size_t vl = bus.define_virtual_link(
      {ModuleId{0}, ModuleId{1}, /*min_gap=*/6, /*jitter_budget=*/100});

  bus.send(ModuleId{0}, {ModuleId{1}, PartitionId{0}, "P"},
           {"a", 0, PartitionId{0}, {}}, ipc::ChannelKind::kSampling, 0);
  bus.send(ModuleId{0}, {ModuleId{1}, PartitionId{0}, "P"},
           {"b", 0, PartitionId{0}, {}}, ipc::ChannelKind::kSampling, 0);
  for (now = 0; now <= 8; ++now) bus.tick(now);
  // Station 0 owns even ticks. "a" transmits at 0; "b" is head-of-line
  // gated at 0 (same slot), 2 and 4, then rides the first slot at or after
  // next_allowed = 6.
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_EQ(arrivals[0], 1) << "transmit at 0, deliver next tick";
  EXPECT_EQ(arrivals[1], 7) << "gap expired at 6, delivered next tick";
  EXPECT_EQ(bus.vl_stats(vl).frames, 2u);
  EXPECT_EQ(bus.vl_stats(vl).gated, 3u) << "slot ticks 0, 2 and 4";
}

TEST(BusSwitched, VlJitterBudgetCountsQueueWait) {
  // Station 1 owns [5, 10) of its switch cycle: a frame enqueued at 0
  // waits 5 ticks for its first slot, blowing a 3-tick jitter budget.
  // Delivery is never blocked -- the violation is counted, not enforced.
  net::Bus bus({.slot_length = 5, .frames_per_slot = 1,
                .propagation_delay = 1, .stations_per_switch = 2});
  int deliveries = 0;
  bus.attach(ModuleId{0}, [&](PartitionId, const std::string&,
                              const ipc::Message&,
                              ipc::ChannelKind) { ++deliveries; });
  bus.attach(ModuleId{1}, sink());
  const std::size_t vl = bus.define_virtual_link(
      {ModuleId{1}, ModuleId{0}, /*min_gap=*/0, /*jitter_budget=*/3});

  bus.send(ModuleId{1}, {ModuleId{0}, PartitionId{0}, "P"},
           {"x", 0, PartitionId{0}, {}}, ipc::ChannelKind::kSampling, 0);
  for (Ticks t = 0; t <= 6; ++t) bus.tick(t);
  EXPECT_EQ(deliveries, 1);
  EXPECT_EQ(bus.vl_stats(vl).jitter_violations, 1u);
  EXPECT_EQ(bus.vl_stats(vl).max_queue_wait, 5);
}

TEST(BusSwitched, NextDeliveryWaitsOutTheSwitchLocalSlot) {
  // The queued station's slot never comes inside a short warp window: the
  // bound must point at the slot in the *switch-local* cycle (10 ticks
  // here), not the flat 4-station cycle (20 ticks) -- and idle_ticks must
  // hold the warp at 0 the whole wait.
  net::Bus bus({.slot_length = 5, .frames_per_slot = 1,
                .propagation_delay = 2, .stations_per_switch = 2});
  int deliveries = 0;
  bus.attach(ModuleId{0}, sink());
  bus.attach(ModuleId{1}, sink());
  bus.attach(ModuleId{2}, [&](PartitionId, const std::string&,
                              const ipc::Message&,
                              ipc::ChannelKind) { ++deliveries; });
  bus.attach(ModuleId{3}, sink());

  // Station 3 is switch 1's local slot 1: it owns [5, 10) of each 10-tick
  // switch cycle.
  bus.send(ModuleId{3}, {ModuleId{2}, PartitionId{0}, "P"},
           {"x", 0, PartitionId{0}, {}}, ipc::ChannelKind::kSampling, 0);
  EXPECT_EQ(bus.next_delivery(0), 5 + 2);
  EXPECT_EQ(bus.next_delivery(4), 5 + 2);
  EXPECT_EQ(bus.next_delivery(9), 9 + 2) << "inside the slot";
  EXPECT_EQ(bus.next_delivery(10), 15 + 2) << "next switch-local cycle";
  for (Ticks t = 0; t < 5; ++t) {
    EXPECT_EQ(bus.idle_ticks(t), 0) << "queued frame pins the warp at " << t;
    bus.tick(t);
    EXPECT_EQ(deliveries, 0) << "slot not reached at " << t;
  }
  bus.tick(5);  // transmits (same switch: no trunk hop)
  bus.tick(6);
  bus.tick(7);
  EXPECT_EQ(deliveries, 1) << "transmit at 5 + propagation 2";
}

// ---------- end-to-end: two modules in a World ----------

system::ModuleConfig sender_module() {
  system::ModuleConfig config;
  config.id = ModuleId{0};
  config.name = "sender-module";
  system::PartitionConfig p;
  p.name = "PRODUCER";
  p.queuing_ports.push_back({"OUT", ipc::PortDirection::kSource, 32, 4});
  system::ProcessConfig producer;
  producer.attrs.name = "producer";
  producer.attrs.priority = 10;
  producer.attrs.script = ScriptBuilder{}
                              .queuing_send(0, "telemetry")
                              .timed_wait(20)
                              .build();
  p.processes.push_back(std::move(producer));
  config.partitions.push_back(std::move(p));
  model::Schedule s;
  s.id = ScheduleId{0};
  s.mtf = 10;
  s.requirements = {{PartitionId{0}, 10, 10}};
  s.windows = {{PartitionId{0}, 0, 10}};
  config.schedules = {s};
  // Remote destination: module 1, partition 0, port IN.
  ipc::ChannelConfig channel;
  channel.id = ChannelId{0};
  channel.kind = ipc::ChannelKind::kQueuing;
  channel.source = {PartitionId{0}, "OUT"};
  channel.remote_destinations = {{ModuleId{1}, PartitionId{0}, "IN"}};
  config.channels.push_back(channel);
  return config;
}

system::ModuleConfig receiver_module() {
  system::ModuleConfig config;
  config.id = ModuleId{1};
  config.name = "receiver-module";
  system::PartitionConfig p;
  p.name = "CONSUMER";
  p.queuing_ports.push_back({"IN", ipc::PortDirection::kDestination, 32, 4});
  system::ProcessConfig consumer;
  consumer.attrs.name = "consumer";
  consumer.attrs.priority = 10;
  consumer.attrs.script =
      ScriptBuilder{}.queuing_receive(0).log("received").build();
  p.processes.push_back(std::move(consumer));
  config.partitions.push_back(std::move(p));
  model::Schedule s;
  s.id = ScheduleId{0};
  s.mtf = 10;
  s.requirements = {{PartitionId{0}, 10, 10}};
  s.windows = {{PartitionId{0}, 0, 10}};
  config.schedules = {s};
  return config;
}

TEST(World, RemoteQueuingChannelDeliversAcrossModules) {
  system::World world({.slot_length = 5, .frames_per_slot = 2,
                       .propagation_delay = 2});
  world.add_module(sender_module());
  system::Module& receiver = world.add_module(receiver_module());

  world.run(100);
  const auto& console = receiver.console(PartitionId{0});
  // One message every 20 ticks from t=0; bus adds bounded latency.
  EXPECT_GE(console.size(), 4u);
  EXPECT_LE(console.size(), 5u);
  EXPECT_GT(world.bus().stats().frames_delivered, 0u);
}

TEST(World, ModulesStayInLockstep) {
  system::World world;
  system::Module& a = world.add_module(sender_module());
  system::Module& b = world.add_module(receiver_module());
  world.run(50);
  EXPECT_EQ(a.now(), b.now());
  EXPECT_EQ(a.now(), 49) << "50 ticks: 0..49";
}

}  // namespace
}  // namespace air
