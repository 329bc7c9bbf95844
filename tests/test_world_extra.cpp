// Additional multi-module World coverage: three-module topologies, sampling
// fan-out over the bus, and bus fairness.
#include <gtest/gtest.h>

#include "system/world.hpp"
#include "telemetry/spans.hpp"
#include "util/trace_export.hpp"

namespace air {
namespace {

using pos::ScriptBuilder;

system::ModuleConfig simple_module(std::int32_t id, std::string partition,
                                   pos::Script script,
                                   std::vector<system::SamplingPortConfig> sp,
                                   std::vector<ipc::ChannelConfig> channels) {
  system::ModuleConfig config;
  config.id = ModuleId{id};
  config.name = "m" + std::to_string(id);
  system::PartitionConfig p;
  p.name = std::move(partition);
  p.sampling_ports = std::move(sp);
  system::ProcessConfig process;
  process.attrs.name = "main";
  process.attrs.priority = 10;
  process.attrs.script = std::move(script);
  p.processes.push_back(std::move(process));
  config.partitions.push_back(std::move(p));
  model::Schedule s;
  s.id = ScheduleId{0};
  s.mtf = 10;
  s.requirements = {{PartitionId{0}, 10, 10}};
  s.windows = {{PartitionId{0}, 0, 10}};
  config.schedules = {s};
  config.channels = std::move(channels);
  return config;
}

TEST(WorldExtra, SamplingFanOutReachesTwoRemoteModules) {
  system::World world({.slot_length = 3, .frames_per_slot = 2,
                       .propagation_delay = 1});

  // Module 0 broadcasts attitude to modules 1 and 2.
  ipc::ChannelConfig broadcast;
  broadcast.id = ChannelId{0};
  broadcast.kind = ipc::ChannelKind::kSampling;
  broadcast.source = {PartitionId{0}, "OUT"};
  broadcast.remote_destinations = {{ModuleId{1}, PartitionId{0}, "IN"},
                                   {ModuleId{2}, PartitionId{0}, "IN"}};
  world.add_module(simple_module(
      0, "SRC",
      ScriptBuilder{}.sampling_write(0, "att").timed_wait(10).build(),
      {{"OUT", ipc::PortDirection::kSource, 32, kInfiniteTime}},
      {broadcast}));

  for (std::int32_t id : {1, 2}) {
    world.add_module(simple_module(
        id, "DST",
        ScriptBuilder{}.sampling_read(0).timed_wait(10).build(),
        {{"IN", ipc::PortDirection::kDestination, 32, 100}}, {}));
  }

  world.run(200);

  for (std::size_t m : {1u, 2u}) {
    const auto valid_reads = world.module(m).trace().filtered(
        util::EventKind::kPortReceive,
        [](const util::TraceEvent& e) { return e.c == 1; });
    EXPECT_GE(valid_reads.size(), 10u) << "module " << m;
  }
  EXPECT_EQ(world.bus().stats().frames_dropped, 0u);
}

TEST(WorldExtra, TdmaGivesEveryStationItsShare) {
  // Three chatty modules all broadcasting: the TDMA cycle bounds what each
  // can transmit; nobody is starved.
  system::World world({.slot_length = 5, .frames_per_slot = 1,
                       .propagation_delay = 1});
  for (std::int32_t id : {0, 1, 2}) {
    ipc::ChannelConfig channel;
    channel.id = ChannelId{0};
    channel.kind = ipc::ChannelKind::kSampling;
    channel.source = {PartitionId{0}, "OUT"};
    channel.remote_destinations = {
        {ModuleId{(id + 1) % 3}, PartitionId{0}, "IN"}};
    world.add_module(simple_module(
        id, "NODE",
        ScriptBuilder{}
            .sampling_write(0, "chatter-" + std::to_string(id))
            .timed_wait(5)
            .build(),
        {{"OUT", ipc::PortDirection::kSource, 32, kInfiniteTime},
         {"IN", ipc::PortDirection::kDestination, 32, 100}},
        {channel}));
  }
  world.run(600);

  // Each module's IN port eventually carries its neighbour's chatter.
  for (std::size_t m = 0; m < 3; ++m) {
    auto& module = world.module(m);
    std::string payload;
    bool valid = false;
    ASSERT_EQ(module.apex(PartitionId{0})
                  .read_sampling_message(PortId{1}, payload, valid),
              apex::ReturnCode::kNoError)
        << "module " << m;
    const std::string expected =
        "chatter-" + std::to_string((m + 2) % 3);
    EXPECT_EQ(payload, expected);
  }
  EXPECT_GT(world.bus().stats().frames_delivered, 100u);
}

TEST(WorldExtra, EpochRunMatchesLockstepOnChattyTopology) {
  // The chatty three-module ring again, driven both ways: per-tick
  // lockstep and the epoch driver.
  auto fly = [](bool lockstep) {
    system::World world({.slot_length = 5, .frames_per_slot = 1,
                         .propagation_delay = 1});
    for (std::int32_t id : {0, 1, 2}) {
      ipc::ChannelConfig channel;
      channel.id = ChannelId{0};
      channel.kind = ipc::ChannelKind::kSampling;
      channel.source = {PartitionId{0}, "OUT"};
      channel.remote_destinations = {
          {ModuleId{(id + 1) % 3}, PartitionId{0}, "IN"}};
      world.add_module(simple_module(
          id, "NODE",
          ScriptBuilder{}
              .sampling_write(0, "chatter-" + std::to_string(id))
              .timed_wait(5)
              .build(),
          {{"OUT", ipc::PortDirection::kSource, 32, kInfiniteTime},
           {"IN", ipc::PortDirection::kDestination, 32, 100}},
          {channel}));
    }
    lockstep ? world.run_lockstep(600) : world.run(600);
    std::string out;
    for (std::size_t m = 0; m < 3; ++m) {
      out += util::to_json(world.module(m).trace());
    }
    out += telemetry::spans_to_json(world.bus_spans());
    out += std::to_string(world.bus().stats().frames_delivered);
    return out;
  };
  EXPECT_EQ(fly(true), fly(false));
}

}  // namespace
}  // namespace air
