// Golden-trace regression: the Sect. 6 / Fig. 8 reference mission flown for
// ten major time frames must produce a byte-identical event trace on every
// execution driver (per-tick, time-warped, lockstep World, epoch World),
// and that trace must match the digest snapshotted in tests/golden/.
//
// Regenerate the snapshot after an *intentional* behaviour change with:
//   AIR_UPDATE_GOLDEN=1 ./air_tests --gtest_filter='GoldenTrace.*'
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "config/fig8.hpp"
#include "fi/fault_plan.hpp"
#include "system/module.hpp"
#include "system/world.hpp"

namespace air {
namespace {

using scenarios::kFig8Mtf;

constexpr Ticks kMissionMtfs = 10;
constexpr const char* kGoldenPath =
    AIR_SOURCE_DIR "/tests/golden/fig8_mission_trace.digest";

// The reference mission (same shape as tools/air-record): faulty process on
// AOCS, 500 ticks under chi_1, switch to chi_2, fly out the rest.
template <typename Runner>
void fly(system::Module& prototype, Runner&& run) {
  prototype.start_process_by_name(prototype.partition_id("AOCS"),
                                  scenarios::kFaultyProcessName);
  run(500);
  (void)prototype.apex(prototype.partition_id("AOCS"))
      .set_module_schedule(ScheduleId{1});
  run(kMissionMtfs * kFig8Mtf - 500);
}

std::uint64_t module_mission_digest(bool warp) {
  system::Module module(scenarios::fig8_config());
  module.set_time_warp(warp);
  fly(module, [&](Ticks t) { module.run(t); });
  return fi::digest64(module.trace().to_text());
}

std::uint64_t world_mission_digest(bool lockstep) {
  system::ModuleConfig fig8 = scenarios::fig8_config();
  fig8.id = ModuleId{0};
  for (ipc::ChannelConfig& channel : fig8.channels) {
    if (channel.kind == ipc::ChannelKind::kQueuing) {
      channel.remote_destinations.push_back(
          {ModuleId{1}, PartitionId{0}, "SCI_IN"});
    }
  }
  system::World world(
      {.slot_length = 10, .frames_per_slot = 2, .propagation_delay = 2});
  system::Module& prototype = world.add_module(std::move(fig8));

  system::ModuleConfig ground_config;
  ground_config.id = ModuleId{1};
  ground_config.name = "ground";
  system::PartitionConfig ground_partition;
  ground_partition.name = "GROUND";
  ground_partition.queuing_ports.push_back(
      {"SCI_IN", ipc::PortDirection::kDestination, 64, 16});
  system::ProcessConfig archiver;
  archiver.attrs.name = "gs_archiver";
  archiver.attrs.priority = 10;
  archiver.attrs.script = pos::ScriptBuilder{}
                              .queuing_receive(0)
                              .log("science frame archived")
                              .build();
  ground_partition.processes.push_back(std::move(archiver));
  ground_config.partitions.push_back(std::move(ground_partition));
  model::Schedule schedule;
  schedule.id = ScheduleId{0};
  schedule.mtf = kFig8Mtf;
  schedule.requirements = {{PartitionId{0}, kFig8Mtf, kFig8Mtf}};
  schedule.windows = {{PartitionId{0}, 0, kFig8Mtf}};
  ground_config.schedules = {schedule};
  system::Module& ground = world.add_module(std::move(ground_config));

  fly(prototype, [&](Ticks t) {
    if (lockstep) {
      world.run_lockstep(t);
    } else {
      world.run(t);
    }
  });
  // One digest over both modules' traces: the whole world must replay.
  return fi::digest64(ground.trace().to_text(),
                      fi::digest64(prototype.trace().to_text()));
}

bool load_golden(std::uint64_t& module_digest, std::uint64_t& world_digest) {
  std::ifstream in(kGoldenPath);
  if (!in) return false;
  std::string key;
  std::uint64_t value = 0;
  bool have_module = false;
  bool have_world = false;
  while (in >> key >> std::hex >> value) {
    if (key == "module") {
      module_digest = value;
      have_module = true;
    } else if (key == "world") {
      world_digest = value;
      have_world = true;
    }
  }
  return have_module && have_world;
}

void store_golden(std::uint64_t module_digest, std::uint64_t world_digest) {
  std::ofstream out(kGoldenPath, std::ios::binary);
  out << "module " << std::hex << module_digest << "\n"
      << "world " << std::hex << world_digest << "\n";
}

TEST(GoldenTrace, Fig8MissionReplaysIdenticallyOnEveryDriver) {
  const std::uint64_t per_tick = module_mission_digest(/*warp=*/false);
  const std::uint64_t warped = module_mission_digest(/*warp=*/true);
  EXPECT_EQ(per_tick, warped)
      << "time-warp fast-forward altered the mission trace";

  const std::uint64_t lockstep = world_mission_digest(/*lockstep=*/true);
  const std::uint64_t epochs = world_mission_digest(/*lockstep=*/false);
  EXPECT_EQ(lockstep, epochs)
      << "the World epoch driver altered the mission trace";

  if (std::getenv("AIR_UPDATE_GOLDEN") != nullptr) {
    store_golden(per_tick, lockstep);
    GTEST_SKIP() << "golden digests regenerated at " << kGoldenPath;
  }

  std::uint64_t golden_module = 0;
  std::uint64_t golden_world = 0;
  ASSERT_TRUE(load_golden(golden_module, golden_world))
      << "missing " << kGoldenPath
      << " -- regenerate with AIR_UPDATE_GOLDEN=1";
  EXPECT_EQ(per_tick, golden_module)
      << "module mission trace diverged from the golden snapshot; if the "
         "change is intentional, regenerate with AIR_UPDATE_GOLDEN=1";
  EXPECT_EQ(lockstep, golden_world)
      << "world mission trace diverged from the golden snapshot; if the "
         "change is intentional, regenerate with AIR_UPDATE_GOLDEN=1";
}

}  // namespace
}  // namespace air
