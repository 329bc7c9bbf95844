// Fault-injection campaign engine: deterministic plans, byte-identical
// replay under every execution driver, containment oracles, and the
// campaign runner's breach detection + reproducer minimization.
#include <gtest/gtest.h>

#include "config/fig8.hpp"
#include "fi/campaign.hpp"
#include "system/module.hpp"
#include "system/world.hpp"

namespace air::fi {
namespace {

using scenarios::kFig8Mtf;

PlanSpec small_spec() {
  PlanSpec spec;
  spec.first_tick = 50;
  spec.horizon = 3700;
  spec.min_gap = kFig8Mtf;
  spec.partitions = 4;
  spec.max_injections = 4;
  spec.classes = {
      FaultClass::kMemoryBitFlip,  FaultClass::kRogueWrite,
      FaultClass::kProcessOverrun, FaultClass::kApplicationError,
      FaultClass::kScheduleStorm,  FaultClass::kBusFrameDrop,
  };
  return spec;
}

TEST(FaultPlan, GenerationIsDeterministic) {
  const PlanSpec spec = small_spec();
  const FaultPlan a = generate_plan(spec, 42);
  const FaultPlan b = generate_plan(spec, 42);
  EXPECT_EQ(a, b) << "same spec + seed must yield the identical plan";
  ASSERT_FALSE(a.injections.empty());
  EXPECT_GE(a.injections.front().tick, spec.first_tick);
  // Injections stay sorted and spaced by at least min_gap.
  for (std::size_t i = 1; i < a.injections.size(); ++i) {
    EXPECT_GE(a.injections[i].tick,
              a.injections[i - 1].tick + spec.min_gap);
  }
  // Different seeds diverge (checked over a few to dodge coincidences).
  bool diverged = false;
  for (std::uint64_t seed = 43; seed < 48 && !diverged; ++seed) {
    diverged = !(generate_plan(spec, seed) == a);
  }
  EXPECT_TRUE(diverged);
}

TEST(FaultPlan, TextFormRoundTrips) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const FaultPlan plan = generate_plan(small_spec(), seed);
    FaultPlan back;
    ASSERT_TRUE(FaultPlan::from_text(plan.to_text(), back))
        << plan.to_text();
    EXPECT_EQ(plan, back);
  }
}

TEST(FaultPlan, RejectsMalformedText) {
  FaultPlan out;
  EXPECT_FALSE(FaultPlan::from_text("", out));
  EXPECT_FALSE(FaultPlan::from_text("not a plan\n", out));
  EXPECT_FALSE(FaultPlan::from_text(
      "# air fault plan v1\nseed 1\ninject 10 not_a_class 0 0 0\n", out));
}

TEST(FaultPlan, ClassNamesRoundTrip) {
  for (std::size_t i = 0; i < kFaultClassCount; ++i) {
    const auto fault = static_cast<FaultClass>(i);
    FaultClass back{};
    ASSERT_TRUE(fault_class_from_string(to_string(fault), back));
    EXPECT_EQ(back, fault);
  }
}

// A representative all-module-fault plan used by the replay tests.
FaultPlan module_fault_plan() {
  FaultPlan plan;
  plan.seed = 7;
  plan.injections = {
      {200, FaultClass::kMemoryBitFlip, 3, 129, 5},
      {1500, FaultClass::kRogueWrite, 1, 0, 0},
      {2900, FaultClass::kApplicationError, 2, 0, 0},
      {4300, FaultClass::kProcessStuck, 3, 0, 0},
  };
  return plan;
}

std::string fly_module(const FaultPlan& plan, bool warp) {
  system::Module module(campaign_fig8_config(/*weaken_hm=*/false));
  module.set_time_warp(warp);
  Injector injector(plan);
  injector.arm(module);
  module.run(4 * kFig8Mtf);
  return module.trace().to_text();
}

TEST(FiReplay, TimeWarpIsByteIdentical) {
  const FaultPlan plan = module_fault_plan();
  const std::string per_tick = fly_module(plan, /*warp=*/false);
  const std::string warped = fly_module(plan, /*warp=*/true);
  EXPECT_EQ(digest64(per_tick), digest64(warped))
      << "an armed plan must not perturb the time-warp fast path";
  EXPECT_EQ(per_tick, warped);
}

struct WorldTraces {
  std::string prototype;
  std::string ground;
};

WorldTraces fly_world(const FaultPlan& plan, bool lockstep) {
  system::ModuleConfig fig8 = campaign_fig8_config(/*weaken_hm=*/false);
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
  system::Module& ground = world.add_module(campaign_ground_config());
  Injector injector(plan);
  BusInjector bus_injector(plan);
  injector.arm(prototype);
  bus_injector.arm(world.bus());
  if (lockstep) {
    world.run_lockstep(4 * kFig8Mtf);
  } else {
    world.run(4 * kFig8Mtf);
  }
  return {prototype.trace().to_text(), ground.trace().to_text()};
}

TEST(FiReplay, LockstepAndParallelWorldsAgree) {
  FaultPlan plan = module_fault_plan();
  plan.injections.push_back({0, FaultClass::kBusFrameDrop, -1, 1, 0});
  plan.injections.push_back({0, FaultClass::kBusFrameDelay, -1, 2, 7});
  plan.sort();
  const WorldTraces lockstep = fly_world(plan, /*lockstep=*/true);
  const WorldTraces epochs = fly_world(plan, /*lockstep=*/false);
  EXPECT_EQ(lockstep.prototype, epochs.prototype)
      << "module+bus faults must replay byte-identically under epochs";
  EXPECT_EQ(lockstep.ground, epochs.ground);
}

TEST(FiOracles, RogueWriteIsBlockedAndContained) {
  CampaignOptions options;
  FaultPlan plan;
  plan.injections = {{1500, FaultClass::kRogueWrite, 1, 0, 0}};
  std::vector<InjectionRecord> records;
  const std::vector<Breach> breaches =
      evaluate_plan(options, plan, /*world_mission=*/false, &records);
  for (const Breach& breach : breaches) {
    ADD_FAILURE() << "[" << breach.oracle << "] " << breach.detail;
  }
  ASSERT_EQ(records.size(), 1u);
  EXPECT_TRUE(records[0].applied);
  EXPECT_EQ(records[0].note, "blocked by the MMU");
}

TEST(FiOracles, StuckProcessStarvesOnlyItsOwnPartition) {
  CampaignOptions options;
  FaultPlan plan;
  plan.injections = {{1400, FaultClass::kProcessStuck, 2, 0, 0}};
  const std::vector<Breach> breaches =
      evaluate_plan(options, plan, /*world_mission=*/false);
  for (const Breach& breach : breaches) {
    ADD_FAILURE() << "[" << breach.oracle << "] " << breach.detail;
  }
}

TEST(FiOracles, BusFrameFaultsLeaveTheAirModuleUntouched) {
  CampaignOptions options;
  FaultPlan plan;
  plan.injections = {{0, FaultClass::kBusFrameCorrupt, -1, 0, 0},
                     {0, FaultClass::kBusFrameDrop, -1, 2, 0}};
  const std::vector<Breach> breaches =
      evaluate_plan(options, plan, /*world_mission=*/true);
  for (const Breach& breach : breaches) {
    ADD_FAILURE() << "[" << breach.oracle << "] " << breach.detail;
  }
}

TEST(FiCampaign, StockSmokeRunsClean) {
  CampaignOptions options;
  options.first_seed = 1;
  options.seeds = 6;  // seeds 3 and 6 fly the two-module world mission
  const CampaignResult result = run_campaign(options);
  EXPECT_EQ(result.seeds_run, 6u);
  EXPECT_GT(result.injections_applied, 0u);
  for (const SeedResult& failure : result.failures) {
    ADD_FAILURE() << failure.report;
  }
}

TEST(FiCampaign, WeakenedHmIsFlaggedWithMinimalReproducer) {
  CampaignOptions options;
  options.weaken_hm = true;
  const SeedResult result = run_seed(options, /*seed=*/1);
  ASSERT_FALSE(result.breaches.empty())
      << "removing the error handlers must breach the HM oracle";
  // The acceptance bar: a minimized reproducer of at most 3 injections
  // that still breaches on replay.
  EXPECT_LE(result.minimized.injections.size(), 3u);
  const std::vector<Breach> replay = evaluate_plan(
      options, result.minimized, is_world_seed(options, 1));
  EXPECT_FALSE(replay.empty()) << "minimized plan must still reproduce";
  EXPECT_FALSE(result.report.empty());
  // The reproducer file round-trips through its text form.
  FaultPlan reparsed;
  ASSERT_TRUE(FaultPlan::from_text(result.minimized.to_text(), reparsed));
  EXPECT_EQ(reparsed, result.minimized);
}

}  // namespace
}  // namespace air::fi
