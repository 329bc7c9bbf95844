// Time-warp equivalence: running a mission with the next-event fast-forward
// enabled must be byte-identical -- metrics snapshot, trace contents, final
// APEX-visible process state -- to stepping every tick. The randomized suite
// generates missions with model::generate_schedule and compares both
// executions over a bag of seeds.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>
#include <string>
#include <variant>

#include "config/fig8.hpp"
#include "fi/campaign.hpp"
#include "fi/injector.hpp"
#include "mixed_pos_config.hpp"
#include "model/generator.hpp"
#include "pmk/spatial.hpp"
#include "pos/workload.hpp"
#include "system/module.hpp"
#include "system/world.hpp"
#include "telemetry/export.hpp"
#include "telemetry/spans.hpp"
#include "util/rng.hpp"
#include "util/trace_export.hpp"

namespace air {
namespace {

// Serialize everything a partition application could observe through APEX.
std::string apex_visible_state(system::Module& module) {
  std::string out;
  for (std::size_t p = 0; p < module.partition_count(); ++p) {
    const PartitionId id{static_cast<std::int32_t>(p)};
    const pmk::PartitionControlBlock& pcb = module.partition_pcb(id);
    out += "partition " + std::to_string(p) +
           " mode=" + std::to_string(static_cast<int>(pcb.mode)) +
           " busy=" + std::to_string(pcb.busy_ticks) +
           " slack=" + std::to_string(pcb.slack_ticks) + "\n";
    auto& kernel = module.kernel(id);
    for (std::size_t q = 0; q < kernel.process_count(); ++q) {
      apex::ProcessStatus st;
      if (module.apex(id).get_process_status(
              ProcessId{static_cast<std::int32_t>(q)}, st) !=
          apex::ReturnCode::kNoError) {
        continue;
      }
      out += "  " + st.name + " state=" +
             std::to_string(static_cast<int>(st.state)) +
             " prio=" + std::to_string(st.current_priority) +
             " deadline=" + std::to_string(st.deadline_time) +
             " completions=" + std::to_string(st.completions) +
             " max_resp=" + std::to_string(st.max_response) +
             " mean_resp=" + std::to_string(st.mean_response) +
             " misses=" + std::to_string(st.deadline_misses) + "\n";
    }
    for (const std::string& line : module.console(id)) {
      out += "  console: " + line + "\n";
    }
  }
  out += "now=" + std::to_string(module.now());
  out += " stopped=" + std::to_string(module.stopped() ? 1 : 0);
  return out;
}

struct RunResult {
  std::string trace;
  std::string metrics;
  std::string apex;
  std::string spans;
  system::Module::WarpStats warp;
};

RunResult run_mission(system::ModuleConfig config, bool warp, Ticks span) {
  system::Module module(std::move(config));
  module.set_time_warp(warp);
  module.run(span);
  RunResult result;
  result.trace = util::to_json(module.trace());
  const telemetry::MetricsSnapshot snap = module.metrics_snapshot();
  result.metrics = telemetry::to_json(snap) + "\n" + telemetry::to_csv(snap);
  result.apex = apex_visible_state(module);
  result.spans = telemetry::spans_to_json(module.spans());
  result.warp = module.warp_stats();
  return result;
}

void expect_equivalent(const RunResult& stepped, const RunResult& warped,
                       const std::string& label) {
  EXPECT_EQ(stepped.trace, warped.trace) << label << ": traces diverge";
  EXPECT_EQ(stepped.metrics, warped.metrics)
      << label << ": metrics snapshots diverge";
  EXPECT_EQ(stepped.apex, warped.apex)
      << label << ": final APEX-visible state diverges";
  EXPECT_EQ(stepped.spans, warped.spans)
      << label << ": span streams diverge";
  EXPECT_EQ(stepped.warp.warped_ticks, 0u) << label << ": baseline warped";
  EXPECT_EQ(stepped.warp.stepped_ticks,
            warped.warp.stepped_ticks + warped.warp.warped_ticks)
      << label << ": tick accounting mismatch";
}

// One sparse partition: 5 busy ticks out of every 10'000.
system::ModuleConfig idle_heavy_config() {
  system::ModuleConfig config;
  config.name = "idle_heavy";
  constexpr Ticks kMtf = 10'000;
  model::Schedule schedule;
  schedule.id = ScheduleId{0};
  schedule.mtf = kMtf;
  system::PartitionConfig partition;
  partition.name = "sparse";
  system::ProcessConfig process;
  process.attrs.name = "beacon";
  process.attrs.period = kMtf;
  process.attrs.time_capacity = kMtf;
  process.attrs.priority = 10;
  process.attrs.script =
      pos::ScriptBuilder{}.compute(5).periodic_wait().build();
  partition.processes.push_back(std::move(process));
  config.partitions.push_back(std::move(partition));
  schedule.requirements.push_back({PartitionId{0}, kMtf, kMtf});
  schedule.windows.push_back({PartitionId{0}, 0, kMtf});
  config.schedules = {schedule};
  return config;
}

TEST(TimeWarp, IdleHeavyMissionWarpsAndMatches) {
  const Ticks span = 50'000;
  const RunResult stepped = run_mission(idle_heavy_config(), false, span);
  const RunResult warped = run_mission(idle_heavy_config(), true, span);
  expect_equivalent(stepped, warped, "idle_heavy");
  // The engine must actually engage: the mission is >99% idle.
  EXPECT_GT(warped.warp.warped_ticks,
            static_cast<std::uint64_t>(span) * 9 / 10);
  EXPECT_GT(warped.warp.warp_spans, 0u);
}

TEST(TimeWarp, Fig8MissionWithFaultAndModeSwitchMatches) {
  auto mission = [](bool warp) {
    auto config = scenarios::fig8_config();
    system::Module module(std::move(config));
    module.set_time_warp(warp);
    module.start_process_by_name(module.partition_id("AOCS"),
                                 scenarios::kFaultyProcessName);
    module.run(500);
    (void)module.apex(module.partition_id("AOCS"))
        .set_module_schedule(ScheduleId{1});
    module.run(5 * scenarios::kFig8Mtf);
    RunResult result;
    result.trace = util::to_json(module.trace());
    const telemetry::MetricsSnapshot snap = module.metrics_snapshot();
    result.metrics = telemetry::to_json(snap) + "\n" + telemetry::to_csv(snap);
    result.apex = apex_visible_state(module);
    result.spans = telemetry::spans_to_json(module.spans());
    result.warp = module.warp_stats();
    return result;
  };
  const RunResult stepped = mission(false);
  const RunResult warped = mission(true);
  expect_equivalent(stepped, warped, "fig8");
  EXPECT_GT(stepped.trace.size(), 1000u) << "the mission is non-trivial";
  // The mission produces real span traffic (windows, jobs, messages, the
  // mode-switch span and miss anomalies), all byte-identical under warp.
  EXPECT_GT(stepped.spans.size(), 1000u);
  EXPECT_NE(stepped.spans.find("\"anomalies\""), std::string::npos);
}

// The warp folds busy ticks too: on the Fig. 8 mission (faulty process
// started, online plane on, a chi_1 -> chi_2 -> chi_1 round trip) only the
// ticks with an event are stepped -- window starts, op boundaries, wakes,
// deadline edges, window closes. The count is deterministic: 645 ticks in
// 16 MTFs, 40.3 of 1300 per MTF. The bound is 42 per MTF.
TEST(TimeWarp, Fig8StepsOnlyEventTicks) {
  // Telemetry takes no stepped tick of its own: slack samples and online
  // window closes ride inside warp spans, so the flight steps the same
  // event ticks with the online plane and metrics on, metrics only, or
  // neither.
  const auto stepped_ticks = [](bool metrics, bool online) {
    auto config = scenarios::fig8_config();
    config.telemetry.metrics_enabled = metrics;
    config.telemetry.online.enabled = online;
    system::Module module(std::move(config));
    const PartitionId aocs = module.partition_id("AOCS");
    module.start_process_by_name(aocs, scenarios::kFaultyProcessName);
    module.run(scenarios::kFig8Mtf);
    const system::Module::WarpStats before = module.warp_stats();
    constexpr int kMtfs = 16;
    for (int k = 0; k < kMtfs; ++k) {
      if (k == 3 || k == 11) {
        const ScheduleId next{
            module.apex(aocs).get_module_schedule_status().current_schedule ==
                    ScheduleId{0}
                ? 1
                : 0};
        EXPECT_EQ(module.apex(aocs).set_module_schedule(next),
                  apex::ReturnCode::kNoError);
      }
      module.run(scenarios::kFig8Mtf);
    }
    EXPECT_EQ(module.apex(aocs).get_module_schedule_status().current_schedule,
              ScheduleId{0});
    return module.warp_stats().stepped_ticks - before.stepped_ticks;
  };
  EXPECT_EQ(stepped_ticks(true, true), 456u) << "online plane and metrics";
  EXPECT_EQ(stepped_ticks(true, false), 456u) << "metrics only";
  EXPECT_EQ(stepped_ticks(false, false), 456u) << "neither";
}

TEST(TimeWarp, Fig8FlightRecorderMatches) {
  auto mission = [](bool warp) {
    auto config = scenarios::fig8_config();
    config.telemetry.flight_recorder_capacity = 128;
    system::Module module(std::move(config));
    module.set_time_warp(warp);
    module.start_process_by_name(module.partition_id("AOCS"),
                                 scenarios::kFaultyProcessName);
    module.run(5 * scenarios::kFig8Mtf);
    return util::to_json(module.trace()) + "#" +
           std::to_string(module.trace().dropped_events());
  };
  EXPECT_EQ(mission(false), mission(true));
}

// Randomized missions: partitions with generated PSTs on one core or two,
// under both POS policies, running a mix of periodic, timed-wait, logging,
// memory-touching, preemption-locking and busy-idle processes. Computes run
// from 1 to 300 ticks, so they cross window ends and MTF boundaries; a
// system partition on core 0 requests schedule switches between two of its
// computes, so long computes also straddle a pending switch. Random
// priorities put timed wakes of higher-priority processes in the middle of
// lower-priority computes.
system::ModuleConfig random_mission(std::uint64_t seed) {
  util::Rng rng(seed);
  system::ModuleConfig config;
  config.name = "random_" + std::to_string(seed);
  config.trace_enabled = true;

  const int ncores = rng.chance(0.3) ? 2 : 1;
  const int nparts = static_cast<int>(rng.uniform(ncores, 3));
  const bool switcher = rng.chance(0.4);
  const auto compute_ticks = [&rng] {
    return rng.chance(0.3) ? rng.uniform(13, 300) : rng.uniform(1, 12);
  };
  std::vector<std::vector<model::ScheduleRequirement>> requirements(ncores);
  for (int i = 0; i < nparts; ++i) {
    const Ticks period = 100 << rng.uniform(0, 2);  // 100 / 200 / 400
    const Ticks duration = rng.uniform(10, period / 5);
    requirements[static_cast<std::size_t>(i % ncores)].push_back(
        {PartitionId{i}, period, duration});

    system::PartitionConfig partition;
    partition.name = "part" + std::to_string(i);
    if (rng.chance(0.3)) partition.pos_kind = pos::Policy::kRoundRobin;
    const int nprocs = static_cast<int>(rng.uniform(1, 2));
    for (int p = 0; p < nprocs; ++p) {
      system::ProcessConfig process;
      process.attrs.name = "proc" + std::to_string(p);
      process.attrs.priority = static_cast<Priority>(10 + rng.uniform(0, 2));
      pos::ScriptBuilder script;
      const std::int64_t kind = rng.uniform(0, 9);
      if (kind < 4) {
        // Periodic worker; occasionally too slow for its deadline.
        const Ticks pperiod = period * rng.uniform(1, 4);
        process.attrs.period = pperiod;
        process.attrs.time_capacity =
            rng.chance(0.2) ? pperiod / 4 : pperiod;
        if (rng.chance(0.2)) script.memory_access(pmk::kAppDataBase, true);
        const bool locked = rng.chance(0.25);
        if (locked) script.lock_preemption();
        script.compute(compute_ticks());
        if (locked) script.unlock_preemption();
        if (rng.chance(0.3)) script.log("beat");
        script.periodic_wait();
      } else if (kind < 8) {
        // Delay-loop worker (timed waits exercise next_wake()).
        script.compute(compute_ticks());
        if (rng.chance(0.2)) script.memory_access(pmk::kAppDataBase, false);
        script.timed_wait(rng.uniform(20, 600));
        if (rng.chance(0.3)) script.log("tw");
      } else {
        // Busy-idle process: an empty script is always runnable; lowest
        // priority so the others still get the processor under kRt.
        process.attrs.priority = 20;
      }
      process.attrs.script = script.build();
      partition.processes.push_back(std::move(process));
    }
    if (i == 0 && switcher) {
      partition.system_partition = true;
      system::ProcessConfig moder;
      moder.attrs.name = "moder";
      moder.attrs.period = period * 2;
      moder.attrs.time_capacity = period * 2;
      moder.attrs.priority = 9;
      moder.attrs.script = pos::ScriptBuilder{}
                               .compute(rng.uniform(1, 40))
                               .set_module_schedule(1)
                               .compute(compute_ticks())
                               .periodic_wait()
                               .compute(rng.uniform(1, 40))
                               .set_module_schedule(0)
                               .compute(compute_ticks())
                               .periodic_wait()
                               .build();
      partition.processes.push_back(std::move(moder));
    }
    config.partitions.push_back(std::move(partition));
  }

  // Core c runs schedules 2c (initial) and 2c + 1, which re-draws the
  // window lengths, so a switch moves every window boundary.
  for (int c = 0; c < ncores; ++c) {
    std::vector<model::Schedule> schedules;
    for (int alt = 0; alt < 2; ++alt) {
      model::GeneratorInput input;
      input.requirements = requirements[static_cast<std::size_t>(c)];
      if (alt == 1) {
        for (auto& r : input.requirements) {
          r.duration = rng.uniform(10, r.period / 5);
        }
      }
      input.mtf = 0;  // lcm of the periods
      input.id = ScheduleId{2 * c + alt};
      input.name = "generated" + std::to_string(2 * c + alt);
      auto schedule = model::generate_schedule(input);
      EXPECT_TRUE(schedule.has_value()) << "seed " << seed << " infeasible";
      schedules.push_back(*schedule);
    }
    if (ncores == 1) {
      config.schedules = std::move(schedules);
    } else {
      config.cores.push_back({std::move(schedules), ScheduleId{2 * c}});
    }
  }
  return config;
}

TEST(TimeWarp, RandomizedMissionsAreEquivalent) {
  std::uint64_t total_warped = 0;
  // Seeds drawing each feature: two cores, a round-robin pair, a locked
  // compute, a compute over 12 ticks, a busy-idle process, a switcher.
  std::array<int, 6> drawn{};
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    const system::ModuleConfig config = random_mission(seed);
    std::array<bool, 6> has{};
    has[0] = config.cores.size() == 2;
    for (const system::PartitionConfig& partition : config.partitions) {
      has[1] |= partition.pos_kind == pos::Policy::kRoundRobin &&
                partition.processes.size() == 2;
      has[5] |= partition.system_partition;
      for (const system::ProcessConfig& process : partition.processes) {
        has[4] |= process.attrs.script.empty();
        for (const pos::Op& op : process.attrs.script) {
          has[2] |= std::holds_alternative<pos::OpLockPreemption>(op);
          const auto* compute = std::get_if<pos::OpCompute>(&op);
          has[3] |= compute != nullptr && compute->ticks > 12;
        }
      }
    }
    for (std::size_t f = 0; f < has.size(); ++f) drawn[f] += has[f] ? 1 : 0;

    const Ticks span = 6'000;
    const RunResult stepped = run_mission(config, false, span);
    const RunResult warped = run_mission(config, true, span);
    expect_equivalent(stepped, warped, "seed " + std::to_string(seed));
    total_warped += warped.warp.warped_ticks;
  }
  // Across the suite the engine must have found real headroom, and every
  // feature must have been drawn, or the suite does not test it.
  EXPECT_GT(total_warped, 0u);
  for (std::size_t f = 0; f < drawn.size(); ++f) {
    EXPECT_GE(drawn[f], 10) << "feature " << f << " drawn in " << drawn[f]
                           << " of 60 seeds";
  }
}

// Two cores: each tick re-selects the MMU context of every stepped
// partition in core order, and each switch flushes the TLB. A warp over a
// span where both cores run a partition must leave the TLB as those
// per-tick switches would: a stale entry turns a miss into a hit.
TEST(TimeWarp, TwoCoreMmuSwitchesMatch) {
  auto config = [] {
    system::ModuleConfig c;
    c.name = "two_core_mmu";
    for (int i = 0; i < 2; ++i) {
      system::PartitionConfig partition;
      partition.name = "P" + std::to_string(i);
      system::ProcessConfig process;
      process.attrs.name = "worker";
      process.attrs.period = 100;
      process.attrs.time_capacity = 100;
      process.attrs.priority = 10;
      // P0 is busy-idle; P1 fills the TLB, sleeps past core 0's window
      // end at tick 50, and reads the page again.
      if (i == 1) {
        process.attrs.script = pos::ScriptBuilder{}
                                   .memory_access(pmk::kAppDataBase, true)
                                   .timed_wait(60)
                                   .memory_access(pmk::kAppDataBase, false)
                                   .periodic_wait()
                                   .build();
      }
      partition.processes.push_back(std::move(process));
      c.partitions.push_back(std::move(partition));
    }
    for (int i = 0; i < 2; ++i) {
      model::Schedule s;
      s.id = ScheduleId{i};
      s.mtf = 100;
      const Ticks length = i == 0 ? 50 : 100;
      s.requirements = {{PartitionId{i}, 100, length}};
      s.windows = {{PartitionId{i}, 0, length}};
      c.cores.push_back({{s}, ScheduleId{i}});
    }
    return c;
  };
  const RunResult stepped = run_mission(config(), false, 1'000);
  const RunResult warped = run_mission(config(), true, 1'000);
  expect_equivalent(stepped, warped, "two_core_mmu");
  EXPECT_GT(warped.warp.warped_ticks, 500u);
  EXPECT_NE(stepped.metrics.find("tlb_misses"), std::string::npos);
}

TEST(TimeWarp, RunZeroAndRunUntilPastAreNoOps) {
  system::Module module(idle_heavy_config());
  module.run(1'000);
  const Ticks before = module.now();
  const auto stats_before = module.warp_stats();
  const std::string trace_before = util::to_json(module.trace());

  module.run(0);
  module.run(-25);
  module.run_until(before);      // "until now" does nothing
  module.run_until(before - 1);  // past target does nothing

  EXPECT_EQ(module.now(), before);
  EXPECT_EQ(module.warp_stats().stepped_ticks, stats_before.stepped_ticks);
  EXPECT_EQ(module.warp_stats().warped_ticks, stats_before.warped_ticks);
  EXPECT_EQ(util::to_json(module.trace()), trace_before);
}

TEST(TimeWarp, RunUntilDelegatesToWarpEngine) {
  system::Module warped(idle_heavy_config());
  warped.set_time_warp(true);
  warped.run_until(30'000);
  EXPECT_EQ(warped.now(), 30'000);
  EXPECT_GT(warped.warp_stats().warped_ticks, 0u);

  system::Module stepped(idle_heavy_config());
  stepped.set_time_warp(false);
  stepped.run_until(30'000);
  EXPECT_EQ(stepped.now(), 30'000);
  EXPECT_EQ(util::to_json(stepped.trace()), util::to_json(warped.trace()));
}

TEST(TimeWarp, WorldLockstepWarpMatchesStepped) {
  auto mission = [](bool warp) {
    system::World world({.slot_length = 7, .frames_per_slot = 2,
                         .propagation_delay = 3});
    auto config_a = scenarios::fig8_config();
    config_a.id = ModuleId{0};
    auto config_b = idle_heavy_config();
    config_b.id = ModuleId{1};
    system::Module& a = world.add_module(std::move(config_a));
    system::Module& b = world.add_module(std::move(config_b));
    a.set_time_warp(warp);
    b.set_time_warp(warp);
    world.run(3 * scenarios::kFig8Mtf);
    return util::to_json(a.trace()) + util::to_json(b.trace()) +
           apex_visible_state(a) + apex_visible_state(b) +
           telemetry::spans_to_json(a.spans()) +
           telemetry::spans_to_json(b.spans()) +
           telemetry::spans_to_json(world.bus_spans()) + "@" +
           std::to_string(world.now());
  };
  EXPECT_EQ(mission(false), mission(true));
}

// Split-warp property: a quiescent module's warp may be paid in pieces.
// The sparse World driver relies on it -- it defers an idle module's warp
// across epochs and settles the whole debt in one call -- so for headroom h
// and any a + b <= h, warp_advance(a); warp_advance(b) must leave exactly
// the state of warp_advance(a + b), and the headroom must shrink by a.
std::string observable(system::Module& module) {
  const telemetry::MetricsSnapshot snap = module.metrics_snapshot();
  return util::to_json(module.trace()) + telemetry::to_json(snap) +
         telemetry::spans_to_json(module.spans()) + apex_visible_state(module);
}

/// Flies `whole` and `split` (built identically) tick by tick for `span`
/// ticks. At every quiescent point with headroom >= 2 it draws a split
/// a + b <= headroom, warps `split` in two calls and `whole` in one, and
/// compares. Returns the number of split points checked.
int check_split_warps(system::Module& whole, system::Module& split,
                      Ticks span, std::uint64_t seed) {
  util::Rng rng(seed);
  int checked = 0;
  while (whole.now() < span && !whole.stopped()) {
    const Ticks h = whole.warp_headroom();
    EXPECT_EQ(h, split.warp_headroom()) << "t=" << whole.now();
    const Ticks total = std::min(h, span - whole.now());
    if (total >= 2) {
      const Ticks sum = rng.uniform(2, total);
      const Ticks a = rng.uniform(1, sum - 1);
      split.warp_advance(a);
      EXPECT_EQ(split.warp_headroom(), h - a) << "t=" << whole.now();
      split.warp_advance(sum - a);
      whole.warp_advance(sum);
      EXPECT_EQ(observable(whole), observable(split))
          << "warp " << a << " + " << sum - a << " at t=" << whole.now();
      ++checked;
    }
    whole.tick_once();
    split.tick_once();
  }
  EXPECT_EQ(observable(whole), observable(split)) << "final state";
  return checked;
}

TEST(TimeWarpSplit, Fig8SplitWarpsMatchOneWarp) {
  const auto build = [] {
    auto module = std::make_unique<system::Module>(scenarios::fig8_config());
    module->start_process_by_name(module->partition_id("AOCS"),
                                  scenarios::kFaultyProcessName);
    return module;
  };
  auto whole = build();
  auto split = build();
  EXPECT_GT(check_split_warps(*whole, *split, 3 * scenarios::kFig8Mtf, 1),
            10);
}

TEST(TimeWarpSplit, MixedPosSplitWarpsMatchOneWarp) {
  system::Module whole(mixed_pos_config());
  system::Module split(mixed_pos_config());
  EXPECT_GT(check_split_warps(whole, split, 1'000, 2), 10);
}

TEST(TimeWarpSplit, OnlinePlaneAndTickHookSplitWarpsMatchOneWarp) {
  // Both bound the headroom from outside the partition stack: the online
  // plane by its next window close, the injector by its next fault tick.
  fi::FaultPlan plan;
  plan.injections = {
      {200, fi::FaultClass::kMemoryBitFlip, 3, 129, 5},
      {1500, fi::FaultClass::kRogueWrite, 1, 0, 0},
      {2900, fi::FaultClass::kApplicationError, 2, 0, 0},
  };
  const auto config = [] {
    system::ModuleConfig c = fi::campaign_fig8_config(/*weaken_hm=*/false);
    c.telemetry.online.enabled = true;
    c.telemetry.online.window = 325;
    return c;
  };
  system::Module whole(config());
  system::Module split(config());
  fi::Injector whole_hook(plan);
  fi::Injector split_hook(plan);
  whole_hook.arm(whole);
  split_hook.arm(split);
  EXPECT_GT(check_split_warps(whole, split, 3 * scenarios::kFig8Mtf, 3), 10);
  ASSERT_NE(whole.online(), nullptr);
  EXPECT_GT(whole.online()->windows_closed(), 0u);
  EXPECT_EQ(whole_hook.log().size(), plan.injections.size());
}

TEST(TimeWarp, ProfilerForcesStepping) {
  auto config = idle_heavy_config();
  config.telemetry.profiler_enabled = true;
  system::Module module(std::move(config));
  module.set_time_warp(true);
  module.run(2'000);
  EXPECT_EQ(module.warp_stats().warped_ticks, 0u)
      << "per-tick host profiling must disable the warp";
}

}  // namespace
}  // namespace air
