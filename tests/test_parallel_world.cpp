// World driver equivalence: the sparse epoch driver (World::run) must be
// byte-identical to the per-tick lockstep reference
// (World::run_lockstep) -- per-module traces, metrics exports,
// span streams, bus-transit spans, bus statistics and final APEX-visible
// state -- across randomized multi-module missions with remote IPC traffic
// (sampling rings + queuing links) and mid-mission mode switches.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "config/fig8.hpp"
#include "pos/workload.hpp"
#include "system/module.hpp"
#include "system/world.hpp"
#include "telemetry/export.hpp"
#include "telemetry/spans.hpp"
#include "util/rng.hpp"
#include "util/trace_export.hpp"

namespace air {
namespace {

using pos::ScriptBuilder;

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
             " deadline=" + std::to_string(st.deadline_time) +
             " completions=" + std::to_string(st.completions) +
             " max_resp=" + std::to_string(st.max_response) +
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

/// Full observable fingerprint of a world: every byte the equivalence
/// contract covers.
std::string fingerprint(system::World& world) {
  std::string out;
  for (std::size_t m = 0; m < world.module_count(); ++m) {
    system::Module& module = world.module(m);
    out += "=== module " + std::to_string(m) + "\n";
    out += util::to_json(module.trace());
    const telemetry::MetricsSnapshot snap = module.metrics_snapshot();
    out += telemetry::to_json(snap) + "\n" + telemetry::to_csv(snap);
    out += telemetry::spans_to_json(module.spans());
    out += apex_visible_state(module);
  }
  out += "=== bus\n" + telemetry::spans_to_json(world.bus_spans());
  const net::BusStats& bus = world.bus().stats();
  out += "sent=" + std::to_string(bus.frames_sent) +
         " delivered=" + std::to_string(bus.frames_delivered) +
         " dropped=" + std::to_string(bus.frames_dropped) +
         " latency=" + std::to_string(bus.total_latency) +
         " now=" + std::to_string(world.now());
  return out;
}

struct Mission {
  net::BusConfig bus;
  std::vector<system::ModuleConfig> modules;
  Ticks phase1{0};
  Ticks phase2{0};
  bool mode_switch{false};
};

model::Schedule round_robin(ScheduleId id, std::size_t partitions,
                            Ticks slice) {
  model::Schedule s;
  s.id = id;
  s.mtf = static_cast<Ticks>(partitions) * slice;
  for (std::size_t i = 0; i < partitions; ++i) {
    const PartitionId p{static_cast<std::int32_t>(i)};
    s.requirements.push_back({p, s.mtf, slice});
    s.windows.push_back({p, static_cast<Ticks>(i) * slice, slice});
  }
  return s;
}

// Randomized multi-module mission: a sampling ring (module i broadcasts to
// module i+1), an optional queuing link from module 0 to module 1, worker
// processes of varying density (some with tight time capacities, so HM and
// anomaly chains engage), and optionally a mode switch between phases.
Mission random_mission(std::uint64_t seed) {
  util::Rng rng(seed);
  Mission mission;
  mission.bus.slot_length = static_cast<Ticks>(rng.uniform(2, 10));
  mission.bus.frames_per_slot = static_cast<std::size_t>(rng.uniform(1, 4));
  mission.bus.propagation_delay = static_cast<Ticks>(rng.uniform(1, 6));
  mission.phase1 = static_cast<Ticks>(rng.uniform(150, 600));
  mission.phase2 = static_cast<Ticks>(rng.uniform(800, 2500));
  mission.mode_switch = rng.chance(0.5);

  const int nmodules = static_cast<int>(rng.uniform(2, 4));
  const bool queuing_link = rng.chance(0.6);
  for (int m = 0; m < nmodules; ++m) {
    system::ModuleConfig config;
    config.id = ModuleId{m};
    config.name = "m" + std::to_string(m);
    const std::size_t nparts = static_cast<std::size_t>(rng.uniform(1, 2));
    const Ticks slice = static_cast<Ticks>(rng.uniform(20, 60));

    for (std::size_t p = 0; p < nparts; ++p) {
      system::PartitionConfig partition;
      partition.name = "p" + std::to_string(p);
      if (p == 0) {
        // Ring endpoints live on partition 0 of every module.
        partition.sampling_ports.push_back(
            {"OUT", ipc::PortDirection::kSource, 64, kInfiniteTime});
        partition.sampling_ports.push_back(
            {"IN", ipc::PortDirection::kDestination, 64, 200});
        if (queuing_link && m == 0) {
          partition.queuing_ports.push_back(
              {"QOUT", ipc::PortDirection::kSource, 64, 8,
               ipc::QueuingDiscipline::kFifo});
        }
        if (queuing_link && m == 1) {
          partition.queuing_ports.push_back(
              {"QIN", ipc::PortDirection::kDestination, 64, 8,
               ipc::QueuingDiscipline::kFifo});
        }
        system::ProcessConfig chatter;
        chatter.attrs.name = "chatter";
        chatter.attrs.priority = 5;
        ScriptBuilder script;
        script.compute(rng.uniform(1, 5))
            .sampling_write(0, "ring-" + std::to_string(m))
            .sampling_read(1);
        if (queuing_link && m == 0) {
          script.queuing_send(0, "q-" + std::to_string(seed), 0);
        }
        if (queuing_link && m == 1) script.queuing_receive(0, 0);
        script.timed_wait(static_cast<Ticks>(rng.uniform(15, 90)));
        chatter.attrs.script = script.build();
        partition.processes.push_back(std::move(chatter));
      }
      const int nprocs = static_cast<int>(rng.uniform(1, 2));
      for (int q = 0; q < nprocs; ++q) {
        system::ProcessConfig process;
        process.attrs.name = "w" + std::to_string(q);
        process.attrs.priority = 10 + q;
        ScriptBuilder script;
        if (rng.chance(0.5)) {
          const Ticks period = slice * static_cast<Ticks>(nparts) *
                               static_cast<Ticks>(rng.uniform(1, 4));
          process.attrs.period = period;
          process.attrs.time_capacity =
              rng.chance(0.25) ? period / 4 : period;
          script.compute(rng.uniform(1, 15));
          if (rng.chance(0.3)) script.log("beat");
          script.periodic_wait();
        } else {
          script.compute(rng.uniform(1, 8));
          script.timed_wait(static_cast<Ticks>(rng.uniform(30, 400)));
        }
        process.attrs.script = script.build();
        partition.processes.push_back(std::move(process));
      }
      config.partitions.push_back(std::move(partition));
    }

    ipc::ChannelConfig ring;
    ring.id = ChannelId{0};
    ring.kind = ipc::ChannelKind::kSampling;
    ring.source = {PartitionId{0}, "OUT"};
    ring.remote_destinations = {
        {ModuleId{(m + 1) % nmodules}, PartitionId{0}, "IN"}};
    config.channels.push_back(std::move(ring));
    if (queuing_link && m == 0) {
      ipc::ChannelConfig link;
      link.id = ChannelId{1};
      link.kind = ipc::ChannelKind::kQueuing;
      link.source = {PartitionId{0}, "QOUT"};
      link.remote_destinations = {{ModuleId{1}, PartitionId{0}, "QIN"}};
      config.channels.push_back(std::move(link));
    }

    config.schedules = {round_robin(ScheduleId{0}, nparts, slice)};
    if (m == 0 && mission.mode_switch) {
      // A second table (same windows, its own id): switching to it at the
      // MTF boundary exercises the full switch machinery either way.
      model::Schedule alt = round_robin(ScheduleId{1}, nparts, slice);
      alt.name = "alt";
      config.schedules.push_back(std::move(alt));
    }
    mission.modules.push_back(std::move(config));
  }
  return mission;
}

enum class Driver { kLockstep, kEpoch };

std::string fly(const Mission& mission, Driver driver,
                system::World::Stats* stats = nullptr,
                std::string* report = nullptr) {
  system::World world(mission.bus);
  for (const system::ModuleConfig& config : mission.modules) {
    world.add_module(config);
  }
  const auto advance = [&](Ticks ticks) {
    if (driver == Driver::kLockstep) {
      world.run_lockstep(ticks);
    } else {
      world.run(ticks);
    }
  };
  advance(mission.phase1);
  if (mission.mode_switch) {
    (void)world.module(0).apex(PartitionId{0}).set_module_schedule(
        ScheduleId{1});
  }
  advance(mission.phase2);
  if (stats != nullptr) *stats = world.stats();
  if (report != nullptr) *report = world.status_report();
  return fingerprint(world);
}

TEST(ParallelWorld, RandomizedMissionsAreByteIdentical) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const Mission mission = random_mission(seed);
    const std::string label = "seed " + std::to_string(seed);
    const std::string reference = fly(mission, Driver::kLockstep);
    system::World::Stats stats;
    EXPECT_EQ(reference, fly(mission, Driver::kEpoch, &stats))
        << label << ": epoch driver diverges from lockstep";
    EXPECT_GT(stats.epochs, 0u) << label;
    EXPECT_EQ(stats.epoch_ticks,
              static_cast<std::uint64_t>(mission.phase1 + mission.phase2))
        << label;
  }
}

TEST(ParallelWorld, MissionsCarryRemoteTraffic) {
  // Separate sanity pass: every seed's mission delivers real bus frames.
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const Mission mission = random_mission(seed);
    system::World world(mission.bus);
    for (const auto& config : mission.modules) world.add_module(config);
    world.run(mission.phase1 + mission.phase2);
    EXPECT_GT(world.bus().stats().frames_delivered, 0u)
        << "seed " << seed << " exchanged no remote messages";
  }
}

TEST(ParallelWorld, Fig8WithGroundStationFaultAndModeSwitch) {
  // The air_record mission shape: the Fig. 8 prototype (faulty process on
  // AOCS, chi_1 -> chi_2 switch at t=500) feeding a ground archiver over
  // the bus -- HM recovery, schedule switch and cross-bus queuing flows,
  // byte-identical under the epoch driver.
  auto mission = [](Driver driver) {
    system::ModuleConfig fig8 = scenarios::fig8_config();
    fig8.id = ModuleId{0};
    for (ipc::ChannelConfig& channel : fig8.channels) {
      if (channel.kind == ipc::ChannelKind::kQueuing) {
        channel.remote_destinations.push_back(
            {ModuleId{1}, PartitionId{0}, "SCI_IN"});
      }
    }
    system::ModuleConfig ground;
    ground.id = ModuleId{1};
    ground.name = "ground";
    system::PartitionConfig archive;
    archive.name = "GROUND";
    archive.queuing_ports.push_back(
        {"SCI_IN", ipc::PortDirection::kDestination, 64, 16,
         ipc::QueuingDiscipline::kFifo});
    system::ProcessConfig archiver;
    archiver.attrs.name = "archiver";
    archiver.attrs.priority = 10;
    archiver.attrs.script = ScriptBuilder{}
                                .queuing_receive(0, /*timeout=*/0)  // poll
                                .timed_wait(40)
                                .jump(0)
                                .build();
    archive.processes.push_back(std::move(archiver));
    ground.partitions.push_back(std::move(archive));
    model::Schedule s;
    s.id = ScheduleId{0};
    s.mtf = scenarios::kFig8Mtf;
    s.requirements = {{PartitionId{0}, scenarios::kFig8Mtf,
                       scenarios::kFig8Mtf}};
    s.windows = {{PartitionId{0}, 0, scenarios::kFig8Mtf}};
    ground.schedules = {s};

    system::World world(
        {.slot_length = 10, .frames_per_slot = 2, .propagation_delay = 2});
    system::Module& prototype = world.add_module(std::move(fig8));
    world.add_module(std::move(ground));
    prototype.start_process_by_name(prototype.partition_id("AOCS"),
                                    scenarios::kFaultyProcessName);
    const auto advance = [&](Ticks ticks) {
      driver == Driver::kLockstep ? world.run_lockstep(ticks)
                                  : world.run(ticks);
    };
    advance(500);
    (void)prototype.apex(prototype.partition_id("AOCS"))
        .set_module_schedule(ScheduleId{1});
    advance(5 * scenarios::kFig8Mtf);
    return fingerprint(world);
  };
  const std::string reference = mission(Driver::kLockstep);
  EXPECT_EQ(reference, mission(Driver::kEpoch));
  EXPECT_GT(reference.size(), 10'000u) << "the mission is non-trivial";
  EXPECT_NE(reference.find("\"anomalies\""), std::string::npos);
}

// --- Sparse epochs: deferred warps settled at deliveries and run() ends ---

struct Flight {
  std::function<void(system::World&)> prepare;  // after construction
  std::vector<Ticks> legs;                      // one run() call each
};

struct Flown {
  std::string bytes;           // the lockstep reference fingerprint
  system::World::Stats stats;  // of the epoch flight
};

/// Flies `mission` once under run_lockstep() over the whole span, then
/// under run() leg by leg; the epoch flight must reproduce the reference
/// byte for byte.
Flown expect_matches_lockstep(const Mission& mission, const Flight& flight,
                              const std::string& label) {
  const auto build = [&] {
    auto world = std::make_unique<system::World>(mission.bus);
    for (const system::ModuleConfig& config : mission.modules) {
      world->add_module(config);
    }
    if (flight.prepare) flight.prepare(*world);
    return world;
  };
  Ticks total = 0;
  for (const Ticks leg : flight.legs) total += leg;
  Flown flown;
  auto reference = build();
  reference->run_lockstep(total);
  flown.bytes = fingerprint(*reference);
  auto world = build();
  for (const Ticks leg : flight.legs) world->run(leg);
  EXPECT_EQ(flown.bytes, fingerprint(*world))
      << label << ": epoch driver diverges from lockstep";
  flown.stats = world->stats();
  return flown;
}

// One partition on the sampling ring id -> dest. Its process computes
// `compute` ticks, writes and reads the ring, then sleeps `sleep` ticks,
// forever.
system::ModuleConfig ring_module(int id, int dest, Ticks compute,
                                 Ticks sleep) {
  system::ModuleConfig config;
  config.id = ModuleId{id};
  config.name = "r" + std::to_string(id);
  system::PartitionConfig partition;
  partition.name = "p0";
  partition.sampling_ports.push_back(
      {"OUT", ipc::PortDirection::kSource, 64, kInfiniteTime});
  partition.sampling_ports.push_back(
      {"IN", ipc::PortDirection::kDestination, 64, kInfiniteTime});
  system::ProcessConfig chatter;
  chatter.attrs.name = "chatter";
  chatter.attrs.priority = 5;
  chatter.attrs.script = ScriptBuilder{}
                             .compute(compute)
                             .sampling_write(0, "ring-" + std::to_string(id))
                             .sampling_read(1)
                             .timed_wait(sleep)
                             .jump(0)
                             .build();
  partition.processes.push_back(std::move(chatter));
  config.partitions.push_back(std::move(partition));
  ipc::ChannelConfig ring;
  ring.id = ChannelId{0};
  ring.kind = ipc::ChannelKind::kSampling;
  ring.source = {PartitionId{0}, "OUT"};
  ring.remote_destinations = {{ModuleId{dest}, PartitionId{0}, "IN"}};
  config.channels.push_back(std::move(ring));
  config.schedules = {round_robin(ScheduleId{0}, 1, 1000)};
  return config;
}

TEST(SparseEpochWorld, DeliveryIntoADeferredModuleSettlesItFirst) {
  // r0 computes almost without pause, pinning epochs to the propagation
  // delay; r2 sleeps 700 ticks at a time, so its warp is deferred across
  // dozens of epochs until r1's beacon (every ~250 ticks) lands in it.
  Mission mission;
  mission.bus = {.slot_length = 2, .frames_per_slot = 2,
                 .propagation_delay = 3};
  mission.modules = {ring_module(0, 1, 40, 1), ring_module(1, 2, 2, 250),
                     ring_module(2, 0, 1, 700)};
  const Flown flown =
      expect_matches_lockstep(mission, {nullptr, {2'500}}, "deferred");
  const system::World::Stats& stats = flown.stats;
  EXPECT_GT(stats.settles, mission.modules.size())
      << "more settles than one run() end pays: deliveries settled lag";
  EXPECT_LT(stats.module_runs, stats.epochs * mission.modules.size())
      << "idle modules must be deferred, not run every epoch";
}

TEST(SparseEpochWorld, WarpOffModuleRunsEveryEpochInAWarpingWorld) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const Mission mission = random_mission(seed);
    const Flight flight{
        [](system::World& world) { world.module(1).set_time_warp(false); },
        {mission.phase1, mission.phase2}};
    const Flown flown = expect_matches_lockstep(
        mission, flight, "warp-off seed " + std::to_string(seed));
    EXPECT_GE(flown.stats.module_runs, flown.stats.epochs)
        << "the stepping module is due in every epoch";
  }
}

TEST(SparseEpochWorld, ModuleShutDownByHmMidFlight) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    Mission mission = random_mission(seed);
    system::PartitionConfig& partition = mission.modules[1].partitions[0];
    partition.hm_table.set(hm::ErrorCode::kApplicationError,
                           hm::ErrorLevel::kProcess,
                           hm::RecoveryAction::kStopModule);
    system::ProcessConfig killer;
    killer.attrs.name = "killer";
    killer.attrs.priority = 30;
    killer.attrs.script = ScriptBuilder{}
                              .timed_wait(mission.phase1 / 2)
                              .raise_error(1, "halt")
                              .build();
    partition.processes.push_back(std::move(killer));
    const Flown flown = expect_matches_lockstep(
        mission, {nullptr, {mission.phase1, mission.phase2}},
        "shutdown seed " + std::to_string(seed));
    EXPECT_NE(flown.bytes.find("stopped=1"), std::string::npos)
        << "seed " << seed << ": HM must stop module 1 mid-flight";
  }
}

TEST(SparseEpochWorld, ManyShortRunsMatchOneLongRun) {
  const Mission mission = random_mission(11);
  const Flown flown = expect_matches_lockstep(
      mission, {nullptr, std::vector<Ticks>(600, 1)}, "run(1) x 600");
  EXPECT_EQ(flown.stats.epochs, 600u);
  EXPECT_EQ(flown.stats.epoch_ticks, 600u);
}

TEST(ParallelWorld, StatusReportDescribesTheWorld) {
  const Mission mission = random_mission(3);
  system::World::Stats stats;
  std::string report;
  (void)fly(mission, Driver::kEpoch, &stats, &report);
  EXPECT_NE(report.find("world t="), std::string::npos) << report;
  EXPECT_NE(report.find("epochs:"), std::string::npos) << report;
  EXPECT_NE(report.find("module runs="), std::string::npos) << report;
  EXPECT_NE(report.find("settles="), std::string::npos) << report;
  EXPECT_NE(report.find("bus:"), std::string::npos) << report;
  EXPECT_GT(stats.epochs, 0u);
  EXPECT_GE(stats.epoch_ticks, stats.epochs)
      << "mean epoch length must be >= 1 tick";
  EXPECT_GT(stats.module_runs, 0u);
}

TEST(ParallelWorld, BusRecorderIsBoundedLikeItsModules) {
  Mission mission = random_mission(7);
  mission.phase2 = 8000;
  for (std::size_t m = 0; m < mission.modules.size(); ++m) {
    mission.modules[m].telemetry.spans_capacity = m == 1 ? 256 : 128;
  }
  // Eviction happens on both drivers alike: the bus span JSON (part of the
  // fingerprint) stays byte-identical.
  EXPECT_EQ(fly(mission, Driver::kLockstep), fly(mission, Driver::kEpoch));

  const Ticks span = mission.phase1 + mission.phase2;
  system::World world(mission.bus);
  for (const auto& config : mission.modules) world.add_module(config);
  world.run(span);
  const telemetry::SpanRecorder& bus = world.bus_spans();
  EXPECT_EQ(bus.capacity(), 256u) << "the largest module capacity";
  EXPECT_GT(bus.dropped_spans(), 0u) << "the flight must overflow the ring";
  EXPECT_EQ(bus.closed().size(), 256u);
  EXPECT_EQ(bus.retained_spans(), bus.closed().size());
  EXPECT_EQ(bus.recorded_spans(), bus.closed().size() + bus.dropped_spans());
  const std::string line =
      "bus spans: recorded=" + std::to_string(bus.recorded_spans()) +
      " retained=256 dropped=" + std::to_string(bus.dropped_spans()) +
      " capacity=256\n";
  EXPECT_NE(world.status_report().find(line), std::string::npos)
      << world.status_report();

  // One unbounded module makes the bus recorder unbounded again.
  mission.modules.back().telemetry.spans_capacity = 0;
  system::World mixed(mission.bus);
  for (const auto& config : mission.modules) mixed.add_module(config);
  mixed.run(span);
  const telemetry::SpanRecorder& unbounded = mixed.bus_spans();
  EXPECT_EQ(unbounded.capacity(), 0u);
  EXPECT_EQ(unbounded.dropped_spans(), 0u);
  EXPECT_EQ(unbounded.recorded_spans(), bus.recorded_spans());
  EXPECT_EQ(unbounded.closed().size(), unbounded.recorded_spans());
  EXPECT_NE(mixed.status_report().find("capacity=unbounded"),
            std::string::npos);
}

TEST(ParallelWorld, EpochsFastForwardIdleWorlds) {
  // All-quiescent worlds must still advance in large strides (the epoch
  // horizon subsumes the lockstep warp): far fewer epochs than ticks.
  Mission mission = random_mission(5);
  for (auto& module : mission.modules) {
    module.partitions[0].processes.resize(1);  // keep only the ring chatter
  }
  system::World world(mission.bus);
  for (const auto& config : mission.modules) world.add_module(config);
  world.run(50'000);
  const system::World::Stats& stats = world.stats();
  EXPECT_EQ(stats.epoch_ticks, 50'000u);
  EXPECT_LT(stats.epochs, 30'000u)
      << "horizon never exceeded one tick; idle spans are not amortized";
}

}  // namespace
}  // namespace air
