#include "fi/campaign.hpp"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "config/fig8.hpp"
#include "system/module.hpp"
#include "system/world.hpp"

namespace air::fi {

namespace {

using scenarios::kFig8Mtf;

/// One flown mission: per-module fingerprints plus, for faulted runs, the
/// injection log and the root-cause material of module 0.
struct MissionArtifacts {
  std::vector<ModuleArtifacts> modules;
  std::vector<InjectionRecord> records;
  std::string detail;
};

std::string describe_run(system::Module& module,
                         const std::vector<InjectionRecord>& records) {
  std::ostringstream out;
  for (const InjectionRecord& record : records) {
    out << "  inject @" << record.tick << " " << to_string(record.fault)
        << " target=" << record.target
        << (record.applied ? " applied" : " skipped") << " (" << record.note
        << ")\n";
  }
  for (const telemetry::Anomaly& anomaly : module.spans().anomalies()) {
    out << "  anomaly: partition " << anomaly.partition << " process "
        << anomaly.process << " missed deadline " << anomaly.deadline
        << " (detected @" << anomaly.detected_at << ")\n";
    for (const telemetry::CauseLink& link : anomaly.chain) {
      out << "    <- " << telemetry::to_string(link.what) << " @" << link.at
          << " (" << telemetry::detail(link) << ")\n";
    }
  }
  return out.str();
}

MissionArtifacts fly_mission(const CampaignOptions& options,
                             bool world_mission, const FaultPlan* plan) {
  const Ticks mission_ticks = options.mtfs * kFig8Mtf;
  MissionArtifacts result;

  if (!world_mission) {
    system::Module module(campaign_fig8_config(options.weaken_hm));
    Injector injector(plan != nullptr ? *plan : FaultPlan{});
    if (plan != nullptr) injector.arm(module);
    module.run(mission_ticks);
    result.modules.push_back(collect_artifacts(module, kFig8Mtf));
    result.records = injector.log();
    if (plan != nullptr) result.detail = describe_run(module, result.records);
    return result;
  }

  // Two-module mission: the Fig. 8 prototype's science channel additionally
  // fans out over the TDMA bus to a ground-segment archiver.
  system::ModuleConfig fig8 = campaign_fig8_config(options.weaken_hm);
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
  // Bus plane with the same window as the module planes, so bus digests and
  // module digests close on the same boundaries.
  world.enable_online(prototype.config().telemetry.online);

  Injector injector(plan != nullptr ? *plan : FaultPlan{});
  BusInjector bus_injector(plan != nullptr ? *plan : FaultPlan{});
  if (plan != nullptr) {
    injector.arm(prototype);
    bus_injector.arm(world.bus());
  }
  world.run(mission_ticks);
  result.modules.push_back(collect_artifacts(prototype, kFig8Mtf));
  result.modules.push_back(collect_artifacts(ground, kFig8Mtf));
  result.records = injector.log();
  if (plan != nullptr) result.detail = describe_run(prototype, result.records);
  return result;
}

std::vector<Breach> breaches_for(const CampaignOptions& options,
                                 const FaultPlan& plan, bool world_mission,
                                 const std::vector<ModuleArtifacts>& reference,
                                 MissionArtifacts* faulted_out) {
  MissionArtifacts faulted = fly_mission(options, world_mission, &plan);
  OracleConfig config = oracle_config_for(plan, kFig8Mtf);
  if (world_mission && !config.target_partitions.empty()) {
    // A fault authorized to perturb partition P is also authorized to
    // change what P transmits: when P feeds a cross-module channel, the
    // downstream module legitimately sees a degraded stream (same ruling
    // as for bus faults), so only liveness is asserted for it.
    const system::ModuleConfig fig8 = campaign_fig8_config(options.weaken_hm);
    for (const ipc::ChannelConfig& channel : fig8.channels) {
      // fly_mission fans exactly the queuing (science) channel out to the
      // ground module.
      if (channel.kind != ipc::ChannelKind::kQueuing) continue;
      const auto source =
          static_cast<std::int32_t>(channel.source.partition.value());
      if (config.target_partitions.count(source) != 0) {
        config.exclude_remote_modules = true;
      }
    }
  }
  std::vector<Breach> breaches =
      compare_runs(reference, faulted.modules, config);
  const std::vector<Breach> hm = check_hm(
      faulted.records, faulted.modules.front(), HmExpectations{}, kFig8Mtf);
  breaches.insert(breaches.end(), hm.begin(), hm.end());
  const std::vector<Breach> wd = check_watchdogs(reference, faulted.modules);
  breaches.insert(breaches.end(), wd.begin(), wd.end());
  if (faulted_out != nullptr) *faulted_out = std::move(faulted);
  return breaches;
}

}  // namespace

system::ModuleConfig campaign_fig8_config(bool weaken_hm) {
  using pos::ScriptBuilder;
  // The stock Fig. 8 prototype, minus the built-in faulty process (the
  // campaign injects its own faults and the reference run must be clean).
  system::ModuleConfig config =
      scenarios::fig8_config({.with_faulty_process = false});
  config.name = weaken_hm ? "fig8-campaign-weak" : "fig8-campaign";

  for (system::PartitionConfig& partition : config.partitions) {
    // The kProcessStuck vehicle: a dormant highest-priority CPU hog. Once
    // started it starves its own partition -- and must starve nothing else.
    system::ProcessConfig hog;
    hog.attrs.name = Injector::kHogProcessName;
    hog.attrs.period = kInfiniteTime;  // aperiodic
    hog.attrs.time_capacity = kInfiniteTime;
    hog.attrs.priority = 0;
    hog.attrs.script = ScriptBuilder{}.compute(1'000'000).jump(0).build();
    hog.auto_start = false;
    partition.processes.push_back(std::move(hog));

    if (!weaken_hm) {
      // ARINC 653 application error handler: process-level errors land
      // here first (Sect. 2.4). The weakened configuration omits it.
      partition.error_handler =
          ScriptBuilder{}.log("hm: error handled").stop_self().build();
    }
    // Explicit fallback routing for the injected process-level codes.
    partition.hm_table.set(hm::ErrorCode::kMemoryViolation,
                           hm::ErrorLevel::kProcess,
                           hm::RecoveryAction::kStopProcess);
    partition.hm_table.set(hm::ErrorCode::kApplicationError,
                           hm::ErrorLevel::kProcess,
                           hm::RecoveryAction::kStopProcess);
  }

  if (!weaken_hm) {
    // A spurious bus interrupt is survivable noise: log and carry on. The
    // weakened configuration drops the entry, so the module table falls
    // back to its kStopModule default -- which the campaign must flag.
    config.module_hm_table.set(hm::ErrorCode::kHardwareFault,
                               hm::ErrorLevel::kModule,
                               hm::RecoveryAction::kIgnore);
  }

  // Every campaign mission flies with the online observability plane: the
  // watchdog oracle asserts silence on clean flights and detection under
  // faulted ones. 650 divides the Fig. 8 MTF (1300), so whole-MTF missions
  // close their last window exactly at the final tick -- every deferred
  // detection lands inside a closed window.
  config.telemetry.online.enabled = true;
  config.telemetry.online.window = 650;
  return config;
}

system::ModuleConfig campaign_ground_config() {
  using pos::ScriptBuilder;
  system::ModuleConfig config;
  config.id = ModuleId{1};
  config.name = "ground";

  system::PartitionConfig ground;
  ground.name = "GROUND";
  ground.queuing_ports.push_back(
      {"SCI_IN", ipc::PortDirection::kDestination, 64, 16});
  system::ProcessConfig archiver;
  archiver.attrs.name = "gs_archiver";
  archiver.attrs.priority = 10;
  archiver.attrs.script = ScriptBuilder{}
                              .queuing_receive(0)
                              .log("science frame archived")
                              .build();
  ground.processes.push_back(std::move(archiver));
  config.partitions.push_back(std::move(ground));

  model::Schedule schedule;
  schedule.id = ScheduleId{0};
  schedule.mtf = kFig8Mtf;
  schedule.requirements = {{PartitionId{0}, kFig8Mtf, kFig8Mtf}};
  schedule.windows = {{PartitionId{0}, 0, kFig8Mtf}};
  config.schedules = {schedule};
  config.telemetry.online.enabled = true;
  config.telemetry.online.window = 650;
  return config;
}

bool is_world_seed(const CampaignOptions& options, std::uint64_t seed) {
  return options.world_missions && seed % 3 == 0;
}

FaultPlan campaign_plan(const CampaignOptions& options, std::uint64_t seed) {
  PlanSpec spec;
  const Ticks mission_ticks = options.mtfs * kFig8Mtf;
  spec.first_tick = 50;
  // Leave at least one MTF of slack after the last injection so deferred
  // detections (Algorithm 3 runs at the victim's next dispatch) land
  // inside the mission.
  spec.horizon = std::max<Ticks>(spec.first_tick, mission_ticks - 1500);
  spec.min_gap = kFig8Mtf;
  spec.partitions = 4;
  spec.max_injections = 4;
  spec.bus_seq_window = static_cast<std::uint64_t>(
      std::max<Ticks>(2, options.mtfs));
  spec.classes = {
      FaultClass::kMemoryBitFlip,     FaultClass::kRogueWrite,
      FaultClass::kClockTickDuplicate, FaultClass::kSpuriousInterrupt,
      FaultClass::kProcessOverrun,    FaultClass::kProcessStuck,
      FaultClass::kApplicationError,  FaultClass::kScheduleStorm,
  };
  if (is_world_seed(options, seed)) {
    spec.classes.push_back(FaultClass::kBusFrameDrop);
    spec.classes.push_back(FaultClass::kBusFrameCorrupt);
    spec.classes.push_back(FaultClass::kBusFrameDelay);
  }
  FaultPlan plan = generate_plan(spec, seed);
  if (options.weaken_hm && !plan.has_class(FaultClass::kApplicationError) &&
      !plan.has_class(FaultClass::kRogueWrite) &&
      !plan.has_class(FaultClass::kSpuriousInterrupt) &&
      !plan.injections.empty()) {
    // The weakened campaign probes the HM policy, so every plan carries at
    // least one injection whose containment contract involves the HM.
    Injection& first = plan.injections.front();
    first.fault = FaultClass::kApplicationError;
    first.target = static_cast<std::int32_t>(seed % 4);
    first.a = static_cast<std::int64_t>(seed % 2);
    first.b = 0;
  }
  return plan;
}

std::vector<Breach> evaluate_plan(const CampaignOptions& options,
                                  const FaultPlan& plan, bool world_mission,
                                  std::vector<InjectionRecord>* records_out,
                                  std::string* detail_out) {
  const MissionArtifacts reference =
      fly_mission(options, world_mission, nullptr);
  MissionArtifacts faulted;
  std::vector<Breach> breaches =
      breaches_for(options, plan, world_mission, reference.modules, &faulted);
  if (records_out != nullptr) *records_out = faulted.records;
  if (detail_out != nullptr) *detail_out = faulted.detail;
  return breaches;
}

FaultPlan minimize_plan(const CampaignOptions& options, const FaultPlan& plan,
                        bool world_mission) {
  const MissionArtifacts reference =
      fly_mission(options, world_mission, nullptr);
  FaultPlan current = plan;
  bool changed = true;
  while (changed && current.injections.size() > 1) {
    changed = false;
    for (std::size_t i = 0; i < current.injections.size(); ++i) {
      FaultPlan candidate = current;
      candidate.injections.erase(candidate.injections.begin() +
                                 static_cast<std::ptrdiff_t>(i));
      if (!breaches_for(options, candidate, world_mission, reference.modules,
                        nullptr)
               .empty()) {
        current = std::move(candidate);
        changed = true;
        break;
      }
    }
  }
  return current;
}

SeedResult run_seed(const CampaignOptions& options, std::uint64_t seed) {
  SeedResult result;
  result.seed = seed;
  result.world_mission = is_world_seed(options, seed);
  result.plan = campaign_plan(options, seed);

  const MissionArtifacts reference =
      fly_mission(options, result.world_mission, nullptr);
  MissionArtifacts faulted;
  result.breaches = breaches_for(options, result.plan, result.world_mission,
                                 reference.modules, &faulted);
  if (result.breaches.empty()) {
    result.minimized = result.plan;
    return result;
  }

  result.minimized =
      minimize_plan(options, result.plan, result.world_mission);
  MissionArtifacts minimized_run;
  const std::vector<Breach> minimized_breaches =
      breaches_for(options, result.minimized, result.world_mission,
                   reference.modules, &minimized_run);

  std::ostringstream report;
  report << "seed " << seed << " ("
         << (result.world_mission ? "world" : "module") << " mission, "
         << (options.weaken_hm ? "weakened" : "stock") << " config): "
         << result.breaches.size() << " containment breach(es)\n";
  for (const Breach& breach : result.breaches) {
    report << "  [" << breach.oracle << "] " << breach.detail << "\n";
  }
  report << "minimized reproducer (" << result.minimized.injections.size()
         << " injection(s), " << minimized_breaches.size()
         << " breach(es) on replay):\n";
  report << result.minimized.to_text();
  if (!minimized_run.detail.empty()) {
    report << "replay detail:\n" << minimized_run.detail;
  }
  result.report = report.str();
  return result;
}

std::vector<Breach> watchdog_selftest() {
  std::vector<Breach> failures;
  const auto fail = [&failures](std::string detail) {
    failures.push_back({"selftest", std::move(detail)});
  };

  CampaignOptions options;
  options.mtfs = 2;  // two major frames: inject in the first, detect early
  FaultPlan plan;
  plan.seed = 0;
  plan.injections.push_back(
      {/*tick=*/73, FaultClass::kProcessOverrun, /*target=*/0, /*a=*/0,
       /*b=*/0});

  const MissionArtifacts reference = fly_mission(options, false, nullptr);
  const MissionArtifacts faulted = fly_mission(options, false, &plan);
  const ModuleArtifacts& ref = reference.modules.front();
  const ModuleArtifacts& fav = faulted.modules.front();

  if (!ref.online_enabled || !fav.online_enabled) {
    fail("campaign config flew without the online plane");
    return failures;
  }
  if (ref.watchdog_breaches != 0) {
    fail("clean flight raised " + std::to_string(ref.watchdog_breaches) +
         " health event(s); watchdog thresholds are miscalibrated");
  }
  const telemetry::HealthEvent* deadline_event = nullptr;
  for (const telemetry::HealthEvent& event : fav.health) {
    if (event.kind == telemetry::Watchdog::kDeadlineMissRate &&
        event.partition == 0) {
      deadline_event = &event;
      break;
    }
  }
  if (deadline_event == nullptr) {
    fail("forced deadline miss on partition 0 but no deadline watchdog "
         "fired (" +
         std::to_string(fav.health.size()) + " health event(s) total)");
  } else if (deadline_event->cause == 0) {
    fail("deadline watchdog fired without a causal span: breach is not "
         "linked to the root-cause chain");
  }
  return failures;
}

CampaignResult run_campaign(const CampaignOptions& options) {
  CampaignResult result;
  for (std::size_t i = 0; i < options.seeds; ++i) {
    const std::uint64_t seed = options.first_seed + i;
    SeedResult seed_result = run_seed(options, seed);
    ++result.seeds_run;
    result.injections_applied += seed_result.plan.injections.size();
    const bool breached = !seed_result.breaches.empty();
    if (options.verbose) {
      std::printf("fi: seed %llu (%s) %s\n",
                  static_cast<unsigned long long>(seed),
                  seed_result.world_mission ? "world" : "module",
                  breached ? "BREACH" : "ok");
    }
    if (!breached) continue;
    if (!options.out_dir.empty()) {
      const std::filesystem::path dir{options.out_dir};
      std::error_code ec;
      std::filesystem::create_directories(dir, ec);
      const std::string stem = "seed_" + std::to_string(seed);
      std::ofstream plan_file(dir / (stem + "_plan.txt"), std::ios::binary);
      plan_file << seed_result.minimized.to_text();
      std::ofstream report_file(dir / (stem + "_report.txt"),
                                std::ios::binary);
      report_file << seed_result.report;
    }
    result.failures.push_back(std::move(seed_result));
  }
  return result;
}

}  // namespace air::fi
