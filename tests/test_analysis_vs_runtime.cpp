// Cross-validation property: the offline schedulability analysis (E12)
// against the actual kernel.
//
// For randomly generated systems of periodic compute-only processes over
// generator-produced PSTs: whenever the MTF-aligned response-time analysis
// declares the system schedulable (with WCET = compute + 1 tick for the
// completing service call), the runtime must produce zero deadline misses
// over several hyperperiods -- i.e. the analysis is sound for the workloads
// it models.
#include <gtest/gtest.h>

#include "model/generator.hpp"
#include "model/schedulability.hpp"
#include "system/flight_validate.hpp"
#include "system/module.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace air {
namespace {

using pos::ScriptBuilder;

struct Generated {
  system::ModuleConfig config;
  model::SystemModel model;
  ScheduleId schedule_id{0};
};

Generated generate(std::uint64_t seed) {
  util::Rng rng(seed);
  Generated out;

  const int partitions = static_cast<int>(rng.uniform(2, 4));
  static constexpr Ticks kPeriods[] = {80, 160, 320};

  std::vector<model::ScheduleRequirement> reqs;
  double budget = 0.9;
  for (int p = 0; p < partitions; ++p) {
    const Ticks period =
        kPeriods[static_cast<std::size_t>(rng.uniform(0, 2))];
    const double share = budget / static_cast<double>(partitions - p) *
                         (0.5 + rng.uniform01() * 0.5);
    const Ticks duration = std::max<Ticks>(
        6, static_cast<Ticks>(share * static_cast<double>(period)));
    budget -= static_cast<double>(duration) / static_cast<double>(period);
    reqs.push_back({PartitionId{p}, period, duration});
  }
  model::GeneratorInput input;
  input.requirements = reqs;
  auto schedule = model::generate_schedule(input);
  AIR_ASSERT(schedule.has_value());
  out.config.schedules = {*schedule};
  out.model.schedules = {*schedule};

  for (int p = 0; p < partitions; ++p) {
    system::PartitionConfig partition;
    partition.name = "P" + std::to_string(p);
    model::PartitionModel pm;
    pm.id = PartitionId{p};
    pm.name = partition.name;

    const int processes = static_cast<int>(rng.uniform(1, 3));
    for (int q = 0; q < processes; ++q) {
      // Keep total demand loosely within the partition's supply so that a
      // fair share of seeds comes out schedulable.
      const Ticks period = reqs[static_cast<std::size_t>(p)].period *
                           rng.uniform(1, 2);
      const Ticks compute = std::max<Ticks>(
          1, reqs[static_cast<std::size_t>(p)].duration /
                 (2 * processes) +
                 rng.uniform(-2, 2));
      const Ticks capacity = period;  // implicit deadlines

      system::ProcessConfig process;
      process.attrs.name = "q" + std::to_string(q);
      process.attrs.period = period;
      process.attrs.time_capacity = capacity;
      process.attrs.priority = static_cast<Priority>(10 + q);
      process.attrs.script =
          ScriptBuilder{}.compute(compute).periodic_wait().build();
      partition.processes.push_back(std::move(process));

      // Model WCET: compute + 1 tick for the completing PERIODIC_WAIT.
      pm.processes.push_back({process.attrs.name, period, capacity,
                              static_cast<Priority>(10 + q), compute + 1,
                              true});
    }
    out.config.partitions.push_back(std::move(partition));
    out.model.partitions.push_back(std::move(pm));
  }
  hm::HmTable table;
  table.set(hm::ErrorCode::kDeadlineMissed, hm::ErrorLevel::kProcess,
            hm::RecoveryAction::kIgnore);
  out.config.module_hm_table = table;
  for (auto& p : out.config.partitions) p.hm_table = table;
  out.config.trace_enabled = true;
  return out;
}

class AnalysisVsRuntime : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AnalysisVsRuntime, SchedulableVerdictImpliesNoRuntimeMisses) {
  Generated generated = generate(GetParam());
  const auto analysis = model::analyze_system(
      generated.model, generated.schedule_id, model::Phasing::kMtfAligned);

  system::Module module(generated.config);
  module.run(20 * generated.config.schedules[0].mtf);
  const std::size_t misses =
      module.trace().count(util::EventKind::kDeadlineMiss);

  if (analysis.schedulable) {
    EXPECT_EQ(misses, 0u)
        << "seed " << GetParam()
        << ": analysis said schedulable but the runtime missed\n"
        << analysis.to_text();
  }
  // (The converse is not asserted: the analysis is allowed to be
  // conservative.)
}

INSTANTIATE_TEST_SUITE_P(Seeds, AnalysisVsRuntime,
                         ::testing::Range<std::uint64_t>(100, 140));

// The soundness property must also survive a shared world: the candidate
// module flies alongside switched-TDMA-bus chatter peers. Temporal
// isolation says network load elsewhere on the world cannot consume the
// candidate's processor windows, so the verdict stands unchanged.
TEST(AnalysisVsRuntime, SchedulableVerdictSurvivesSwitchedBusWorlds) {
  int flown = 0;
  for (std::uint64_t seed = 100; seed < 140 && flown < 4; ++seed) {
    Generated generated = generate(seed);
    const auto analysis = model::analyze_system(
        generated.model, generated.schedule_id, model::Phasing::kMtfAligned);
    if (!analysis.schedulable) continue;
    ++flown;

    model::Candidate candidate;
    candidate.id = seed;
    candidate.name = "seed-" + std::to_string(seed);
    const model::Schedule& schedule = generated.model.schedules[0];
    candidate.mtf = schedule.mtf;
    candidate.requirements = schedule.requirements;
    candidate.windows = schedule.windows;
    candidate.partitions = generated.model.partitions;

    system::FlightOptions options;
    options.mtfs = 10;
    options.switched_bus = true;
    // kPerTick maps to the lockstep world reference, kEpoch to the epoch
    // driver -- both world drivers covered.
    for (const auto driver :
         {system::FlightDriver::kPerTick, system::FlightDriver::kEpoch}) {
      EXPECT_EQ(system::fly_candidate(candidate, schedule, driver, options),
                0u)
          << "seed " << seed << " driver " << system::to_string(driver);
    }
  }
  EXPECT_GE(flown, 4) << "not enough schedulable seeds to exercise the world";
}

// Mode-based schedules (Sect. 4): if every schedule of a mode-based system
// is schedulable under Phasing::kWorstCase, then no sequence of
// SET_MODULE_SCHEDULE switches can cause a miss. Soundness argument:
// switches take effect at MTF boundaries, every process period equals its
// partition's requirement period (which divides both MTFs), and deadlines
// are implicit -- so each job's whole execution window lies inside a single
// schedule regime, where the worst-case-phase analysis already bounds it.
TEST(AnalysisVsRuntime, WorstCaseVerdictsOnAllSchedulesCoverModeSwitches) {
  system::ModuleConfig config;
  system::PartitionConfig ctrl;
  ctrl.name = "CTRL";
  ctrl.system_partition = true;
  system::PartitionConfig work1;
  work1.name = "WORK1";
  system::PartitionConfig work2;
  work2.name = "WORK2";

  model::Schedule s0;
  s0.id = ScheduleId{0};
  s0.name = "nominal";
  s0.mtf = 100;
  s0.requirements = {{PartitionId{0}, 100, 20},
                     {PartitionId{1}, 100, 40},
                     {PartitionId{2}, 100, 40}};
  s0.windows = {{PartitionId{0}, 0, 20},
                {PartitionId{1}, 20, 40},
                {PartitionId{2}, 60, 40}};

  model::Schedule s1;
  s1.id = ScheduleId{1};
  s1.name = "degraded";
  s1.mtf = 100;
  s1.requirements = {{PartitionId{0}, 100, 20},
                     {PartitionId{1}, 100, 30},
                     {PartitionId{2}, 100, 50}};
  s1.windows = {{PartitionId{0}, 0, 20},
                {PartitionId{1}, 20, 30},
                {PartitionId{2}, 50, 50}};
  config.schedules = {s0, s1};

  // The commander toggles between the schedules; it runs without a
  // deadline, so only the WORK processes can miss.
  system::ProcessConfig commander;
  commander.attrs.name = "cmd";
  commander.attrs.priority = 5;
  {
    ScriptBuilder script;
    for (int i = 0; i < 4; ++i) {
      script.set_module_schedule(1 - (i % 2)).timed_wait(400);
    }
    commander.attrs.script = script.stop_self().build();
  }
  ctrl.processes.push_back(std::move(commander));

  model::SystemModel system_model;
  system_model.schedules = config.schedules;
  system_model.partitions = {{PartitionId{0}, "CTRL", true, {}},
                             {PartitionId{1}, "WORK1", false, {}},
                             {PartitionId{2}, "WORK2", false, {}}};

  const auto add_worker = [&](system::PartitionConfig& partition,
                              model::PartitionModel& pm, const char* name,
                              Ticks wcet, Priority priority) {
    system::ProcessConfig process;
    process.attrs.name = name;
    process.attrs.period = 100;         // == requirement period, both PSTs
    process.attrs.time_capacity = 100;  // implicit deadline
    process.attrs.priority = priority;
    process.attrs.script =
        ScriptBuilder{}.compute(wcet - 1).periodic_wait().build();
    partition.processes.push_back(std::move(process));
    pm.processes.push_back({name, 100, 100, priority, wcet, true});
  };
  add_worker(work1, system_model.partitions[1], "w1a", 10, 10);
  add_worker(work1, system_model.partitions[1], "w1b", 12, 11);
  add_worker(work2, system_model.partitions[2], "w2a", 20, 10);
  add_worker(work2, system_model.partitions[2], "w2b", 10, 11);

  // Premise: schedulable on BOTH schedules under worst-case phasing.
  for (const auto id : {ScheduleId{0}, ScheduleId{1}}) {
    const auto analysis = model::analyze_system(system_model, id,
                                                model::Phasing::kWorstCase);
    ASSERT_TRUE(analysis.schedulable)
        << "schedule " << id.value() << "\n" << analysis.to_text();
  }

  config.partitions.push_back(std::move(ctrl));
  config.partitions.push_back(std::move(work1));
  config.partitions.push_back(std::move(work2));
  hm::HmTable table;
  table.set(hm::ErrorCode::kDeadlineMissed, hm::ErrorLevel::kProcess,
            hm::RecoveryAction::kIgnore);
  config.module_hm_table = table;
  for (auto& p : config.partitions) p.hm_table = table;
  config.trace_enabled = true;

  system::Module module(std::move(config));
  module.run(3000);
  EXPECT_GE(module.trace().count(util::EventKind::kScheduleSwitch), 3u)
      << "the commander's switches must actually land";
  EXPECT_EQ(module.trace().count(util::EventKind::kDeadlineMiss), 0u);
}

TEST(AnalysisVsRuntimeMeta, ThePropertyIsNotVacuous) {
  // A meaningful share of the generated seeds must actually come out
  // schedulable, otherwise the soundness property above tests nothing.
  int schedulable = 0;
  for (std::uint64_t seed = 100; seed < 140; ++seed) {
    Generated generated = generate(seed);
    if (model::analyze_system(generated.model, generated.schedule_id,
                              model::Phasing::kMtfAligned)
            .schedulable) {
      ++schedulable;
    }
  }
  EXPECT_GE(schedulable, 10) << "generator tuning drifted";
}

}  // namespace
}  // namespace air
