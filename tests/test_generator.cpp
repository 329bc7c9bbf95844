// PST generator tests (E12): generated schedules always satisfy the model
// equations; infeasible inputs are rejected. Includes a parameterised
// property sweep over randomly drawn requirement sets and a seeded
// differential test of the per-event EDF against a per-tick reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <vector>

#include "model/generator.hpp"
#include "model/validation.hpp"
#include "util/rng.hpp"

namespace air::model {
namespace {

TEST(Generator, GeneratesAValidScheduleForFig8Requirements) {
  GeneratorInput input;
  input.requirements = {
      {PartitionId{0}, 1300, 200},
      {PartitionId{1}, 650, 100},
      {PartitionId{2}, 650, 100},
      {PartitionId{3}, 1300, 100},
  };
  const auto schedule = generate_schedule(input);
  ASSERT_TRUE(schedule.has_value());
  EXPECT_EQ(schedule->mtf, 1300);
  const auto report = validate_schedule(*schedule);
  EXPECT_TRUE(report.ok()) << report.to_text();
  EXPECT_TRUE(report.warnings.empty())
      << "EDF construction never crosses cycle boundaries";
}

TEST(Generator, RejectsOverUtilisedSets) {
  GeneratorInput input;
  input.requirements = {{PartitionId{0}, 100, 60}, {PartitionId{1}, 100, 50}};
  EXPECT_FALSE(generate_schedule(input).has_value());
}

TEST(Generator, RejectsStructurallyImpossibleRequirements) {
  GeneratorInput bad_duration;
  bad_duration.requirements = {{PartitionId{0}, 50, 60}};  // d > eta
  EXPECT_FALSE(generate_schedule(bad_duration).has_value());

  GeneratorInput bad_period;
  bad_period.requirements = {{PartitionId{0}, 0, 10}};
  EXPECT_FALSE(generate_schedule(bad_period).has_value());

  GeneratorInput bad_mtf;
  bad_mtf.requirements = {{PartitionId{0}, 50, 10}};
  bad_mtf.mtf = 75;  // not a multiple of 50 -> would break eq. 22
  EXPECT_FALSE(generate_schedule(bad_mtf).has_value());
}

TEST(Generator, FullUtilisationIsStillFeasible) {
  GeneratorInput input;
  input.requirements = {{PartitionId{0}, 10, 5}, {PartitionId{1}, 20, 10}};
  const auto schedule = generate_schedule(input);
  ASSERT_TRUE(schedule.has_value());
  EXPECT_DOUBLE_EQ(schedule->utilisation(), 1.0);
  EXPECT_TRUE(validate_schedule(*schedule).ok());
}

TEST(Generator, HonoursAnExplicitLargerMtf) {
  GeneratorInput input;
  input.requirements = {{PartitionId{0}, 50, 10}};
  input.mtf = 200;  // 4 cycles
  const auto schedule = generate_schedule(input);
  ASSERT_TRUE(schedule.has_value());
  EXPECT_EQ(schedule->mtf, 200);
  const auto report = validate_schedule(*schedule);
  EXPECT_TRUE(report.ok()) << report.to_text();
  for (Ticks k = 0; k < 4; ++k) {
    EXPECT_GE(cycle_window_time(*schedule, PartitionId{0}, k), 10);
  }
}

TEST(Generator, ZeroDurationPartitionsProduceNoWindows) {
  GeneratorInput input;
  input.requirements = {{PartitionId{0}, 50, 25}, {PartitionId{1}, 50, 0}};
  const auto schedule = generate_schedule(input);
  ASSERT_TRUE(schedule.has_value());
  EXPECT_EQ(schedule->assigned_time(PartitionId{1}), 0);
  EXPECT_TRUE(validate_schedule(*schedule).ok());
}

// ---------- property sweep: random requirement sets ----------

class GeneratorProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GeneratorProperty, GeneratedSchedulesAlwaysValidate) {
  util::Rng rng(GetParam());
  // Harmonic-ish periods keep the lcm bounded.
  static constexpr Ticks kPeriods[] = {20, 40, 80, 160};

  const int partitions = static_cast<int>(rng.uniform(2, 6));
  std::vector<ScheduleRequirement> reqs;
  double budget = 1.0;
  for (int p = 0; p < partitions; ++p) {
    const Ticks period =
        kPeriods[static_cast<std::size_t>(rng.uniform(0, 3))];
    const double share = rng.uniform01() * budget * 0.6;
    const Ticks duration =
        std::min<Ticks>(period,
                        static_cast<Ticks>(share * static_cast<double>(period)));
    budget -= static_cast<double>(duration) / static_cast<double>(period);
    reqs.push_back({PartitionId{p}, period, duration});
  }

  GeneratorInput input;
  input.requirements = reqs;
  const auto schedule = generate_schedule(input);
  ASSERT_TRUE(schedule.has_value())
      << "utilisation " << requirement_utilisation(reqs);
  const auto report = validate_schedule(*schedule);
  EXPECT_TRUE(report.ok()) << report.to_text();

  // Every partition got exactly its demand per cycle (EDF never over- nor
  // under-allocates on an integer timeline with these inputs).
  for (const auto& req : reqs) {
    for (Ticks k = 0; k < schedule->mtf / req.period; ++k) {
      EXPECT_GE(cycle_window_time(*schedule, req.partition, k), req.duration);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GeneratorProperty,
                         ::testing::Range<std::uint64_t>(1, 33));

// ---------- differential: per-event EDF against a per-tick reference ----------

/// EDF over the partition cycles, one tick at a time: each tick runs the
/// released, unfinished cycle job with the earliest deadline (ties: lower
/// partition id, then requirement order) and fails when that job is past
/// its deadline or a job is left unfinished at the end. It has no
/// utilisation pre-check, so over-utilised sets reach its miss path.
/// Returns the windows coalesced as the generator does, or nullopt.
std::optional<std::vector<Window>> per_tick_edf(
    const std::vector<ScheduleRequirement>& reqs, Ticks mtf) {
  struct Job {
    std::size_t req;
    Ticks release;
    Ticks deadline;
    Ticks remaining;
  };
  std::vector<Job> jobs;
  for (std::size_t r = 0; r < reqs.size(); ++r) {
    if (reqs[r].duration == 0) continue;
    for (Ticks k = 0; k < mtf / reqs[r].period; ++k) {
      jobs.push_back({r, k * reqs[r].period, (k + 1) * reqs[r].period,
                      reqs[r].duration});
    }
  }
  std::vector<std::size_t> owner(static_cast<std::size_t>(mtf), SIZE_MAX);
  for (Ticks t = 0; t < mtf; ++t) {
    Job* chosen = nullptr;
    for (Job& job : jobs) {
      if (job.remaining <= 0 || job.release > t) continue;
      if (chosen == nullptr || job.deadline < chosen->deadline ||
          (job.deadline == chosen->deadline &&
           reqs[job.req].partition.value() <
               reqs[chosen->req].partition.value())) {
        chosen = &job;
      }
    }
    if (chosen == nullptr) continue;
    if (t >= chosen->deadline) return std::nullopt;
    owner[static_cast<std::size_t>(t)] = chosen->req;
    --chosen->remaining;
  }
  for (const Job& job : jobs) {
    if (job.remaining > 0) return std::nullopt;
  }
  std::vector<Window> windows;
  for (Ticks t = 0; t < mtf;) {
    const std::size_t r = owner[static_cast<std::size_t>(t)];
    if (r == SIZE_MAX) {
      ++t;
      continue;
    }
    const Ticks cycle_end = (t / reqs[r].period + 1) * reqs[r].period;
    Ticks end = t;
    while (end < mtf && end < cycle_end &&
           owner[static_cast<std::size_t>(end)] == r) {
      ++end;
    }
    windows.push_back({reqs[r].partition, t, end - t});
    t = end;
  }
  return windows;
}

TEST(Generator, PerEventEdfMatchesThePerTickReference) {
  static constexpr Ticks kPeriods[] = {6, 8, 12, 16, 24, 48};
  int feasible_with_idle = 0;
  int fully_utilised = 0;
  int infeasible = 0;
  for (std::uint64_t seed = 1; seed <= 400; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    util::Rng rng(seed);
    // Up to six requirements over four partition ids, so equal deadlines
    // tie on the partition id and, for a repeated id, on requirement order.
    std::vector<ScheduleRequirement> reqs;
    const auto count = rng.uniform(1, 6);
    for (std::int64_t i = 0; i < count; ++i) {
      const Ticks period =
          kPeriods[static_cast<std::size_t>(rng.uniform(0, 5))];
      reqs.push_back({PartitionId{static_cast<int>(rng.uniform(0, 3))},
                      period, rng.uniform(0, period / 2)});
    }
    // Every third set is pushed to or past full utilisation.
    if (seed % 3 == 0) {
      while (requirement_utilisation(reqs) < 1.0) {
        ScheduleRequirement& req =
            reqs[static_cast<std::size_t>(rng.uniform(0, count - 1))];
        req.duration = std::min(req.period, req.duration + 1);
        if (std::all_of(reqs.begin(), reqs.end(), [](const auto& r) {
              return r.duration == r.period;
            })) {
          break;
        }
      }
    }
    GeneratorInput input;
    input.requirements = reqs;
    input.mtf = lcm_of_periods(reqs) * rng.uniform(0, 2);  // 0 = the lcm
    const Ticks mtf = input.mtf > 0 ? input.mtf : lcm_of_periods(reqs);

    const auto generated = generate_schedule(input);
    const auto reference = per_tick_edf(reqs, mtf);
    ASSERT_EQ(generated.has_value(), reference.has_value())
        << "utilisation " << requirement_utilisation(reqs);
    if (!generated.has_value()) {
      ++infeasible;
      continue;
    }
    EXPECT_EQ(generated->mtf, mtf);
    EXPECT_EQ(generated->windows, *reference);
    Ticks busy = 0;
    for (const Window& w : generated->windows) busy += w.duration;
    ++(busy < mtf ? feasible_with_idle : fully_utilised);
  }
  // Each class must be populated, or the comparison proves little.
  EXPECT_GE(feasible_with_idle, 100);
  EXPECT_GE(fully_utilised, 5);
  EXPECT_GE(infeasible, 50);
}

}  // namespace
}  // namespace air::model
