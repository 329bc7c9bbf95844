// Property tests of the supply-bound function machinery behind the
// schedulability analysis (and the batch service's memoised supplies).
//
// Over randomized generator-produced PSTs (seeds logged on failure), for
// every partition of every schedule:
//   - sbf is monotone non-decreasing and 1-Lipschitz (one tick of interval
//     buys at most one tick of supply);
//   - MTF additivity:
//       sbf(q*MTF + r) == q*A + sbf(r),  A = partition time per MTF;
//   - inverse_sbf is the exact lower inverse of sbf, and
//     inverse_supply_from of supply from every phase: the returned length
//     reaches the demand and no shorter length does;
//   - the phase-free sbf lower-bounds every phase-aware supply (and the
//     phase-aware inverse never waits longer than the phase-free one) --
//     the soundness relation between Phasing::kWorstCase and kMtfAligned.
//
// sbf and inverse_sbf, both derived from the gap starts, are checked
// against a brute-force reference that takes the least supply over *every*
// start phase, on seeded random window sets and on the edge shapes the
// gap-start scan must get right (no gap, no window, one-tick windows); the
// inverses are also checked against binary searches on the same edge
// shapes.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "model/generator.hpp"
#include "model/schedulability.hpp"
#include "util/rng.hpp"

namespace air {
namespace {

model::Schedule random_schedule(std::uint64_t seed) {
  util::Rng rng(seed);
  static constexpr Ticks kPeriods[] = {40, 80, 160};
  const int partitions = static_cast<int>(rng.uniform(2, 4));
  std::vector<model::ScheduleRequirement> reqs;
  double budget = 0.95;
  for (int p = 0; p < partitions; ++p) {
    const Ticks period =
        kPeriods[static_cast<std::size_t>(rng.uniform(0, 2))];
    const double share = budget / static_cast<double>(partitions - p) *
                         (0.4 + rng.uniform01() * 0.6);
    const Ticks duration = std::max<Ticks>(
        3, static_cast<Ticks>(share * static_cast<double>(period)));
    budget -= static_cast<double>(duration) / static_cast<double>(period);
    reqs.push_back({PartitionId{p}, period, duration});
  }
  model::GeneratorInput input;
  input.requirements = reqs;
  const auto schedule = model::generate_schedule(input);
  EXPECT_TRUE(schedule.has_value()) << "seed " << seed;
  return *schedule;
}

class SbfProperties : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SbfProperties, MonotoneAndLipschitz) {
  const std::uint64_t seed = GetParam();
  SCOPED_TRACE("seed " + std::to_string(seed));
  const model::Schedule schedule = random_schedule(seed);
  for (const auto& req : schedule.requirements) {
    const model::PartitionSupply supply(schedule, req.partition);
    Ticks prev = supply.sbf(0);
    EXPECT_EQ(prev, 0);
    for (Ticks len = 1; len <= 2 * schedule.mtf; ++len) {
      const Ticks cur = supply.sbf(len);
      EXPECT_GE(cur, prev) << "len " << len;
      EXPECT_LE(cur - prev, 1) << "len " << len;
      prev = cur;
    }
  }
}

TEST_P(SbfProperties, MtfAdditivity) {
  const std::uint64_t seed = GetParam();
  SCOPED_TRACE("seed " + std::to_string(seed));
  const model::Schedule schedule = random_schedule(seed);
  for (const auto& req : schedule.requirements) {
    const model::PartitionSupply supply(schedule, req.partition);
    const Ticks a = supply.per_mtf();
    for (const Ticks q : {Ticks{1}, Ticks{2}, Ticks{7}}) {
      for (Ticks r = 0; r <= schedule.mtf; r += 3) {
        EXPECT_EQ(supply.sbf(q * schedule.mtf + r), q * a + supply.sbf(r))
            << "q " << q << " r " << r;
      }
    }
  }
}

TEST_P(SbfProperties, InverseSbfIsTheExactLowerInverse) {
  const std::uint64_t seed = GetParam();
  SCOPED_TRACE("seed " + std::to_string(seed));
  const model::Schedule schedule = random_schedule(seed);
  for (const auto& req : schedule.requirements) {
    const model::PartitionSupply supply(schedule, req.partition);
    ASSERT_GT(supply.per_mtf(), 0);
    for (Ticks demand = 1; demand <= 2 * supply.per_mtf() + 3; ++demand) {
      const Ticks t = supply.inverse_sbf(demand);
      ASSERT_NE(t, kInfiniteTime) << "demand " << demand;
      EXPECT_GE(supply.sbf(t), demand) << "demand " << demand;
      ASSERT_GT(t, 0) << "demand " << demand;
      EXPECT_LT(supply.sbf(t - 1), demand)
          << "demand " << demand << ": not the smallest such length";
    }
  }
}

TEST_P(SbfProperties, InverseSupplyFromIsTheExactLowerInverse) {
  const std::uint64_t seed = GetParam();
  SCOPED_TRACE("seed " + std::to_string(seed));
  const model::Schedule schedule = random_schedule(seed);
  for (const auto& req : schedule.requirements) {
    const model::PartitionSupply supply(schedule, req.partition);
    ASSERT_GT(supply.per_mtf(), 0);
    for (Ticks phase = 0; phase < schedule.mtf; ++phase) {
      for (Ticks demand = 1; demand <= 2 * supply.per_mtf() + 3; ++demand) {
        const Ticks t = supply.inverse_supply_from(phase, demand);
        ASSERT_GT(t, 0) << "phase " << phase << " demand " << demand;
        ASSERT_GE(supply.supply(phase, t), demand)
            << "phase " << phase << " demand " << demand;
        ASSERT_LT(supply.supply(phase, t - 1), demand)
            << "phase " << phase << " demand " << demand
            << ": not the smallest such length";
      }
    }
  }
}

TEST_P(SbfProperties, PhaseAwareSupplyDominatesPhaseFreeBound) {
  const std::uint64_t seed = GetParam();
  SCOPED_TRACE("seed " + std::to_string(seed));
  const model::Schedule schedule = random_schedule(seed);
  for (const auto& req : schedule.requirements) {
    const model::PartitionSupply supply(schedule, req.partition);
    for (Ticks phase = 0; phase < schedule.mtf; phase += 7) {
      for (Ticks len = 0; len <= schedule.mtf; len += 5) {
        EXPECT_GE(supply.supply(phase, len), supply.sbf(len))
            << "phase " << phase << " len " << len;
      }
      for (Ticks demand = 1; demand <= supply.per_mtf(); demand += 4) {
        EXPECT_LE(supply.inverse_supply_from(phase, demand),
                  supply.inverse_sbf(demand))
            << "phase " << phase << " demand " << demand;
      }
    }
  }
}

/// sbf straight from the definition: the least supply over all MTF start
/// phases, counted tick by tick from the partition's window bitmap.
std::vector<Ticks> brute_force_sbf(const model::Schedule& schedule,
                                   PartitionId partition) {
  const auto mtf = static_cast<std::size_t>(schedule.mtf);
  std::vector<int> available(mtf, 0);
  for (const model::Window& w : schedule.windows) {
    if (w.partition != partition) continue;
    for (Ticks t = w.offset; t < w.offset + w.duration && t < schedule.mtf;
         ++t) {
      available[static_cast<std::size_t>(t)] = 1;
    }
  }
  std::vector<Ticks> sbf(2 * mtf + 1, 0);
  for (std::size_t len = 1; len < sbf.size(); ++len) {
    Ticks least = static_cast<Ticks>(len);
    for (std::size_t t0 = 0; t0 < mtf; ++t0) {
      Ticks got = 0;
      for (std::size_t t = t0; t < t0 + len; ++t) got += available[t % mtf];
      least = std::min(least, got);
    }
    sbf[len] = least;
  }
  return sbf;
}

void expect_matches_brute_force(const model::Schedule& schedule,
                                PartitionId partition) {
  const model::PartitionSupply supply(schedule, partition);
  const std::vector<Ticks> reference = brute_force_sbf(schedule, partition);
  for (std::size_t len = 0; len < reference.size(); ++len) {
    ASSERT_EQ(supply.sbf(static_cast<Ticks>(len)), reference[len])
        << "mtf " << schedule.mtf << " len " << len;
  }
  // inverse_sbf is the least length whose reference sbf reaches the
  // demand; demands up to 2A are met within the table's 2 MTFs.
  for (Ticks demand = 1; demand <= reference.back(); ++demand) {
    const auto first = std::find_if(
        reference.begin(), reference.end(),
        [demand](Ticks got) { return got >= demand; });
    ASSERT_EQ(supply.inverse_sbf(demand), first - reference.begin())
        << "mtf " << schedule.mtf << " demand " << demand;
  }
  if (reference.back() == 0) {
    EXPECT_EQ(supply.inverse_sbf(1), kInfiniteTime);
  }
}

model::Schedule shaped(Ticks mtf, std::vector<model::Window> windows) {
  model::Schedule schedule;
  schedule.mtf = mtf;
  schedule.windows = std::move(windows);
  return schedule;
}

TEST(SbfTable, MatchesBruteForceOnEdgeShapes) {
  const PartitionId p0{0};
  const PartitionId p1{1};
  struct Case {
    const char* name;
    model::Schedule schedule;
  };
  const Case cases[] = {
      {"no window for the partition", shaped(40, {{p1, 0, 20}})},
      {"windows cover the MTF", shaped(40, {{p0, 0, 40}})},
      {"one-tick MTF, covered", shaped(1, {{p0, 0, 1}})},
      {"one-tick MTF, empty", shaped(1, {})},
      {"single-tick windows",
       shaped(40, {{p0, 3, 1}, {p0, 17, 1}, {p1, 20, 5}, {p0, 39, 1}})},
      {"back-to-back windows",
       shaped(60, {{p0, 10, 5}, {p0, 15, 5}, {p0, 20, 3}, {p1, 30, 10}})},
      {"run wraps past the MTF end",
       shaped(50, {{p0, 0, 4}, {p1, 10, 10}, {p0, 45, 5}})},
      {"longest gap starts at offset 0",
       shaped(50, {{p0, 30, 5}, {p0, 40, 10}})},
      {"window truncated at the MTF",
       shaped(30, {{p1, 0, 10}, {p0, 24, 20}})},
      {"gap of one tick", shaped(20, {{p0, 0, 9}, {p0, 10, 10}})},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    expect_matches_brute_force(c.schedule, p0);
  }
}

TEST(SbfTable, MatchesBruteForceOnRandomWindowSets) {
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    util::Rng rng(seed);
    const Ticks mtf = rng.uniform(1, 64);
    std::vector<model::Window> windows;
    const auto count = rng.uniform(0, 8);
    for (std::int64_t i = 0; i < count; ++i) {
      // Partitions 0..2 share the frame; offsets and durations may run past
      // the MTF, which the table must truncate.
      windows.push_back({PartitionId{static_cast<int>(rng.uniform(0, 2))},
                         rng.uniform(0, mtf - 1), rng.uniform(0, mtf / 2 + 1)});
    }
    expect_matches_brute_force(shaped(mtf, std::move(windows)), PartitionId{0});
  }
}

/// Smallest length in [0, bracket] for which `reaches` holds -- a binary
/// search kept as the inverses' reference.
template <class Reaches>
Ticks bisect_inverse(const model::PartitionSupply& supply, Ticks demand,
                     Reaches reaches) {
  if (demand <= 0) return 0;
  if (supply.per_mtf() <= 0) return kInfiniteTime;
  Ticks lo = 0;
  Ticks hi = ((demand + supply.per_mtf() - 1) / supply.per_mtf() + 1) *
             supply.mtf();
  while (lo < hi) {
    const Ticks mid = lo + (hi - lo) / 2;
    if (reaches(mid)) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

TEST(SbfTable, InversesMatchBinarySearchOnEdgeShapes) {
  const PartitionId p0{0};
  const PartitionId p1{1};
  struct Case {
    const char* name;
    model::Schedule schedule;
  };
  const Case cases[] = {
      {"no window for the partition", shaped(40, {{p1, 0, 20}})},
      {"windows cover the MTF", shaped(40, {{p0, 0, 40}})},
      {"one-tick MTF, covered", shaped(1, {{p0, 0, 1}})},
      {"single-tick windows",
       shaped(40, {{p0, 3, 1}, {p0, 17, 1}, {p1, 20, 5}, {p0, 39, 1}})},
      {"run wraps past the MTF end",
       shaped(50, {{p0, 0, 4}, {p1, 10, 10}, {p0, 45, 5}})},
      {"window truncated at the MTF",
       shaped(30, {{p1, 0, 10}, {p0, 24, 20}})},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const model::PartitionSupply supply(c.schedule, p0);
    const Ticks mtf = c.schedule.mtf;
    for (Ticks demand = 0; demand <= 2 * supply.per_mtf() + 3; ++demand) {
      ASSERT_EQ(supply.inverse_sbf(demand),
                bisect_inverse(supply, demand,
                               [&](Ticks len) {
                                 return supply.sbf(len) >= demand;
                               }))
          << "demand " << demand;
      for (Ticks phase = 0; phase < 2 * mtf; ++phase) {
        ASSERT_EQ(supply.inverse_supply_from(phase, demand),
                  bisect_inverse(supply, demand,
                                 [&](Ticks len) {
                                   return supply.supply(phase, len) >= demand;
                                 }))
            << "phase " << phase << " demand " << demand;
      }
    }
  }
  // No window time at all: every positive demand is unreachable.
  const model::PartitionSupply none(shaped(40, {{p1, 0, 20}}), p0);
  EXPECT_EQ(none.inverse_sbf(1), kInfiniteTime);
  EXPECT_EQ(none.inverse_supply_from(7, 1), kInfiniteTime);
}

TEST(SbfTableDeathTest, NegativeWindowFieldsAreRejected) {
  const PartitionId p0{0};
  EXPECT_DEATH((void)model::PartitionSupply(shaped(40, {{p0, -3, 5}}), p0),
               "offset");
  EXPECT_DEATH((void)model::PartitionSupply(shaped(40, {{p0, 3, -5}}), p0),
               "duration");
}

INSTANTIATE_TEST_SUITE_P(Seeds, SbfProperties,
                         ::testing::Range<std::uint64_t>(1, 17));

}  // namespace
}  // namespace air
