// Schedulability analysis tests (E12): supply functions, sbf properties,
// response-time analysis under partition windows.
#include <gtest/gtest.h>

#include "config/fig8.hpp"
#include "model/schedulability.hpp"
#include "util/rng.hpp"

namespace air::model {
namespace {

Schedule simple_schedule() {
  Schedule s;
  s.id = ScheduleId{0};
  s.mtf = 100;
  s.requirements = {{PartitionId{0}, 100, 30}};
  s.windows = {{PartitionId{0}, 10, 30}};  // one window [10, 40)
  return s;
}

TEST(PartitionSupply, SupplyCountsAvailableTicks) {
  const PartitionSupply supply(simple_schedule(), PartitionId{0});
  EXPECT_EQ(supply.per_mtf(), 30);
  EXPECT_EQ(supply.supply(0, 100), 30);
  EXPECT_EQ(supply.supply(10, 30), 30);
  EXPECT_EQ(supply.supply(0, 10), 0);
  EXPECT_EQ(supply.supply(40, 60), 0);
  EXPECT_EQ(supply.supply(0, 200), 60) << "periodic extension over two MTFs";
  // [35,115): 5 ticks of this window's tail + [110,115) of the next one.
  EXPECT_EQ(supply.supply(35, 80), 5 + 5);
}

TEST(PartitionSupply, SbfIsTheWorstPhase) {
  const PartitionSupply supply(simple_schedule(), PartitionId{0});
  // An interval of one full MTF always catches the whole window.
  EXPECT_EQ(supply.sbf(100), 30);
  // Just after the window closes, a 70-tick interval sees nothing.
  EXPECT_EQ(supply.sbf(70), 0);
  EXPECT_EQ(supply.sbf(71), 1);
  // sbf is monotone and bounded by the interval length.
  Ticks prev = 0;
  for (Ticks len = 0; len <= 300; ++len) {
    const Ticks v = supply.sbf(len);
    EXPECT_GE(v, prev);
    EXPECT_LE(v, len);
    prev = v;
  }
}

TEST(PartitionSupply, SbfIsAdditiveOverMtfs) {
  const PartitionSupply supply(simple_schedule(), PartitionId{0});
  for (Ticks rest = 0; rest <= 100; rest += 7) {
    EXPECT_EQ(supply.sbf(3 * 100 + rest), 3 * 30 + supply.sbf(rest));
  }
}

TEST(PartitionSupply, InverseSbfIsTheLeftInverse) {
  const PartitionSupply supply(simple_schedule(), PartitionId{0});
  for (Ticks demand = 1; demand <= 100; ++demand) {
    const Ticks len = supply.inverse_sbf(demand);
    ASSERT_NE(len, kInfiniteTime);
    EXPECT_GE(supply.sbf(len), demand);
    if (len > 0) {
      EXPECT_LT(supply.sbf(len - 1), demand);
    }
  }
  EXPECT_EQ(supply.inverse_sbf(0), 0);
}

TEST(PartitionSupply, NoWindowsMeansNoSupply) {
  Schedule s = simple_schedule();
  s.requirements.push_back({PartitionId{1}, 100, 0});
  const PartitionSupply supply(s, PartitionId{1});
  EXPECT_EQ(supply.per_mtf(), 0);
  EXPECT_EQ(supply.inverse_sbf(1), kInfiniteTime);
}

TEST(Analysis, SingleProcessFitsItsWindow) {
  PartitionModel partition;
  partition.id = PartitionId{0};
  partition.processes = {{"p", 100, 100, 10, 20, true}};
  const auto result = analyze_partition(simple_schedule(), partition);
  ASSERT_EQ(result.processes.size(), 1u);
  EXPECT_TRUE(result.schedulable);
  // Worst case: released just after the window closes (t=40); waits 70 to
  // t=110, then 20 ticks of supply end at t=130 -> response 90.
  EXPECT_EQ(result.processes[0].wcrt, 90);
}

TEST(Analysis, InterferenceFromHigherPriorityProcesses) {
  PartitionModel partition;
  partition.id = PartitionId{0};
  partition.processes = {
      {"hi", 100, 100, 5, 15, true},
      {"lo", 100, 100, 20, 10, true},
  };
  const auto result = analyze_partition(simple_schedule(), partition);
  EXPECT_TRUE(result.schedulable);
  const Ticks hi = result.processes[0].wcrt;
  const Ticks lo = result.processes[1].wcrt;
  EXPECT_LT(hi, lo) << "higher priority must not wait for lower";
  // lo needs 10 + 15 = 25 supply: worst phase waits 70, gets 25 by t=105
  // relative... i.e. wcrt = 70 + 25 + gap? Window supplies 30/MTF, so 25
  // ticks arrive by 95.
  EXPECT_EQ(lo, 95);
}

TEST(Analysis, AperiodicInterfererReleasesOneJob) {
  // An infinite period (aperiodic, no minimum inter-arrival) interferes
  // with one job of its WCET in any interval, however long.
  PartitionModel partition;
  partition.id = PartitionId{0};
  partition.processes = {
      {"hi", kInfiniteTime, kInfiniteTime, 5, 15, false},
      {"lo", 100, 100, 20, 10, true},
  };
  for (const Phasing phasing : {Phasing::kWorstCase, Phasing::kMtfAligned}) {
    const auto result = analyze_partition(simple_schedule(), partition,
                                          phasing);
    EXPECT_TRUE(result.schedulable);
    // Worst case as in InterferenceFromHigherPriorityProcesses; aligned,
    // lo's 25 ticks of demand end at t=35 of the window [10, 40).
    EXPECT_EQ(result.processes[1].wcrt,
              phasing == Phasing::kWorstCase ? 95 : 35);
  }
}

TEST(Analysis, OverloadedProcessSetIsUnschedulable) {
  PartitionModel partition;
  partition.id = PartitionId{0};
  // Demand 40/100 > supply 30/100.
  partition.processes = {{"p", 100, 100, 10, 40, true}};
  const auto result = analyze_partition(simple_schedule(), partition);
  EXPECT_FALSE(result.schedulable);
  EXPECT_FALSE(result.processes[0].schedulable);
}

TEST(Analysis, DeadlineTighterThanResponseTimeFails) {
  PartitionModel partition;
  partition.id = PartitionId{0};
  partition.processes = {{"p", 100, 50, 10, 20, true}};  // D=50 < wcrt 90
  const auto result = analyze_partition(simple_schedule(), partition);
  EXPECT_FALSE(result.schedulable);
}

TEST(Analysis, ProcessWithoutDeadlineIsAlwaysFine) {
  PartitionModel partition;
  partition.id = PartitionId{0};
  partition.processes = {{"bg", 100, kInfiniteTime, 30, 20, true}};
  const auto result = analyze_partition(simple_schedule(), partition);
  EXPECT_TRUE(result.schedulable);
}

TEST(Analysis, Fig8ProcessSetsAreSchedulable) {
  // The healthy Fig. 8 process sets fit their windows under both PSTs.
  SystemModel system;
  system.partitions = {
      {PartitionId{0},
       "AOCS",
       true,
       {{"p1_control", 1300, 200, 10, 61, true},
        {"p1_nav", 1300, 1300, 20, 21, true}}},
      {PartitionId{1}, "TTC", false, {{"p2_tm", 650, 650, 10, 52, true}}},
      {PartitionId{2},
       "FDIR",
       false,
       {{"p3_monitor", 650, 650, 10, 41, true}}},
      {PartitionId{3},
       "PAYLOAD",
       false,
       {{"p4_sci", 1300, 1300, 10, 152, true},
        {"p4_hk", 1300, kInfiniteTime, 30, 31, true}}},
  };
  system.schedules = {scenarios::fig8_chi1(), scenarios::fig8_chi2()};

  // Under MTF-aligned releases (how ARINC 653 periodic processes started at
  // NORMAL entry actually behave) every process fits.
  for (const auto id : {ScheduleId{0}, ScheduleId{1}}) {
    const SystemAnalysis analysis =
        analyze_system(system, id, Phasing::kMtfAligned);
    EXPECT_TRUE(analysis.schedulable) << analysis.to_text();
  }

  // The worst-case-phasing analysis is sound but pessimistic: p1_control's
  // 200-tick deadline cannot be guaranteed for a release just after P1's
  // window closes.
  const SystemAnalysis pessimistic =
      analyze_system(system, ScheduleId{0}, Phasing::kWorstCase);
  EXPECT_FALSE(pessimistic.schedulable);
}

TEST(Analysis, Fig8FaultyProcessFlaggedByOfflineAnalysis) {
  // The injected fault (C=120 against D=205 with only 120 ticks of window
  // left after higher-priority processes) is exactly what the offline
  // analysis should catch before deployment.
  SystemModel system;
  system.partitions = {
      {PartitionId{0},
       "AOCS",
       true,
       {{"p1_control", 1300, 200, 10, 61, true},
        {"p1_nav", 1300, 1300, 20, 21, true},
        {"p1_faulty", 1300, 205, 30, 120, true}}},
      {PartitionId{1}, "TTC", false, {}},
      {PartitionId{2}, "FDIR", false, {}},
      {PartitionId{3}, "PAYLOAD", false, {}},
  };
  system.schedules = {scenarios::fig8_chi1()};
  const SystemAnalysis analysis =
      analyze_system(system, ScheduleId{0}, Phasing::kMtfAligned);
  EXPECT_FALSE(analysis.schedulable);
  const auto& aocs = analysis.partitions[0];
  EXPECT_TRUE(aocs.processes[0].schedulable);
  EXPECT_TRUE(aocs.processes[1].schedulable);
  EXPECT_FALSE(aocs.processes[2].schedulable) << aocs.processes[2].wcrt;
}

}  // namespace
}  // namespace air::model
