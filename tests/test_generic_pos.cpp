// E13: integration of a generic non-real-time POS (Sect. 2.5).
//
// A Linux-like partition coexists with RTOS partitions. Its attempts to
// disable the system clock interrupt are paravirtualised away -- trapped,
// counted, and without any effect on the module's temporal partitioning.
//
// The mixed-POS mission is also pinned by a golden digest (the Fig. 8 golden
// has no round-robin partition). Regenerate it after an *intentional*
// behaviour change with:
//   AIR_UPDATE_GOLDEN=1 ./air_tests --gtest_filter='GenericPos.Golden*'
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <string>

#include "fi/fault_plan.hpp"
#include "mixed_pos_config.hpp"
#include "system/module.hpp"

namespace air {
namespace {

TEST(GenericPos, ClockDisableAttemptsAreTrappedNotObeyed) {
  system::Module module(mixed_pos_config());
  const PartitionId linux_id = module.partition_id("LINUX");
  module.run(500);

  const auto traps =
      module.trace().filtered(util::EventKind::kClockParavirtTrap);
  ASSERT_FALSE(traps.empty());
  for (const auto& e : traps) EXPECT_EQ(e.a, linux_id.value());

  EXPECT_EQ(module.kernel(linux_id).paravirt_traps(), traps.size());
}

constexpr const char* kGoldenMixedPosPath =
    AIR_SOURCE_DIR "/tests/golden/mixed_pos_trace.digest";

// Digest of the mixed-POS mission: the event trace (round-robin order,
// paravirt traps, deadline events) plus every kernel's dispatch counters.
std::uint64_t mixed_pos_digest(bool warp) {
  system::Module module(mixed_pos_config());
  module.set_time_warp(warp);
  module.run(1000);
  std::string counters;
  for (std::size_t i = 0; i < module.partition_count(); ++i) {
    const auto& kernel =
        module.kernel(PartitionId{static_cast<std::int32_t>(i)});
    counters += std::to_string(kernel.dispatch_count()) + " " +
                std::to_string(kernel.process_switches()) + "\n";
  }
  return fi::digest64(counters, fi::digest64(module.trace().to_text()));
}

TEST(GenericPos, GoldenMixedPosTraceIsUnchanged) {
  const std::uint64_t per_tick = mixed_pos_digest(/*warp=*/false);
  const std::uint64_t warped = mixed_pos_digest(/*warp=*/true);
  EXPECT_EQ(per_tick, warped)
      << "time-warp fast-forward altered the mixed-POS trace";

  if (std::getenv("AIR_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(kGoldenMixedPosPath, std::ios::binary);
    out << "module " << std::hex << per_tick << "\n";
    GTEST_SKIP() << "golden digest regenerated at " << kGoldenMixedPosPath;
  }

  std::ifstream in(kGoldenMixedPosPath);
  ASSERT_TRUE(in) << "missing " << kGoldenMixedPosPath
                  << " -- regenerate with AIR_UPDATE_GOLDEN=1";
  std::string key;
  std::uint64_t golden = 0;
  in >> key >> std::hex >> golden;
  EXPECT_EQ(key, "module");
  EXPECT_EQ(per_tick, golden)
      << "mixed-POS trace diverged from the golden snapshot; if the change "
         "is intentional, regenerate with AIR_UPDATE_GOLDEN=1";
}

TEST(GenericPos, RtPartitionTimelinessIsUnaffected) {
  system::Module module(mixed_pos_config());
  const PartitionId rt = module.partition_id("RT");
  module.run(500);
  // The RT control loop ran exactly once per 50-tick period, no misses.
  EXPECT_EQ(module.console(rt).size(), 10u);
  EXPECT_EQ(module.trace().count(util::EventKind::kDeadlineMiss), 0u);
}

TEST(GenericPos, RoundRobinSharesTheWindowAmongTasks) {
  system::Module module(mixed_pos_config());
  const PartitionId linux_id = module.partition_id("LINUX");
  module.run(200);
  // Both tasks make progress despite identical busy loops (the RT kernel
  // would starve the second one at equal priority only after blocking; the
  // generic kernel time-slices every tick).
  auto* kernel = &module.kernel(linux_id);
  ProcessId t0 = kernel->find_process("task0");
  ProcessId t1 = kernel->find_process("task1");
  ASSERT_TRUE(t0.valid());
  ASSERT_TRUE(t1.valid());
  // Each compute(7) + trap loop: both PCs must have advanced beyond start.
  const auto* pcb0 = kernel->pcb(t0);
  const auto* pcb1 = kernel->pcb(t1);
  EXPECT_GT(pcb0->op_progress + static_cast<Ticks>(pcb0->pc), 0);
  EXPECT_GT(pcb1->op_progress + static_cast<Ticks>(pcb1->pc), 0);
}

TEST(GenericPos, PartitionBoundariesHoldDespiteBusyGuest) {
  // The generic partition never yields; temporal partitioning must still
  // hand the processor to RT at every window boundary.
  system::Module module(mixed_pos_config());
  for (Ticks t = 0; t < 200; ++t) {
    module.tick_once();
    const auto active = module.dispatcher().active_partition();
    const Ticks offset = t % 50;
    if (offset < 20) {
      ASSERT_EQ(active.value(), 0) << "tick " << t;
    } else {
      ASSERT_EQ(active.value(), 1) << "tick " << t;
    }
  }
}

}  // namespace
}  // namespace air
