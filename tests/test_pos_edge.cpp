// Edge-case coverage across POS kernels and APEX process services that the
// mainline suites don't reach: suspend timeouts, many processes, priority
// extremes, generic-kernel periodic behaviour, script-driven start/stop.
#include <gtest/gtest.h>

#include "pos/kernel.hpp"
#include "system/module.hpp"

namespace air {
namespace {

using pos::ScriptBuilder;

// ---------- kernel-level edges ----------

TEST(PosEdge, SuspendWithTimeoutExpiresIntoTimeoutResult) {
  pos::Kernel kernel{pos::Policy::kRt};
  pos::ProcessAttributes attrs;
  attrs.name = "a";
  attrs.priority = 10;
  const ProcessId a = kernel.create_process(std::move(attrs));
  kernel.make_ready(a);
  kernel.suspend(a, 10);
  EXPECT_EQ(kernel.pcb(a)->state, pos::ProcessState::kWaiting);
  kernel.tick_announce(10, 10);
  EXPECT_EQ(kernel.pcb(a)->state, pos::ProcessState::kReady);
  EXPECT_EQ(kernel.pcb(a)->wake_result, pos::WakeResult::kTimeout);
  EXPECT_FALSE(kernel.pcb(a)->suspended);
}

TEST(PosEdge, ManyProcessesSchedulingStaysCorrect) {
  pos::Kernel kernel{pos::Policy::kRt};
  std::vector<ProcessId> pids;
  for (int i = 0; i < 200; ++i) {
    pos::ProcessAttributes attrs;
    attrs.name = 'p' + std::to_string(i);
    attrs.priority = static_cast<Priority>(200 - i);  // later = higher prio
    const ProcessId pid = kernel.create_process(std::move(attrs));
    kernel.pcb(pid)->current_priority = attrs.priority;
    kernel.make_ready(pid);
    pids.push_back(pid);
  }
  // The last-created process has the highest priority (1).
  EXPECT_EQ(kernel.schedule(), pids.back());
  // Draining from the top yields strictly non-decreasing priority values.
  Priority last = -1;
  for (int i = 0; i < 200; ++i) {
    const ProcessId pid = kernel.schedule();
    ASSERT_TRUE(pid.valid());
    EXPECT_GE(kernel.pcb(pid)->current_priority, last);
    last = kernel.pcb(pid)->current_priority;
    kernel.make_dormant(pid);
  }
  EXPECT_FALSE(kernel.schedule().valid());
}

TEST(PosEdge, PriorityBoundaryValues) {
  pos::Kernel kernel{pos::Policy::kRt};
  pos::ProcessAttributes hi;
  hi.name = "hi";
  hi.priority = 0;
  pos::ProcessAttributes lo;
  lo.name = "lo";
  lo.priority = 255;
  const ProcessId h = kernel.create_process(std::move(hi));
  const ProcessId l = kernel.create_process(std::move(lo));
  kernel.pcb(h)->current_priority = 0;
  kernel.pcb(l)->current_priority = 255;
  kernel.make_ready(l);
  kernel.make_ready(h);
  EXPECT_EQ(kernel.schedule(), h);
}

TEST(PosEdge, GenericKernelHonoursTimedWaits) {
  // Round-robin ignores priorities but timed waits still work through the
  // shared kernel machinery.
  pos::Kernel kernel{pos::Policy::kRoundRobin};
  pos::ProcessAttributes attrs;
  attrs.name = "sleeper";
  const ProcessId a = kernel.create_process(std::move(attrs));
  kernel.make_ready(a);
  (void)kernel.schedule();
  kernel.block(a, pos::WaitReason::kDelay, 5);
  EXPECT_FALSE(kernel.schedule().valid());
  kernel.tick_announce(5, 5);
  EXPECT_EQ(kernel.schedule(), a);
}

// ---------- APEX edges through the full module ----------

system::ModuleConfig single(std::vector<system::ProcessConfig> processes) {
  system::ModuleConfig config;
  system::PartitionConfig p;
  p.name = "MAIN";
  p.processes = std::move(processes);
  config.partitions.push_back(std::move(p));
  model::Schedule s;
  s.id = ScheduleId{0};
  s.mtf = 10;
  s.requirements = {{PartitionId{0}, 10, 10}};
  s.windows = {{PartitionId{0}, 0, 10}};
  config.schedules = {s};
  return config;
}

system::ProcessConfig proc(std::string name, pos::Script script,
                           Priority priority = 10, bool auto_start = true) {
  system::ProcessConfig pc;
  pc.attrs.name = std::move(name);
  pc.attrs.script = std::move(script);
  pc.attrs.priority = priority;
  pc.auto_start = auto_start;
  return pc;
}

TEST(PosEdge, ScriptDrivenStartProcess) {
  // A supervisor process starts a dormant worker at runtime via the
  // OpStartProcess workload op (APEX START from application code).
  auto config = single(
      {proc("supervisor", ScriptBuilder{}
                              .timed_wait(5)
                              .start_process("worker")
                              .stop_self()
                              .build()),
       proc("worker", ScriptBuilder{}.log("worker alive").stop_self().build(),
            20, /*auto_start=*/false)});
  system::Module module(std::move(config));
  module.run(4);
  EXPECT_TRUE(module.console(PartitionId{0}).empty());
  module.run(4);
  ASSERT_EQ(module.console(PartitionId{0}).size(), 1u);
}

TEST(PosEdge, SuspendSelfTimeoutResumesTheScript) {
  auto config = single({proc(
      "napper", ScriptBuilder{}
                    .suspend_self(6)
                    .log("woke by timeout")
                    .stop_self()
                    .build())});
  system::Module module(std::move(config));
  module.run(5);
  EXPECT_TRUE(module.console(PartitionId{0}).empty());
  module.run(3);
  ASSERT_EQ(module.console(PartitionId{0}).size(), 1u);
}

TEST(PosEdge, SuspendSelfResumedByPeer) {
  auto config = single(
      {proc("napper", ScriptBuilder{}
                          .suspend_self()
                          .log("resumed")
                          .stop_self()
                          .build(),
            10),
       proc("waker", ScriptBuilder{}
                         .timed_wait(3)
                         .compute(1)
                         .stop_self()
                         .build(),
            20)});
  system::Module module(std::move(config));
  const PartitionId main = module.partition_id("MAIN");
  module.run(2);
  ProcessId napper;
  ASSERT_EQ(module.apex(main).get_process_id("napper", napper),
            apex::ReturnCode::kNoError);
  EXPECT_EQ(module.apex(main).resume(napper), apex::ReturnCode::kNoError);
  module.run(2);
  ASSERT_EQ(module.console(main).size(), 1u);
  EXPECT_EQ(module.console(main)[0], "resumed");
}

TEST(PosEdge, ReplenishWithoutDeadlineIsNoAction) {
  auto config = single({proc(
      "free", ScriptBuilder{}.replenish(50).compute(5).stop_self().build())});
  system::Module module(std::move(config));
  const PartitionId main = module.partition_id("MAIN");
  module.run(2);
  ProcessId pid;
  ASSERT_EQ(module.apex(main).get_process_id("free", pid),
            apex::ReturnCode::kNoError);
  EXPECT_EQ(module.kernel(main).pcb(pid)->last_status,
            static_cast<std::int32_t>(apex::ReturnCode::kNoAction));
}

TEST(PosEdge, StopOnWaitingProcessRemovesItFromEverything) {
  auto config = single(
      {proc("sleeper", ScriptBuilder{}.timed_wait(1000).build(), 10)});
  config.partitions[0].semaphores.push_back({"sem", 0, 1});
  system::Module module(std::move(config));
  const PartitionId main = module.partition_id("MAIN");
  module.run(2);
  ProcessId sleeper;
  ASSERT_EQ(module.apex(main).get_process_id("sleeper", sleeper),
            apex::ReturnCode::kNoError);
  ASSERT_EQ(module.kernel(main).pcb(sleeper)->state,
            pos::ProcessState::kWaiting);
  EXPECT_EQ(module.apex(main).stop(sleeper), apex::ReturnCode::kNoError);
  module.run(2000);  // the old wake time passes without effect
  EXPECT_EQ(module.kernel(main).pcb(sleeper)->state,
            pos::ProcessState::kDormant);
}

}  // namespace
}  // namespace air
