// POS kernel tests: the heir rule of eq. (14) under the RT policy
// (priority-preemptive, FIFO within priority), round-robin under the
// generic policy, and -- for both policies -- process state machinery,
// timed wake-ups and the paravirtualised clock gate.
#include <gtest/gtest.h>

#include "pos/kernel.hpp"

namespace air::pos {
namespace {

ProcessAttributes attrs(std::string name, Priority priority,
                        Ticks period = kInfiniteTime) {
  ProcessAttributes a;
  a.name = std::move(name);
  a.priority = priority;
  a.period = period;
  return a;
}

class KernelFixture {
 protected:
  explicit KernelFixture(Policy policy) : kernel_(policy) {}

  ProcessId spawn(std::string name, Priority priority) {
    return kernel_.create_process(attrs(std::move(name), priority));
  }

  Kernel kernel_;
};

// ---------- RT policy: eq. (14) ----------

class RtKernelTest : public ::testing::Test, protected KernelFixture {
 protected:
  RtKernelTest() : KernelFixture(Policy::kRt) {}
};

TEST_F(RtKernelTest, HighestPriorityReadyProcessWins) {
  const ProcessId low = spawn("low", 50);
  const ProcessId high = spawn("high", 10);
  kernel_.make_ready(low);
  kernel_.make_ready(high);
  EXPECT_EQ(kernel_.schedule(), high);
  EXPECT_EQ(kernel_.pcb(high)->state, ProcessState::kRunning);
  EXPECT_EQ(kernel_.pcb(low)->state, ProcessState::kReady);
}

TEST_F(RtKernelTest, FifoWithinPriorityPicksTheOldest) {
  // eq. (14) tie-break: equal priority -> oldest in the ready state.
  const ProcessId first = spawn("first", 20);
  const ProcessId second = spawn("second", 20);
  kernel_.make_ready(first);
  kernel_.make_ready(second);
  EXPECT_EQ(kernel_.schedule(), first);
  // Blocking the first hands over to the second.
  kernel_.block(first, WaitReason::kDelay, 100);
  EXPECT_EQ(kernel_.schedule(), second);
  // When the first wakes it goes to the back of the queue.
  kernel_.wake(first, WakeResult::kOk);
  EXPECT_EQ(kernel_.schedule(), second);
}

TEST_F(RtKernelTest, RunningProcessIsNotPreemptedByEqualPriority) {
  const ProcessId a = spawn("a", 20);
  kernel_.make_ready(a);
  EXPECT_EQ(kernel_.schedule(), a);
  const ProcessId b = spawn("b", 20);
  kernel_.make_ready(b);
  EXPECT_EQ(kernel_.schedule(), a) << "same priority must not preempt";
}

TEST_F(RtKernelTest, HigherPriorityArrivalPreempts) {
  const ProcessId low = spawn("low", 50);
  kernel_.make_ready(low);
  EXPECT_EQ(kernel_.schedule(), low);
  const ProcessId high = spawn("high", 5);
  kernel_.make_ready(high);
  EXPECT_EQ(kernel_.schedule(), high);
  EXPECT_EQ(kernel_.pcb(low)->state, ProcessState::kReady)
      << "preempted process returns to ready";
}

TEST_F(RtKernelTest, SetPriorityRequeuesAsNewest) {
  const ProcessId a = spawn("a", 20);
  const ProcessId b = spawn("b", 20);
  const ProcessId c = spawn("c", 30);
  kernel_.make_ready(a);
  kernel_.make_ready(b);
  kernel_.make_ready(c);
  // Raising c to 20 places it behind a and b.
  kernel_.set_priority(c, 20);
  EXPECT_EQ(kernel_.schedule(), a);
  kernel_.make_dormant(a);
  EXPECT_EQ(kernel_.schedule(), b);
  kernel_.make_dormant(b);
  EXPECT_EQ(kernel_.schedule(), c);
}

TEST_F(RtKernelTest, LoweringTheRunningProcessPriorityPreempts) {
  const ProcessId a = spawn("a", 10);
  const ProcessId b = spawn("b", 20);
  kernel_.make_ready(a);
  kernel_.make_ready(b);
  EXPECT_EQ(kernel_.schedule(), a);
  kernel_.set_priority(a, 30);
  EXPECT_EQ(kernel_.schedule(), b);
}

TEST_F(RtKernelTest, PreemptionLockKeepsTheCurrentProcess) {
  const ProcessId low = spawn("low", 50);
  kernel_.make_ready(low);
  EXPECT_EQ(kernel_.schedule(), low);
  kernel_.lock_preemption();
  const ProcessId high = spawn("high", 5);
  kernel_.make_ready(high);
  EXPECT_EQ(kernel_.schedule(), low) << "preemption locked";
  kernel_.unlock_preemption();
  EXPECT_EQ(kernel_.schedule(), high);
}

// ---------- both policies: shared table, timer and state machinery ----------

class KernelTest : public ::testing::TestWithParam<Policy>,
                   protected KernelFixture {
 protected:
  KernelTest() : KernelFixture(GetParam()) {}
};

TEST_P(KernelTest, TickAnnounceWakesExpiredWaits) {
  const ProcessId a = spawn("a", 10);
  const ProcessId b = spawn("b", 20);
  kernel_.make_ready(a);
  kernel_.make_ready(b);
  kernel_.block(a, WaitReason::kDelay, 10);
  kernel_.block(b, WaitReason::kDelay, 5);
  kernel_.tick_announce(4, 4);
  EXPECT_EQ(kernel_.pcb(a)->state, ProcessState::kWaiting);
  EXPECT_EQ(kernel_.pcb(b)->state, ProcessState::kWaiting);
  kernel_.tick_announce(10, 6);
  EXPECT_EQ(kernel_.pcb(a)->state, ProcessState::kReady);
  EXPECT_EQ(kernel_.pcb(b)->state, ProcessState::kReady);
  EXPECT_EQ(kernel_.pcb(a)->wake_result, WakeResult::kOk);
}

TEST_P(KernelTest, BatchedAnnounceWakesEverythingInBetween) {
  // The surrogate announce after partition inactivity passes elapsed > 1;
  // every wait expiring in the gap must wake.
  const ProcessId a = spawn("a", 10);
  kernel_.make_ready(a);
  kernel_.block(a, WaitReason::kDelay, 3);
  kernel_.tick_announce(100, 100);
  EXPECT_EQ(kernel_.pcb(a)->state, ProcessState::kReady);
}

TEST_P(KernelTest, SemaphoreStyleTimeoutYieldsTimeoutResult) {
  const ProcessId a = spawn("a", 10);
  kernel_.make_ready(a);
  kernel_.block(a, WaitReason::kSemaphore, 7);
  kernel_.tick_announce(7, 7);
  EXPECT_EQ(kernel_.pcb(a)->state, ProcessState::kReady);
  EXPECT_EQ(kernel_.pcb(a)->wake_result, WakeResult::kTimeout);
}

TEST_P(KernelTest, SuspendDefersWakeUntilResume) {
  const ProcessId a = spawn("a", 10);
  kernel_.make_ready(a);
  kernel_.block(a, WaitReason::kSemaphore, kInfiniteTime);
  kernel_.suspend(a, kInfiniteTime);
  // The semaphore becomes available while suspended.
  kernel_.wake(a, WakeResult::kOk);
  EXPECT_EQ(kernel_.pcb(a)->state, ProcessState::kWaiting)
      << "suspended process stays ineligible";
  kernel_.resume(a);
  EXPECT_EQ(kernel_.pcb(a)->state, ProcessState::kReady);
  EXPECT_EQ(kernel_.pcb(a)->wake_result, WakeResult::kOk);
}

TEST_P(KernelTest, MakeDormantClearsFromQueues) {
  const ProcessId a = spawn("a", 10);
  kernel_.make_ready(a);
  EXPECT_EQ(kernel_.schedule(), a);
  kernel_.make_dormant(a);
  EXPECT_EQ(kernel_.schedule(), ProcessId::invalid());
  EXPECT_EQ(kernel_.pcb(a)->state, ProcessState::kDormant);
}

TEST_P(KernelTest, ResetAllRewindsEveryProcess) {
  const ProcessId a = spawn("a", 10);
  kernel_.make_ready(a);
  kernel_.pcb(a)->pc = 3;
  kernel_.pcb(a)->absolute_deadline = 99;
  kernel_.reset_all();
  EXPECT_EQ(kernel_.pcb(a)->state, ProcessState::kDormant);
  EXPECT_EQ(kernel_.pcb(a)->pc, 0u);
  EXPECT_EQ(kernel_.pcb(a)->absolute_deadline, kInfiniteTime);
  EXPECT_EQ(kernel_.schedule(), ProcessId::invalid());
}

TEST_P(KernelTest, StateChangeHookObservesTransitions) {
  std::vector<std::pair<ProcessId, ProcessState>> events;
  kernel_.on_state_change = [&](ProcessId pid, ProcessState state) {
    events.emplace_back(pid, state);
  };
  const ProcessId a = spawn("a", 10);
  kernel_.make_ready(a);
  (void)kernel_.schedule();
  kernel_.block(a, WaitReason::kDelay, 5);
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].second, ProcessState::kReady);
  EXPECT_EQ(events[1].second, ProcessState::kRunning);
  EXPECT_EQ(events[2].second, ProcessState::kWaiting);
}

TEST_P(KernelTest, FindProcessByName) {
  const ProcessId a = spawn("alpha", 10);
  EXPECT_EQ(kernel_.find_process("alpha"), a);
  EXPECT_FALSE(kernel_.find_process("beta").valid());
}

TEST_P(KernelTest, ParavirtTrapRefusesClockManipulation) {
  EXPECT_FALSE(kernel_.try_disable_clock_interrupt());
  EXPECT_FALSE(kernel_.try_disable_clock_interrupt());
  EXPECT_EQ(kernel_.paravirt_traps(), 2u);
}

INSTANTIATE_TEST_SUITE_P(Both, KernelTest,
                         ::testing::Values(Policy::kRt, Policy::kRoundRobin),
                         [](const ::testing::TestParamInfo<Policy>& info) {
                           return info.param == Policy::kRt ? "Rt"
                                                            : "RoundRobin";
                         });

// ---------- round-robin policy ----------

TEST(RoundRobinKernel, RotatesThroughReadyProcesses) {
  Kernel kernel{Policy::kRoundRobin};
  const ProcessId a = kernel.create_process(attrs("a", 10));
  const ProcessId b = kernel.create_process(attrs("b", 200));
  const ProcessId c = kernel.create_process(attrs("c", 50));
  kernel.make_ready(a);
  kernel.make_ready(b);
  kernel.make_ready(c);
  // Priorities are ignored; each schedule() call advances the rotation.
  EXPECT_EQ(kernel.schedule(), a);
  EXPECT_EQ(kernel.schedule(), b);
  EXPECT_EQ(kernel.schedule(), c);
  EXPECT_EQ(kernel.schedule(), a);
}

TEST(RoundRobinKernel, SetPriorityIsRecordedButNotHonoured) {
  Kernel kernel{Policy::kRoundRobin};
  const ProcessId a = kernel.create_process(attrs("a", 10));
  const ProcessId b = kernel.create_process(attrs("b", 20));
  kernel.make_ready(a);
  kernel.make_ready(b);
  kernel.set_priority(b, 1);  // "highest"
  EXPECT_EQ(kernel.pcb(b)->current_priority, 1);
  EXPECT_EQ(kernel.schedule(), a) << "round robin ignores priorities";
}

}  // namespace
}  // namespace air::pos
