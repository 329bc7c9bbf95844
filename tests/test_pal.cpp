// PAL tests: the deadline registries (paper's linked list and the tree
// ablation variant, run through the same parameterised suite) and the
// surrogate tick announcement with deadline verification (Algorithm 3).
#include <gtest/gtest.h>

#include <memory>

#include "pal/pal.hpp"
#include "util/rng.hpp"

namespace air::pal {
namespace {

// ---------- registries (parameterised over both implementations) ----------

class RegistryTest : public ::testing::TestWithParam<RegistryKind> {
 protected:
  void SetUp() override {
    switch (GetParam()) {
      case RegistryKind::kLinkedList:
        registry_ = std::make_unique<ListDeadlineRegistry>();
        break;
      case RegistryKind::kTree:
        registry_ = std::make_unique<TreeDeadlineRegistry>();
        break;
      case RegistryKind::kHeap:
        registry_ = std::make_unique<HeapDeadlineRegistry>();
        break;
    }
  }

  std::unique_ptr<IDeadlineRegistry> registry_;
};

TEST_P(RegistryTest, EarliestIsTheMinimum) {
  registry_->register_deadline(ProcessId{0}, 300);
  registry_->register_deadline(ProcessId{1}, 100);
  registry_->register_deadline(ProcessId{2}, 200);
  ASSERT_NE(registry_->earliest(), nullptr);
  EXPECT_EQ(registry_->earliest()->deadline, 100);
  EXPECT_EQ(registry_->earliest()->pid, ProcessId{1});
  EXPECT_EQ(registry_->size(), 3u);
}

TEST_P(RegistryTest, RemoveEarliestAdvances) {
  registry_->register_deadline(ProcessId{0}, 300);
  registry_->register_deadline(ProcessId{1}, 100);
  registry_->register_deadline(ProcessId{2}, 200);
  registry_->remove_earliest();
  EXPECT_EQ(registry_->earliest()->deadline, 200);
  registry_->remove_earliest();
  EXPECT_EQ(registry_->earliest()->deadline, 300);
  registry_->remove_earliest();
  EXPECT_EQ(registry_->earliest(), nullptr);
}

TEST_P(RegistryTest, ReRegisteringUpdatesAndResorts) {
  registry_->register_deadline(ProcessId{0}, 100);
  registry_->register_deadline(ProcessId{1}, 200);
  // REPLENISH moves process 0's deadline past process 1's (Fig. 6, t4).
  registry_->register_deadline(ProcessId{0}, 300);
  EXPECT_EQ(registry_->size(), 2u);
  EXPECT_EQ(registry_->earliest()->pid, ProcessId{1});
}

TEST_P(RegistryTest, UnregisterRemovesOnlyTheTarget) {
  registry_->register_deadline(ProcessId{0}, 100);
  registry_->register_deadline(ProcessId{1}, 200);
  registry_->unregister(ProcessId{0});
  EXPECT_EQ(registry_->size(), 1u);
  EXPECT_EQ(registry_->earliest()->pid, ProcessId{1});
  registry_->unregister(ProcessId{5});  // unknown pid: no-op
  EXPECT_EQ(registry_->size(), 1u);
}

TEST_P(RegistryTest, EqualDeadlinesAreAllRetrievable) {
  registry_->register_deadline(ProcessId{0}, 100);
  registry_->register_deadline(ProcessId{1}, 100);
  registry_->register_deadline(ProcessId{2}, 100);
  EXPECT_EQ(registry_->size(), 3u);
  for (int i = 0; i < 3; ++i) {
    ASSERT_NE(registry_->earliest(), nullptr);
    EXPECT_EQ(registry_->earliest()->deadline, 100);
    registry_->remove_earliest();
  }
  EXPECT_EQ(registry_->earliest(), nullptr);
}

TEST_P(RegistryTest, RandomisedAgainstReferenceModel) {
  util::Rng rng(99);
  std::map<std::int32_t, Ticks> reference;
  for (int step = 0; step < 2000; ++step) {
    const auto pid = static_cast<std::int32_t>(rng.uniform(0, 31));
    switch (rng.uniform(0, 2)) {
      case 0: {
        const Ticks deadline = rng.uniform(0, 10000);
        registry_->register_deadline(ProcessId{pid}, deadline);
        reference[pid] = deadline;
        break;
      }
      case 1:
        registry_->unregister(ProcessId{pid});
        reference.erase(pid);
        break;
      default:
        if (!reference.empty()) {
          Ticks least = kInfiniteTime;
          for (const auto& [p, d] : reference) least = std::min(least, d);
          ASSERT_NE(registry_->earliest(), nullptr);
          ASSERT_EQ(registry_->earliest()->deadline, least);
          reference.erase(registry_->earliest()->pid.value());
          registry_->remove_earliest();
        } else {
          ASSERT_EQ(registry_->earliest(), nullptr);
        }
    }
    ASSERT_EQ(registry_->size(), reference.size());
  }
}

INSTANTIATE_TEST_SUITE_P(Kinds, RegistryTest,
                         ::testing::Values(RegistryKind::kLinkedList,
                                           RegistryKind::kTree,
                                           RegistryKind::kHeap),
                         [](const auto& info) {
                           switch (info.param) {
                             case RegistryKind::kLinkedList:
                               return "LinkedList";
                             case RegistryKind::kTree:
                               return "Tree";
                             default:
                               return "Heap";
                           }
                         });

// ---------- Algorithm 3 ----------

class PalTest : public ::testing::Test {
 protected:
  PalTest() : pal_(pos::Policy::kRt) {
    pal_.on_deadline_violation = [this](ProcessId pid, Ticks deadline,
                                        Ticks detected) {
      violations_.push_back({pid, deadline, detected});
    };
  }

  struct Violation {
    ProcessId pid;
    Ticks deadline;
    Ticks detected;
  };

  Pal pal_;
  std::vector<Violation> violations_;
};

TEST_F(PalTest, NoViolationWhileDeadlinesAreInTheFuture) {
  pal_.register_deadline(ProcessId{0}, 100);
  pal_.announce_ticks(50, 50);
  EXPECT_TRUE(violations_.empty());
  // Exactly at the deadline instant there is no violation yet (eq. 24 is
  // strict: D'(t) < t).
  pal_.announce_ticks(100, 50);
  EXPECT_TRUE(violations_.empty());
}

TEST_F(PalTest, ViolationDetectedOnFirstAnnounceAfterDeadline) {
  pal_.register_deadline(ProcessId{0}, 100);
  pal_.announce_ticks(101, 101);
  ASSERT_EQ(violations_.size(), 1u);
  EXPECT_EQ(violations_[0].pid, ProcessId{0});
  EXPECT_EQ(violations_[0].deadline, 100);
  EXPECT_EQ(violations_[0].detected, 101);
  // The record was removed (Algorithm 3 line 7): no duplicate reports.
  pal_.announce_ticks(102, 1);
  EXPECT_EQ(violations_.size(), 1u);
}

TEST_F(PalTest, CascadedViolationsAreAllReportedInOrder) {
  // Several deadlines expired while the partition was inactive: the check
  // walks ascending deadlines until one still holds.
  pal_.register_deadline(ProcessId{0}, 10);
  pal_.register_deadline(ProcessId{1}, 20);
  pal_.register_deadline(ProcessId{2}, 30);
  pal_.register_deadline(ProcessId{3}, 500);
  pal_.announce_ticks(100, 100);
  ASSERT_EQ(violations_.size(), 3u);
  EXPECT_EQ(violations_[0].pid, ProcessId{0});
  EXPECT_EQ(violations_[1].pid, ProcessId{1});
  EXPECT_EQ(violations_[2].pid, ProcessId{2});
  EXPECT_EQ(pal_.registry().size(), 1u);
}

TEST_F(PalTest, InfiniteDeadlineIsNeverRegistered) {
  // eq. (24): D = infinity means the violation notion does not apply.
  pal_.register_deadline(ProcessId{0}, kInfiniteTime);
  EXPECT_EQ(pal_.registry().size(), 0u);
  pal_.announce_ticks(1'000'000, 1'000'000);
  EXPECT_TRUE(violations_.empty());
}

TEST_F(PalTest, AnnounceForwardsTimeToTheKernel) {
  pal_.announce_ticks(42, 42);
  EXPECT_EQ(pal_.kernel().now(), 42);
  EXPECT_EQ(pal_.current_time(), 42);
}

TEST_F(PalTest, ChecksAreCountedForInstrumentation) {
  pal_.register_deadline(ProcessId{0}, 100);
  const auto before = pal_.deadline_checks();
  pal_.announce_ticks(10, 10);
  // One earliest-retrieval per announce in the no-violation case.
  EXPECT_EQ(pal_.deadline_checks(), before + 1);
  EXPECT_EQ(pal_.violations_detected(), 0u);
}

TEST_F(PalTest, ResetClearsDeadlinesAndProcesses) {
  pal_.register_deadline(ProcessId{0}, 100);
  pal_.reset();
  EXPECT_EQ(pal_.registry().size(), 0u);
  pal_.announce_ticks(200, 200);
  EXPECT_TRUE(violations_.empty());
}

}  // namespace
}  // namespace air::pal
