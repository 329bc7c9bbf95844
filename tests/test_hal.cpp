// Unit tests for the simulated machine: physical memory, frame allocator,
// three-level MMU (contexts, per-level rights, TLB), checked accesses.
#include <gtest/gtest.h>

#include "hal/machine.hpp"

namespace air::hal {
namespace {

TEST(PhysicalMemory, ReadWriteRoundTrip) {
  PhysicalMemory mem(4096);
  mem.write_u32(100, 0xdeadbeef);
  EXPECT_EQ(mem.read_u32(100), 0xdeadbeefu);
  mem.write_u8(0, 0x7f);
  EXPECT_EQ(mem.read_u8(0), 0x7f);
}

TEST(PhysicalMemory, FreshMemoryReadsZeroEverywhere) {
  // Untouched RAM is the host's demand-zero pages: reset state without a
  // build-time fill.
  constexpr std::size_t kBytes = 16u << 20;
  PhysicalMemory mem(kBytes);
  ASSERT_EQ(mem.size(), kBytes);
  const auto last = static_cast<PhysAddr>(kBytes - 1);
  EXPECT_EQ(mem.read_u8(0), 0);
  EXPECT_EQ(mem.read_u8(last), 0);
  EXPECT_EQ(mem.read_u32(static_cast<PhysAddr>(kBytes - 4)), 0u);
  for (PhysAddr addr = 4093; addr < kBytes; addr += 1'048'573) {
    EXPECT_EQ(mem.read_u32(addr), 0u) << addr;
  }
  mem.write_u8(last, 0xa5);
  EXPECT_EQ(mem.read_u8(last), 0xa5);
  EXPECT_EQ(mem.read_u8(last - 1), 0);
}

TEST(FrameAllocator, AlignsAndAdvances) {
  FrameAllocator alloc(0, 1 << 20);
  const PhysAddr a = alloc.allocate(100, 4096);
  const PhysAddr b = alloc.allocate(100, 4096);
  EXPECT_EQ(a % 4096, 0u);
  EXPECT_EQ(b % 4096, 0u);
  EXPECT_GE(b, a + 100);
}

class MmuTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ctx_a_ = mmu_.create_context();
    ctx_b_ = mmu_.create_context();
    LevelRights app_rw = LevelRights::uniform(AccessRights::rw());
    mmu_.map(ctx_a_, 0x0040'0000, 0x1000, 2 * Mmu::kPageSize, app_rw);
    // Context B maps the same virtual page onto different frames.
    mmu_.map(ctx_b_, 0x0040'0000, 0x8000, Mmu::kPageSize, app_rw);
  }

  Mmu mmu_;
  MmuContextId ctx_a_{-1};
  MmuContextId ctx_b_{-1};
};

TEST_F(MmuTest, TranslatesWithinMappedRange) {
  mmu_.set_active_context(ctx_a_);
  const auto r = mmu_.translate(0x0040'0123, AccessType::kRead,
                                ExecLevel::kApplication);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r.paddr, 0x1123u);
  // Second page of the range.
  const auto r2 = mmu_.translate(0x0040'1004, AccessType::kWrite,
                                 ExecLevel::kApplication);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(*r2.paddr, 0x2004u);
}

TEST_F(MmuTest, ContextsIsolateAddressSpaces) {
  mmu_.set_active_context(ctx_a_);
  const auto in_a = mmu_.translate(0x0040'0000, AccessType::kRead,
                                   ExecLevel::kApplication);
  mmu_.set_active_context(ctx_b_);
  const auto in_b = mmu_.translate(0x0040'0000, AccessType::kRead,
                                   ExecLevel::kApplication);
  ASSERT_TRUE(in_a.ok());
  ASSERT_TRUE(in_b.ok());
  EXPECT_NE(*in_a.paddr, *in_b.paddr)
      << "same virtual page must map to different frames per partition";
}

TEST_F(MmuTest, UnmappedAccessFaults) {
  mmu_.set_active_context(ctx_a_);
  const auto r = mmu_.translate(0x2000'0000, AccessType::kRead,
                                ExecLevel::kApplication);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.fault.kind, MmuFault::Kind::kUnmapped);
}

TEST_F(MmuTest, PerLevelRightsAreEnforced) {
  // A PMK-only page: invisible to application and POS levels.
  LevelRights pmk_only;
  pmk_only.at(ExecLevel::kPmk) = AccessRights::rw();
  mmu_.map(ctx_a_, 0x0180'0000, 0x6000, Mmu::kPageSize, pmk_only);
  mmu_.set_active_context(ctx_a_);

  EXPECT_FALSE(mmu_.translate(0x0180'0000, AccessType::kRead,
                              ExecLevel::kApplication)
                   .ok());
  EXPECT_FALSE(
      mmu_.translate(0x0180'0000, AccessType::kRead, ExecLevel::kPos).ok());
  EXPECT_TRUE(
      mmu_.translate(0x0180'0000, AccessType::kRead, ExecLevel::kPmk).ok());
}

TEST_F(MmuTest, WriteToReadOnlyPageFaults) {
  LevelRights ro = LevelRights::uniform(AccessRights::ro());
  mmu_.map(ctx_a_, 0x0050'0000, 0x7000, Mmu::kPageSize, ro);
  mmu_.set_active_context(ctx_a_);
  EXPECT_TRUE(mmu_.translate(0x0050'0000, AccessType::kRead,
                             ExecLevel::kApplication)
                  .ok());
  const auto w = mmu_.translate(0x0050'0000, AccessType::kWrite,
                                ExecLevel::kApplication);
  ASSERT_FALSE(w.ok());
  EXPECT_EQ(w.fault.kind, MmuFault::Kind::kProtection);
}

TEST_F(MmuTest, TlbCachesTranslations) {
  mmu_.set_active_context(ctx_a_);
  mmu_.reset_stats();
  (void)mmu_.translate(0x0040'0000, AccessType::kRead,
                       ExecLevel::kApplication);
  EXPECT_EQ(mmu_.stats().tlb_misses, 1u);
  for (int i = 0; i < 10; ++i) {
    (void)mmu_.translate(0x0040'0000 + i, AccessType::kRead,
                         ExecLevel::kApplication);
  }
  EXPECT_EQ(mmu_.stats().tlb_misses, 1u) << "same page must hit the TLB";
  EXPECT_EQ(mmu_.stats().tlb_hits, 10u);
}

TEST_F(MmuTest, ContextSwitchFlushesTlb) {
  mmu_.set_active_context(ctx_a_);
  mmu_.reset_stats();
  (void)mmu_.translate(0x0040'0000, AccessType::kRead,
                       ExecLevel::kApplication);
  mmu_.set_active_context(ctx_b_);
  mmu_.set_active_context(ctx_a_);
  (void)mmu_.translate(0x0040'0000, AccessType::kRead,
                       ExecLevel::kApplication);
  EXPECT_EQ(mmu_.stats().tlb_misses, 2u);
}

TEST_F(MmuTest, UnmapRevokesAccess) {
  mmu_.set_active_context(ctx_a_);
  ASSERT_TRUE(mmu_.translate(0x0040'0000, AccessType::kRead,
                             ExecLevel::kApplication)
                  .ok());
  mmu_.unmap(ctx_a_, 0x0040'0000, Mmu::kPageSize);
  EXPECT_FALSE(mmu_.translate(0x0040'0000, AccessType::kRead,
                              ExecLevel::kApplication)
                   .ok());
  // The second page of the original mapping survives.
  EXPECT_TRUE(mmu_.translate(0x0040'1000, AccessType::kRead,
                             ExecLevel::kApplication)
                  .ok());
}

TEST_F(MmuTest, RemapInvalidatesCachedTranslation) {
  mmu_.set_active_context(ctx_a_);
  const auto before = mmu_.translate(0x0040'0123, AccessType::kRead,
                                     ExecLevel::kApplication);
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(*before.paddr, 0x1123u);
  // Remap the page onto a different frame: the TLB entry caching the old
  // frame must not survive, or the partition would keep touching freed
  // memory.
  mmu_.map(ctx_a_, 0x0040'0000, 0x9000, Mmu::kPageSize,
           LevelRights::uniform(AccessRights::rw()));
  const auto after = mmu_.translate(0x0040'0123, AccessType::kRead,
                                    ExecLevel::kApplication);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(*after.paddr, 0x9123u) << "stale TLB entry served after remap";
}

TEST_F(MmuTest, RightsDowngradeTakesEffectImmediately) {
  mmu_.set_active_context(ctx_a_);
  ASSERT_TRUE(mmu_.translate(0x0040'0000, AccessType::kWrite,
                             ExecLevel::kApplication)
                  .ok());
  // Downgrade the live page to read-only; the cached rw translation must
  // not keep authorising writes.
  mmu_.map(ctx_a_, 0x0040'0000, 0x1000, Mmu::kPageSize,
           LevelRights::uniform(AccessRights::ro()));
  const auto w = mmu_.translate(0x0040'0000, AccessType::kWrite,
                                ExecLevel::kApplication);
  ASSERT_FALSE(w.ok());
  EXPECT_EQ(w.fault.kind, MmuFault::Kind::kProtection);
  EXPECT_TRUE(mmu_.translate(0x0040'0000, AccessType::kRead,
                             ExecLevel::kApplication)
                  .ok());
}

TEST(Machine, CheckedAccessCrossesPages) {
  Machine machine(1 << 20);
  const MmuContextId ctx = machine.mmu().create_context();
  const PhysAddr frames =
      machine.allocator().allocate(2 * Mmu::kPageSize, Mmu::kPageSize);
  machine.mmu().map(ctx, 0x0040'0000, frames, 2 * Mmu::kPageSize,
                    LevelRights::uniform(AccessRights::rw()));
  machine.mmu().set_active_context(ctx);

  // A write spanning the page boundary.
  std::array<std::byte, 8> data{};
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::byte>(i + 1);
  }
  const VirtAddr at = 0x0040'0000 + Mmu::kPageSize - 4;
  ASSERT_TRUE(
      machine.checked_write(at, data, ExecLevel::kApplication).ok());
  std::array<std::byte, 8> back{};
  ASSERT_TRUE(machine.checked_read(at, back, ExecLevel::kApplication).ok());
  EXPECT_EQ(back, data);
}

TEST(Machine, CheckedAccessFaultsWithoutTouchingMemory) {
  Machine machine(1 << 20);
  const MmuContextId ctx = machine.mmu().create_context();
  machine.mmu().set_active_context(ctx);
  std::array<std::byte, 4> buf{};
  const auto r = machine.checked_read(0x0040'0000, buf,
                                      ExecLevel::kApplication);
  EXPECT_FALSE(r.ok());
}

TEST(Machine, TickRaisesTimerInterrupt) {
  Machine machine(1 << 16);
  EXPECT_FALSE(machine.interrupts().take(IrqLine::kTimer));
  machine.tick();
  EXPECT_EQ(machine.clock().now(), 1);
  EXPECT_TRUE(machine.interrupts().take(IrqLine::kTimer));
  EXPECT_FALSE(machine.interrupts().take(IrqLine::kTimer))
      << "interrupt is consumed by take()";
}

TEST(InterruptController, MaskedLineLatchesUntilReenabled) {
  InterruptController irq;
  irq.enable(IrqLine::kBus, false);
  irq.raise(IrqLine::kBus);
  EXPECT_FALSE(irq.take(IrqLine::kBus)) << "masked line delivers nothing";
  irq.enable(IrqLine::kBus, true);
  EXPECT_TRUE(irq.take(IrqLine::kBus))
      << "pending state latched across the masked interval";
  EXPECT_FALSE(irq.take(IrqLine::kBus));
}

TEST(InterruptController, ReRaiseWhileMaskedCollapsesToOneDelivery) {
  InterruptController irq;
  irq.enable(IrqLine::kBus, false);
  irq.raise(IrqLine::kBus);
  irq.raise(IrqLine::kBus);
  irq.raise(IrqLine::kBus);
  irq.enable(IrqLine::kBus, true);
  EXPECT_TRUE(irq.take(IrqLine::kBus));
  EXPECT_FALSE(irq.take(IrqLine::kBus))
      << "a pending line is a level, not a counter";
}

TEST(InterruptController, MaskingOneLineDoesNotAffectOthers) {
  Machine machine(1 << 16);
  auto& irq = machine.interrupts();
  irq.enable(IrqLine::kBus, false);
  machine.tick();  // raises the timer line
  irq.raise(IrqLine::kBus);
  EXPECT_TRUE(irq.take(IrqLine::kTimer))
      << "timer delivery is independent of the bus mask";
  EXPECT_FALSE(irq.take(IrqLine::kBus));
  irq.enable(IrqLine::kBus, true);
  EXPECT_TRUE(irq.take(IrqLine::kBus));
}

}  // namespace
}  // namespace air::hal
