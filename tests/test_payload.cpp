// ipc::Payload: the small-buffer / pooled message payload carrying every
// port, router and bus message (hot-path flattening, DESIGN.md §11).
//
// Covers the SBO/heap boundary, value semantics across it, the oversized
// sampling-port refusal (slot must stay intact), pool recycling
// observability, and -- the determinism contract -- byte-identical fi bus
// fault replay (drop/corrupt/delay) whether payload bytes come from fresh
// allocations or recycled pool blocks.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "ipc/payload.hpp"
#include "ipc/ports.hpp"
#include "net/bus.hpp"

namespace air {
namespace {

std::string bytes_of(std::size_t n, char seed = 'a') {
  std::string s(n, '\0');
  for (std::size_t i = 0; i < n; ++i) {
    s[i] = static_cast<char>(seed + static_cast<char>(i % 23));
  }
  return s;
}

TEST(Payload, InlineUpToBoundaryHeapBeyond) {
  const ipc::Payload empty{};
  EXPECT_TRUE(empty.empty());
  EXPECT_TRUE(empty.inline_storage());

  const ipc::Payload at{bytes_of(ipc::Payload::kInlineBytes)};
  EXPECT_EQ(at.size(), ipc::Payload::kInlineBytes);
  EXPECT_TRUE(at.inline_storage()) << "boundary size must not allocate";

  const ipc::Payload over{bytes_of(ipc::Payload::kInlineBytes + 1)};
  EXPECT_FALSE(over.inline_storage());
  EXPECT_EQ(over.view(), bytes_of(ipc::Payload::kInlineBytes + 1));
}

TEST(Payload, ValueSemanticsAcrossTheBoundary) {
  const std::string small = bytes_of(10);
  const std::string big = bytes_of(300);

  ipc::Payload p{big};
  ipc::Payload copy = p;
  EXPECT_EQ(copy.view(), big);
  EXPECT_EQ(p.view(), big) << "copy must not disturb the source";

  // Shrinking a heap payload drops back to inline storage.
  p.assign(small);
  EXPECT_TRUE(p.inline_storage());
  EXPECT_EQ(p.view(), small);

  // Self-aliasing assign: shrinking from a view into the payload's own
  // heap block must not read freed bytes.
  ipc::Payload alias{big};
  alias.assign(alias.view().substr(5, 20));
  EXPECT_EQ(alias.view(), big.substr(5, 20));

  // Moves steal the heap block (no copy, no pool traffic).
  ipc::Payload donor{big};
  const char* block = donor.data();
  const ipc::Payload thief = std::move(donor);
  EXPECT_EQ(thief.data(), block);
  EXPECT_EQ(thief.view(), big);
}

TEST(Payload, PoolRecyclesHeapBlocks) {
  ipc::Payload::trim_pool();
  const auto before = ipc::Payload::pool_stats();

  const std::string big = bytes_of(500);
  { const ipc::Payload p{big}; }
  auto stats = ipc::Payload::pool_stats();
  EXPECT_EQ(stats.heap_allocs, before.heap_allocs + 1);
  EXPECT_EQ(stats.pool_returns, before.pool_returns + 1);
  EXPECT_EQ(stats.free_blocks, 1u);

  // Same bucket: the next oversized payload reuses the parked block.
  { const ipc::Payload p{bytes_of(400)}; }
  stats = ipc::Payload::pool_stats();
  EXPECT_EQ(stats.heap_allocs, before.heap_allocs + 1)
      << "reuse must not hit the allocator";
  EXPECT_EQ(stats.pool_reuses, before.pool_reuses + 1);
  EXPECT_EQ(stats.free_blocks, 1u);

  ipc::Payload::trim_pool();
  EXPECT_EQ(ipc::Payload::pool_stats().free_blocks, 0u);
}

TEST(SamplingPort, RefusesOversizedWriteAndKeepsSlotIntact) {
  ipc::SamplingPort port{"S", ipc::PortDirection::kDestination, 8,
                         /*refresh_period=*/10};
  ASSERT_TRUE(port.write({"12345678", 0, PartitionId{0}, {}}));

  EXPECT_FALSE(port.write({"123456789", 1, PartitionId{0}, {}}))
      << "9 bytes into an 8-byte port";
  const auto result = port.read(1);
  ASSERT_TRUE(result.message.has_value());
  EXPECT_EQ(result.message->payload, "12345678")
      << "refused write must leave the previous message untouched";
  EXPECT_EQ(result.message->sent_at, 0);
}

TEST(QueuingPort, RefusesOversizedSend) {
  ipc::QueuingPort port{"Q", ipc::PortDirection::kSource, 4, 2};
  EXPECT_EQ(port.send({"12345", 0, PartitionId{0}, {}}),
            ipc::QueuingPort::SendStatus::kTooLarge);
  EXPECT_EQ(port.depth(), 0u);
  EXPECT_EQ(port.send({"1234", 0, PartitionId{0}, {}}),
            ipc::QueuingPort::SendStatus::kOk);
}

// One full bus flight under a deterministic fault schedule: returns every
// delivery as "tick:port:bytes". Payloads straddle the SBO boundary so the
// corrupt hook mutates both inline and pooled bytes.
std::vector<std::string> fly_faulted_bus() {
  net::Bus bus({.slot_length = 1, .frames_per_slot = 2,
                .propagation_delay = 1});
  std::vector<std::string> deliveries;
  Ticks now = 0;
  bus.attach(ModuleId{0}, [](PartitionId, const std::string&,
                             const ipc::Message&, ipc::ChannelKind) {});
  bus.attach(ModuleId{1},
             [&](PartitionId, const std::string& port, const ipc::Message& m,
                 ipc::ChannelKind) {
               deliveries.push_back(std::to_string(now) + ":" + port + ":" +
                                    m.payload.str());
             });
  bus.set_fault_hook([](std::uint64_t seq, ModuleId,
                        const ipc::RemotePortRef&) {
    net::Bus::FaultDecision decision;
    if (seq == 1) decision.drop = true;
    if (seq == 2) decision.corrupt = true;
    if (seq == 3) decision.extra_delay = 7;
    return decision;
  });

  for (int i = 0; i < 6; ++i) {
    const std::string payload =
        'm' + std::to_string(i) + "|" +
        bytes_of(i % 2 == 0 ? 16 : ipc::Payload::kInlineBytes + 40,
                 static_cast<char>('A' + i));
    bus.send(ModuleId{0}, {ModuleId{1}, PartitionId{0}, "IN"},
             {payload, now, PartitionId{0}, {}}, ipc::ChannelKind::kQueuing,
             now);
  }
  for (; now < 30; ++now) bus.tick(now);
  return deliveries;
}

TEST(Payload, BusFaultHooksReplayByteIdenticallyOnPooledBlocks) {
  // First flight starts from a cold pool; by the second flight every
  // oversized payload is served from recycled blocks. The fault outcomes
  // (dropped frame, corrupted bytes, delayed arrival order) must not care.
  ipc::Payload::trim_pool();
  const std::vector<std::string> cold = fly_faulted_bus();
  const auto warm_stats = ipc::Payload::pool_stats();
  EXPECT_GT(warm_stats.free_blocks, 0u) << "flight must park pool blocks";
  const std::vector<std::string> warm = fly_faulted_bus();
  EXPECT_GT(ipc::Payload::pool_stats().pool_reuses, warm_stats.pool_reuses)
      << "second flight must recycle";

  ASSERT_EQ(cold, warm) << "pool reuse leaked into observable behaviour";
  // The fault schedule really fired: one frame dropped, and the delayed
  // frame (seq 3) arrives after later-transmitted ones.
  EXPECT_EQ(cold.size(), 5u);
  const auto position_of = [&cold](const char* tag) {
    for (std::size_t i = 0; i < cold.size(); ++i) {
      if (cold[i].find(tag) != std::string::npos) return i;
    }
    return cold.size();
  };
  EXPECT_LT(position_of("m5|"), position_of("m3|"))
      << "extra delay must let later frames overtake the delayed one";
  EXPECT_EQ(position_of("m1|"), cold.size()) << "dropped frame delivered";
}

}  // namespace
}  // namespace air
