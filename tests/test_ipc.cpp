// IPC unit tests: sampling ports (overwrite + validity), queuing ports
// (FIFO + overflow), and the PMK channel router (fan-out, atomic multicast
// pump, source-space/delivery notifications).
#include <gtest/gtest.h>

#include "ipc/intra.hpp"
#include "ipc/ports.hpp"
#include "ipc/router.hpp"

namespace air::ipc {
namespace {

TEST(SamplingPort, WriteOverwritesAndReadDoesNotConsume) {
  SamplingPort port("P", PortDirection::kSource, 32, 100);
  EXPECT_FALSE(port.has_message());
  ASSERT_TRUE(port.write({"one", 10, PartitionId{0}, {}}));
  ASSERT_TRUE(port.write({"two", 20, PartitionId{0}, {}}));
  const auto r1 = port.read(25);
  ASSERT_TRUE(r1.message.has_value());
  EXPECT_EQ(r1.message->payload, "two");
  EXPECT_TRUE(r1.valid);
  const auto r2 = port.read(25);
  EXPECT_TRUE(r2.message.has_value()) << "read must not consume";
}

TEST(SamplingPort, MessageBecomesStaleAfterRefreshPeriod) {
  SamplingPort port("P", PortDirection::kSource, 32, 100);
  ASSERT_TRUE(port.write({"m", 50, PartitionId{0}, {}}));
  EXPECT_TRUE(port.read(150).valid);   // age == refresh period: still valid
  EXPECT_FALSE(port.read(151).valid);  // one tick too old
}

TEST(SamplingPort, OversizedMessageRejected) {
  SamplingPort port("P", PortDirection::kSource, 4, 100);
  EXPECT_FALSE(port.write({"too large", 0, PartitionId{0}, {}}));
  EXPECT_FALSE(port.has_message());
}

TEST(QueuingPort, FifoWithOverflowAccounting) {
  QueuingPort port("Q", PortDirection::kSource, 32, 2);
  EXPECT_EQ(port.send({"a", 0, PartitionId{0}, {}}),
            QueuingPort::SendStatus::kOk);
  EXPECT_EQ(port.send({"b", 0, PartitionId{0}, {}}),
            QueuingPort::SendStatus::kOk);
  EXPECT_EQ(port.send({"c", 0, PartitionId{0}, {}}),
            QueuingPort::SendStatus::kFull);
  EXPECT_EQ(port.overflows(), 1u);
  auto m = port.receive();
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->payload, "a");
  EXPECT_EQ(port.depth(), 1u);
}

TEST(QueuingPort, OversizedMessageRejectedWithoutOverflow) {
  QueuingPort port("Q", PortDirection::kSource, 2, 2);
  EXPECT_EQ(port.send({"xxx", 0, PartitionId{0}, {}}),
            QueuingPort::SendStatus::kTooLarge);
  EXPECT_EQ(port.overflows(), 0u);
}

// ---------- router ----------

class RouterTest : public ::testing::Test {
 protected:
  RouterTest()
      : src_("OUT", PortDirection::kSource, 32, 4),
        dst1_("IN1", PortDirection::kDestination, 32, 2),
        dst2_("IN2", PortDirection::kDestination, 32, 2),
        s_src_("SOUT", PortDirection::kSource, 32, kInfiniteTime),
        s_dst_("SIN", PortDirection::kDestination, 32, kInfiniteTime) {
    router_.add_queuing_port(PartitionId{0}, &src_);
    router_.add_queuing_port(PartitionId{1}, &dst1_);
    router_.add_queuing_port(PartitionId{2}, &dst2_);
    router_.add_sampling_port(PartitionId{0}, &s_src_);
    router_.add_sampling_port(PartitionId{1}, &s_dst_);

    ChannelConfig queuing;
    queuing.id = ChannelId{0};
    queuing.kind = ChannelKind::kQueuing;
    queuing.source = {PartitionId{0}, "OUT"};
    queuing.local_destinations = {{PartitionId{1}, "IN1"},
                                  {PartitionId{2}, "IN2"}};
    router_.add_channel(queuing);

    ChannelConfig sampling;
    sampling.id = ChannelId{1};
    sampling.kind = ChannelKind::kSampling;
    sampling.source = {PartitionId{0}, "SOUT"};
    sampling.local_destinations = {{PartitionId{1}, "SIN"}};
    router_.add_channel(sampling);

    router_.on_delivery = [this](const PortRef& ref) {
      deliveries_.push_back(ref);
    };
    router_.on_source_space = [this](const PortRef& ref) {
      space_events_.push_back(ref);
    };
  }

  Router router_;
  QueuingPort src_, dst1_, dst2_;
  SamplingPort s_src_, s_dst_;
  std::vector<PortRef> deliveries_;
  std::vector<PortRef> space_events_;
};

TEST_F(RouterTest, SamplingPropagatesToAllDestinations) {
  const Message m{"att", 5, PartitionId{0}, {}};
  router_.propagate_sampling({PartitionId{0}, "SOUT"}, m);
  const auto r = s_dst_.read(5);
  ASSERT_TRUE(r.message.has_value());
  EXPECT_EQ(r.message->payload, "att");
  ASSERT_EQ(deliveries_.size(), 1u);
  EXPECT_EQ(deliveries_[0].port, "SIN");
}

TEST_F(RouterTest, PumpMovesFromSourceToEveryDestination) {
  ASSERT_EQ(src_.send({"m1", 0, PartitionId{0}, {}}),
            QueuingPort::SendStatus::kOk);
  router_.pump({PartitionId{0}, "OUT"});
  EXPECT_EQ(src_.depth(), 0u);
  EXPECT_EQ(dst1_.depth(), 1u);
  EXPECT_EQ(dst2_.depth(), 1u);
  EXPECT_EQ(deliveries_.size(), 2u);
  EXPECT_EQ(space_events_.size(), 1u);
}

TEST_F(RouterTest, PumpIsAtomicMulticast) {
  // Fill dst1: nothing may move, even though dst2 has space.
  ASSERT_EQ(dst1_.send({"x", 0, PartitionId{9}, {}}),
            QueuingPort::SendStatus::kOk);
  ASSERT_EQ(dst1_.send({"y", 0, PartitionId{9}, {}}),
            QueuingPort::SendStatus::kOk);
  ASSERT_EQ(src_.send({"m", 0, PartitionId{0}, {}}),
            QueuingPort::SendStatus::kOk);
  router_.pump({PartitionId{0}, "OUT"});
  EXPECT_EQ(src_.depth(), 1u) << "message must wait at the source";
  EXPECT_EQ(dst2_.depth(), 0u);
  // Drain dst1 and pump again.
  (void)dst1_.receive();
  (void)dst1_.receive();
  router_.pump({PartitionId{0}, "OUT"});
  EXPECT_EQ(src_.depth(), 0u);
  EXPECT_EQ(dst1_.depth(), 1u);
  EXPECT_EQ(dst2_.depth(), 1u);
}

TEST_F(RouterTest, PumpAllServicesEveryQueuingChannel) {
  ASSERT_EQ(src_.send({"m", 0, PartitionId{0}, {}}),
            QueuingPort::SendStatus::kOk);
  router_.pump_all();
  EXPECT_EQ(dst1_.depth(), 1u);
}

TEST_F(RouterTest, RemoteDestinationsGoThroughTheHook) {
  ChannelConfig channel;
  channel.id = ChannelId{2};
  channel.kind = ChannelKind::kQueuing;
  channel.source = {PartitionId{2}, "ROUT"};
  channel.remote_destinations = {{ModuleId{1}, PartitionId{0}, "RIN"}};
  QueuingPort rout("ROUT", PortDirection::kSource, 32, 4);
  router_.add_queuing_port(PartitionId{2}, &rout);
  router_.add_channel(channel);

  std::vector<std::string> sent;
  router_.remote_send = [&](const RemotePortRef& dest, const Message& m,
                            ChannelKind kind) {
    EXPECT_EQ(kind, ChannelKind::kQueuing);
    EXPECT_EQ(dest.module, ModuleId{1});
    sent.push_back(m.payload.str());
  };
  ASSERT_EQ(rout.send({"hello", 0, PartitionId{2}, {}}),
            QueuingPort::SendStatus::kOk);
  router_.pump({PartitionId{2}, "ROUT"});
  ASSERT_EQ(sent.size(), 1u);
  EXPECT_EQ(sent[0], "hello");
}

TEST_F(RouterTest, DeliverRemoteLandsInTheDestinationPort) {
  router_.deliver_remote({PartitionId{1}, "IN1"},
                         {"from-afar", 9, PartitionId{0}, {}},
                         ChannelKind::kQueuing);
  EXPECT_EQ(dst1_.depth(), 1u);
  router_.deliver_remote({PartitionId{1}, "SIN"},
                         {"s", 9, PartitionId{0}, {}}, ChannelKind::kSampling);
  EXPECT_TRUE(s_dst_.has_message());
}

TEST_F(RouterTest, UnconnectedSourceIsAHarmlessNoOp) {
  QueuingPort lonely("LONELY", PortDirection::kSource, 32, 2);
  router_.add_queuing_port(PartitionId{3}, &lonely);
  ASSERT_EQ(lonely.send({"m", 0, PartitionId{3}, {}}),
            QueuingPort::SendStatus::kOk);
  router_.pump({PartitionId{3}, "LONELY"});
  EXPECT_EQ(lonely.depth(), 1u) << "no channel, message stays put";
}

// ---------- intrapartition object state ----------

TEST(BufferState, FifoWithSizeLimit) {
  BufferState buffer("B", 8, 2);
  EXPECT_TRUE(buffer.push("a"));
  EXPECT_TRUE(buffer.push("b"));
  EXPECT_FALSE(buffer.push("c")) << "full";
  EXPECT_FALSE(buffer.push("waaaaay too large"));
  EXPECT_EQ(buffer.pop().value(), "a");
}

TEST(BlackboardState, DisplayReadClear) {
  BlackboardState bb("BB", 16);
  EXPECT_FALSE(bb.displayed());
  EXPECT_TRUE(bb.display("status"));
  EXPECT_EQ(bb.read().value(), "status");
  EXPECT_TRUE(bb.display("newer"));
  EXPECT_EQ(bb.read().value(), "newer");
  bb.clear();
  EXPECT_FALSE(bb.displayed());
}

TEST(SemaphoreState, CountingSemantics) {
  SemaphoreState sem("S", 1, 2);
  EXPECT_TRUE(sem.try_wait());
  EXPECT_FALSE(sem.try_wait());
  EXPECT_TRUE(sem.signal());
  EXPECT_TRUE(sem.signal());
  EXPECT_FALSE(sem.signal()) << "above maximum";
  EXPECT_EQ(sem.value(), 2);
}

TEST(EventState, UpDown) {
  EventState ev("E");
  EXPECT_FALSE(ev.up());
  ev.set();
  EXPECT_TRUE(ev.up());
  ev.reset();
  EXPECT_FALSE(ev.up());
}

}  // namespace
}  // namespace air::ipc
