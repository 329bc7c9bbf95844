// E10 -- interpartition communication (Sect. 2.1).
//
// Local partitions communicate by PMK memory-to-memory copies; remote ones
// through the simulated TDMA bus, behind the same APEX services. Measured:
//   * sampling write+propagate and read costs vs message size;
//   * queuing send+pump+receive round trip;
//   * local vs remote delivery latency (counters, in ticks);
//   * bus throughput under TDMA slotting.
#include <benchmark/benchmark.h>

#include "ipc/ports.hpp"
#include "ipc/router.hpp"
#include "net/bus.hpp"

namespace {

using namespace air;

struct LocalFixture {
  LocalFixture()
      : src("OUT", ipc::PortDirection::kSource, 4096, 16),
        dst("IN", ipc::PortDirection::kDestination, 4096, 16),
        s_src("SOUT", ipc::PortDirection::kSource, 4096, kInfiniteTime),
        s_dst("SIN", ipc::PortDirection::kDestination, 4096, kInfiniteTime) {
    router.add_queuing_port(PartitionId{0}, &src);
    router.add_queuing_port(PartitionId{1}, &dst);
    router.add_sampling_port(PartitionId{0}, &s_src);
    router.add_sampling_port(PartitionId{1}, &s_dst);
    ipc::ChannelConfig queuing;
    queuing.id = ChannelId{0};
    queuing.kind = ipc::ChannelKind::kQueuing;
    queuing.source = {PartitionId{0}, "OUT"};
    queuing.local_destinations = {{PartitionId{1}, "IN"}};
    router.add_channel(queuing);
    ipc::ChannelConfig sampling;
    sampling.id = ChannelId{1};
    sampling.kind = ipc::ChannelKind::kSampling;
    sampling.source = {PartitionId{0}, "SOUT"};
    sampling.local_destinations = {{PartitionId{1}, "SIN"}};
    router.add_channel(sampling);
  }

  ipc::Router router;
  ipc::QueuingPort src, dst;
  ipc::SamplingPort s_src, s_dst;
};

void BM_SamplingWritePropagate(benchmark::State& state) {
  LocalFixture fx;
  const std::string payload(static_cast<std::size_t>(state.range(0)), 'x');
  Ticks now = 0;
  for (auto _ : state) {
    ipc::Message m{payload, ++now, PartitionId{0}, {}};
    benchmark::DoNotOptimize(fx.s_src.write(m));
    fx.router.propagate_sampling({PartitionId{0}, "SOUT"}, m);
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SamplingWritePropagate)->Arg(16)->Arg(256)->Arg(4096);

void BM_SamplingRead(benchmark::State& state) {
  LocalFixture fx;
  const std::string payload(static_cast<std::size_t>(state.range(0)), 'x');
  ipc::Message m{payload, 0, PartitionId{0}, {}};
  fx.router.propagate_sampling({PartitionId{0}, "SOUT"}, m);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fx.s_dst.read(100));
  }
}
BENCHMARK(BM_SamplingRead)->Arg(16)->Arg(4096);

void BM_QueuingRoundTrip(benchmark::State& state) {
  LocalFixture fx;
  const std::string payload(static_cast<std::size_t>(state.range(0)), 'x');
  Ticks now = 0;
  for (auto _ : state) {
    (void)fx.src.send({payload, ++now, PartitionId{0}, {}});
    fx.router.pump({PartitionId{0}, "OUT"});
    benchmark::DoNotOptimize(fx.dst.receive());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_QueuingRoundTrip)->Arg(16)->Arg(256)->Arg(4096);

void BM_PumpAllIdleChannels(benchmark::State& state) {
  // The PMK runs pump_all() every tick; with idle channels it must be
  // nearly free.
  LocalFixture fx;
  for (auto _ : state) {
    fx.router.pump_all();
  }
}
BENCHMARK(BM_PumpAllIdleChannels);

void BM_BusThroughput(benchmark::State& state) {
  net::Bus bus({.slot_length = 1,
                .frames_per_slot = static_cast<std::size_t>(state.range(0)),
                .propagation_delay = 1});
  std::size_t delivered = 0;
  bus.attach(ModuleId{0}, [&](PartitionId, const std::string&,
                              const ipc::Message&,
                              ipc::ChannelKind) { ++delivered; });
  Ticks now = 0;
  const ipc::Message m{"frame", 0, PartitionId{0}, {}};
  for (auto _ : state) {
    bus.send(ModuleId{0}, {ModuleId{0}, PartitionId{0}, "P"}, m,
             ipc::ChannelKind::kQueuing, now);
    bus.tick(now);
    ++now;
  }
  state.counters["frames_per_tick"] = benchmark::Counter(
      static_cast<double>(delivered) / static_cast<double>(now));
}
BENCHMARK(BM_BusThroughput)->Arg(1)->Arg(4)->Arg(16);

void BM_RemoteDeliveryLatency(benchmark::State& state) {
  // One frame, measured in bus ticks from send to delivery under TDMA with
  // the sender owning every `modules`-th slot.
  const int modules = static_cast<int>(state.range(0));
  double latency = 0;
  for (auto _ : state) {
    net::Bus bus({.slot_length = 10, .frames_per_slot = 1,
                  .propagation_delay = 2});
    Ticks now = 0;
    Ticks delivered_at = -1;
    bus.attach(ModuleId{0},
               [&](PartitionId, const std::string&, const ipc::Message&,
                   ipc::ChannelKind) { delivered_at = now; });
    for (int m = 1; m < modules; ++m) {
      bus.attach(ModuleId{m}, [](PartitionId, const std::string&,
                                 const ipc::Message&, ipc::ChannelKind) {});
    }
    // The last module sends at t=0 but only transmits during its own TDMA
    // slot: delivery waits (modules-1) slots plus propagation.
    const ipc::Message msg{"x", 0, PartitionId{0}, {}};
    bus.send(ModuleId{modules - 1}, {ModuleId{0}, PartitionId{0}, "P"}, msg,
             ipc::ChannelKind::kQueuing, 0);
    while (delivered_at < 0 && now < 10'000) {
      bus.tick(now);
      ++now;
    }
    latency = static_cast<double>(delivered_at);
  }
  state.counters["delivery_latency_ticks"] = benchmark::Counter(latency);
}
BENCHMARK(BM_RemoteDeliveryLatency)->Arg(2)->Arg(4)->Arg(8);

}  // namespace
