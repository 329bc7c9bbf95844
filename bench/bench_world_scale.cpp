// World scaling: the per-tick lockstep driver (World::run_lockstep) vs the
// sparse epoch driver (World::run) as the module count grows. Modules are
// busy (periodic compute load in every partition window, telemetry on) and
// exchange light sampling-ring traffic over the TDMA bus, so epochs stay
// short and the comparison shows what the epoch bookkeeping costs where
// there is little idle time to skip. Rates are wall-time, and World
// construction and teardown stay outside the timed region.
#include <benchmark/benchmark.h>

#include "system/world.hpp"

namespace {

using namespace air;
using pos::ScriptBuilder;

constexpr Ticks kTicks = 1000;  // simulated span per iteration

model::Schedule round_robin(std::size_t partitions, Ticks slice) {
  model::Schedule s;
  s.id = ScheduleId{0};
  s.mtf = static_cast<Ticks>(partitions) * slice;
  for (std::size_t i = 0; i < partitions; ++i) {
    const PartitionId p{static_cast<std::int32_t>(i)};
    s.requirements.push_back({p, s.mtf, slice});
    s.windows.push_back({p, static_cast<Ticks>(i) * slice, slice});
  }
  return s;
}

// A busy module: 4 partitions in 25-tick slices, each with a periodic
// worker that computes through most of its window, partition 0 additionally
// feeding the sampling ring. Bounded recorder/span capacities keep memory
// flat over long runs; no console logging (unbounded).
system::ModuleConfig busy_module(int id, int nmodules) {
  system::ModuleConfig config;
  config.id = ModuleId{id};
  config.name = "m" + std::to_string(id);
  config.telemetry.flight_recorder_capacity = 256;
  config.telemetry.spans_capacity = 1024;
  constexpr std::size_t kParts = 4;
  constexpr Ticks kSlice = 25;
  for (std::size_t p = 0; p < kParts; ++p) {
    system::PartitionConfig partition;
    partition.name = "p" + std::to_string(p);
    if (p == 0) {
      partition.sampling_ports.push_back(
          {"OUT", ipc::PortDirection::kSource, 64, kInfiniteTime});
      partition.sampling_ports.push_back(
          {"IN", ipc::PortDirection::kDestination, 64, kInfiniteTime});
      system::ProcessConfig chatter;
      chatter.attrs.name = "chatter";
      chatter.attrs.priority = 20;
      chatter.attrs.script = ScriptBuilder{}
                                 .sampling_write(0, "ring")
                                 .sampling_read(1)
                                 .timed_wait(150)
                                 .build();
      partition.processes.push_back(std::move(chatter));
    }
    system::ProcessConfig worker;
    worker.attrs.name = "work";
    worker.attrs.period = static_cast<Ticks>(kParts) * kSlice;
    worker.attrs.time_capacity = kInfiniteTime;
    worker.attrs.priority = 10;
    worker.attrs.script = ScriptBuilder{}.compute(20).periodic_wait().build();
    partition.processes.push_back(std::move(worker));
    config.partitions.push_back(std::move(partition));
  }
  ipc::ChannelConfig ring;
  ring.id = ChannelId{0};
  ring.kind = ipc::ChannelKind::kSampling;
  ring.source = {PartitionId{0}, "OUT"};
  ring.remote_destinations = {
      {ModuleId{(id + 1) % nmodules}, PartitionId{0}, "IN"}};
  config.channels.push_back(std::move(ring));
  config.schedules = {round_robin(kParts, kSlice)};
  return config;
}

std::unique_ptr<system::World> build_world(int nmodules) {
  auto world = std::make_unique<system::World>(
      net::BusConfig{.slot_length = 8, .frames_per_slot = 2,
                     .propagation_delay = 6});
  for (int m = 0; m < nmodules; ++m) {
    world->add_module(busy_module(m, nmodules));
  }
  return world;
}

void run_scaling(benchmark::State& state, bool use_epochs) {
  const int nmodules = static_cast<int>(state.range(0));
  double sim_ticks = 0;
  double epochs = 0;
  for (auto _ : state) {
    state.PauseTiming();
    auto world = build_world(nmodules);
    state.ResumeTiming();
    if (use_epochs) {
      world->run(kTicks);
    } else {
      world->run_lockstep(kTicks);
    }
    state.PauseTiming();
    sim_ticks += static_cast<double>(kTicks);
    epochs += static_cast<double>(world->stats().epochs);
    world.reset();  // teardown stays outside the timed region
    state.ResumeTiming();
  }
  state.counters["sim_ticks_per_second"] =
      benchmark::Counter(sim_ticks, benchmark::Counter::kIsRate);
  state.counters["modules"] = benchmark::Counter(nmodules);
  if (use_epochs && epochs > 0) {
    state.counters["mean_epoch_ticks"] = benchmark::Counter(sim_ticks / epochs);
  }
}

void BM_WorldScale_Lockstep(benchmark::State& state) {
  run_scaling(state, /*use_epochs=*/false);
}
BENCHMARK(BM_WorldScale_Lockstep)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Arg(16)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_WorldScale_Epoch(benchmark::State& state) {
  run_scaling(state, /*use_epochs=*/true);
}
BENCHMARK(BM_WorldScale_Epoch)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Arg(16)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace
