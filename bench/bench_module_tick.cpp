// Whole-module macro benchmark: cost of one simulated clock tick for the
// Fig. 8 system (scheduler + dispatcher + channel pump + PAL announce +
// process execution), with and without tracing, plus executor service
// throughput.
#include <benchmark/benchmark.h>

#include "config/fig8.hpp"
#include "system/module.hpp"

namespace {

using namespace air;

void BM_ModuleTick_Fig8(benchmark::State& state) {
  scenarios::Fig8Options options;
  options.with_faulty_process = false;
  options.trace_enabled = state.range(0) != 0;
  system::ModuleConfig config = scenarios::fig8_config(options);
  // This file is the perf-trajectory baseline: span recording is off here
  // and quantified separately in bench_telemetry.cpp.
  config.telemetry.spans_enabled = false;
  system::Module module(std::move(config));
  for (auto _ : state) {
    module.tick_once();
  }
  state.counters["sim_ticks_per_second"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ModuleTick_Fig8)
    ->Arg(0)  // trace off
    ->Arg(1); // trace on

void BM_ModuleTick_ManyPartitions(benchmark::State& state) {
  // Scale the partition count: each gets an equal window in a generated
  // round-robin table.
  const int n = static_cast<int>(state.range(0));
  system::ModuleConfig config;
  config.trace_enabled = false;
  config.telemetry.spans_enabled = false;
  model::Schedule schedule;
  schedule.id = ScheduleId{0};
  schedule.mtf = static_cast<Ticks>(n) * 20;
  for (int i = 0; i < n; ++i) {
    system::PartitionConfig partition;
    partition.name = "P" + std::to_string(i);
    system::ProcessConfig process;
    process.attrs.name = "work";
    process.attrs.period = schedule.mtf;
    process.attrs.time_capacity = schedule.mtf;
    process.attrs.priority = 10;
    process.attrs.script =
        pos::ScriptBuilder{}.compute(15).periodic_wait().build();
    partition.processes.push_back(std::move(process));
    config.partitions.push_back(std::move(partition));
    schedule.requirements.push_back({PartitionId{i}, schedule.mtf, 20});
    schedule.windows.push_back({PartitionId{i}, i * 20, 20});
  }
  config.schedules = {schedule};
  system::Module module(std::move(config));
  for (auto _ : state) {
    module.tick_once();
  }
  state.counters["sim_ticks_per_second"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ModuleTick_ManyPartitions)->Arg(2)->Arg(8)->Arg(32);

// Idle-heavy mission: one sparse partition whose only process runs 5 ticks
// out of every 10'000 -- the profile the next-event time warp targets. The
// CI smoke gate compares sim_ticks_per_second between Arg(0) (warp off)
// and Arg(1) (warp on).
system::ModuleConfig idle_heavy_config() {
  system::ModuleConfig config;
  config.name = "idle_heavy";
  config.trace_enabled = false;
  config.telemetry.spans_enabled = false;
  constexpr Ticks kMtf = 10'000;
  model::Schedule schedule;
  schedule.id = ScheduleId{0};
  schedule.mtf = kMtf;
  system::PartitionConfig partition;
  partition.name = "sparse";
  system::ProcessConfig process;
  process.attrs.name = "beacon";
  process.attrs.period = kMtf;
  process.attrs.time_capacity = kMtf;
  process.attrs.priority = 10;
  process.attrs.script =
      pos::ScriptBuilder{}.compute(5).periodic_wait().build();
  partition.processes.push_back(std::move(process));
  config.partitions.push_back(std::move(partition));
  schedule.requirements.push_back({PartitionId{0}, kMtf, kMtf});
  schedule.windows.push_back({PartitionId{0}, 0, kMtf});
  config.schedules = {schedule};
  return config;
}

void BM_ModuleTick_IdleHeavy(benchmark::State& state) {
  const bool warp = state.range(0) != 0;
  system::Module module(idle_heavy_config());
  module.set_time_warp(warp);
  constexpr Ticks kSpan = 10'000;
  for (auto _ : state) {
    module.run(kSpan);
  }
  state.counters["sim_ticks_per_second"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * static_cast<double>(kSpan),
      benchmark::Counter::kIsRate);
  state.counters["warped_ticks"] = benchmark::Counter(
      static_cast<double>(module.warp_stats().warped_ticks));
  state.counters["stepped_ticks"] = benchmark::Counter(
      static_cast<double>(module.warp_stats().stepped_ticks));
}
BENCHMARK(BM_ModuleTick_IdleHeavy)
    ->Arg(0)  // warp off
    ->Arg(1); // warp on

// The Fig. 8 mission (faulty process started) flown MTF by MTF through
// Module::run. Besides idle ticks the warp folds the busy ticks in which a
// steady heir computes, so most of each MTF is warped. The CI smoke gate
// compares sim_ticks_per_second between Arg(0) (warp off) and Arg(1)
// (warp on).
void BM_ModuleTick_Fig8Mission(benchmark::State& state) {
  const bool warp = state.range(0) != 0;
  scenarios::Fig8Options options;
  options.trace_enabled = false;
  system::ModuleConfig config = scenarios::fig8_config(options);
  config.telemetry.spans_enabled = false;
  system::Module module(std::move(config));
  module.set_time_warp(warp);
  module.start_process_by_name(module.partition_id("AOCS"),
                               scenarios::kFaultyProcessName);
  for (auto _ : state) {
    module.run(scenarios::kFig8Mtf);
  }
  state.counters["sim_ticks_per_second"] = benchmark::Counter(
      static_cast<double>(state.iterations()) *
          static_cast<double>(scenarios::kFig8Mtf),
      benchmark::Counter::kIsRate);
  state.counters["warped_ticks"] = benchmark::Counter(
      static_cast<double>(module.warp_stats().warped_ticks));
  state.counters["stepped_ticks"] = benchmark::Counter(
      static_cast<double>(module.warp_stats().stepped_ticks));
}
BENCHMARK(BM_ModuleTick_Fig8Mission)
    ->Arg(0)  // warp off
    ->Arg(1); // warp on

}  // namespace
