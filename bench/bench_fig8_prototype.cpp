// E1 -- the Fig. 8 prototype, regenerated.
//
// Runs the four-partition system under both PSTs and reports, as counters,
// the shares of processor time each partition received per MTF, which must
// match the published tables exactly:
//   chi_1: P1 200/1300, P2 200/1300, P3 200/1300, P4 700/1300
//   chi_2: P1 200/1300, P2 700/1300, P3 200/1300, P4 200/1300
// plus the simulation rate of the whole module (ticks/second).
#include <benchmark/benchmark.h>

#include <array>

#include "config/fig8.hpp"
#include "system/module.hpp"

namespace {

using namespace air;

void run_and_report(benchmark::State& state, ScheduleId schedule) {
  std::array<std::int64_t, 4> occupancy{};
  std::int64_t total = 0;

  for (auto _ : state) {
    state.PauseTiming();
    scenarios::Fig8Options options;
    options.with_faulty_process = false;
    options.trace_enabled = false;  // hot path only
    system::Module module(scenarios::fig8_config(options));
    if (schedule != ScheduleId{0}) {
      (void)module.apex(module.partition_id("AOCS"))
          .set_module_schedule(schedule);
      module.run(scenarios::kFig8Mtf);  // let the switch take effect
    }
    occupancy = {};
    total = 0;
    state.ResumeTiming();

    for (Ticks t = 0; t < 10 * scenarios::kFig8Mtf; ++t) {
      module.tick_once();
      const PartitionId active = module.dispatcher().active_partition();
      if (active.valid()) {
        ++occupancy[static_cast<std::size_t>(active.value())];
      }
      ++total;
    }
  }

  for (std::size_t p = 0; p < occupancy.size(); ++p) {
    state.counters['P' + std::to_string(p + 1) + "_share_x1300"] =
        benchmark::Counter(static_cast<double>(occupancy[p]) * 1300.0 /
                           static_cast<double>(total));
  }
  state.counters["ticks_per_second"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * 10.0 * 1300.0,
      benchmark::Counter::kIsRate);
}

void BM_Fig8_Chi1(benchmark::State& state) {
  run_and_report(state, ScheduleId{0});
}
BENCHMARK(BM_Fig8_Chi1)->Unit(benchmark::kMillisecond);

void BM_Fig8_Chi2(benchmark::State& state) {
  run_and_report(state, ScheduleId{1});
}
BENCHMARK(BM_Fig8_Chi2)->Unit(benchmark::kMillisecond);

void BM_Fig8_WithFaultInjected(benchmark::State& state) {
  // Whole-system rate with the faulty process active and the trace on --
  // the configuration the paper demonstrates.
  std::size_t misses = 0;
  Ticks mtfs = 0;
  for (auto _ : state) {
    state.PauseTiming();
    system::Module module(scenarios::fig8_config());
    module.start_process_by_name(module.partition_id("AOCS"),
                                 scenarios::kFaultyProcessName);
    state.ResumeTiming();
    module.run(10 * scenarios::kFig8Mtf);
    state.PauseTiming();
    misses += module.trace().count(util::EventKind::kDeadlineMiss);
    mtfs += 10;
    state.ResumeTiming();
  }
  state.counters["misses_per_mtf"] = benchmark::Counter(
      static_cast<double>(misses) / static_cast<double>(mtfs));
}
BENCHMARK(BM_Fig8_WithFaultInjected)->Unit(benchmark::kMillisecond);

void BM_Fig8_Mission(benchmark::State& state) {
  // Whole-mission rate through the run() front door, warp off (Arg 0) vs
  // on (Arg 1). Fig. 8 partitions have real work every window, so the warp
  // exploits only intra-window idle spans; the counters report how many
  // ticks it could skip.
  const bool warp = state.range(0) != 0;
  scenarios::Fig8Options options;
  options.with_faulty_process = false;
  options.trace_enabled = false;
  system::Module module(scenarios::fig8_config(options));
  module.set_time_warp(warp);
  for (auto _ : state) {
    module.run(10 * scenarios::kFig8Mtf);
  }
  state.counters["sim_ticks_per_second"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * 10.0 * 1300.0,
      benchmark::Counter::kIsRate);
  state.counters["warped_ticks"] = benchmark::Counter(
      static_cast<double>(module.warp_stats().warped_ticks));
  state.counters["stepped_ticks"] = benchmark::Counter(
      static_cast<double>(module.warp_stats().stepped_ticks));
}
BENCHMARK(BM_Fig8_Mission)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace
