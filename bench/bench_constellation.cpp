// Constellation scaling: the switched virtual-link topology vs the naive
// flat broadcast as the module count grows to 1000 (DESIGN.md §13). Every
// module is a small satellite (one partition, sampling-ring traffic to its
// neighbour, a beacon every ~400 ticks) flown under the sparse epoch
// driver, so the figure stresses exactly the constellation hot paths: Bus::
// next_delivery / idle_ticks horizon queries, the per-switch TDMA pump,
// and the World's column sweeps. Timing is wall time (UseRealTime) with
// World construction and teardown outside the timed region.
//
// On the flat bus one global TDMA cycle is 2 * N ticks long: at 1000
// stations the queues never drain and every delivery tick bounds an epoch,
// so epochs are one tick long and a beacon waits ~N/2 ticks for its slot.
// 8-station switches run 125 concurrent 8-tick cycles, drain each beacon
// burst within ~10 ticks, and the constellation then warps through the
// ~390-tick quiet stretches in long epochs. The checked figures
// (bench/check_constellation.py) are the deterministic counters
// mean_latency_ticks (flat / switched >= 4) and mean_epoch_ticks
// (switched / flat >= 4) at 1000 modules, plus an absolute switched
// modules_per_second floor. Host rate ratios are not gated: the sparse
// driver runs only the modules with an event, so a 1-tick flat epoch no
// longer costs an O(N) module sweep, and the flat flight -- which delivers
// a third as many beacons -- takes about as much host time as the
// switched one.
//
// BM_ConstellationBuild times the part the flights leave out: building a
// 128-satellite switched World (modules, bus attachments, virtual links)
// and tearing it down again, reported per module.
#include <benchmark/benchmark.h>

#include <chrono>

#include "config/constellation.hpp"

namespace {

using namespace air;
using scenarios::build_constellation;

constexpr Ticks kTicks = 1000;         // simulated span per iteration
constexpr std::size_t kPerSwitch = 8;  // stations per switch (switched)

void run_constellation(benchmark::State& state, std::size_t per_switch) {
  const int nmodules = static_cast<int>(state.range(0));
  double module_ticks = 0;
  double epochs = 0;
  double delivered = 0;
  double latency = 0;
  for (auto _ : state) {
    state.PauseTiming();
    auto world = build_constellation(nmodules, per_switch);
    state.ResumeTiming();
    world->run(kTicks);
    state.PauseTiming();
    module_ticks += static_cast<double>(nmodules) * kTicks;
    epochs += static_cast<double>(world->stats().epochs);
    delivered += static_cast<double>(world->bus().stats().frames_delivered);
    latency += static_cast<double>(world->bus().stats().total_latency);
    world.reset();  // teardown stays outside the timed region
    state.ResumeTiming();
  }
  state.counters["modules_per_second"] =
      benchmark::Counter(module_ticks, benchmark::Counter::kIsRate);
  state.counters["modules"] = benchmark::Counter(nmodules);
  state.counters["switches"] = benchmark::Counter(
      per_switch == 0 ? 1.0
                      : static_cast<double>((nmodules + per_switch - 1) /
                                            per_switch));
  // Deterministic per flight (the same on every host): what the gate
  // compares between the topologies.
  if (epochs > 0) {
    state.counters["mean_epoch_ticks"] =
        benchmark::Counter(module_ticks / static_cast<double>(nmodules) /
                           epochs);
  }
  if (delivered > 0) {
    state.counters["mean_latency_ticks"] =
        benchmark::Counter(latency / delivered);
  }
}

void BM_Constellation_Switched(benchmark::State& state) {
  run_constellation(state, kPerSwitch);
}
BENCHMARK(BM_Constellation_Switched)
    ->Arg(64)->Arg(256)->Arg(1000)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// The ablation strawman: the same 1000-module mission on one flat
// broadcast domain. check_constellation.py gates the flat/switched mean
// frame latency and the switched/flat mean epoch length at >= 4 each.
void BM_Constellation_Flat(benchmark::State& state) {
  run_constellation(state, 0);
}
BENCHMARK(BM_Constellation_Flat)
    ->Arg(64)->Arg(1000)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// Construction and teardown of the switched constellation, each timed on
// its own in wall time. The iteration time is their sum; the counters split
// it per module.
void BM_ConstellationBuild(benchmark::State& state) {
  using Clock = std::chrono::steady_clock;
  const int nmodules = static_cast<int>(state.range(0));
  double build_s = 0;
  double teardown_s = 0;
  for (auto _ : state) {
    const auto t0 = Clock::now();
    auto world = build_constellation(nmodules, kPerSwitch);
    const auto t1 = Clock::now();
    benchmark::DoNotOptimize(world.get());
    world.reset();
    const auto t2 = Clock::now();
    build_s += std::chrono::duration<double>(t1 - t0).count();
    teardown_s += std::chrono::duration<double>(t2 - t1).count();
    state.SetIterationTime(std::chrono::duration<double>(t2 - t0).count());
  }
  const double per_module_us = 1e6 / static_cast<double>(nmodules);
  state.counters["build_us_per_module"] = benchmark::Counter(
      build_s * per_module_us, benchmark::Counter::kAvgIterations);
  state.counters["teardown_us_per_module"] = benchmark::Counter(
      teardown_s * per_module_us, benchmark::Counter::kAvgIterations);
  state.counters["modules"] = benchmark::Counter(nmodules);
}
BENCHMARK(BM_ConstellationBuild)
    ->Arg(128)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace
