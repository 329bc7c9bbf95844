// E3 -- process deadline violation monitoring, measured (Sect. 5, Sect. 6).
//
// Reports, as counters over a long Fig. 8 run with the fault injected:
//   * detection_latency: ticks from deadline expiry to detection. The
//     paper's methodology is optimal w.r.t. detection latency *under TSP*:
//     a violation occurring while the partition is inactive can only be
//     detected at its next dispatch, so the expected latency here is the
//     distance from the deadline (offset 205 of the MTF) to the next P1
//     window (offset 1300) = 1095 ticks.
//   * pal_checks_per_announce: Algorithm 3 examines only the earliest
//     deadline unless violations cascade (expected ~1).
// Plus micro-benchmarks of the announce path itself.
#include <benchmark/benchmark.h>

#include "config/fig8.hpp"
#include "pal/pal.hpp"
#include "system/module.hpp"

namespace {

using namespace air;

void BM_DetectionLatency_Fig8(benchmark::State& state) {
  double latency_sum = 0;
  double latency_count = 0;
  double checks = 0;
  double announces = 0;
  for (auto _ : state) {
    state.PauseTiming();
    system::Module module(scenarios::fig8_config());
    const PartitionId p1 = module.partition_id("AOCS");
    module.start_process_by_name(p1, scenarios::kFaultyProcessName);
    state.ResumeTiming();
    module.run(20 * scenarios::kFig8Mtf);
    state.PauseTiming();
    for (const auto& event :
         module.trace().filtered(util::EventKind::kDeadlineMiss)) {
      latency_sum += static_cast<double>(event.time - event.c);
      latency_count += 1;
    }
    checks += static_cast<double>(module.pal(p1).deadline_checks());
    announces += 20.0 * 1300.0 * (200.0 / 1300.0);  // P1 announce ticks
    state.ResumeTiming();
  }
  state.counters["detection_latency"] =
      benchmark::Counter(latency_count > 0 ? latency_sum / latency_count : 0);
  state.counters["pal_checks_per_announce"] =
      benchmark::Counter(announces > 0 ? checks / announces : 0);
}
BENCHMARK(BM_DetectionLatency_Fig8)->Unit(benchmark::kMillisecond);

void BM_Announce_NoDeadlines(benchmark::State& state) {
  pal::Pal pal(pos::Policy::kRt);
  Ticks now = 0;
  for (auto _ : state) {
    pal.announce_ticks(++now, 1);
  }
}
BENCHMARK(BM_Announce_NoDeadlines);

void BM_Announce_FutureDeadlines(benchmark::State& state) {
  // The common healthy case: n registered deadlines, none violated; the
  // check touches only the earliest (O(1) regardless of n).
  pal::Pal pal(pos::Policy::kRt);
  const std::int64_t n = state.range(0);
  for (std::int64_t i = 0; i < n; ++i) {
    pal.register_deadline(ProcessId{static_cast<std::int32_t>(i)},
                          1'000'000'000 + i);
  }
  Ticks now = 0;
  for (auto _ : state) {
    pal.announce_ticks(++now, 1);
  }
}
BENCHMARK(BM_Announce_FutureDeadlines)->Arg(1)->Arg(16)->Arg(256);

void BM_Announce_WithViolation(benchmark::State& state) {
  // Violation path: one expired deadline to report and remove per announce.
  pal::Pal pal(pos::Policy::kRt);
  pal.on_deadline_violation = [](ProcessId, Ticks, Ticks) {};
  Ticks now = 1'000;
  std::int32_t pid = 0;
  for (auto _ : state) {
    state.PauseTiming();
    pal.register_deadline(ProcessId{pid++ % 1024}, now - 1);
    state.ResumeTiming();
    pal.announce_ticks(++now, 1);
  }
}
BENCHMARK(BM_Announce_WithViolation);

}  // namespace
