// Multicore ablation (future work iv): the same partition workload on one
// core vs two, measuring completed activations per simulated kilotick and
// the per-tick simulation cost as core count grows.
#include <benchmark/benchmark.h>

#include "system/module.hpp"

namespace {

using namespace air;
using pos::ScriptBuilder;

system::PartitionConfig worker(std::string name, Ticks compute) {
  system::PartitionConfig p;
  p.name = std::move(name);
  system::ProcessConfig process;
  process.attrs.name = "work";
  process.attrs.period = 100;
  process.attrs.time_capacity = kInfiniteTime;
  process.attrs.priority = 10;
  process.attrs.script =
      ScriptBuilder{}.compute(compute).log("x").periodic_wait().build();
  p.processes.push_back(std::move(process));
  return p;
}

model::Schedule round_robin(ScheduleId id, const std::vector<PartitionId>& ps,
                            Ticks slice) {
  model::Schedule s;
  s.id = id;
  s.mtf = static_cast<Ticks>(ps.size()) * slice;
  for (std::size_t i = 0; i < ps.size(); ++i) {
    s.requirements.push_back({ps[i], s.mtf, slice});
    s.windows.push_back({ps[i], static_cast<Ticks>(i) * slice, slice});
  }
  return s;
}

void BM_Completions(benchmark::State& state) {
  // 4 partitions x compute(40)/period(100): demand 160/100 -- infeasible on
  // one core, feasible on two. Counter reports completed activations per
  // 1000 simulated ticks; expected ~2x with the second core (shape claim).
  const int cores = static_cast<int>(state.range(0));
  double completions = 0;
  double kiloticks = 0;
  for (auto _ : state) {
    state.PauseTiming();
    system::ModuleConfig config;
    config.trace_enabled = false;
    for (const char* name : {"A", "B", "C", "D"}) {
      config.partitions.push_back(worker(name, 40));
    }
    if (cores == 1) {
      config.cores.push_back(
          {{round_robin(ScheduleId{0},
                        {PartitionId{0}, PartitionId{1}, PartitionId{2},
                         PartitionId{3}},
                        25)},
           ScheduleId{0}});
    } else {
      config.cores.push_back(
          {{round_robin(ScheduleId{0}, {PartitionId{0}, PartitionId{1}}, 50)},
           ScheduleId{0}});
      config.cores.push_back(
          {{round_robin(ScheduleId{1}, {PartitionId{2}, PartitionId{3}}, 50)},
           ScheduleId{1}});
    }
    system::Module module(std::move(config));
    state.ResumeTiming();
    module.run(5000);
    state.PauseTiming();
    for (int p = 0; p < 4; ++p) {
      completions += static_cast<double>(module.console(PartitionId{p}).size());
    }
    kiloticks += 5.0;
    state.ResumeTiming();
  }
  state.counters["completions_per_kilotick"] =
      benchmark::Counter(completions / kiloticks);
}
BENCHMARK(BM_Completions)->Arg(1)->Arg(2)->Unit(benchmark::kMillisecond);

void BM_TickCostVsCores(benchmark::State& state) {
  const int cores = static_cast<int>(state.range(0));
  system::ModuleConfig config;
  config.trace_enabled = false;
  std::vector<std::vector<PartitionId>> per_core(
      static_cast<std::size_t>(cores));
  for (int p = 0; p < 2 * cores; ++p) {
    config.partitions.push_back(worker('P' + std::to_string(p), 40));
    per_core[static_cast<std::size_t>(p % cores)].push_back(PartitionId{p});
  }
  for (int c = 0; c < cores; ++c) {
    config.cores.push_back(
        {{round_robin(ScheduleId{c}, per_core[static_cast<std::size_t>(c)],
                      50)},
         ScheduleId{c}});
  }
  system::Module module(std::move(config));
  for (auto _ : state) {
    module.tick_once();
  }
}
BENCHMARK(BM_TickCostVsCores)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

}  // namespace
