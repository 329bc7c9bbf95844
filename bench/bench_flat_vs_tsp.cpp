// Related-work ablation: two-level TSP scheduling vs single-level priority
// scheduling.
//
// The paper's related work cites analyses proposing to abandon two-level
// scheduling in favour of a single-level priority-preemptive scheme
// (Audsley & Wellings). This bench shows the robustness argument for TSP:
// put the same four "functions" on one machine, inject a runaway process
// into one of them, and count who suffers.
//
//   * TSP (two levels): the runaway can only burn its own partition's
//     windows -- every other function keeps its response times.
//   * Flat (one level, all processes in one RT kernel): the runaway at
//     high priority starves every lower-priority function on the machine.
//
// Counters report completions per function per kilotick, healthy vs with
// the fault.
#include <benchmark/benchmark.h>

#include "pos/kernel.hpp"
#include "system/module.hpp"

namespace {

using namespace air;
using pos::ScriptBuilder;

// Four functions: period 100, compute 15 each; the runaway computes forever
// at priority 5 (higher than everyone).
constexpr int kFunctions = 4;

system::ModuleConfig tsp_config(bool with_runaway) {
  system::ModuleConfig config;
  config.trace_enabled = false;
  model::Schedule s;
  s.id = ScheduleId{0};
  s.mtf = 100;
  for (int i = 0; i < kFunctions; ++i) {
    system::PartitionConfig p;
    p.name = "F" + std::to_string(i);
    system::ProcessConfig process;
    process.attrs.name = "work";
    process.attrs.period = 100;
    process.attrs.time_capacity = kInfiniteTime;
    process.attrs.priority = 10;
    process.attrs.script =
        ScriptBuilder{}.compute(15).log("done").periodic_wait().build();
    p.processes.push_back(std::move(process));
    if (with_runaway && i == 0) {
      system::ProcessConfig runaway;
      runaway.attrs.name = "runaway";
      runaway.attrs.priority = 5;
      runaway.attrs.script = ScriptBuilder{}.compute(1 << 30).build();
      p.processes.push_back(std::move(runaway));
    }
    config.partitions.push_back(std::move(p));
    s.requirements.push_back({PartitionId{i}, 100, 25});
    s.windows.push_back({PartitionId{i}, i * 25, 25});
  }
  config.schedules = {s};
  return config;
}

void BM_Tsp(benchmark::State& state) {
  const bool with_runaway = state.range(0) != 0;
  double victim_completions = 0;
  double others_completions = 0;
  double kiloticks = 0;
  for (auto _ : state) {
    state.PauseTiming();
    system::Module module(tsp_config(with_runaway));
    state.ResumeTiming();
    module.run(5000);
    state.PauseTiming();
    victim_completions +=
        static_cast<double>(module.console(PartitionId{0}).size());
    for (int i = 1; i < kFunctions; ++i) {
      others_completions +=
          static_cast<double>(module.console(PartitionId{i}).size());
    }
    kiloticks += 5.0;
    state.ResumeTiming();
  }
  state.counters["victim_per_kt"] =
      benchmark::Counter(victim_completions / kiloticks);
  state.counters["others_per_kt"] = benchmark::Counter(
      others_completions / (kiloticks * (kFunctions - 1)));
}
BENCHMARK(BM_Tsp)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

/// Flat single-level scheduling: every function's process in ONE kernel, no
/// partitions. A minimal executive drives it directly.
void BM_Flat(benchmark::State& state) {
  const bool with_runaway = state.range(0) != 0;
  double victim_completions = 0;
  double others_completions = 0;
  double kiloticks = 0;

  for (auto _ : state) {
    state.PauseTiming();
    pos::Kernel kernel{pos::Policy::kRt};
    struct Proc {
      ProcessId pid;
      Ticks remaining{0};
      std::int64_t completions{0};
    };
    std::vector<Proc> procs;
    for (int i = 0; i < kFunctions; ++i) {
      pos::ProcessAttributes attrs;
      attrs.name = "work" + std::to_string(i);
      attrs.priority = 10;
      attrs.period = 100;
      const ProcessId pid = kernel.create_process(std::move(attrs));
      kernel.make_ready(pid);
      procs.push_back({pid, 15, 0});
    }
    ProcessId runaway_pid = ProcessId::invalid();
    if (with_runaway) {
      pos::ProcessAttributes attrs;
      attrs.name = "runaway";
      attrs.priority = 5;  // outranks everyone on the flat machine
      runaway_pid = kernel.create_process(std::move(attrs));
      kernel.make_ready(runaway_pid);
    }
    state.ResumeTiming();

    for (Ticks t = 0; t < 5000; ++t) {
      kernel.tick_announce(t, 1);
      const ProcessId pid = kernel.schedule();
      if (!pid.valid()) continue;
      if (pid == runaway_pid) continue;  // burns the tick forever
      for (auto& proc : procs) {
        if (proc.pid != pid) continue;
        if (--proc.remaining == 0) {
          ++proc.completions;
          // Completed: wait for the next period boundary.
          const Ticks next = ((t / 100) + 1) * 100;
          proc.remaining = 15;
          kernel.block(pid, pos::WaitReason::kNextRelease, next);
        }
        break;
      }
    }

    state.PauseTiming();
    victim_completions += static_cast<double>(procs[0].completions);
    for (int i = 1; i < kFunctions; ++i) {
      others_completions += static_cast<double>(procs[i].completions);
    }
    kiloticks += 5.0;
    state.ResumeTiming();
  }
  state.counters["victim_per_kt"] =
      benchmark::Counter(victim_completions / kiloticks);
  state.counters["others_per_kt"] = benchmark::Counter(
      others_completions / (kiloticks * (kFunctions - 1)));
}
BENCHMARK(BM_Flat)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

}  // namespace
