// E12 -- offline verification & integration aids (Sect. 3, future work).
//
// Measured: cost of validating a PST against eqs. (20)-(23), of generating
// a PST by EDF construction, and of the process-level response-time
// analysis, each as a function of the number of partitions; then the batch
// service and the candidate NDJSON ingest in front of it. These tools run
// at integration time, but their scalability determines how large a design
// space an integrator can explore.
#include <benchmark/benchmark.h>

#include "config/candidates.hpp"
#include "model/batch.hpp"
#include "model/generator.hpp"
#include "model/schedulability.hpp"
#include "model/validation.hpp"
#include "util/rng.hpp"

namespace {

using namespace air;

std::vector<model::ScheduleRequirement> make_requirements(int partitions,
                                                          std::uint64_t seed) {
  util::Rng rng(seed);
  static constexpr Ticks kPeriods[] = {100, 200, 400, 800};
  std::vector<model::ScheduleRequirement> reqs;
  double budget = 0.9;
  for (int p = 0; p < partitions; ++p) {
    const Ticks period =
        kPeriods[static_cast<std::size_t>(rng.uniform(0, 3))];
    const double share = budget / static_cast<double>(partitions - p) *
                         (0.5 + rng.uniform01() * 0.5);
    const Ticks duration = std::max<Ticks>(
        1, static_cast<Ticks>(share * static_cast<double>(period)));
    budget -= static_cast<double>(duration) / static_cast<double>(period);
    reqs.push_back({PartitionId{p}, period, duration});
  }
  return reqs;
}

void BM_GenerateSchedule(benchmark::State& state) {
  const auto reqs =
      make_requirements(static_cast<int>(state.range(0)), 42);
  for (auto _ : state) {
    model::GeneratorInput input;
    input.requirements = reqs;
    benchmark::DoNotOptimize(model::generate_schedule(input));
  }
}
BENCHMARK(BM_GenerateSchedule)->Arg(2)->Arg(4)->Arg(8)->Arg(16);

void BM_ValidateSchedule(benchmark::State& state) {
  model::GeneratorInput input;
  input.requirements =
      make_requirements(static_cast<int>(state.range(0)), 43);
  const auto schedule = model::generate_schedule(input);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model::validate_schedule(*schedule));
  }
}
BENCHMARK(BM_ValidateSchedule)->Arg(2)->Arg(4)->Arg(8)->Arg(16);

void BM_SupplyFunctionConstruction(benchmark::State& state) {
  model::GeneratorInput input;
  input.requirements =
      make_requirements(static_cast<int>(state.range(0)), 44);
  const auto schedule = model::generate_schedule(input);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        model::PartitionSupply(*schedule, PartitionId{0}));
  }
}
BENCHMARK(BM_SupplyFunctionConstruction)->Arg(2)->Arg(8);

void BM_ResponseTimeAnalysis(benchmark::State& state) {
  model::GeneratorInput input;
  input.requirements = make_requirements(8, 45);
  const auto schedule = model::generate_schedule(input);
  model::PartitionModel partition;
  partition.id = PartitionId{0};
  const int processes = static_cast<int>(state.range(0));
  util::Rng rng(46);
  for (int q = 0; q < processes; ++q) {
    partition.processes.push_back(
        {'p' + std::to_string(q), 100 * (1 + rng.uniform(0, 3)),
         kInfiniteTime, 10 + q, 1 + rng.uniform(0, 3), true});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        model::analyze_partition(*schedule, partition,
                                 model::Phasing::kMtfAligned));
  }
}
BENCHMARK(BM_ResponseTimeAnalysis)->Arg(2)->Arg(8)->Arg(32);

// --- the schedulability service (src/model/batch.hpp) ---
//
// Baseline vs service over the same generated candidate stream. The
// baseline is the pre-service workflow: every candidate analysed in
// isolation (no PST memo, no supply cache). The service runs the batch
// pipeline with the PST memo and the interned supply cache, so the ratio
// measures memoisation alone.
// check_schedulability.py gates the configs_per_second ratio and the cache
// hit rate.

model::CandidateSpec bench_spec(std::int64_t count) {
  model::CandidateSpec spec;
  spec.count = static_cast<std::size_t>(count);
  spec.seed = 42;
  return spec;
}

void BM_BatchAnalyze_Baseline(benchmark::State& state) {
  const auto candidates = model::generate_candidates(bench_spec(state.range(0)));
  for (auto _ : state) {
    model::BatchAnalyzer analyzer(model::BatchOptions{.memoise = false});
    benchmark::DoNotOptimize(analyzer.analyze(candidates));
  }
  state.counters["configs_per_second"] = benchmark::Counter(
      static_cast<double>(state.iterations()) *
          static_cast<double>(candidates.size()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_BatchAnalyze_Baseline)->Arg(256)->Unit(benchmark::kMillisecond);

void BM_BatchAnalyze_Service(benchmark::State& state) {
  const auto candidates = model::generate_candidates(bench_spec(state.range(0)));
  double hit_rate = 0.0;
  for (auto _ : state) {
    model::BatchAnalyzer analyzer;
    benchmark::DoNotOptimize(analyzer.analyze(candidates));
    const auto& cache = analyzer.stats().cache;
    hit_rate = cache.lookups > 0 ? static_cast<double>(cache.hits) /
                                       static_cast<double>(cache.lookups)
                                 : 0.0;
  }
  state.counters["configs_per_second"] = benchmark::Counter(
      static_cast<double>(state.iterations()) *
          static_cast<double>(candidates.size()),
      benchmark::Counter::kIsRate);
  state.counters["cache_hit_rate"] = hit_rate;
}
BENCHMARK(BM_BatchAnalyze_Service)->Arg(256)->Unit(benchmark::kMillisecond);

// Ingest ahead of the service: config::parse_candidates over one NDJSON
// stream of N generated candidates (the air-schedule --in path up to the
// analyzer). The text is built outside the timed region.
void BM_ParseCandidates(benchmark::State& state) {
  std::string text;
  for (const auto& c : model::generate_candidates(bench_spec(state.range(0)))) {
    text += config::candidate_to_jsonl(c);
    text += '\n';
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(config::parse_candidates(text));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(text.size()));
  state.counters["candidates_per_second"] = benchmark::Counter(
      static_cast<double>(state.iterations()) *
          static_cast<double>(state.range(0)),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ParseCandidates)->Arg(256)->Unit(benchmark::kMillisecond);

}  // namespace
