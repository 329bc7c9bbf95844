// Constellation-scale equivalence (DESIGN.md §13): a 1000-module switched
// mission must stay byte-identical between the per-tick lockstep reference
// and the sparse epoch driver. Fingerprinting every module would dwarf
// the flight itself, so the contract is checked on a sampled subset (every
// 97th module -- coprime with the 8-station switch size, so the sample
// crosses switch boundaries) plus the global bus statistics; any divergence
// in the unsampled modules feeds back into the bus counters and the
// sampled ring neighbours within one beacon lap.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "config/constellation.hpp"
#include "telemetry/export.hpp"
#include "telemetry/spans.hpp"
#include "util/trace_export.hpp"

namespace air {
namespace {

using scenarios::build_constellation;

constexpr std::size_t kPerSwitch = 8;
constexpr int kSampleStride = 97;

// Everything the equivalence contract covers, for one module: trace,
// metrics exports, span stream, APEX-visible process state, console.
std::string module_fingerprint(system::Module& module) {
  std::string out = util::to_json(module.trace());
  const telemetry::MetricsSnapshot snap = module.metrics_snapshot();
  out += telemetry::to_json(snap) + telemetry::to_csv(snap);
  out += telemetry::spans_to_json(module.spans());
  for (std::size_t p = 0; p < module.partition_count(); ++p) {
    const PartitionId id{static_cast<std::int32_t>(p)};
    auto& kernel = module.kernel(id);
    for (std::size_t q = 0; q < kernel.process_count(); ++q) {
      apex::ProcessStatus st;
      if (module.apex(id).get_process_status(
              ProcessId{static_cast<std::int32_t>(q)}, st) !=
          apex::ReturnCode::kNoError) {
        continue;
      }
      out += st.name + " state=" + std::to_string(static_cast<int>(st.state)) +
             " deadline=" + std::to_string(st.deadline_time) +
             " completions=" + std::to_string(st.completions) + "\n";
    }
    for (const std::string& line : module.console(id)) {
      out += "console: " + line + "\n";
    }
  }
  out += "now=" + std::to_string(module.now());
  return out;
}

std::string sampled_fingerprint(system::World& world, int stride) {
  std::string out;
  for (std::size_t m = 0; m < world.module_count();
       m += static_cast<std::size_t>(stride)) {
    out += "=== module " + std::to_string(m) + "\n";
    out += module_fingerprint(world.module(m));
  }
  const net::BusStats& bus = world.bus().stats();
  out += "=== bus sent=" + std::to_string(bus.frames_sent) +
         " delivered=" + std::to_string(bus.frames_delivered) +
         " dropped=" + std::to_string(bus.frames_dropped) +
         " latency=" + std::to_string(bus.total_latency) +
         " now=" + std::to_string(world.now());
  return out;
}

TEST(Constellation, SampledThousandModuleFlightIsByteIdentical) {
  constexpr int kModules = 1000;
  constexpr Ticks kSpan = 900;  // two full beacon laps

  const auto fly = [&](bool lockstep) {
    auto world = build_constellation(kModules, kPerSwitch);
    lockstep ? world->run_lockstep(kSpan) : world->run(kSpan);
    EXPECT_GT(world->bus().stats().frames_delivered, 1000u)
        << "the ring must actually carry beacons";
    EXPECT_EQ(world->bus().stats().frames_dropped, 0u);
    EXPECT_EQ(world->bus().switch_count(), 125u);
    return sampled_fingerprint(*world, kSampleStride);
  };

  EXPECT_EQ(fly(true), fly(false))
      << "epoch driver diverges from lockstep at 1000 modules";
}

TEST(Constellation, EpochsRunOnlyTheModulesWithAnEvent) {
  // The sparse epoch driver (DESIGN.md §8): a beacon satellite has an
  // event a few times per 400-tick lap, so most epochs find only the few
  // modules a burst touches due. A silent fallback to dense epochs (every
  // module run every epoch) would keep every identity test green.
  constexpr int kModules = 128;
  auto world = build_constellation(kModules, kPerSwitch);
  world->run(900);
  const system::World::Stats& stats = world->stats();
  ASSERT_GT(stats.epochs, 0u);
  EXPECT_LT(stats.module_runs * 4, stats.epochs * kModules)
      << "module runs per epoch must stay well below the module count";
}

TEST(Constellation, SwitchedTopologyYieldsLongerEpochs) {
  // The perf mechanism behind BENCH_constellation (DESIGN.md §13): at a
  // scale where the flat 2 * N-tick cycle cannot drain a beacon burst
  // between laps, the 8-station switches drain it in ~10 ticks and the
  // epoch driver warps the quiet gaps -- strictly fewer, longer epochs.
  // Both flights are deterministic, so the comparison is exact, not noisy.
  constexpr int kModules = 256;
  constexpr Ticks kSpan = 900;
  const auto epochs = [&](std::size_t per_switch) {
    auto world = build_constellation(kModules, per_switch);
    world->run(kSpan);
    return world->stats().epochs;
  };
  const std::uint64_t switched = epochs(kPerSwitch);
  const std::uint64_t flat = epochs(0);
  EXPECT_LT(switched * 4, flat)
      << "switched epochs should be >= 4x longer than flat's";
}

}  // namespace
}  // namespace air
