// Plumbing shared by the two simulation workloads: timed set-up and
// teardown of the system under test, and layer work counters read from
// public accessors only: Module::metrics_snapshot() (which scrapes the
// batched layer counters), Module::WarpStats and ipc::Payload::pool_stats().
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "harness.hpp"
#include "system/module.hpp"

namespace perfbench {

/// A freshly set-up system (Module or World) and what its set-up cost:
/// config load + validation, then construction.
template <class System>
struct Built {
  std::unique_ptr<System> system;
  double load_s{0};
  double build_s{0};
};

/// Set-up and teardown timings of every system a run builds; setup_s and
/// the set-up layers are their fastest (add_end_to_end says why).
struct SetupTimes {
  std::vector<double> setup_s, load_s, build_s, teardown_s;

  template <class System>
  void note(const Built<System>& built) {
    setup_s.push_back(built.load_s + built.build_s);
    load_s.push_back(built.load_s);
    build_s.push_back(built.build_s);
  }

  template <class System>
  void teardown(Built<System>& built) {
    const auto t0 = Clock::now();
    built.system.reset();
    teardown_s.push_back(seconds_since(t0));
  }

  /// config.load_ms, system.module_build_ms and system.teardown_ms.
  void add_layers(Report& report) const;
};

struct LayerCounts {
  std::uint64_t schedule_switches{0};
  std::uint64_t deadline_checks{0};
  std::uint64_t deadline_misses{0};
  std::uint64_t process_dispatches{0};
  std::uint64_t ipc_messages{0};
  std::uint64_t hm_errors{0};
  std::uint64_t tlb_hits{0};
  std::uint64_t tlb_misses{0};
  std::uint64_t stepped_ticks{0};
  std::uint64_t warped_ticks{0};
  std::uint64_t pool_heap_allocs{0};  // process-wide payload pool

  /// Add one module's cumulative totals (takes a metrics snapshot) and
  /// read the process-wide payload pool counter.
  void add(air::system::Module& module);
};

/// Per-chunk layer counts of the timed region [before, after).
void add_count_metrics(Report& report, const LayerCounts& before,
                       const LayerCounts& after, std::size_t chunks);

/// Digest of a module's observable state: its (bounded) trace text and
/// its metrics snapshot.
[[nodiscard]] std::uint64_t module_digest(air::system::Module& module);

}  // namespace perfbench
