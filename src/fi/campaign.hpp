// Fault-injection campaign runner.
//
// Sweeps N seeds, each seed a deterministic FaultPlan flown against the
// Fig. 8 prototype (one-module missions, and -- for every third seed --
// a two-module fig8+ground World mission whose science channel crosses the
// TDMA bus). Every mission is flown twice, clean and faulted, and the
// containment oracles (src/fi/oracles) compare the runs. A breached seed is
// shrunk to a minimal reproducer plan by greedy injection-subset removal
// and reported with the root-cause material (span anomalies, HM log).
//
// `weaken_hm` deliberately removes the partition error handlers and the
// module-table entry for hardware faults: the campaign must then flag the
// configuration, which is the self-test demanded by the acceptance
// criteria (and a template for probing real configuration changes).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fi/fault_plan.hpp"
#include "fi/injector.hpp"
#include "fi/oracles.hpp"
#include "system/module_config.hpp"

namespace air::fi {

struct CampaignOptions {
  std::uint64_t first_seed{1};
  std::size_t seeds{25};
  Ticks mtfs{4};            // mission length, in Fig. 8 major time frames
  bool weaken_hm{false};    // fly the deliberately weakened configuration
  bool world_missions{true};  // include two-module bus missions
  std::string out_dir;        // write reproducers here ("" = don't)
  bool verbose{false};
};

/// Everything a failing seed leaves behind.
struct SeedResult {
  std::uint64_t seed{0};
  bool world_mission{false};
  FaultPlan plan;
  std::vector<Breach> breaches;  // of the full plan
  FaultPlan minimized;           // smallest still-breaching subset
  std::string report;            // human-readable: breaches + root causes
};

struct CampaignResult {
  std::size_t seeds_run{0};
  std::size_t injections_applied{0};
  std::vector<SeedResult> failures;

  [[nodiscard]] bool breached() const { return !failures.empty(); }
};

/// The campaign's module-0 configuration: Fig. 8 without the built-in
/// faulty process, plus per partition a dormant CPU-hog process (the
/// kProcessStuck vehicle), an application error handler, and explicit HM
/// entries for the injected error codes. `weaken_hm` removes the handlers
/// and the module-level hardware-fault entry.
[[nodiscard]] system::ModuleConfig campaign_fig8_config(bool weaken_hm);

/// The ground-segment module of world missions (science-frame archiver).
[[nodiscard]] system::ModuleConfig campaign_ground_config();

/// Whether `seed` flies the two-module World mission.
[[nodiscard]] bool is_world_seed(const CampaignOptions& options,
                                 std::uint64_t seed);

/// The deterministic plan of one seed (weakened campaigns guarantee at
/// least one HM-sensitive injection so the missing handler is exercised).
[[nodiscard]] FaultPlan campaign_plan(const CampaignOptions& options,
                                      std::uint64_t seed);

/// Fly `plan` against the mission (clean reference + faulted run) and
/// return every containment breach. `records_out` (optional) receives the
/// injection log of the faulted run.
[[nodiscard]] std::vector<Breach> evaluate_plan(
    const CampaignOptions& options, const FaultPlan& plan, bool world_mission,
    std::vector<InjectionRecord>* records_out = nullptr,
    std::string* detail_out = nullptr);

/// Greedy one-at-a-time shrink: drop any injection whose removal keeps the
/// plan breaching, to a fixed point.
[[nodiscard]] FaultPlan minimize_plan(const CampaignOptions& options,
                                      const FaultPlan& plan,
                                      bool world_mission);

[[nodiscard]] SeedResult run_seed(const CampaignOptions& options,
                                  std::uint64_t seed);

[[nodiscard]] CampaignResult run_campaign(const CampaignOptions& options);

/// End-to-end self-test of the online watchdog path: a clean Fig. 8 flight
/// must raise zero health events, and a single forced deadline miss
/// (kProcessOverrun) must light the deadline watchdog on exactly the target
/// partition, causally linked (HealthEvent::cause != 0) to the root-cause
/// chain of the miss. Returns the failures; empty = the detectors detect.
[[nodiscard]] std::vector<Breach> watchdog_selftest();

}  // namespace air::fi
