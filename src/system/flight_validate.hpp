// Differential flight validation: close the loop between the batch
// schedulability service (src/model/batch.hpp) and the simulator.
//
// A verdict is a *claim* about flight behaviour; this module checks the
// claim by actually flying candidates:
//
//  - Soundness: every analysis-accepted candidate must produce zero
//    deadline misses -- on all four execution drivers (per-tick Module,
//    warped Module, World lockstep, World epochs), so the oracle
//    simultaneously re-checks the drivers' equivalence contract.
//
//  - Necessity: a *definite* reject (long-run demand above supply,
//    BatchVerdict::definite) must exhibit the predicted miss in flight.
//    Conservative rejects (eq. (14) fixpoint above D, demand below supply)
//    are legitimately allowed to fly clean and are not sampled.
//
// The same harness powers the mutation self-test: an intentionally unsound
// analysis variant (AnalysisOptions::supply_bonus) must be flagged by the
// differential oracle, proving the validation pipeline can actually catch
// a broken analysis -- not just agree with a correct one.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "model/batch.hpp"
#include "system/module_config.hpp"

namespace air::system {

/// The four execution drivers with one observable-behaviour contract.
enum class FlightDriver : std::uint8_t {
  kPerTick,   // Module, time warp off: the reference tick loop
  kWarped,    // Module, next-event time warp on
  kLockstep,  // World::run_lockstep (per-tick world reference)
  kEpoch,     // World::run, the sparse epoch driver
};

inline constexpr FlightDriver kAllFlightDrivers[] = {
    FlightDriver::kPerTick, FlightDriver::kWarped, FlightDriver::kLockstep,
    FlightDriver::kEpoch};

[[nodiscard]] std::string_view to_string(FlightDriver driver);

struct FlightOptions {
  /// Flight horizon in major time frames.
  Ticks mtfs{20};
  /// Fly inside a switched-TDMA-bus World with chatter peer modules
  /// exchanging frames across a switch hop: validates that the verdicts
  /// survive network load on the shared world (temporal isolation). The
  /// Module drivers then map onto world drivers (warp off/on).
  bool switched_bus{false};
};

/// Rebuild the PST the analyzer ruled on -- the exact prepare() path of
/// BatchAnalyzer (explicit windows validated, else EDF generation).
/// nullopt = infeasible (nothing to fly).
[[nodiscard]] std::optional<model::Schedule> build_schedule(
    const model::Candidate& candidate);

/// Runnable module for a candidate: each modelled process becomes
/// compute(wcet - 1) + PERIODIC_WAIT (the completing service call costs the
/// final tick -- the WCET idiom the analysis models), deadline misses are
/// HM-ignored so the flight keeps going while the trace records them.
[[nodiscard]] ModuleConfig flight_config(const model::Candidate& candidate,
                                         const model::Schedule& schedule);

/// Fly `candidate` under one driver; returns the deadline-miss count
/// recorded by the candidate module's trace.
[[nodiscard]] std::uint64_t fly_candidate(const model::Candidate& candidate,
                                          const model::Schedule& schedule,
                                          FlightDriver driver,
                                          const FlightOptions& options = {});

struct DifferentialOptions {
  /// Sample caps (evenly strided over the population, deterministic).
  std::size_t max_accepted{16};
  std::size_t max_rejected{8};
  Ticks accepted_mtfs{20};
  /// Longer horizon for rejects: the predicted miss may need backlog.
  Ticks rejected_mtfs{40};
  bool switched_bus{false};
};

struct DifferentialReport {
  std::uint64_t accepted_population{0};  // schedulable verdicts in the batch
  std::uint64_t rejected_population{0};  // definite rejects in the batch
  std::uint64_t accepted_flown{0};
  std::uint64_t rejected_flown{0};
  std::uint64_t flights{0};  // individual (candidate, driver) runs
  /// One line per violated claim, naming candidate, driver and miss count
  /// (the reproducer: candidate id + driver fully determine the flight).
  std::vector<std::string> divergences;
  /// Candidate ids behind `divergences`, for reproducer export.
  std::vector<std::uint64_t> divergent_ids;

  [[nodiscard]] bool ok() const { return divergences.empty(); }
  [[nodiscard]] std::string to_text() const;
};

/// Fly the differential oracle over a batch: `verdicts` must be the
/// index-aligned output of BatchAnalyzer::analyze on `candidates`.
[[nodiscard]] DifferentialReport validate_differential(
    const std::vector<model::Candidate>& candidates,
    const std::vector<model::BatchVerdict>& verdicts,
    const DifferentialOptions& options = {});

struct SelftestReport {
  std::uint64_t candidates{0};
  /// Accepted by the mutated analysis, definitely rejected by the sound one.
  std::uint64_t flipped{0};
  std::uint64_t flown{0};
  std::uint64_t divergent{0};  // flipped candidates that missed in flight

  /// The mutation was detected: some unsoundly-accepted candidate actually
  /// missed its deadline in flight.
  [[nodiscard]] bool caught() const { return flipped > 0 && divergent > 0; }
  [[nodiscard]] std::string to_text() const;
};

/// Mutation self-test (air-schedule --selftest): run the batch pipeline
/// with a deliberately unsound analysis (claims `supply_bonus` free ticks
/// of supply in every inversion) and verify differential flight validation
/// flags the divergence.
[[nodiscard]] SelftestReport schedulability_selftest(std::size_t count = 96,
                                                     std::uint64_t seed = 7);

}  // namespace air::system
