// Schedulability-as-a-service: batch PST analysis (ROADMAP item 4).
//
// The paper frames its contribution as "laying the ground for
// schedulability analysis and automated aids" (Sect. 1); src/model's
// analyses (eqs. (1)-(24)) served one configuration at a time. This module
// turns them into a high-throughput batch service: thousands of candidate
// configurations go in, a deterministic verdict stream comes out --
// schedulable / unschedulable / infeasible, each verdict citing the binding
// equation.
//
// Two memos carry the throughput (BENCH_schedulability.json):
//
//  - PST memo. Candidate streams share requirement sets heavily (an
//    integrator explores process placements under few window designs), so
//    each distinct PST -- keyed by the raw integers of (mtf, requirements,
//    windows), never the candidate name -- is generated or validated once
//    per analyzer. A candidate points at its entry, which holds the
//    Schedule or the infeasible binding, the utilisation and each
//    partition's cached supply. Stats::psts_built counts the builds.
//
//  - Supply cache. The next repeated cost is PartitionSupply construction
//    -- O(MTF) prefix, rank and gap-start arrays per (window set,
//    partition) -- so supplies are interned in a cache keyed by the
//    canonicalised window set, with hit/miss Stats mirroring
//    util::StringArena::Stats. Distinct PSTs can still share a supply.
//
// analyze() is one pass in candidate order. For each candidate it interns
// the PST key (building the PST when the key is new), binds the verdict
// header, resolves each partition's supply through the memo entry and the
// cache (building it on a miss), and runs the eq. (14) response-time
// analysis. The memo and the cache are written in candidate order, so the
// verdict stream and every Stats field depend only on the candidates.
//
// With memoise off, both the memo and the supply cache are skipped: every
// candidate builds its own PST and supplies, the independent reference the
// memoised path must reproduce byte for byte.
//
// The loop is closed by src/system/flight_validate.hpp: accepted PSTs are
// actually flown in the simulator and the differential oracle asserts
// analysis-schedulable <=> zero deadline misses in flight.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "model/generator.hpp"
#include "model/schedulability.hpp"
#include "model/validation.hpp"
#include "telemetry/metrics.hpp"

namespace air::model {

/// One candidate configuration: per-partition timing requirements (and
/// optionally an explicit window set; when `windows` is empty the PST is
/// produced by the EDF generator) plus the process sets to analyse.
struct Candidate {
  std::uint64_t id{0};
  std::string name;
  /// Major time frame; 0 selects lcm of the requirement periods.
  Ticks mtf{0};
  std::vector<ScheduleRequirement> requirements;
  /// Explicit PST windows. Empty = generate from `requirements`.
  std::vector<Window> windows;
  std::vector<PartitionModel> partitions;
};

enum class Verdict : std::uint8_t {
  kSchedulable,    // every process meets its deadline (eq. (14) RTA)
  kUnschedulable,  // valid PST, but some process misses
  kInfeasible,     // no valid PST exists / windows violate eqs. (20)-(23)
};

[[nodiscard]] std::string_view to_string(Verdict verdict);

/// One line of the verdict stream.
struct BatchVerdict {
  std::uint64_t id{0};
  std::string name;
  Verdict verdict{Verdict::kInfeasible};
  /// The binding condition, citing the paper's equation: e.g. "eq. (21):
  /// windows overlap" for infeasible, "eq. (14): wcrt > D" for rejected.
  std::string binding;
  /// Unschedulable *and* guaranteed to miss in flight (long-run demand
  /// exceeds supply, PartitionAnalysis::overloaded) -- the sample set for
  /// the differential oracle's necessity check.
  bool definite{false};
  double utilisation{0.0};   // busy window time / MTF of the analysed PST
  Ticks worst_wcrt{0};       // max finite WCRT; -1 when some WCRT unbounded
  std::vector<PartitionAnalysis> partitions;  // empty for infeasible

  /// Deterministic single-line JSON (the NDJSON verdict stream).
  [[nodiscard]] std::string to_ndjson() const;
};

struct BatchOptions {
  /// Build each distinct PST once and intern PartitionSupply objects by
  /// canonical window set. Off = the one-at-a-time baseline the bench
  /// compares against.
  bool memoise{true};
  AnalysisOptions analysis{Phasing::kMtfAligned, 0};
};

class BatchAnalyzer {
 public:
  explicit BatchAnalyzer(BatchOptions options = {}) : options_(options) {}

  /// Analyse a batch; verdicts are index-aligned with `candidates`. May be
  /// called repeatedly (daemon mode): the PST memo, the supply cache and
  /// the running totals persist across calls.
  [[nodiscard]] std::vector<BatchVerdict> analyze(
      const std::vector<Candidate>& candidates);

  struct CacheStats {
    std::uint64_t lookups{0};  // (candidate, partition) supply resolutions
    std::uint64_t hits{0};     // resolved to an already-built supply
    std::uint64_t misses{0};   // supplies actually constructed
    std::size_t entries{0};    // live cached supplies
    std::size_t bytes{0};      // PartitionSupply::bytes() summed
  };
  struct Stats {
    std::uint64_t analyzed{0};
    std::uint64_t schedulable{0};
    std::uint64_t unschedulable{0};
    std::uint64_t infeasible{0};
    /// PSTs generated or validated: one per distinct (mtf, requirements,
    /// windows) when memoising, one per candidate otherwise.
    std::uint64_t psts_built{0};
    CacheStats cache;
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

  /// Publish the running totals into a metrics registry (the batch.*
  /// catalogue rows); air-schedule exports the result via telemetry JSON.
  void publish(telemetry::MetricsRegistry& registry) const;

 private:
  /// One distinct PST, shared by every candidate with the same (mtf,
  /// requirements, windows).
  struct Pst {
    std::optional<Schedule> schedule;  // nullopt = infeasible
    std::string binding;               // the infeasible binding
    double utilisation{0.0};           // of the schedule, when feasible
    // Per schedule requirement: null until some candidate analyses it.
    std::vector<const PartitionSupply*> supplies;
  };

  [[nodiscard]] static Pst build_pst(const Candidate& candidate);
  [[nodiscard]] BatchVerdict analyze_one(const Candidate& candidate);
  [[nodiscard]] const PartitionSupply& cached_supply(Pst& pst,
                                                     std::size_t req);

  BatchOptions options_;
  Stats stats_;
  // Both stay empty when options_.memoise is off. Nodes never move, so a
  // Pst may point into cache_.
  // Raw (mtf, requirements, windows) key -> its PST.
  std::unordered_map<std::string, Pst> psts_;
  // Canonical window-set key -> its supply.
  std::unordered_map<std::string, PartitionSupply> cache_;
};

/// Deterministic candidate-stream generator (the "automated aids" feed).
/// Streams mix schedulable, definitely-overloaded and infeasible
/// candidates, and share requirement sets across candidates (an integrator
/// exploring process placements under few window designs) so the supply
/// cache has realistic reuse.
struct CandidateSpec {
  std::size_t count{256};
  std::uint64_t seed{42};
  /// Distinct requirement sets feeding the stream; 0 = count / 8 (min 1).
  std::size_t distinct_psts{0};
  /// Fraction of candidates whose process set overloads one partition
  /// (definite unschedulable -- the necessity-check population).
  double overload_fraction{0.25};
  /// Fraction of requirement sets with utilisation > 1 (infeasible).
  double infeasible_fraction{0.1};
};

[[nodiscard]] std::vector<Candidate> generate_candidates(
    const CandidateSpec& spec);

}  // namespace air::model
