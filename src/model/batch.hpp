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
// Three mechanisms carry the throughput (BENCH_schedulability.json):
//
//  - PST memo. Candidate streams share requirement sets heavily (an
//    integrator explores process placements under few window designs), so
//    each distinct PST -- keyed by the raw integers of (mtf, requirements,
//    windows), never the candidate name -- is generated or validated once
//    per analyzer. A candidate points at its entry, which holds the
//    Schedule or the infeasible binding, the utilisation and each
//    partition's supply-cache index. Stats::psts_built counts the builds.
//
//  - Supply cache. The next repeated cost is PartitionSupply construction
//    -- O(MTF) prefix, rank and gap-start arrays per (window set,
//    partition) -- so supplies are interned in a cache keyed by the
//    canonicalised window set, with hit/miss Stats mirroring
//    util::StringArena::Stats. Distinct PSTs can still share a supply.
//
//  - Fan-out. Per-candidate analyses are independent, so they run over a
//    util::WorkerPool, whose caller is one of the lanes. Determinism
//    contract: the verdict stream and the stats are byte-identical for any
//    worker count. Results land in pre-assigned slots, and analyze() runs
//    in phases separated by pool barriers:
//      1. serial: intern PST keys in candidate order;
//      2. parallel: build the new PSTs;
//      3. parallel: bind each candidate to its PST;
//      4. serial: intern supply keys in candidate order;
//      5. parallel: build the new supplies;
//      6. parallel: response-time analysis per candidate.
//    Every memo and cache write happens in a serial phase or in an entry
//    that only one lane owns, so no outcome depends on thread interleaving.
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
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "model/generator.hpp"
#include "model/schedulability.hpp"
#include "model/validation.hpp"
#include "telemetry/metrics.hpp"
#include "util/worker_pool.hpp"

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
  /// Worker lanes: 1 = inline on the caller, N = up to N concurrent lanes
  /// (the caller plus N - 1 pool threads), 0 = one per hardware thread.
  std::size_t workers{1};
  /// Build each distinct PST once and intern PartitionSupply objects by
  /// canonical window set. Off = the one-at-a-time baseline the bench
  /// compares against.
  bool memoise{true};
  AnalysisOptions analysis{Phasing::kMtfAligned, 0};
};

class BatchAnalyzer {
 public:
  explicit BatchAnalyzer(BatchOptions options = {});
  ~BatchAnalyzer();

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
  [[nodiscard]] const BatchOptions& options() const { return options_; }

  /// Publish the running totals into a metrics registry (the batch.*
  /// catalogue rows); air-schedule exports the result via telemetry JSON.
  void publish(telemetry::MetricsRegistry& registry) const;

 private:
  struct Pst;   // one memoised PST and its supply indices (batch.cpp)
  struct Slot;  // per-candidate working state (batch.cpp)
  static constexpr std::size_t kUnresolved = static_cast<std::size_t>(-1);

  [[nodiscard]] static Pst build_pst(const Candidate& candidate);
  void bind(const Candidate& candidate, Slot& slot) const;
  void finish(Slot& slot) const;

  BatchOptions options_;
  util::WorkerPool pool_;
  Stats stats_;
  // Both maps are written only in analyze()'s serial phases (see the
  // header comment), so the parallel phases read them without a lock.
  // Raw (mtf, requirements, windows) key -> index into psts_. Unused, and
  // psts_ emptied after each call, when options_.memoise is off.
  std::unordered_map<std::string, std::size_t> psts_memo_;
  std::vector<Pst> psts_;
  // Canonical window-set key -> index into supplies_.
  std::unordered_map<std::string, std::size_t> cache_;
  std::vector<std::unique_ptr<const PartitionSupply>> supplies_;
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
