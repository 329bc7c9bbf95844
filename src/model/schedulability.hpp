// Schedulability analysis for processes under two-level TSP scheduling.
//
// The paper lays the ground for this analysis (Sect. 1: "lays the ground for
// schedulability analysis and automated aids") and lists necessary conditions
// for *partition* scheduling (eqs. 21-23). This module adds the process-level
// analysis the paper cites as future work (i): a supply-bound-function /
// response-time analysis of the fixed-priority process sets inside each
// partition, given the exact time windows of a PST.
//
// A PartitionSupply holds O(MTF) state: the prefix sums of the partition's
// available ticks, the tick of each available rank and the gap starts (the
// unavailable ticks that follow an available one). A worst-case interval
// starts at a gap start, so the sbf is the least supply from a gap start
// and its inverse the longest wait from one; no sbf table is kept.
#pragma once

#include <string>
#include <vector>

#include "model/model.hpp"

namespace air::model {

/// Worst-case processor supply delivered to one partition by one PST.
class PartitionSupply {
 public:
  PartitionSupply(const Schedule& schedule, PartitionId partition);

  /// Execution time available to the partition in [t0, t0 + len), with the
  /// window pattern repeating every MTF (t0 in absolute ticks).
  [[nodiscard]] Ticks supply(Ticks t0, Ticks len) const;

  /// Supply bound function: least supply over any interval of length
  /// `len`, the minimum of supply(g, len) over the gap starts g. O(G).
  [[nodiscard]] Ticks sbf(Ticks len) const;

  /// Smallest interval length whose worst-case supply reaches `demand`;
  /// kInfiniteTime when the partition has no window time at all. O(G): the
  /// maximum of inverse_supply_from(g, demand) over the gap starts g, exact
  /// because each supply(g, .) is non-decreasing, so sbf reaches `demand`
  /// exactly when every one of them has.
  [[nodiscard]] Ticks inverse_sbf(Ticks demand) const;

  /// Smallest interval length starting at absolute phase `phase` whose
  /// supply reaches `demand` (phase-aware variant used by the MTF-aligned
  /// analysis); kInfiniteTime when unreachable. O(1): the interval ends
  /// just past the (supply(0, phase) + demand)-th available tick, read
  /// from the rank table under periodic extension.
  [[nodiscard]] Ticks inverse_supply_from(Ticks phase, Ticks demand) const;

  /// Partition time per MTF (the A above).
  [[nodiscard]] Ticks per_mtf() const { return per_mtf_; }
  [[nodiscard]] Ticks mtf() const { return mtf_; }

  /// Bytes this supply holds: the object and its three arrays.
  [[nodiscard]] std::size_t bytes() const {
    return sizeof *this + (prefix_.size() + tick_of_rank_.size() +
                           gap_starts_.size()) * sizeof(Ticks);
  }

 private:
  Ticks mtf_{0};
  Ticks per_mtf_{0};
  std::vector<Ticks> prefix_;  // prefix_[t] = supply in [0, t)
  // tick_of_rank_[k] = the k-th available tick of the MTF, k in [0, A).
  std::vector<Ticks> tick_of_rank_;
  // Ticks in [0, MTF) where a gap starts; {0} when the partition is always
  // or never free, where every phase is alike.
  std::vector<Ticks> gap_starts_;
};

struct ProcessAnalysis {
  std::string name;
  Ticks wcrt{0};  // worst-case response time; kInfiniteTime if unbounded
  bool schedulable{false};
};

struct PartitionAnalysis {
  PartitionId partition;
  bool schedulable{false};
  double process_utilisation{0.0};  // sum C/T
  double supply_ratio{0.0};         // partition time per MTF / MTF
  /// Long-run demand strictly exceeds long-run supply by a safety margin
  /// (process_utilisation > kOverloadMargin * supply_ratio): the verdict is
  /// not merely conservative, a deadline miss is guaranteed in any
  /// sufficiently long flight. The differential oracle's necessity check
  /// samples exactly these (analysis-rejected => the flight must miss).
  bool overloaded{false};
  std::vector<ProcessAnalysis> processes;
};

struct SystemAnalysis {
  ScheduleId schedule;
  bool schedulable{false};
  std::vector<PartitionAnalysis> partitions;

  [[nodiscard]] std::string to_text() const;
};

/// Release phasing assumed by the analysis.
///
/// kWorstCase bounds the response time over *any* release instant (the
/// classical supply-bound analysis) -- sound but pessimistic for deadlines
/// shorter than the window recurrence. kMtfAligned assumes every process
/// releases at multiples of its period from the MTF origin, which is how
/// ARINC 653 periodic processes started at NORMAL-mode entry behave; the
/// response time is then maximised over the process's distinct release
/// offsets within the hyperperiod.
enum class Phasing { kWorstCase, kMtfAligned };

/// Demand/supply ratio above which a partition is declared `overloaded`
/// (guaranteed to miss in flight, not merely analysis-rejected). The 10%
/// margin keeps the necessity oracle's time-to-first-miss within a few MTFs.
inline constexpr double kOverloadMargin = 1.1;

/// Knobs threaded through the batch service. `supply_bonus` pretends every
/// interval supplies that many extra ticks -- UNSOUND for any value > 0; it
/// exists solely as the deliberately broken analysis variant behind
/// `air-schedule --selftest` (the fi campaign's --weaken-hm idiom), proving
/// the differential flight oracle can detect an optimistic analyzer.
struct AnalysisOptions {
  Phasing phasing{Phasing::kWorstCase};
  Ticks supply_bonus{0};
};

/// Fixed-priority preemptive response-time analysis of `partition`'s process
/// set under `schedule`. Ties in priority are treated as mutual interference
/// (conservative w.r.t. the FIFO-within-priority rule of eq. 14).
[[nodiscard]] PartitionAnalysis analyze_partition(
    const Schedule& schedule, const PartitionModel& partition,
    Phasing phasing = Phasing::kWorstCase);

/// Core analysis over a caller-provided supply function -- the entry point
/// the batch service uses so one memoised PartitionSupply (O(MTF) to build)
/// can serve every candidate sharing the same canonical window set.
/// `supply` must describe `partition.id` under `schedule`.
[[nodiscard]] PartitionAnalysis analyze_partition(
    const Schedule& schedule, const PartitionModel& partition,
    const PartitionSupply& supply, const AnalysisOptions& options = {});

/// Analysis of every partition that owns windows in `schedule`.
[[nodiscard]] SystemAnalysis analyze_system(
    const SystemModel& system, ScheduleId schedule,
    Phasing phasing = Phasing::kWorstCase);

}  // namespace air::model
