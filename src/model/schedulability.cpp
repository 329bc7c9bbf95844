#include "model/schedulability.hpp"

#include <algorithm>
#include <sstream>

#include "util/assert.hpp"

namespace air::model {

PartitionSupply::PartitionSupply(const Schedule& schedule,
                                 PartitionId partition)
    : mtf_(schedule.mtf) {
  AIR_ASSERT(mtf_ > 0);
  // prefix_[t + 1] first marks tick t available, then becomes the running
  // sum.
  prefix_.assign(static_cast<std::size_t>(mtf_) + 1, 0);
  for (const Window& w : schedule.windows) {
    if (w.partition != partition) continue;
    AIR_ASSERT_MSG(w.offset >= 0, "window offset must not be negative");
    AIR_ASSERT_MSG(w.duration >= 0, "window duration must not be negative");
    if (w.offset >= mtf_) continue;
    const Ticks end = w.offset + std::min(w.duration, mtf_ - w.offset);
    for (Ticks t = w.offset; t < end; ++t) {
      prefix_[static_cast<std::size_t>(t) + 1] = 1;
    }
  }
  const auto available = [this](Ticks t) {
    return prefix_[static_cast<std::size_t>(t) + 1] -
           prefix_[static_cast<std::size_t>(t)];
  };
  for (std::size_t i = 1; i < prefix_.size(); ++i) prefix_[i] += prefix_[i - 1];
  per_mtf_ = prefix_.back();

  tick_of_rank_.reserve(static_cast<std::size_t>(per_mtf_));
  for (Ticks t = 0; t < mtf_; ++t) {
    if (available(t) != 0) tick_of_rank_.push_back(t);
    // A gap starts where an unavailable tick follows an available one.
    if (available(t) == 0 && available(t == 0 ? mtf_ - 1 : t - 1) != 0) {
      gap_starts_.push_back(t);
    }
  }
  // Always or never free: every phase is as bad as any other.
  if (gap_starts_.empty()) gap_starts_.push_back(0);
}

Ticks PartitionSupply::supply(Ticks t0, Ticks len) const {
  AIR_ASSERT(t0 >= 0 && len >= 0);
  const auto whole = [this](Ticks upto) {
    // supply in [0, upto) under periodic extension of the MTF pattern
    const Ticks full = upto / mtf_;
    const Ticks rest = upto % mtf_;
    return full * per_mtf_ + prefix_[static_cast<std::size_t>(rest)];
  };
  return whole(t0 + len) - whole(t0);
}

Ticks PartitionSupply::sbf(Ticks len) const {
  if (len <= 0) return 0;
  Ticks least = len;  // supply can never exceed the interval length
  for (const Ticks g : gap_starts_) least = std::min(least, supply(g, len));
  return least;
}

Ticks PartitionSupply::inverse_sbf(Ticks demand) const {
  if (demand <= 0) return 0;
  if (per_mtf_ <= 0) return kInfiniteTime;
  // sbf(len) >= demand exactly when every gap start's supply has reached
  // demand by len, and each of those supplies is non-decreasing in len.
  Ticks longest = 0;
  for (const Ticks g : gap_starts_) {
    longest = std::max(longest, inverse_supply_from(g, demand));
  }
  return longest;
}

Ticks PartitionSupply::inverse_supply_from(Ticks phase, Ticks demand) const {
  if (demand <= 0) return 0;
  if (per_mtf_ <= 0) return kInfiniteTime;
  // The interval must end just past the available tick of rank
  // supply(0, phase) + demand, counted over the periodic extension.
  const Ticks rank = supply(0, phase) + demand - 1;  // 0-based
  const Ticks q = rank / per_mtf_;
  const Ticks tick =
      q * mtf_ + tick_of_rank_[static_cast<std::size_t>(rank - q * per_mtf_)];
  return tick + 1 - phase;
}

namespace {

/// Demand of process `q` over an interval of length t > 0: its own WCET
/// plus the jobs its interferers release in the interval. Strictly higher
/// priority always interferes; equal priority does conservatively (FIFO
/// order not assumed). An infinite period releases one job. Stops summing
/// once the total passes `limit`, which keeps the sum in range.
Ticks demand(const std::vector<ProcessModel>& processes, std::size_t q,
             Ticks t, Ticks limit) {
  const ProcessModel& self = processes[q];
  Ticks total = self.wcet;
  for (std::size_t j = 0; j < processes.size() && total <= limit; ++j) {
    const ProcessModel& other = processes[j];
    if (j == q || other.wcet <= 0 || other.period <= 0 ||
        other.priority > self.priority) {
      continue;
    }
    total += other.period == kInfiniteTime
                 ? other.wcet
                 : ((t + other.period - 1) / other.period) * other.wcet;
  }
  return total;
}

/// Fixed-point response-time iteration of process `q`, t <- invert(demand(t))
/// with `invert` an inverse supply function, each demand first reduced by
/// the selftest's `bonus`. Returns kInfiniteTime when no fixpoint exists
/// within `bound`. Supply never outruns time, so a demand above
/// bound + bonus cannot be met within the bound: it ends the iteration
/// before the inverse runs, which keeps the inverse's arithmetic in range.
template <class InvertFn>
Ticks response_time(const std::vector<ProcessModel>& processes, std::size_t q,
                    Ticks bound, Ticks bonus, InvertFn invert) {
  const Ticks limit = std::min(bound, kInfiniteTime - bonus) + bonus;
  const auto settle = [&](Ticks demanded) {
    if (demanded > limit) return kInfiniteTime;
    return invert(demanded > bonus ? demanded - bonus : 0);
  };
  Ticks t = settle(processes[q].wcet);
  while (t != kInfiniteTime && t <= bound) {
    const Ticks next = settle(demand(processes, q, t, limit));
    if (next == t) return t;
    t = next;
  }
  return kInfiniteTime;
}

}  // namespace

PartitionAnalysis analyze_partition(const Schedule& schedule,
                                    const PartitionModel& partition,
                                    Phasing phasing) {
  const PartitionSupply supply(schedule, partition.id);
  return analyze_partition(schedule, partition, supply,
                           AnalysisOptions{phasing, 0});
}

PartitionAnalysis analyze_partition(const Schedule& schedule,
                                    const PartitionModel& partition,
                                    const PartitionSupply& supply,
                                    const AnalysisOptions& options) {
  const Phasing phasing = options.phasing;
  // The selftest mutation: claim `bonus` extra ticks of supply in every
  // interval by shrinking the demand handed to the inverse functions.
  const Ticks bonus = options.supply_bonus;

  PartitionAnalysis result;
  result.partition = partition.id;
  result.schedulable = true;

  result.supply_ratio =
      static_cast<double>(supply.per_mtf()) /
      static_cast<double>(schedule.mtf);

  for (const ProcessModel& p : partition.processes) {
    if (p.period > 0 && p.period != kInfiniteTime && p.wcet > 0) {
      result.process_utilisation +=
          static_cast<double>(p.wcet) / static_cast<double>(p.period);
    }
  }
  result.overloaded =
      result.process_utilisation > kOverloadMargin * result.supply_ratio;

  result.processes.reserve(partition.processes.size());
  for (std::size_t q = 0; q < partition.processes.size(); ++q) {
    const ProcessModel& self = partition.processes[q];
    ProcessAnalysis& pa = result.processes.emplace_back();
    pa.name = self.name;

    if (self.wcet <= 0) {
      pa.wcrt = 0;
      pa.schedulable = true;
      continue;
    }

    // Fixed-point iteration: t_{k+1} = inverse-supply(demand(t_k)).
    const Ticks bound =
        self.deadline != kInfiniteTime ? self.deadline : 64 * schedule.mtf;
    Ticks wcrt;
    if (phasing == Phasing::kWorstCase || self.period <= 0 ||
        self.period == kInfiniteTime) {
      wcrt = response_time(partition.processes, q, bound, bonus,
                           [&](Ticks x) { return supply.inverse_sbf(x); });
    } else {
      // MTF-aligned releases: maximise over the process's distinct release
      // offsets within the schedule hyperperiod.
      const Ticks hyper = lcm(self.period, schedule.mtf);
      wcrt = 0;
      for (Ticks release = 0; release < hyper; release += self.period) {
        const Ticks phase = release % schedule.mtf;
        const Ticks r = response_time(
            partition.processes, q, bound, bonus,
            [&](Ticks x) { return supply.inverse_supply_from(phase, x); });
        if (r == kInfiniteTime) {
          wcrt = kInfiniteTime;
          break;
        }
        wcrt = std::max(wcrt, r);
      }
    }

    if (wcrt != kInfiniteTime) {
      pa.wcrt = wcrt;
      pa.schedulable =
          self.deadline == kInfiniteTime || wcrt <= self.deadline;
    } else {
      pa.wcrt = kInfiniteTime;
      pa.schedulable = false;
    }
    if (!pa.schedulable) result.schedulable = false;
  }
  return result;
}

SystemAnalysis analyze_system(const SystemModel& system, ScheduleId schedule,
                              Phasing phasing) {
  SystemAnalysis analysis;
  analysis.schedule = schedule;
  analysis.schedulable = true;
  const Schedule* sched = system.schedule(schedule);
  AIR_ASSERT_MSG(sched != nullptr, "unknown schedule id");
  for (const PartitionModel& partition : system.partitions) {
    if (sched->requirement_for(partition.id) == nullptr) continue;
    PartitionAnalysis pa = analyze_partition(*sched, partition, phasing);
    if (!pa.schedulable) analysis.schedulable = false;
    analysis.partitions.push_back(std::move(pa));
  }
  return analysis;
}

std::string SystemAnalysis::to_text() const {
  std::ostringstream os;
  os << "schedule " << schedule.value() << ": "
     << (schedulable ? "SCHEDULABLE" : "NOT SCHEDULABLE") << '\n';
  for (const auto& part : partitions) {
    os << "  partition " << part.partition.value()
       << " supply=" << part.supply_ratio
       << " util=" << part.process_utilisation
       << (part.schedulable ? "" : "  [unschedulable]") << '\n';
    for (const auto& proc : part.processes) {
      os << "    " << proc.name << " wcrt=";
      if (proc.wcrt == kInfiniteTime) {
        os << "unbounded";
      } else {
        os << proc.wcrt;
      }
      os << (proc.schedulable ? "" : "  [misses deadline]") << '\n';
    }
  }
  return os.str();
}

}  // namespace air::model
