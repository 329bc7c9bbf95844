#include "model/schedulability.hpp"

#include <algorithm>
#include <sstream>

#include "util/assert.hpp"

namespace air::model {

PartitionSupply::PartitionSupply(const Schedule& schedule,
                                 PartitionId partition)
    : mtf_(schedule.mtf) {
  AIR_ASSERT(mtf_ > 0);
  std::vector<char> available(static_cast<std::size_t>(mtf_), 0);
  for (const Window& w : schedule.windows) {
    if (w.partition != partition) continue;
    AIR_ASSERT_MSG(w.offset >= 0, "window offset must not be negative");
    AIR_ASSERT_MSG(w.duration >= 0, "window duration must not be negative");
    for (Ticks t = w.offset; t < w.offset + w.duration && t < mtf_; ++t) {
      available[static_cast<std::size_t>(t)] = 1;
    }
  }

  prefix_.assign(static_cast<std::size_t>(mtf_) + 1, 0);
  for (Ticks t = 0; t < mtf_; ++t) {
    const auto i = static_cast<std::size_t>(t);
    prefix_[i + 1] = prefix_[i] + available[i];
    if (available[i] != 0) tick_of_rank_.push_back(t);
  }
  per_mtf_ = prefix_[static_cast<std::size_t>(mtf_)];

  // sbf over one MTF. supply(t0, len) never grows as t0 slides forward off
  // an available tick or back over an unavailable one, so a gap start wins.
  std::vector<Ticks> gap_starts;
  for (Ticks t = 0; t < mtf_; ++t) {
    const Ticks before = t == 0 ? mtf_ - 1 : t - 1;
    if (available[static_cast<std::size_t>(t)] == 0 &&
        available[static_cast<std::size_t>(before)] == 1) {
      gap_starts.push_back(t);
    }
  }
  if (gap_starts.empty()) gap_starts.push_back(0);  // always or never free
  // supply(g, len) for g < MTF and len <= MTF: the interval wraps past the
  // MTF end at most once, so it needs none of supply()'s divisions.
  const auto from_gap = [this](Ticks g, Ticks len) {
    const Ticks end = g + len;
    const Ticks upto =
        end <= mtf_ ? prefix_[static_cast<std::size_t>(end)]
                    : per_mtf_ + prefix_[static_cast<std::size_t>(end - mtf_)];
    return upto - prefix_[static_cast<std::size_t>(g)];
  };
  sbf_table_.assign(static_cast<std::size_t>(mtf_) + 1, 0);
  inverse_sbf_table_.assign(static_cast<std::size_t>(per_mtf_) + 1, 0);
  for (Ticks len = 1; len <= mtf_; ++len) {
    const auto i = static_cast<std::size_t>(len);
    Ticks least = len;  // supply can never exceed the interval length
    for (const Ticks g : gap_starts) {
      least = std::min(least, from_gap(g, len));
    }
    sbf_table_[i] = least;
    // sbf is non-decreasing and steps by at most one, so the first length
    // at which it rises is the least one reaching the new value.
    if (least > sbf_table_[i - 1]) {
      inverse_sbf_table_[static_cast<std::size_t>(least)] = len;
    }
  }
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
  const Ticks full = len / mtf_;
  const Ticks rest = len % mtf_;
  return full * per_mtf_ + sbf_table_[static_cast<std::size_t>(rest)];
}

Ticks PartitionSupply::inverse_sbf(Ticks demand) const {
  if (demand <= 0) return 0;
  if (per_mtf_ <= 0) return kInfiniteTime;
  // sbf(q*MTF + r) = q*A + sbf(r): whole MTFs supply the first q*A ticks,
  // and the table finds the rest, 1..A, within the next MTF.
  const Ticks q = (demand - 1) / per_mtf_;
  return q * mtf_ +
         inverse_sbf_table_[static_cast<std::size_t>(demand - q * per_mtf_)];
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

/// Interference demand of higher-or-equal-priority processes over an
/// interval of length t, plus the process's own WCET.
Ticks demand(const std::vector<const ProcessModel*>& interferers,
             const ProcessModel& self, Ticks t) {
  Ticks total = self.wcet;
  for (const ProcessModel* p : interferers) {
    AIR_ASSERT(p->period > 0);
    total += ((t + p->period - 1) / p->period) * p->wcet;
  }
  return total;
}

/// Fixed-point response-time iteration using `invert` as the inverse supply
/// function. Returns kInfiniteTime when no fixpoint exists within `bound`.
template <class InvertFn>
Ticks response_time(const std::vector<const ProcessModel*>& interferers,
                    const ProcessModel& self, Ticks bound, InvertFn invert) {
  Ticks t = invert(self.wcet);
  while (t != kInfiniteTime && t <= bound) {
    const Ticks next = invert(demand(interferers, self, t));
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
  const auto debit = [bonus](Ticks demanded) {
    return demanded > bonus ? demanded - bonus : 0;
  };

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

  for (std::size_t q = 0; q < partition.processes.size(); ++q) {
    const ProcessModel& self = partition.processes[q];
    ProcessAnalysis pa;
    pa.name = self.name;

    if (self.wcet <= 0) {
      pa.wcrt = 0;
      pa.schedulable = true;
      result.processes.push_back(std::move(pa));
      continue;
    }

    // Interference set: strictly higher priority always interferes; equal
    // priority interferes conservatively (FIFO order not assumed).
    std::vector<const ProcessModel*> interferers;
    for (std::size_t j = 0; j < partition.processes.size(); ++j) {
      if (j == q) continue;
      const ProcessModel& other = partition.processes[j];
      if (other.wcet <= 0 || other.period <= 0) continue;
      if (other.priority <= self.priority) interferers.push_back(&other);
    }

    // Fixed-point iteration: t_{k+1} = inverse-supply(demand(t_k)).
    const Ticks bound =
        self.deadline != kInfiniteTime ? self.deadline : 64 * schedule.mtf;
    Ticks wcrt;
    if (phasing == Phasing::kWorstCase || self.period <= 0 ||
        self.period == kInfiniteTime) {
      wcrt = response_time(interferers, self, bound, [&](Ticks x) {
        return supply.inverse_sbf(debit(x));
      });
    } else {
      // MTF-aligned releases: maximise over the process's distinct release
      // offsets within the schedule hyperperiod.
      const Ticks hyper = lcm(self.period, schedule.mtf);
      wcrt = 0;
      for (Ticks release = 0; release < hyper; release += self.period) {
        const Ticks phase = release % schedule.mtf;
        const Ticks r =
            response_time(interferers, self, bound, [&](Ticks x) {
              return supply.inverse_supply_from(phase, debit(x));
            });
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
    result.processes.push_back(std::move(pa));
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
