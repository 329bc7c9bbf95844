#include "model/batch.hpp"

#include <algorithm>
#include <charconv>
#include <cstring>

#include "util/json.hpp"
#include "util/rng.hpp"

namespace air::model {

namespace {

/// Binding-equation citation for an infeasibility class (the verdict
/// stream's contract: every rejection names the violated condition).
[[nodiscard]] std::string_view binding_for(ViolationKind kind) {
  switch (kind) {
    case ViolationKind::kWindowPartitionUnknown:
      return "eq. (20): window partition not in Q";
    case ViolationKind::kWindowsOverlap:
      return "eq. (21): windows overlap";
    case ViolationKind::kWindowExceedsMtf:
      return "eq. (21): window exceeds the MTF";
    case ViolationKind::kMtfNotMultipleOfLcm:
      return "eq. (22): MTF not a multiple of the cycle lcm";
    case ViolationKind::kCycleDurationUnmet:
      return "eq. (23): cycle duration unmet";
    case ViolationKind::kDurationExceedsPeriod:
      return "eq. (19): duration exceeds period";
    case ViolationKind::kPeriodNotDivisorOfMtf:
      return "eq. (23): period does not divide the MTF";
    case ViolationKind::kRequirementWithoutWindow:
      return "eq. (23): requirement without a window";
    case ViolationKind::kWindowCrossesCycle:
      return "eq. (23): window crosses a cycle boundary";
    case ViolationKind::kNonPositiveField:
      return "eq. (19): non-positive field";
  }
  return "eq. (20)-(23)";
}

/// Binding of a candidate whose MTF exceeds kMaxMtf: an analysis limit,
/// not a paper equation, so it names the bound instead.
[[nodiscard]] std::string mtf_bound_binding() {
  return "MTF exceeds the analysable bound of " + std::to_string(kMaxMtf) +
         " ticks";
}

/// Binding of a candidate with a process timing field beyond
/// kMaxProcessTicks; like the MTF bound, it names the limit.
[[nodiscard]] std::string process_bound_binding(std::string_view field) {
  return "process " + std::string{field} +
         " exceeds the analysable bound of " +
         std::to_string(kMaxProcessTicks) + " ticks";
}

/// The first of period, deadline and WCET (in that order) that some
/// process of `candidate` holds beyond kMaxProcessTicks, or empty. An
/// infinite period or deadline is in range.
[[nodiscard]] std::string_view field_out_of_bound(const Candidate& candidate) {
  const auto beyond = [](Ticks t) {
    return t != kInfiniteTime && t > kMaxProcessTicks;
  };
  for (const PartitionModel& pm : candidate.partitions) {
    for (const ProcessModel& p : pm.processes) {
      if (beyond(p.period)) return "period";
      if (beyond(p.deadline)) return "deadline";
      if (p.wcet > kMaxProcessTicks) return "wcet";
    }
  }
  return {};
}

/// Canonical supply-cache key: the partition's window set modulo schedule
/// identity. Two schedules granting the same (offset, duration) pattern
/// over the same MTF share one supply.
[[nodiscard]] std::string supply_key(const Schedule& schedule,
                                     PartitionId partition) {
  std::string key = 'm' + std::to_string(schedule.mtf) + '|';
  for (const Window& w : schedule.windows) {
    if (w.partition != partition) continue;
    key += std::to_string(w.offset);
    key += '+';
    key += std::to_string(w.duration);
    key += ',';
  }
  return key;
}

/// PST memo key: the raw integers of everything the PST is built from --
/// mtf, requirements, then windows -- but not the candidate's name, which
/// never reaches the analysis.
[[nodiscard]] std::string pst_key(const Candidate& candidate) {
  std::string key;
  key.reserve(sizeof(std::int64_t) *
              (2 + 3 * (candidate.requirements.size() +
                        candidate.windows.size())));
  const auto put = [&key](std::int64_t value) {
    char bytes[sizeof value];
    std::memcpy(bytes, &value, sizeof value);
    key.append(bytes, sizeof value);
  };
  put(candidate.mtf);
  put(static_cast<std::int64_t>(candidate.requirements.size()));
  for (const ScheduleRequirement& r : candidate.requirements) {
    put(r.partition.value());
    put(r.period);
    put(r.duration);
  }
  for (const Window& w : candidate.windows) {
    put(w.partition.value());
    put(w.offset);
    put(w.duration);
  }
  return key;
}

}  // namespace

std::string_view to_string(Verdict verdict) {
  switch (verdict) {
    case Verdict::kSchedulable: return "schedulable";
    case Verdict::kUnschedulable: return "unschedulable";
    case Verdict::kInfeasible: return "infeasible";
  }
  return "?";
}

std::string BatchVerdict::to_ndjson() const {
  // The keys, the verdict and the three numbers take at most 155 bytes;
  // only escapes in the two strings can outgrow the reserve.
  std::string line;
  line.reserve(160 + name.size() + binding.size());
  char buf[32];
  const auto put = [&line, &buf](std::to_chars_result r) {
    line.append(buf, r.ptr);
  };
  line += "{\"id\":";
  put(std::to_chars(buf, buf + sizeof buf, id));
  line += ",\"name\":";
  util::json::append_string(line, name);
  line += ",\"verdict\":\"";
  line += to_string(verdict);
  line += "\",\"binding\":";
  util::json::append_string(line, binding);
  line += definite ? ",\"definite\":true" : ",\"definite\":false";
  line += ",\"utilisation\":";
  // to_chars with general format and a precision is defined as printf's
  // %.6g, the stream's utilisation format.
  put(std::to_chars(buf, buf + sizeof buf, utilisation,
                    std::chars_format::general, 6));
  line += ",\"worst_wcrt\":";
  put(std::to_chars(buf, buf + sizeof buf, worst_wcrt));
  line += '}';
  return line;
}

BatchAnalyzer::Pst BatchAnalyzer::build_pst(const Candidate& candidate) {
  Pst pst;
  const auto infeasible = [&pst](std::string binding) {
    pst.binding = std::move(binding);
    return std::move(pst);
  };

  if (candidate.windows.empty()) {
    // Mirror the generator's rejection order so the verdict can cite the
    // actual binding condition instead of a bare "construction failed".
    for (const ScheduleRequirement& req : candidate.requirements) {
      if (req.period <= 0 || req.duration < 0) {
        return infeasible(std::string{
            binding_for(ViolationKind::kNonPositiveField)});
      }
      if (req.duration > req.period) {
        return infeasible(std::string{
            binding_for(ViolationKind::kDurationExceedsPeriod)});
      }
    }
    const Ticks period_lcm = lcm_of_periods(candidate.requirements);
    if (period_lcm <= 0) {
      return infeasible(
          std::string{binding_for(ViolationKind::kNonPositiveField)});
    }
    if ((candidate.mtf > 0 ? candidate.mtf : period_lcm) > kMaxMtf) {
      return infeasible(mtf_bound_binding());
    }
    if (candidate.mtf > 0 && candidate.mtf % period_lcm != 0) {
      return infeasible(
          std::string{binding_for(ViolationKind::kMtfNotMultipleOfLcm)});
    }
    if (requirement_utilisation(candidate.requirements) > 1.0) {
      return infeasible("eq. (8): total utilisation exceeds 1");
    }
    GeneratorInput input;
    input.requirements = candidate.requirements;
    input.mtf = candidate.mtf;
    pst.schedule = generate_schedule(input);
    if (!pst.schedule.has_value()) {
      return infeasible("eq. (23): EDF found no feasible window layout");
    }
  } else {
    Schedule schedule;
    schedule.id = ScheduleId{0};
    schedule.mtf = candidate.mtf > 0
                       ? candidate.mtf
                       : lcm_of_periods(candidate.requirements);
    schedule.requirements = candidate.requirements;
    schedule.windows = candidate.windows;
    std::sort(schedule.windows.begin(), schedule.windows.end(),
              [](const Window& a, const Window& b) {
                return a.offset < b.offset;
              });
    if (schedule.mtf <= 0) {
      return infeasible(
          std::string{binding_for(ViolationKind::kNonPositiveField)});
    }
    if (schedule.mtf > kMaxMtf) return infeasible(mtf_bound_binding());
    const ValidationReport report = validate_schedule(schedule);
    if (!report.ok()) {
      return infeasible(std::string{binding_for(report.violations[0].kind)});
    }
    pst.schedule = std::move(schedule);
  }

  pst.utilisation = pst.schedule->utilisation();
  pst.supplies.assign(pst.schedule->requirements.size(), nullptr);
  return pst;
}

const PartitionSupply& BatchAnalyzer::cached_supply(Pst& pst,
                                                    std::size_t req) {
  // Each PST computes the key of a partition once; later candidates on it
  // reuse the resolved supply, which counts as a hit because the key is
  // already cached.
  ++stats_.cache.lookups;
  const PartitionSupply*& supply = pst.supplies[req];
  if (supply != nullptr) {
    ++stats_.cache.hits;
    return *supply;
  }
  const Schedule& schedule = *pst.schedule;
  const PartitionId partition = schedule.requirements[req].partition;
  const auto [it, inserted] = cache_.try_emplace(
      supply_key(schedule, partition), schedule, partition);
  if (inserted) {
    ++stats_.cache.misses;
    stats_.cache.entries = cache_.size();
    stats_.cache.bytes += it->second.bytes();
  } else {
    ++stats_.cache.hits;
  }
  supply = &it->second;
  return *supply;
}

BatchVerdict BatchAnalyzer::analyze_one(const Candidate& candidate) {
  // Intern the PST key: the first candidate naming a new key builds its
  // entry. Without memoisation every candidate builds a PST of its own.
  Pst local;
  Pst* pst = &local;
  bool is_new = true;
  if (options_.memoise) {
    const auto [it, inserted] = psts_.try_emplace(pst_key(candidate));
    pst = &it->second;
    is_new = inserted;
  }
  if (is_new) {
    *pst = build_pst(candidate);
    ++stats_.psts_built;
  }

  BatchVerdict v;
  v.id = candidate.id;
  v.name = candidate.name;
  if (!pst->schedule.has_value()) {
    v.verdict = Verdict::kInfeasible;
    v.binding = pst->binding;
    return v;
  }
  if (const std::string_view field = field_out_of_bound(candidate);
      !field.empty()) {
    v.verdict = Verdict::kInfeasible;
    v.binding = process_bound_binding(field);
    return v;
  }

  // Schedulable until some partition's analysis says otherwise.
  const Schedule& schedule = *pst->schedule;
  v.verdict = Verdict::kSchedulable;
  v.binding = "eq. (14): wcrt <= D for every process";
  v.utilisation = pst->utilisation;
  v.partitions.reserve(candidate.partitions.size());
  for (const PartitionModel& pm : candidate.partitions) {
    const ScheduleRequirement* req = schedule.requirement_for(pm.id);
    if (req == nullptr) continue;
    PartitionAnalysis pa;
    if (options_.memoise) {
      const auto index =
          static_cast<std::size_t>(req - schedule.requirements.data());
      pa = analyze_partition(schedule, pm, cached_supply(*pst, index),
                             options_.analysis);
    } else {
      const PartitionSupply supply(schedule, pm.id);
      pa = analyze_partition(schedule, pm, supply, options_.analysis);
    }
    if (!pa.schedulable && v.verdict == Verdict::kSchedulable) {
      v.verdict = Verdict::kUnschedulable;
      v.binding = "eq. (14): wcrt > D";
    }
    if (pa.overloaded) {
      v.definite = true;
      v.binding = "eq. (8): partition demand exceeds its PST supply";
    }
    for (const ProcessAnalysis& proc : pa.processes) {
      if (proc.wcrt == kInfiniteTime) {
        v.worst_wcrt = -1;
      } else if (v.worst_wcrt >= 0) {
        v.worst_wcrt = std::max(v.worst_wcrt, proc.wcrt);
      }
    }
    v.partitions.push_back(std::move(pa));
  }
  return v;
}

std::vector<BatchVerdict> BatchAnalyzer::analyze(
    const std::vector<Candidate>& candidates) {
  std::vector<BatchVerdict> verdicts;
  verdicts.reserve(candidates.size());
  for (const Candidate& candidate : candidates) {
    const BatchVerdict& v = verdicts.emplace_back(analyze_one(candidate));
    ++stats_.analyzed;
    switch (v.verdict) {
      case Verdict::kSchedulable: ++stats_.schedulable; break;
      case Verdict::kUnschedulable: ++stats_.unschedulable; break;
      case Verdict::kInfeasible: ++stats_.infeasible; break;
    }
  }
  return verdicts;
}

void BatchAnalyzer::publish(telemetry::MetricsRegistry& registry) const {
  using telemetry::Metric;
  registry.set_counter(Metric::kBatchConfigs, -1, stats_.analyzed);
  registry.set_counter(Metric::kBatchSchedulable, -1, stats_.schedulable);
  registry.set_counter(Metric::kBatchUnschedulable, -1,
                       stats_.unschedulable);
  registry.set_counter(Metric::kBatchInfeasible, -1, stats_.infeasible);
  registry.set_counter(Metric::kBatchSupplyHits, -1, stats_.cache.hits);
  registry.set_counter(Metric::kBatchSupplyMisses, -1, stats_.cache.misses);
}

std::vector<Candidate> generate_candidates(const CandidateSpec& spec) {
  util::Rng rng(spec.seed);
  const std::size_t distinct =
      spec.distinct_psts > 0
          ? spec.distinct_psts
          : std::max<std::size_t>(1, spec.count / 8);
  static constexpr Ticks kPeriods[] = {80, 160, 320};

  struct ReqSet {
    std::vector<ScheduleRequirement> reqs;
    bool infeasible{false};
  };
  std::vector<ReqSet> sets;
  sets.reserve(distinct);
  for (std::size_t d = 0; d < distinct; ++d) {
    ReqSet set;
    set.infeasible = rng.uniform01() < spec.infeasible_fraction;
    const int partitions = static_cast<int>(rng.uniform(2, 4));
    double budget = 0.9;
    for (int p = 0; p < partitions; ++p) {
      const Ticks period =
          kPeriods[static_cast<std::size_t>(rng.uniform(0, 2))];
      const double share = budget / static_cast<double>(partitions - p) *
                           (0.5 + rng.uniform01() * 0.5);
      const Ticks duration = std::max<Ticks>(
          6, static_cast<Ticks>(share * static_cast<double>(period)));
      budget -= static_cast<double>(duration) / static_cast<double>(period);
      set.reqs.push_back({PartitionId{p}, period, duration});
    }
    // Infeasible sets: inflate durations until utilisation exceeds 1 (the
    // generator then rejects with the eq. (8) binding). Bounded: durations
    // are clamped at their periods, where utilisation >= 2.
    while (set.infeasible && requirement_utilisation(set.reqs) <= 1.0) {
      for (ScheduleRequirement& req : set.reqs) {
        req.duration = std::min(req.period, req.duration * 4 / 3 + 1);
      }
    }
    sets.push_back(std::move(set));
  }

  std::vector<Candidate> candidates;
  candidates.reserve(spec.count);
  for (std::size_t i = 0; i < spec.count; ++i) {
    Candidate c;
    c.id = i;
    c.name = "cand-" + std::to_string(i);
    const ReqSet& set =
        sets[static_cast<std::size_t>(rng.uniform(
            0, static_cast<std::int64_t>(distinct) - 1))];
    c.requirements = set.reqs;

    const int partitions = static_cast<int>(set.reqs.size());
    const bool overload =
        !set.infeasible && rng.uniform01() < spec.overload_fraction;
    const int victim =
        overload ? static_cast<int>(rng.uniform(0, partitions - 1)) : -1;
    for (int p = 0; p < partitions; ++p) {
      const ScheduleRequirement& req = set.reqs[static_cast<std::size_t>(p)];
      PartitionModel pm;
      pm.id = PartitionId{p};
      pm.name = 'P' + std::to_string(p);
      if (set.infeasible) {
        // Analysis never runs on infeasible candidates; keep a token set.
        pm.processes.push_back({"q0", req.period, req.period, 10, 3, true});
      } else if (p == victim) {
        // Long-run demand ~1.35x the partition's supply: definitely
        // unschedulable, and guaranteed to miss within a few MTFs when
        // flown (the necessity-check population).
        const Ticks wcet = std::max<Ticks>(
            3, std::min(req.period, req.duration * 27 / 20 + 1));
        pm.processes.push_back({"hog", req.period, req.period, 10, wcet,
                                true});
      } else {
        const int processes = static_cast<int>(rng.uniform(1, 3));
        for (int q = 0; q < processes; ++q) {
          const Ticks period = req.period * rng.uniform(1, 2);
          const Ticks compute = std::max<Ticks>(
              1, req.duration / (2 * processes) + rng.uniform(-2, 2));
          pm.processes.push_back({'q' + std::to_string(q), period, period,
                                  static_cast<Priority>(10 + q), compute + 1,
                                  true});
        }
      }
      c.partitions.push_back(std::move(pm));
    }
    candidates.push_back(std::move(c));
  }
  return candidates;
}

}  // namespace air::model
