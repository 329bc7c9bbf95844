#include "model/generator.hpp"

#include <algorithm>

namespace air::model {

double requirement_utilisation(
    const std::vector<ScheduleRequirement>& requirements) {
  double u = 0.0;
  for (const auto& req : requirements) {
    if (req.period > 0) {
      u += static_cast<double>(req.duration) /
           static_cast<double>(req.period);
    }
  }
  return u;
}

std::optional<Schedule> generate_schedule(const GeneratorInput& input) {
  // Structural feasibility.
  for (const auto& req : input.requirements) {
    if (req.period <= 0 || req.duration < 0 || req.duration > req.period) {
      return std::nullopt;
    }
  }
  const Ticks period_lcm = lcm_of_periods(input.requirements);
  if (period_lcm <= 0) return std::nullopt;
  const Ticks mtf = input.mtf > 0 ? input.mtf : period_lcm;
  if (mtf % period_lcm != 0) return std::nullopt;  // would break eq. (22)
  if (requirement_utilisation(input.requirements) > 1.0) return std::nullopt;

  // EDF over the partition cycles: cycle k of requirement r is a job
  // released at k*eta with deadline (k+1)*eta. The released, unfinished
  // job set changes only at a release or a completion, so each event picks
  // the job with the earliest deadline (ties: lower partition id, then
  // requirement order, for determinism) and runs it until it completes or
  // the next release; an idle stretch jumps to the next release. A cycle
  // that ends with demand left has missed its deadline: infeasible.
  struct Cycle {
    Ticks end;  // the job's deadline and the next cycle's release
    Ticks remaining;
  };
  const std::vector<ScheduleRequirement>& reqs = input.requirements;
  std::vector<Cycle> cycles;
  cycles.reserve(reqs.size());
  for (const auto& req : reqs) cycles.push_back({req.period, req.duration});

  std::vector<std::size_t> slot_owner(static_cast<std::size_t>(mtf),
                                      SIZE_MAX);
  Ticks now = 0;
  while (now < mtf) {
    std::size_t chosen = SIZE_MAX;
    Ticks next_release = mtf;
    for (std::size_t r = 0; r < cycles.size(); ++r) {
      const Cycle& c = cycles[r];
      next_release = std::min(next_release, c.end);
      if (c.remaining == 0) continue;
      if (chosen == SIZE_MAX || c.end < cycles[chosen].end ||
          (c.end == cycles[chosen].end &&
           reqs[r].partition.value() < reqs[chosen].partition.value())) {
        chosen = r;
      }
    }
    Ticks until = next_release;
    if (chosen != SIZE_MAX) {
      until = std::min(until, now + cycles[chosen].remaining);
      std::fill(slot_owner.begin() + now, slot_owner.begin() + until, chosen);
      cycles[chosen].remaining -= until - now;
    }
    now = until;
    for (std::size_t r = 0; r < cycles.size(); ++r) {
      if (cycles[r].end != now) continue;
      if (cycles[r].remaining > 0) return std::nullopt;  // deadline missed
      cycles[r] = {now + reqs[r].period, reqs[r].duration};
    }
  }

  // Coalesce consecutive slots of the same partition into windows, breaking
  // at the partition's own cycle boundaries so eq. (23) credits each window
  // to exactly one cycle.
  Schedule schedule;
  schedule.id = input.id;
  schedule.name = input.name;
  schedule.mtf = mtf;
  schedule.requirements = input.requirements;

  Ticks t = 0;
  while (t < mtf) {
    const std::size_t owner = slot_owner[static_cast<std::size_t>(t)];
    if (owner == SIZE_MAX) {
      ++t;
      continue;
    }
    const auto& req = input.requirements[owner];
    const Ticks cycle_end = (t / req.period + 1) * req.period;
    Ticks end = t;
    while (end < mtf && end < cycle_end &&
           slot_owner[static_cast<std::size_t>(end)] == owner) {
      ++end;
    }
    schedule.windows.push_back({req.partition, t, end - t});
    t = end;
  }

  std::sort(schedule.windows.begin(), schedule.windows.end(),
            [](const Window& a, const Window& b) { return a.offset < b.offset; });
  return schedule;
}

}  // namespace air::model
