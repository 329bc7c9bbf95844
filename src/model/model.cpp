#include "model/model.hpp"

#include <numeric>

#include "util/assert.hpp"

namespace air::model {

const ScheduleRequirement* Schedule::requirement_for(
    PartitionId partition) const {
  for (const auto& req : requirements) {
    if (req.partition == partition) return &req;
  }
  return nullptr;
}

Ticks Schedule::assigned_time(PartitionId partition) const {
  Ticks total = 0;
  for (const auto& w : windows) {
    if (w.partition == partition) total += w.duration;
  }
  return total;
}

double Schedule::utilisation() const {
  if (mtf <= 0) return 0.0;
  Ticks busy = 0;
  for (const auto& w : windows) busy += w.duration;
  return static_cast<double>(busy) / static_cast<double>(mtf);
}

const PartitionModel* SystemModel::partition(PartitionId id) const {
  for (const auto& p : partitions) {
    if (p.id == id) return &p;
  }
  return nullptr;
}

const Schedule* SystemModel::schedule(ScheduleId id) const {
  for (const auto& s : schedules) {
    if (s.id == id) return &s;
  }
  return nullptr;
}

Ticks lcm(Ticks a, Ticks b) {
  AIR_ASSERT(a > 0 && b > 0);
  const Ticks g = std::gcd(a, b);
  return a / g * b;
}

Ticks lcm_of_periods(const std::vector<ScheduleRequirement>& reqs) {
  Ticks acc = 0;
  for (const auto& req : reqs) {
    if (req.period <= 0) continue;
    if (acc == 0) {
      acc = req.period;
      continue;
    }
    const Ticks factor = req.period / std::gcd(acc, req.period);
    if (acc > kInfiniteTime / factor) return kInfiniteTime;
    acc *= factor;
  }
  return acc;
}

}  // namespace air::model
