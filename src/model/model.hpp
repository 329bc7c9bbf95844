// Formal system model of Sect. 3 (as reformulated by Sect. 4.1 for
// mode-based schedules).
//
// These are pure value types mirroring the paper's equations:
//   P            (1), (16)  -- partitions
//   chi          (17), (18) -- set of partition scheduling tables (PSTs)
//   Q_{i,m}      (19)       -- per-schedule partition timing requirements
//   omega_{i,j}  (20)       -- time windows
//   tau_{m,q}    (11)       -- processes (with WCET C added, as in the paper)
//
// The runtime (src/pmk, src/pos) consumes this model directly, so what the
// validator proves about a model is exactly what the kernel executes.
#pragma once

#include <string>
#include <vector>

#include "util/types.hpp"

namespace air::model {

/// Time window omega_{i,j} = <P, O, c> (eq. 20): partition `partition` owns
/// the processor during [offset, offset + duration) of every major time
/// frame of its schedule.
struct Window {
  PartitionId partition;
  Ticks offset{0};
  Ticks duration{0};

  friend bool operator==(const Window&, const Window&) = default;
};

/// Q_{i,m} = <P, eta, d> (eq. 19): partition `partition` requires `duration`
/// ticks of processor time in every `period`-tick activation cycle of the
/// schedule this requirement belongs to. Partitions without strict time
/// requirements (e.g. a non-real-time POS) have duration == 0 (Sect. 3.1).
struct ScheduleRequirement {
  PartitionId partition;
  Ticks period{0};    // eta_{i,m}
  Ticks duration{0};  // d_{i,m}

  friend bool operator==(const ScheduleRequirement&,
                         const ScheduleRequirement&) = default;
};

/// One partition scheduling table chi_i = <MTF, Q, omega> (eq. 18).
struct Schedule {
  ScheduleId id;
  std::string name;
  Ticks mtf{0};
  std::vector<ScheduleRequirement> requirements;  // Q_i
  std::vector<Window> windows;                    // omega_i, sorted by offset

  /// Requirement entry for `partition`, or nullptr when the partition has no
  /// time window in this schedule (legal under mode-based schedules).
  [[nodiscard]] const ScheduleRequirement* requirement_for(
      PartitionId partition) const;

  /// Sum of window durations assigned to `partition` within one MTF.
  [[nodiscard]] Ticks assigned_time(PartitionId partition) const;

  /// Processor utilisation of the table: busy window time / MTF.
  [[nodiscard]] double utilisation() const;
};

/// Process tau_{m,q} = <T, D, p, C, S(t)> (eq. 11) -- static attributes only;
/// dynamic status S(t) (eq. 12) lives in the POS at runtime.
struct ProcessModel {
  std::string name;
  Ticks period{0};               // T; for (a)periodic: min inter-arrival
  Ticks deadline{kInfiniteTime}; // D (relative); kInfiniteTime = no deadline
  Priority priority{0};          // p; lower value = greater priority
  Ticks wcet{0};                 // C, needed for schedulability analysis
  bool periodic{true};
};

/// Partition P_m = <tau_m, M_m(t)> (eq. 16) -- static part.
struct PartitionModel {
  PartitionId id;
  std::string name;
  bool system_partition{false};  // may bypass APEX (Sect. 2)
  std::vector<ProcessModel> processes;  // tau_m
};

/// The whole system: P (eq. 1) plus chi (eq. 17).
struct SystemModel {
  std::vector<PartitionModel> partitions;
  std::vector<Schedule> schedules;

  [[nodiscard]] const PartitionModel* partition(PartitionId id) const;
  [[nodiscard]] const Schedule* schedule(ScheduleId id) const;
};

/// Largest MTF the analysis sizes arrays for. The supply arrays and the
/// EDF slot map are O(MTF), so an MTF of 4e9 ticks would ask for tens of
/// GB; a candidate whose MTF (given, or the lcm of its periods) exceeds
/// this is infeasible before anything is built.
inline constexpr Ticks kMaxMtf = Ticks{1} << 20;

/// Largest finite process period, deadline or WCET the analysis accepts.
/// With the MTF within kMaxMtf, lcm(period, MTF) stays below 2^50, each
/// interference term ceil(t/T)*C below 2^60 (t never exceeds the deadline
/// or 64 MTFs), and the supply inverses' rank arithmetic below 2^51, so
/// none of them overflows. A candidate with a process beyond it is
/// infeasible before any analysis runs.
inline constexpr Ticks kMaxProcessTicks = Ticks{1} << 30;

/// Least common multiple helper used by eq. (22); asserts on overflow-free
/// small operands (tick-scale periods).
[[nodiscard]] Ticks lcm(Ticks a, Ticks b);

/// lcm over all requirement periods of a schedule (0 when empty), or
/// kInfiniteTime when it exceeds the Ticks range.
[[nodiscard]] Ticks lcm_of_periods(const std::vector<ScheduleRequirement>& reqs);

}  // namespace air::model
