// Deterministic fault plans.
//
// A FaultPlan is a seeded, tick-stamped list of injections covering the
// fault taxonomy of the paper's robustness argument: memory upsets and
// rogue cross-partition writes (spatial partitioning, Sect. 2.1/Fig. 3),
// clock and interrupt anomalies (Sect. 2.5), process overruns and stuck
// processes (temporal partitioning, Sect. 3), corrupted/dropped/reordered
// bus frames (inter-module communication) and schedule-switch storms
// (mode-based schedules, Sect. 4.2).
//
// Plans are plain data with a stable text form, so a failing campaign seed
// can be written to disk, shrunk to a minimal reproducer and replayed
// byte-identically by any driver (per-tick, time-warped, lockstep or
// epoch World execution).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/types.hpp"

namespace air::fi {

/// The fault taxonomy (see DESIGN.md section 9 for the full table).
/// `a` / `b` are per-class parameters, documented per enumerator.
enum class FaultClass : std::uint8_t {
  kMemoryBitFlip = 0,   // a = byte offset into app data, b = bit index
  kRogueWrite,          // a = virtual address (0 = the PMK region base)
  kClockTickDuplicate,  // a = number of duplicated timer periods
  kSpuriousInterrupt,   // (raises the bus line outside any transfer)
  kProcessOverrun,      // a = process index (deadline forced to "now")
  kProcessStuck,        // (starts the dormant CPU-hog process)
  kApplicationError,    // a = process index
  kScheduleStorm,       // a = schedule id to request
  kBusFrameDrop,        // a = bus transmit sequence number
  kBusFrameCorrupt,     // a = bus transmit sequence number
  kBusFrameDelay,       // a = transmit sequence, b = extra delay ticks
};

inline constexpr std::size_t kFaultClassCount = 11;

[[nodiscard]] const char* to_string(FaultClass fault);
[[nodiscard]] bool fault_class_from_string(std::string_view text,
                                           FaultClass& out);

/// Bus-side faults act at the TDMA transmit point (BusInjector); everything
/// else acts on a module via the per-tick hook (Injector).
[[nodiscard]] bool is_bus_fault(FaultClass fault);

/// One scheduled fault.
struct Injection {
  Ticks tick{0};  // module tick at whose end the fault lands (bus: unused)
  FaultClass fault{FaultClass::kMemoryBitFlip};
  std::int32_t target{-1};  // target partition; -1 = module-global
  std::int64_t a{0};
  std::int64_t b{0};

  friend bool operator==(const Injection&, const Injection&) = default;
};

/// A deterministic campaign case: the seed that generated it plus the
/// injection list (kept sorted by tick).
struct FaultPlan {
  std::uint64_t seed{0};
  std::vector<Injection> injections;

  void sort();
  [[nodiscard]] bool has_class(FaultClass fault) const;

  /// Stable text form ("# air fault plan v1"); the reproducer file format.
  [[nodiscard]] std::string to_text() const;
  [[nodiscard]] static bool from_text(const std::string& text, FaultPlan& out);

  friend bool operator==(const FaultPlan&, const FaultPlan&) = default;
};

/// Generation envelope for seeded plans.
struct PlanSpec {
  Ticks first_tick{50};        // earliest injection tick
  Ticks horizon{3700};         // latest injection tick
  Ticks min_gap{1300};         // minimum spacing between injections (1 MTF
                               // by default: lets HM handlers retire between
                               // faults so oracles stay attributable)
  std::int32_t partitions{4};
  std::vector<FaultClass> classes;  // allowed classes (empty = none)
  std::size_t max_injections{4};
  std::uint64_t bus_seq_window{48};  // bus faults hit transmit seq [0, window)
  Ticks max_bus_delay{25};
};

/// Seeded plan generation: same spec + seed => identical plan.
[[nodiscard]] FaultPlan generate_plan(const PlanSpec& spec, std::uint64_t seed);

/// FNV-1a 64-bit digest; the trace/memory fingerprint used by the oracles
/// and the golden-trace regression tests.
[[nodiscard]] constexpr std::uint64_t digest64(
    std::string_view text, std::uint64_t h = 1469598103934665603ULL) {
  for (const char ch : text) {
    h ^= static_cast<unsigned char>(ch);
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace air::fi
