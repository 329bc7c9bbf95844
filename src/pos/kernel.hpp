// Partition Operating System (POS) kernel.
//
// AIR foresees a different operating system per partition (Sect. 2 / 2.2);
// the PAL wraps each of them. The paper integrates exactly two: an RTOS
// whose heir rule is eq. (14) (RTEMS in the prototype, Sect. 6) and a
// non-real-time guest (embedded Linux, Sect. 2.5). pos::Kernel is one
// concrete kernel that provides both through a Policy:
//
//  * kRt -- preemptive, priority-driven, FIFO within priority, i.e. eq. (14):
//    heir(t) = the ready/running process with the greatest priority (lowest
//    numeric value); ties resolved to the oldest in the ready state.
//  * kRoundRobin -- fair round-robin that ignores priorities (one-tick time
//    slice).
//
// The kernel provides mechanical process-table, blocking and scheduling
// primitives; ARINC 653 *semantics* (what START/SUSPEND/... mean) live in
// src/apex, layered on them. The clock-interrupt gate is paravirtualised
// for either policy: a guest cannot mask the module timer, it can only trap.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <string_view>
#include <vector>

#include "pos/process.hpp"
#include "util/types.hpp"

namespace air::pos {

/// Heir-selection policy of a partition's kernel (config key "pos": "rt" or
/// "generic").
enum class Policy : std::uint8_t { kRt, kRoundRobin };

class Kernel {
 public:
  /// Valid priority range [0, kPriorityLevels).
  static constexpr Priority kPriorityLevels = 256;

  explicit Kernel(Policy policy) : policy_(policy) {}

  // --- process table ---
  ProcessId create_process(ProcessAttributes attrs);
  [[nodiscard]] ProcessControlBlock* pcb(ProcessId id);
  [[nodiscard]] const ProcessControlBlock* pcb(ProcessId id) const;
  [[nodiscard]] std::size_t process_count() const { return table_.size(); }
  [[nodiscard]] ProcessId find_process(std::string_view name) const;

  // --- state transitions (mechanical; APEX validates modes/rights) ---
  void make_ready(ProcessId id);
  void make_dormant(ProcessId id);
  void block(ProcessId id, WaitReason reason, Ticks wake_time);
  void wake(ProcessId id, WakeResult result);
  /// Re-aim an already-waiting process's wait (reason + wake time) without
  /// a state transition -- e.g. APEX parking a sporadic process for its
  /// next release point. The one sanctioned way to touch a waiting PCB's
  /// timer fields: the kernel keeps its timer columns in sync with them.
  void retarget_wait(ProcessId id, WaitReason reason, Ticks wake_time);
  /// kRt: the process becomes the *newest* at its new priority (ARINC 653).
  /// kRoundRobin: the priority is recorded (APEX requires the service) but
  /// does not affect scheduling order.
  void set_priority(ProcessId id, Priority priority);
  void suspend(ProcessId id, Ticks wake_time);
  void resume(ProcessId id);

  // --- time (driven by the PAL surrogate clock announce, Fig. 7) ---
  /// Announce that the partition-local view of time is `now`; `elapsed`
  /// ticks passed since the previous announce (> 1 right after the
  /// partition regains the processor). Wakes every expired timed wait.
  void tick_announce(Ticks now, Ticks elapsed);
  [[nodiscard]] Ticks now() const { return now_; }
  /// Earliest tick at which a timed wait (delay, timed block, suspended
  /// with timeout) expires; kInfiniteTime when no timer is armed. The
  /// time-warp engine uses this to bound how far a quiescent partition can
  /// be fast-forwarded without missing a wake-up.
  [[nodiscard]] Ticks next_wake() const;

  // --- scheduling ---
  /// Select the heir process per the policy, mark it running, and return
  /// it; ProcessId::invalid() when no process is schedulable.
  ProcessId schedule();
  [[nodiscard]] ProcessId current() const { return current_; }
  /// True when schedule() would re-elect the running process and change
  /// nothing but the dispatch counter: under kRt preemption is locked or
  /// the running process is still the eq. (14) heir; under kRoundRobin it
  /// is alone in the ready queue (with two, every call rotates).
  [[nodiscard]] bool steady_heir() const;
  /// Bulk equivalent of `n` schedule() calls while steady_heir() holds
  /// (checked) -- the time-warp engine's fold of busy ticks.
  void advance_steady(Ticks n);

  void lock_preemption() { ++preemption_lock_; }
  void unlock_preemption() {
    if (preemption_lock_ > 0) --preemption_lock_;
  }
  [[nodiscard]] bool preemption_locked() const { return preemption_lock_ > 0; }

  /// The paravirtualised "disable clock interrupt" gate (Sect. 2.5):
  /// refuses and counts. Returns false always.
  bool try_disable_clock_interrupt() {
    ++paravirt_traps_;
    return false;
  }
  [[nodiscard]] std::uint64_t paravirt_traps() const { return paravirt_traps_; }

  // --- scheduling statistics (observability; scraped into telemetry) ---
  /// schedule() calls that selected an heir.
  [[nodiscard]] std::uint64_t dispatch_count() const { return dispatches_; }
  /// Dispatches where the heir differed from the running process.
  [[nodiscard]] std::uint64_t process_switches() const {
    return process_switches_;
  }
  /// Processes currently ready or running (process scheduler queue depth).
  [[nodiscard]] std::size_t ready_depth() const { return schedulable_count_; }

  /// Partition restart: every process back to dormant, script pointers
  /// rewound, queues cleared. Process table itself is preserved (ARINC 653
  /// processes are re-started, not re-created, on partition restart).
  void reset_all();

  /// Invoked on every process state change (wired by the system layer for
  /// the trace).
  std::function<void(ProcessId, ProcessState)> on_state_change;

 private:
  /// Ready-queue level of `pcb`: its priority under kRt, always 0 under
  /// kRoundRobin (one FIFO, rotated by schedule()).
  [[nodiscard]] std::size_t queue_level(const ProcessControlBlock& pcb) const {
    return policy_ == Policy::kRt
               ? static_cast<std::size_t>(pcb.current_priority)
               : 0;
  }
  void enqueue_ready(ProcessControlBlock& pcb);
  void dequeue_ready(ProcessControlBlock& pcb);
  /// Front of the first non-empty ready level; invalid() when none.
  [[nodiscard]] ProcessId pick_heir() const;

  void count_dispatch(bool switched) {
    ++dispatches_;
    if (switched) ++process_switches_;
  }
  void set_state(ProcessControlBlock& pcb, ProcessState state);
  [[nodiscard]] ProcessControlBlock& pcb_ref(ProcessId id);

  /// Mirror a PCB's timer/eligibility fields into the hot columns. Must be
  /// called after any in-place edit of state/wake_time/suspended that
  /// bypasses set_state (wake-while-suspended, suspend of a waiter,
  /// retarget_wait). Index = id: create_process assigns ids densely.
  void sync_wait_cols(const ProcessControlBlock& pcb) {
    const auto i = static_cast<std::size_t>(pcb.id.value());
    wake_col_[i] =
        pcb.state == ProcessState::kWaiting ? pcb.wake_time : kInfiniteTime;
    susp_col_[i] = pcb.suspended ? 1 : 0;
  }

  Policy policy_;
  std::vector<ProcessControlBlock> table_;
  // --- constellation hot columns (DESIGN.md §13) ---
  // Timer and eligibility state split from the cold PCB rows (~1 KiB each
  // with attributes, script and inbox): the per-tick sweeps -- the
  // tick_announce due scan, next_wake() (the time-warp horizon query, run
  // for every partition of every module per epoch), ready_depth() -- read
  // only these contiguous columns and never page in a PCB row.
  std::vector<Ticks> wake_col_;  // kWaiting ? wake_time : kInfiniteTime
  std::vector<std::uint8_t> susp_col_;  // suspended flag, 0/1
  std::size_t schedulable_count_{0};    // |{ready, running}| (ready_depth)
  // Scratch for tick_announce's due-timer sweep; a member so the steady
  // state reuses its capacity instead of allocating per expiry.
  std::vector<std::pair<Ticks, ProcessId>> due_scratch_;
  // One FIFO per queue level. Under kRt the running process stays at the
  // front of its queue: it entered the ready state before every process
  // behind it, so eq. (14)'s age tie-break is the queue order itself. A
  // level holds a handful of ids at most, so a vector serves as the FIFO;
  // an empty one owns no heap block, and a partition pays only for the
  // levels its processes use (DESIGN.md §11).
  std::array<std::vector<ProcessId>, kPriorityLevels> ready_;
  // Occupancy bitmap over ready_: bit p set iff ready_[p] is non-empty.
  // pick_heir() runs per simulated tick; find-first-set over four words
  // replaces a scan of 256 queue headers (DESIGN.md §11).
  static constexpr std::size_t kWords = kPriorityLevels / 64;
  std::array<std::uint64_t, kWords> occupancy_{};
  ProcessId current_{ProcessId::invalid()};
  Ticks now_{0};
  std::uint64_t ready_counter_{0};
  int preemption_lock_{0};
  std::uint64_t dispatches_{0};
  std::uint64_t process_switches_{0};
  std::uint64_t paravirt_traps_{0};
};

}  // namespace air::pos
