// Next-event time-warp engine.
//
// The paper's Algorithm 1 is built so the frequent case of the clock-tick
// ISR does almost nothing ("two computations", Sect. 4.3). The simulation
// exploits the same property wholesale: when a tick provably does nothing
// but increment counters -- no preemption point, no heir change, no op
// boundary, no timer wake, no deadline edge, no channel movement, no
// telemetry sample -- the whole span of such ticks is collapsed into O(1)
// bulk advances. An active partition qualifies when it idles, or when its
// heir is steady (schedule() re-elects it unchanged) and spends the tick
// inside an OpCompute or an empty busy-idle script.
//
// Correctness contract (asserted layer by layer, proven by the equivalence
// suite in tests/test_time_warp.cpp): executing warp_advance(n) from a
// quiescent state with n <= warp_headroom() leaves every observable bit of
// module state -- metrics snapshots, trace/flight-recorder contents, APEX
// process state -- identical to n calls of tick_once().
//
// Why schedule switches cannot be skipped: a pending SET_MODULE_SCHEDULE
// takes effect at an MTF boundary (phase 0), and every compiled table has a
// preemption point at tick 0, so the boundary *is* a preemption point.
// next_preemption_point() therefore always stops the warp at or before the
// boundary, and Algorithm 1 lines 3-7 run normally on the stepped tick.
#include <algorithm>
#include <variant>

#include "system/module.hpp"
#include "util/assert.hpp"

namespace air::system {

namespace {

/// The OpCompute at `pcb`'s program counter; nullptr when its script is
/// empty (a busy-idle process) or the op there is a zero-time service.
const pos::OpCompute* running_compute(const pos::ProcessControlBlock& pcb) {
  if (pcb.attrs.script.empty()) return nullptr;
  return std::get_if<pos::OpCompute>(&pcb.attrs.script[pcb.pc]);
}

}  // namespace

Ticks Module::warp_headroom() const {
  if (stopped_) return 0;
  // The scan itself is a per-tick host cost worth attributing: run it
  // under a profiler scope even though an enabled profiler then forces
  // stepping (below) -- warping would skip ticks the profiler wants to
  // observe, changing its (intentionally non-deterministic) report.
  telemetry::HostProfiler::Scope profile_scope(
      profiler_, telemetry::ProfilePoint::kWarpScan);
  // Boot tick not executed yet: the time-0 preemption point is ahead.
  const Ticks t = cores_.front().scheduler.ticks();
  if (t < 0) return 0;
  // A queuing backlog would move a message or refresh its depth gauge.
  if (!router_.quiescent()) return 0;

  Ticks next_event = kInfiniteTime;
  for (const Core& core : cores_) {
    // A not-yet-dispatched heir means the next tick context-switches.
    if (core.scheduler.heir_partition() !=
        core.dispatcher->active_partition()) {
      return 0;
    }
    next_event = std::min(next_event, core.scheduler.next_preemption_point());

    const PartitionId active = core.dispatcher->active_partition();
    if (!active.valid()) continue;  // idle window: nothing else to consult
    const pmk::PartitionControlBlock& pcb =
        pcbs_[static_cast<std::size_t>(active.value())];
    // Non-NORMAL partitions are dispatched but not stepped (tick_once
    // skips them entirely), so they impose no constraint.
    if (pcb.mode != pmk::OperatingMode::kNormal) continue;

    const pal::Pal& p = *partitions_[static_cast<std::size_t>(active.value())]
                             .pal;
    const pos::Kernel& kernel = p.kernel();
    if (kernel.ready_depth() != 0) {
      // Runnable work folds only while the executor's tick is counters-
      // only: the same heir is re-elected and computes on. The tick that
      // finishes the compute moves pc and is stepped.
      if (!kernel.steady_heir()) return 0;
      const pos::ProcessControlBlock& running =
          *kernel.pcb(kernel.current());
      if (const pos::OpCompute* compute = running_compute(running)) {
        next_event = std::min(next_event,
                              t + compute->ticks - running.op_progress);
      } else if (!running.attrs.script.empty()) {
        return 0;  // a zero-time service runs on the next tick
      }
    }
    next_event = std::min(next_event, p.next_attention_tick());
  }

  // A tick hook (fault injector) must observe its event ticks stepped.
  if (tick_hook_ != nullptr) {
    next_event = std::min(next_event, tick_hook_->next_event(t));
  }

  // An enabled profiler observes every stepped tick; report zero headroom
  // *after* the scan so the scan's own cost is still attributed.
  if (profiler_.enabled()) return 0;

  // Ticks t+1 .. next_event-1 are boring; the event tick itself is stepped.
  const Ticks headroom = next_event - t - 1;
  return headroom > 0 ? headroom : 0;
}

void Module::warp_advance(Ticks n) {
  if (stopped_ || n <= 0) return;
  warp_stats_.warped_ticks += static_cast<std::uint64_t>(n);
  ++warp_stats_.warp_spans;
  // An online window closes at the end of its boundary tick, whether that
  // tick is stepped or warped through: split the span after each boundary
  // inside it and close there, with the totals a stepped tick would see.
  while (n > 0) {
    Ticks chunk = n;
    if (online_ != nullptr) {
      chunk = std::min(chunk, online_->next_close_tick() - now());
    }
    advance_span(chunk);
    n -= chunk;
    close_due_online_window();
  }
}

void Module::advance_span(Ticks n) {
  // HAL: one clock bump of n plus a timer-interrupt raise/take pair leaves
  // the interrupt controller exactly as n per-tick raise/take pairs would.
  machine_.advance(n);
  (void)machine_.interrupts().take(hal::IrqLine::kTimer);

  // PMK: n best-case Algorithm 1 iterations (counter increments only;
  // scheduler.advance asserts no preemption point lies inside the span)
  // and n same-partition Algorithm 2 fast paths per core.
  for (Core& core : cores_) {
    core.scheduler.advance(n);
    core.dispatcher->advance_same_partition(n);
  }

  // PAL/POS: for each active NORMAL partition, one batched surrogate
  // clock-tick announce (Algorithm 3 steady state, n deadline checks),
  // then the executor's n ticks: slack when nothing is runnable, else n
  // re-elections of the steady heir, each spent on its compute. Each
  // stepped tick also re-selects the partition's address space, in core
  // order, flushing the TLB on every switch; one round leaves the MMU as
  // n rounds would.
  for (Core& core : cores_) {
    const PartitionId active = core.dispatcher->active_partition();
    if (!active.valid()) continue;
    pmk::PartitionControlBlock& pcb =
        pcbs_[static_cast<std::size_t>(active.value())];
    if (pcb.mode != pmk::OperatingMode::kNormal) continue;
    if (pcb.mmu_context >= 0) {
      machine_.mmu().set_active_context(pcb.mmu_context);
    }
    pal::Pal& p = *partitions_[static_cast<std::size_t>(active.value())].pal;
    p.advance_quiet(now(), n);
    pos::Kernel& kernel = p.kernel();
    if (kernel.ready_depth() == 0) {
      pcb.slack_ticks += n;
      continue;
    }
    kernel.advance_steady(n);
    pos::ProcessControlBlock& running = *kernel.pcb(kernel.current());
    if (const pos::OpCompute* compute = running_compute(running)) {
      running.op_progress += n;
      AIR_ASSERT_MSG(running.op_progress < compute->ticks,
                     "time-warp span finishes a compute");
    }
    pcb.busy_ticks += n;
  }
}

}  // namespace air::system
