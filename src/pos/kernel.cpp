#include "pos/kernel.hpp"

#include <algorithm>
#include <bit>

#include "util/assert.hpp"

namespace air::pos {

ProcessId Kernel::create_process(ProcessAttributes attrs) {
  ProcessControlBlock pcb;
  pcb.id = ProcessId{static_cast<std::int32_t>(table_.size())};
  pcb.current_priority = attrs.priority;
  pcb.attrs = std::move(attrs);
  table_.push_back(std::move(pcb));
  wake_col_.push_back(kInfiniteTime);  // dormant: no timer armed
  susp_col_.push_back(0);
  return table_.back().id;
}

ProcessControlBlock* Kernel::pcb(ProcessId id) {
  if (!id.valid() || static_cast<std::size_t>(id.value()) >= table_.size()) {
    return nullptr;
  }
  return &table_[static_cast<std::size_t>(id.value())];
}

const ProcessControlBlock* Kernel::pcb(ProcessId id) const {
  if (!id.valid() || static_cast<std::size_t>(id.value()) >= table_.size()) {
    return nullptr;
  }
  return &table_[static_cast<std::size_t>(id.value())];
}

ProcessId Kernel::find_process(std::string_view name) const {
  for (const auto& pcb : table_) {
    if (pcb.attrs.name == name) return pcb.id;
  }
  return ProcessId::invalid();
}

ProcessControlBlock& Kernel::pcb_ref(ProcessId id) {
  ProcessControlBlock* p = pcb(id);
  AIR_ASSERT_MSG(p != nullptr, "invalid process id");
  return *p;
}

void Kernel::set_state(ProcessControlBlock& pcb, ProcessState state) {
  if (pcb.state == state) return;
  const bool was_schedulable = pcb.schedulable();
  pcb.state = state;
  if (pcb.schedulable() != was_schedulable) {
    schedulable_count_ += pcb.schedulable() ? 1 : std::size_t(-1);
  }
  sync_wait_cols(pcb);
  if (on_state_change) on_state_change(pcb.id, state);
}

void Kernel::make_ready(ProcessId id) {
  ProcessControlBlock& p = pcb_ref(id);
  if (p.schedulable()) return;
  p.wait_reason = WaitReason::kNone;
  p.wake_time = kInfiniteTime;
  p.ready_seq = ++ready_counter_;
  set_state(p, ProcessState::kReady);
  enqueue_ready(p);
}

void Kernel::make_dormant(ProcessId id) {
  ProcessControlBlock& p = pcb_ref(id);
  if (p.schedulable()) dequeue_ready(p);
  if (current_ == id) current_ = ProcessId::invalid();
  p.wait_reason = WaitReason::kNone;
  p.wake_time = kInfiniteTime;
  p.suspended = false;
  p.wake_result = WakeResult::kStopped;
  set_state(p, ProcessState::kDormant);
}

void Kernel::block(ProcessId id, WaitReason reason, Ticks wake_time) {
  ProcessControlBlock& p = pcb_ref(id);
  AIR_ASSERT_MSG(p.schedulable(), "only a schedulable process can block");
  dequeue_ready(p);
  if (current_ == id) current_ = ProcessId::invalid();
  p.wait_reason = reason;
  p.wake_time = wake_time;
  p.wake_result = WakeResult::kNone;
  set_state(p, ProcessState::kWaiting);
}

void Kernel::wake(ProcessId id, WakeResult result) {
  ProcessControlBlock& p = pcb_ref(id);
  if (p.state != ProcessState::kWaiting) return;
  p.wake_result = result;
  if (p.suspended) {
    // ARINC 653: a suspended process stays ineligible until RESUME; remember
    // that its underlying wait has concluded.
    p.wait_reason = WaitReason::kSuspended;
    p.wake_time = kInfiniteTime;
    sync_wait_cols(p);  // disarms the timer column while still kWaiting
    return;
  }
  p.wait_reason = WaitReason::kNone;
  p.wake_time = kInfiniteTime;
  p.ready_seq = ++ready_counter_;
  set_state(p, ProcessState::kReady);
  enqueue_ready(p);
}

void Kernel::retarget_wait(ProcessId id, WaitReason reason,
                               Ticks wake_time) {
  ProcessControlBlock& p = pcb_ref(id);
  AIR_ASSERT_MSG(p.state == ProcessState::kWaiting,
                 "retarget_wait: process is not waiting");
  p.wait_reason = reason;
  p.wake_time = wake_time;
  sync_wait_cols(p);
}

void Kernel::suspend(ProcessId id, Ticks wake_time) {
  ProcessControlBlock& p = pcb_ref(id);
  if (p.state == ProcessState::kDormant) return;
  p.suspended = true;
  if (p.schedulable()) {
    block(id, WaitReason::kSuspended, wake_time);
  } else {
    // A waiting process keeps its wait; the suspended flag defers
    // eligibility (and moves the armed timer to the suspended sweep).
    sync_wait_cols(p);
  }
}

void Kernel::resume(ProcessId id) {
  ProcessControlBlock& p = pcb_ref(id);
  if (!p.suspended) return;
  p.suspended = false;
  sync_wait_cols(p);
  if (p.state == ProcessState::kWaiting &&
      p.wait_reason == WaitReason::kSuspended) {
    // Either the suspension itself, or an underlying wait that has already
    // concluded (wake_result set by wake() while suspended).
    wake(id, p.wake_result == WakeResult::kNone ? WakeResult::kOk
                                                : p.wake_result);
  }
}

void Kernel::tick_announce(Ticks now, Ticks elapsed) {
  AIR_ASSERT(elapsed >= 0);
  now_ = now;

  // Wake expired timed waits in deterministic (wake_time, id) order.
  // due_scratch_ keeps its capacity across announces: the steady state
  // sweeps without touching the heap. The sweep reads only the hot
  // columns (wake_col_ is kInfiniteTime unless the process is waiting, so
  // one compare covers the state + armed-timer + expiry predicate).
  due_scratch_.clear();
  for (std::size_t i = 0; i < wake_col_.size(); ++i) {
    if (wake_col_[i] <= now_ && susp_col_[i] == 0) {
      due_scratch_.emplace_back(wake_col_[i],
                                ProcessId{static_cast<std::int32_t>(i)});
    }
  }
  std::sort(due_scratch_.begin(), due_scratch_.end(),
            [](const auto& a, const auto& b) {
              return a.first != b.first ? a.first < b.first
                                        : a.second < b.second;
            });
  for (const auto& d : due_scratch_) {
    ProcessControlBlock& p = pcb_ref(d.second);
    const bool timeoutish = p.wait_reason == WaitReason::kDelay ||
                            p.wait_reason == WaitReason::kNextRelease ||
                            p.wait_reason == WaitReason::kDelayedStart;
    wake(d.second, timeoutish ? WakeResult::kOk : WakeResult::kTimeout);
  }

  // Suspended-with-timeout processes whose timeout expired.
  for (std::size_t i = 0; i < wake_col_.size(); ++i) {
    if (wake_col_[i] <= now_ && susp_col_[i] != 0) {
      ProcessControlBlock& p = table_[i];
      p.suspended = false;
      p.wake_time = kInfiniteTime;
      sync_wait_cols(p);
      wake(p.id, WakeResult::kTimeout);
    }
  }
}

void Kernel::reset_all() {
  for (auto& p : table_) {
    if (p.schedulable()) dequeue_ready(p);
    p.state = ProcessState::kDormant;
    p.wait_reason = WaitReason::kNone;
    p.wake_time = kInfiniteTime;
    p.wake_result = WakeResult::kNone;
    p.suspended = false;
    p.release_pending = false;
    p.sporadic_active = false;
    p.pc = 0;
    p.op_progress = 0;
    p.inbox.clear();
    p.current_priority = p.attrs.priority;
    p.absolute_deadline = kInfiniteTime;
    p.next_release = 0;
    if (on_state_change) on_state_change(p.id, ProcessState::kDormant);
  }
  // The loop edits PCBs in place (deliberately not via set_state: restart
  // traces one dormant event per process); reset the columns wholesale.
  std::fill(wake_col_.begin(), wake_col_.end(), kInfiniteTime);
  std::fill(susp_col_.begin(), susp_col_.end(), std::uint8_t{0});
  schedulable_count_ = 0;
  current_ = ProcessId::invalid();
  preemption_lock_ = 0;
}

Ticks Kernel::next_wake() const {
  // Both tick_announce loops key on the same predicate (waiting with a
  // finite wake_time; the suspended flag only changes *how* the expiry is
  // handled), so one min-fold over the timer column covers every armed
  // timer -- non-waiting entries sit at kInfiniteTime and fold away.
  Ticks earliest = kInfiniteTime;
  for (const Ticks w : wake_col_) earliest = std::min(earliest, w);
  return earliest;
}

void Kernel::enqueue_ready(ProcessControlBlock& pcb) {
  AIR_ASSERT(policy_ != Policy::kRt || (pcb.current_priority >= 0 &&
                                        pcb.current_priority < kPriorityLevels));
  const std::size_t level = queue_level(pcb);
  ready_[level].push_back(pcb.id);
  occupancy_[level >> 6] |= std::uint64_t{1} << (level & 63);
}

void Kernel::dequeue_ready(ProcessControlBlock& pcb) {
  const std::size_t level = queue_level(pcb);
  auto& queue = ready_[level];
  auto it = std::find(queue.begin(), queue.end(), pcb.id);
  if (it != queue.end()) queue.erase(it);
  if (queue.empty()) {
    occupancy_[level >> 6] &= ~(std::uint64_t{1} << (level & 63));
  }
}

ProcessId Kernel::pick_heir() const {
  for (std::size_t word = 0; word < kWords; ++word) {
    if (occupancy_[word] != 0) {
      const auto bit =
          static_cast<std::size_t>(std::countr_zero(occupancy_[word]));
      return ready_[(word << 6) | bit].front();
    }
  }
  return ProcessId::invalid();
}

ProcessId Kernel::schedule() {
  switch (policy_) {
    case Policy::kRt: {
      // With preemption locked, the current process runs on while
      // schedulable.
      if (preemption_locked() && current_.valid()) {
        const ProcessControlBlock* cur = pcb(current_);
        if (cur != nullptr && cur->schedulable()) {
          count_dispatch(false);
          return current_;
        }
      }
      const ProcessId heir = pick_heir();
      if (!heir.valid()) {
        current_ = ProcessId::invalid();
        return heir;
      }
      count_dispatch(heir != current_);
      if (heir != current_) {
        if (current_.valid()) {
          ProcessControlBlock* prev = pcb(current_);
          if (prev != nullptr && prev->state == ProcessState::kRunning) {
            set_state(*prev, ProcessState::kReady);
          }
        }
        current_ = heir;
      }
      break;
    }
    case Policy::kRoundRobin: {
      auto& queue = ready_[0];
      if (queue.empty()) {
        current_ = ProcessId::invalid();
        return current_;
      }
      count_dispatch(queue.front() != current_ ||
                     (current_.valid() && queue.size() > 1));
      // The previous head moves to the tail on every scheduling decision,
      // giving a one-tick time slice.
      if (current_.valid() && queue.size() > 1 && queue.front() == current_) {
        std::rotate(queue.begin(), queue.begin() + 1, queue.end());
        ProcessControlBlock* prev = pcb(current_);
        if (prev != nullptr && prev->state == ProcessState::kRunning) {
          set_state(*prev, ProcessState::kReady);
        }
      }
      current_ = queue.front();
      break;
    }
  }
  set_state(pcb_ref(current_), ProcessState::kRunning);
  return current_;
}

bool Kernel::steady_heir() const {
  // schedule() re-marks the heir running; only an heir that already is
  // makes that a no-op (set_state returns early, no trace event).
  const ProcessControlBlock* cur = pcb(current_);
  if (cur == nullptr || cur->state != ProcessState::kRunning) return false;
  switch (policy_) {
    case Policy::kRt:
      return preemption_locked() || pick_heir() == current_;
    case Policy::kRoundRobin:
      return ready_[0].size() == 1;
  }
  return false;
}

void Kernel::advance_steady(Ticks n) {
  AIR_ASSERT_MSG(steady_heir(), "advance_steady: the heir would change");
  dispatches_ += static_cast<std::uint64_t>(n);
}

void Kernel::set_priority(ProcessId id, Priority priority) {
  ProcessControlBlock& p = pcb_ref(id);
  switch (policy_) {
    case Policy::kRt: {
      AIR_ASSERT(priority >= 0 && priority < kPriorityLevels);
      if (p.current_priority == priority) return;
      const bool queued = p.schedulable();
      if (queued) dequeue_ready(p);
      p.current_priority = priority;
      if (queued) {
        // ARINC 653: the process becomes the *newest* at its new priority.
        p.ready_seq = ++ready_counter_;
        enqueue_ready(p);
      }
      break;
    }
    case Policy::kRoundRobin:
      p.current_priority = priority;  // recorded, not honoured
      break;
  }
}

}  // namespace air::pos
