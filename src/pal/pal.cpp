#include "pal/pal.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace air::pal {

Pal::Pal(pos::Policy policy, RegistryKind registry_kind) : kernel_(policy) {
  switch (registry_kind) {
    case RegistryKind::kLinkedList:
      registry_ = std::make_unique<ListDeadlineRegistry>();
      break;
    case RegistryKind::kTree:
      registry_ = std::make_unique<TreeDeadlineRegistry>();
      break;
    case RegistryKind::kHeap:
      registry_ = std::make_unique<HeapDeadlineRegistry>();
      break;
  }
}

void Pal::announce_ticks(Ticks now, Ticks elapsed) {
  // Algorithm 3, line 1: *POS_CLOCKTICKANNOUNCE(elapsedTicks). Attributed
  // to kKernelDispatch so the host profile separates "pal;kernel_dispatch"
  // from the PAL's own deadline walk.
  if (profiler_ != nullptr) {
    telemetry::HostProfiler::Scope scope(
        *profiler_, telemetry::ProfilePoint::kKernelDispatch);
    kernel_.tick_announce(now, elapsed);
  } else {
    kernel_.tick_announce(now, elapsed);
  }

  // Algorithm 3, lines 2-8: check deadlines in ascending order, stopping at
  // the first that has not been violated. Retrieval of the earliest is O(1).
  while (true) {
    const DeadlineRecord* rec = registry_->earliest();
    ++deadline_checks_;
    if (rec == nullptr || rec->deadline >= now) {  // line 3-4
      sample_slack(rec, now);
      break;
    }
    const ProcessId pid = rec->pid;
    const Ticks missed = rec->deadline;
    ++violations_;
    if (metrics_ != nullptr) {
      metrics_->observe(telemetry::Metric::kDeadlineLateness,
                        partition_index_, now - missed);
    }
    // Line 7 before line 6: the record is removed (O(1), pointer already
    // held) before HM_DEADLINEVIOLATED runs, because the Health Monitor's
    // recovery action may re-enter the registry (stopping the process
    // unregisters its deadline; a partition restart clears everything).
    registry_->remove_earliest();
    note_registry_depth();
    if (spans_ != nullptr) {
      // Retire the job span as a miss *before* HM_DEADLINEVIOLATED runs --
      // the recovery action may stop the process, whose unregister must not
      // re-close it -- and latch it as the cause of the imminent HM report.
      const auto it = job_spans_.find(pid);
      if (it != job_spans_.end() && it->second != 0) {
        spans_->set_pending_cause(it->second);
        spans_->end(it->second, now, telemetry::SpanStatus::kDeadlineMiss);
        it->second = 0;  // keep the node: erase+reinsert would allocate
      }
    }
    if (on_deadline_violation) {
      on_deadline_violation(pid, missed, now);  // line 6: HM_DEADLINEVIOLATED
    }
  }
}

Ticks Pal::next_attention_tick() const {
  Ticks next = kernel_.next_wake();
  const DeadlineRecord* rec = registry_->earliest();
  if (rec != nullptr && rec->deadline != kInfiniteTime) {
    // First announce(now) with now > deadline treats it as violated.
    next = std::min(next, rec->deadline + 1);
  }
  return next;
}

void Pal::sample_slack(const DeadlineRecord* rec, Ticks now) {
  // Telemetry: the partition's deadline headroom -- the distribution the
  // paper's Fig. 8 discussion reasons about. Sampled once per deadline
  // episode (when a record first reaches the head of the registry), so the
  // steady-state announce path pays two integer compares, not a histogram
  // insertion per tick.
  if (metrics_ == nullptr || rec == nullptr ||
      rec->deadline == kInfiniteTime ||
      (rec->pid == last_slack_pid_ && rec->deadline == last_slack_deadline_)) {
    return;
  }
  last_slack_pid_ = rec->pid;
  last_slack_deadline_ = rec->deadline;
  metrics_->observe(telemetry::Metric::kDeadlineSlack, partition_index_,
                    rec->deadline - now);
}

void Pal::advance_quiet(Ticks now, Ticks elapsed) {
  AIR_ASSERT_MSG(next_attention_tick() > now,
                 "time-warp span crosses a PAL event");
  // One announce to the end of the span is state-identical to `elapsed`
  // single-tick announces when no timed wait expires inside it.
  kernel_.tick_announce(now, elapsed);
  // Algorithm 3's steady-state path retrieves the earliest deadline exactly
  // once per announce; only the span's first announce can see a fresh
  // episode, so a pending slack sample is taken at that tick.
  deadline_checks_ += static_cast<std::uint64_t>(elapsed);
  sample_slack(registry_->earliest(), now - elapsed + 1);
}

void Pal::register_deadline(ProcessId pid, Ticks absolute_deadline) {
  if (spans_ != nullptr) {
    // A new deadline episode: the previous one (if still open) completed.
    close_job_span(pid, current_time(), telemetry::SpanStatus::kOk);
    if (absolute_deadline != kInfiniteTime) {
      job_spans_[pid] = spans_->begin(
          telemetry::SpanKind::kJob, current_time(),
          spans_->current_window(partition_index_span_), 0,
          partition_index_span_, pid.value(), absolute_deadline);
    }
  }
  if (absolute_deadline == kInfiniteTime) {
    // D = infinity: the notion of deadline violation does not apply (eq. 24).
    registry_->unregister(pid);
  } else {
    registry_->register_deadline(pid, absolute_deadline);
  }
  note_registry_depth();
}

void Pal::unregister_deadline(ProcessId pid) {
  close_job_span(pid, current_time(), telemetry::SpanStatus::kOk);
  registry_->unregister(pid);
  note_registry_depth();
}

void Pal::reset() {
  if (spans_ != nullptr) {
    for (auto& [pid, span] : job_spans_) {
      if (span != 0) {
        spans_->end(span, current_time(), telemetry::SpanStatus::kAborted);
      }
      span = 0;
    }
  }
  registry_->clear();
  kernel_.reset_all();
  last_slack_pid_ = ProcessId::invalid();
  last_slack_deadline_ = kInfiniteTime;
  note_registry_depth();
}

void Pal::close_job_span(ProcessId pid, Ticks at,
                         telemetry::SpanStatus status) {
  if (spans_ == nullptr) return;
  const auto it = job_spans_.find(pid);
  if (it == job_spans_.end() || it->second == 0) return;
  spans_->end(it->second, at, status);
  it->second = 0;  // SpanId 0 = no open episode; the node itself is reused
}

void Pal::note_registry_depth() {
  if (metrics_ != nullptr) {
    metrics_->set(telemetry::Metric::kDeadlineRegistryDepth, partition_index_,
                  static_cast<std::int64_t>(registry_->size()));
  }
}

}  // namespace air::pal
