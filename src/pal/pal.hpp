// AIR POS Adaptation Layer (PAL) -- Sect. 2.2 and Sect. 5.
//
// The PAL wraps a partition's operating system, hiding its particularities
// from the rest of the AIR architecture. It owns:
//  * the partition's POS kernel (pos::Kernel, RT or round-robin policy);
//  * the per-partition process deadline registry, plus the private
//    register/unregister interfaces the APEX uses (Fig. 6);
//  * the surrogate clock-tick announcement routine (Fig. 7 / Algorithm 3):
//    forward the elapsed ticks to the native POS announce, then verify the
//    earliest deadline(s) and report violations to Health Monitoring.
#pragma once

#include <functional>
#include <map>
#include <memory>

#include "pal/deadline_registry.hpp"
#include "pos/kernel.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/profiler.hpp"
#include "telemetry/spans.hpp"
#include "util/types.hpp"

namespace air::pal {

enum class RegistryKind { kLinkedList, kTree, kHeap };

class Pal {
 public:
  /// Own a kernel with heir policy `policy`; `registry_kind` selects the
  /// deadline structure (kLinkedList is the paper's implementation).
  explicit Pal(pos::Policy policy,
               RegistryKind registry_kind = RegistryKind::kLinkedList);

  [[nodiscard]] pos::Kernel& kernel() { return kernel_; }
  [[nodiscard]] const pos::Kernel& kernel() const { return kernel_; }

  /// Surrogate clock tick announcement (Algorithm 3). Invoked by the
  /// partition dispatch path with the module time `now` and the number of
  /// ticks elapsed since this partition last saw the clock. Announces the
  /// ticks to the POS, then checks deadlines: only the earliest is examined
  /// unless it is violated, in which case successive deadlines are checked
  /// (each retrieval O(1)) until one still holds.
  void announce_ticks(Ticks now, Ticks elapsed);

  // --- time-warp support (next-event / bulk-advance interfaces) ---

  /// Earliest future tick at which announce_ticks would do anything beyond
  /// its steady-state "check and break": the earliest POS timer wake, or
  /// the first tick the earliest registered deadline counts as violated
  /// (deadline + 1 -- Algorithm 3 breaks while deadline >= now).
  /// kInfiniteTime when neither is armed.
  [[nodiscard]] Ticks next_attention_tick() const;

  /// Bulk equivalent of `elapsed` quiet announce_ticks calls ending at
  /// `now`, whether the partition idles or its heir computes through them.
  /// Precondition (checked): no timer wake and no deadline violation
  /// occurs in the span. Replicates the per-tick effects exactly: one POS
  /// announce to `now`, `elapsed` steady-state deadline checks, and the
  /// slack sample the span's first announce would take for a deadline
  /// episode not yet observed.
  void advance_quiet(Ticks now, Ticks elapsed);

  /// PAL private interface used by APEX services to register/update a
  /// process's absolute deadline time (Fig. 6).
  void register_deadline(ProcessId pid, Ticks absolute_deadline);

  /// PAL private interface used by APEX services that stop a process or
  /// cancel its deadline.
  void unregister_deadline(ProcessId pid);

  [[nodiscard]] Ticks current_time() const { return kernel_.now(); }

  [[nodiscard]] IDeadlineRegistry& registry() { return *registry_; }

  /// Partition restart support: clear deadlines, reset every process.
  void reset();

  /// Number of deadline checks performed inside announce_ticks (earliest
  /// retrievals), and of violations found -- E3/E7 instrumentation.
  [[nodiscard]] std::uint64_t deadline_checks() const {
    return deadline_checks_;
  }
  [[nodiscard]] std::uint64_t violations_detected() const {
    return violations_;
  }

  /// HM_DEADLINEVIOLATED hook: wired to the AIR Health Monitor by the
  /// system layer. Arguments: process id, the deadline that was missed,
  /// and the detection time.
  std::function<void(ProcessId, Ticks deadline, Ticks detected_at)>
      on_deadline_violation;

  /// Publish deadline telemetry (slack/lateness histograms, registry depth
  /// gauge) under partition index `partition` (nullptr = off).
  void set_metrics(telemetry::MetricsRegistry* metrics,
                   std::int32_t partition) {
    metrics_ = metrics;
    partition_index_ = partition;
  }

  /// Record a job span per deadline episode (register_deadline opens,
  /// unregister/violation retires) under partition `partition`; on a
  /// violation the miss cause is latched for the Health Monitor.
  /// nullptr = off.
  void set_spans(telemetry::SpanRecorder* spans, std::int32_t partition) {
    spans_ = spans;
    partition_index_span_ = partition;
  }

  /// Attribute the kernel's tick announce to the host profiler's
  /// kKernelDispatch point (nullptr = off). Borrowed; host-time
  /// only, never touches deterministic state.
  void set_profiler(telemetry::HostProfiler* profiler) {
    profiler_ = profiler;
  }

  /// Open job span of `pid` (0 = none) -- the causal parent for work the
  /// process initiates (message sends, mode-change requests).
  [[nodiscard]] telemetry::SpanId job_span(ProcessId pid) const {
    if (spans_ == nullptr) return 0;
    const auto it = job_spans_.find(pid);
    return it != job_spans_.end() ? it->second : 0;
  }

 private:
  void note_registry_depth();
  /// Observe `rec`'s slack at `now` into the histogram, once per deadline
  /// episode (no-op when metrics are off or the episode was sampled).
  void sample_slack(const DeadlineRecord* rec, Ticks now);
  void close_job_span(ProcessId pid, Ticks at, telemetry::SpanStatus status);

  pos::Kernel kernel_;
  std::unique_ptr<IDeadlineRegistry> registry_;
  std::uint64_t deadline_checks_{0};
  std::uint64_t violations_{0};
  telemetry::MetricsRegistry* metrics_{nullptr};
  std::int32_t partition_index_{-1};
  telemetry::HostProfiler* profiler_{nullptr};
  telemetry::SpanRecorder* spans_{nullptr};
  std::int32_t partition_index_span_{-1};
  std::map<ProcessId, telemetry::SpanId> job_spans_;  // open deadline episodes
  // Last {pid, deadline} sampled into the slack histogram: one observation
  // per deadline episode instead of one per announce.
  ProcessId last_slack_pid_{ProcessId::invalid()};
  Ticks last_slack_deadline_{kInfiniteTime};
};

}  // namespace air::pal
