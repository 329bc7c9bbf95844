#include "util/trace.hpp"

#include <algorithm>
#include <sstream>

namespace air::util {

std::string_view to_string(EventKind kind) {
  switch (kind) {
    case EventKind::kPartitionDispatch: return "partition_dispatch";
    case EventKind::kPartitionPreempt: return "partition_preempt";
    case EventKind::kScheduleSwitchReq: return "schedule_switch_req";
    case EventKind::kScheduleSwitch: return "schedule_switch";
    case EventKind::kScheduleChangeAction: return "schedule_change_action";
    case EventKind::kProcessDispatch: return "process_dispatch";
    case EventKind::kProcessStateChange: return "process_state_change";
    case EventKind::kDeadlineRegistered: return "deadline_registered";
    case EventKind::kDeadlineRemoved: return "deadline_removed";
    case EventKind::kDeadlineMiss: return "deadline_miss";
    case EventKind::kHmError: return "hm_error";
    case EventKind::kHmAction: return "hm_action";
    case EventKind::kPortSend: return "port_send";
    case EventKind::kPortReceive: return "port_receive";
    case EventKind::kSpatialViolation: return "spatial_violation";
    case EventKind::kClockParavirtTrap: return "clock_paravirt_trap";
    case EventKind::kPartitionModeChange: return "partition_mode_change";
    case EventKind::kUser: return "user";
  }
  return "unknown";
}

Severity severity(EventKind kind) {
  switch (kind) {
    // The evidence: what went wrong and how the module reacted. Retained
    // in the flight recorder's dedicated ring.
    case EventKind::kDeadlineMiss:
    case EventKind::kHmError:
    case EventKind::kHmAction:
    case EventKind::kSpatialViolation:
    case EventKind::kClockParavirtTrap:
    case EventKind::kScheduleSwitchReq:
    case EventKind::kScheduleSwitch:
    case EventKind::kScheduleChangeAction:
    case EventKind::kPartitionModeChange:
      return Severity::kCritical;
    // Normal operation landmarks.
    case EventKind::kPartitionDispatch:
    case EventKind::kPartitionPreempt:
    case EventKind::kProcessDispatch:
    case EventKind::kDeadlineRegistered:
    case EventKind::kDeadlineRemoved:
    case EventKind::kUser:
      return Severity::kInfo;
    // High-frequency detail.
    case EventKind::kProcessStateChange:
    case EventKind::kPortSend:
    case EventKind::kPortReceive:
      return Severity::kDebug;
  }
  return Severity::kInfo;
}

void Trace::set_flight_recorder(std::size_t capacity,
                                std::size_t critical_capacity) {
  auto recorder = std::make_unique<Recorder>(capacity, critical_capacity);
  if (recorder_ != nullptr) {
    // Re-route the previously retained events (preserves dropped counts).
    recorder->dropped = recorder_->dropped;
    recorder->dropped_critical = recorder_->dropped_critical;
    rebuild_view();
  }
  recorder_ = std::move(recorder);
  for (const TraceEvent& event : events_) {
    const bool critical = severity(event.kind) == Severity::kCritical;
    RingBuffer<Stored>& ring =
        critical ? recorder_->critical : recorder_->ring;
    if (ring.push_overwrite({event, recorder_->seq++})) {
      ++recorder_->dropped;
      if (critical) ++recorder_->dropped_critical;
    }
  }
  events_.clear();
  view_dirty_ = true;
}

std::uint64_t Trace::dropped_events() const {
  return recorder_ != nullptr ? recorder_->dropped : 0;
}

std::uint64_t Trace::dropped_critical_events() const {
  return recorder_ != nullptr ? recorder_->dropped_critical : 0;
}

void Trace::add_sink(TraceSink* sink) {
  if (sink != nullptr) sinks_.push_back(sink);
}

void Trace::remove_sink(TraceSink* sink) {
  sinks_.erase(std::remove(sinks_.begin(), sinks_.end(), sink), sinks_.end());
}

void Trace::record_slow(const TraceEvent& event) {
  for (TraceSink* sink : sinks_) sink->on_event(event);
  if (recorder_ == nullptr) {
    events_.push_back(event);
    return;
  }
  const bool critical = severity(event.kind) == Severity::kCritical;
  RingBuffer<Stored>& ring = critical ? recorder_->critical : recorder_->ring;
  if (ring.push_overwrite({event, recorder_->seq++})) {
    ++recorder_->dropped;
    if (critical) ++recorder_->dropped_critical;
  }
  view_dirty_ = true;
}

void Trace::rebuild_view() const {
  events_.clear();
  const RingBuffer<Stored>& ring = recorder_->ring;
  const RingBuffer<Stored>& critical = recorder_->critical;
  events_.reserve(ring.size() + critical.size());
  // Both rings are individually in recording (seq) order; merge on seq.
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < ring.size() || j < critical.size()) {
    const bool take_ring =
        j >= critical.size() ||
        (i < ring.size() && ring.at(i).seq < critical.at(j).seq);
    events_.push_back(take_ring ? ring.at(i++).event
                                : critical.at(j++).event);
  }
  view_dirty_ = false;
}

const std::vector<TraceEvent>& Trace::events() const {
  if (recorder_ != nullptr && view_dirty_) rebuild_view();
  return events_;
}

std::vector<TraceEvent> Trace::filtered(EventKind kind) const {
  std::vector<TraceEvent> out;
  for (const auto& e : events()) {
    if (e.kind == kind) out.push_back(e);
  }
  return out;
}

std::vector<TraceEvent> Trace::filtered(
    EventKind kind, const std::function<bool(const TraceEvent&)>& pred) const {
  std::vector<TraceEvent> out;
  for (const auto& e : events()) {
    if (e.kind == kind && pred(e)) out.push_back(e);
  }
  return out;
}

std::size_t Trace::count(EventKind kind) const {
  std::size_t n = 0;
  for (const auto& e : events()) {
    if (e.kind == kind) ++n;
  }
  return n;
}

void Trace::clear() {
  events_.clear();
  recorded_ = 0;
  if (recorder_ != nullptr) {
    recorder_->ring.clear();
    recorder_->critical.clear();
    recorder_->dropped = 0;
    recorder_->dropped_critical = 0;
    recorder_->seq = 0;
    view_dirty_ = false;
  }
}

std::string Trace::to_text() const {
  std::ostringstream os;
  for (const auto& e : events()) {
    os << e.time << ' ' << to_string(e.kind) << " a=" << e.a << " b=" << e.b
       << " c=" << e.c;
    if (!e.label.empty()) os << ' ' << e.label;
    os << '\n';
  }
  return os.str();
}

}  // namespace air::util
