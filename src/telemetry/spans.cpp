#include "telemetry/spans.hpp"

#include <algorithm>

#include "util/json.hpp"

namespace air::telemetry {

std::string_view to_string(SpanKind kind) {
  switch (kind) {
    case SpanKind::kPartitionWindow: return "partition_window";
    case SpanKind::kJob: return "job";
    case SpanKind::kMsgSend: return "msg_send";
    case SpanKind::kMsgRouterHop: return "msg_router_hop";
    case SpanKind::kMsgBusTransit: return "msg_bus_transit";
    case SpanKind::kMsgReceive: return "msg_receive";
    case SpanKind::kHmHandler: return "hm_handler";
    case SpanKind::kScheduleSwitch: return "schedule_switch";
    case SpanKind::kHealth: return "health";
    case SpanKind::kCount: break;
  }
  return "unknown";
}

std::string_view to_string(SpanStatus status) {
  switch (status) {
    case SpanStatus::kOpen: return "open";
    case SpanStatus::kOk: return "ok";
    case SpanStatus::kDeadlineMiss: return "deadline_miss";
    case SpanStatus::kAborted: return "aborted";
  }
  return "unknown";
}

std::string_view to_string(Cause cause) {
  switch (cause) {
    case Cause::kDeadlineMiss: return "deadline_miss";
    case Cause::kJobReleased: return "job_released";
    case Cause::kWindowEndPreemption: return "window_end_preemption";
    case Cause::kPartitionInactive: return "partition_inactive";
    case Cause::kScheduleSwitch: return "schedule_switch";
    case Cause::kRequestedBy: return "requested_by";
    case Cause::kCapacityOverrun: return "capacity_overrun";
  }
  return "unknown";
}

std::string detail(const CauseLink& link) {
  const std::string at = std::to_string(link.at);
  switch (link.what) {
    case Cause::kDeadlineMiss:
      return "deadline " + std::to_string(link.a) + " expired for process " +
             std::to_string(link.b);
    case Cause::kJobReleased:
      return "job released at " + at + " in partition " +
             std::to_string(link.a);
    case Cause::kWindowEndPreemption:
      return "partition window closed at " + at;
    case Cause::kPartitionInactive:
      return "deadline expired while the partition was not scheduled";
    case Cause::kScheduleSwitch:
      return "schedule " + std::to_string(link.a) + " -> " +
             std::to_string(link.b) + " took effect at " + at;
    case Cause::kRequestedBy:
      return "SET_MODULE_SCHEDULE issued at " + at;
    case Cause::kCapacityOverrun:
      return "no preemption between release and miss; job exceeded its "
             "time capacity";
  }
  return {};
}

namespace {

bool is_message_kind(SpanKind kind) {
  return kind == SpanKind::kMsgSend || kind == SpanKind::kMsgRouterHop ||
         kind == SpanKind::kMsgBusTransit || kind == SpanKind::kMsgReceive;
}

}  // namespace

void SpanRecorder::set_capacity(std::size_t capacity) {
  capacity_ = capacity;
  if (anomalies_ != nullptr && capacity_ > 0 &&
      anomalies_->capacity() > capacity_) {
    rehome_anomalies(capacity_);
  }
  if (capacity_ == 0) {
    // Back to unbounded: materialise the ring into the vector and drop it.
    if (ring_ != nullptr) {
      (void)closed();  // refresh the view
      ring_.reset();
      view_dirty_ = false;
    }
    return;
  }
  auto ring = std::make_unique<util::RingBuffer<Span>>(capacity_);
  for (const Span& span : closed()) {
    if (ring->push_overwrite(span)) ++dropped_;
  }
  ring_ = std::move(ring);
  closed_.clear();
  view_dirty_ = true;
}

InternedString SpanRecorder::intern(std::string_view text) {
  if (text.empty()) return {};
  if (arena_ == nullptr) {
    owned_arena_ = std::make_unique<StringArena>();
    arena_ = owned_arena_.get();
  }
  return {arena_, arena_->intern(text)};
}

SpanId SpanRecorder::begin(SpanKind kind, Ticks start, SpanId parent,
                           std::uint64_t trace_id, std::int64_t a,
                           std::int64_t b, std::int64_t c,
                           std::string_view label) {
  if (!enabled_) return 0;
  Span span;
  span.id = ((static_cast<std::uint64_t>(origin_) + 1) << 32) | ++seq_;
  span.parent = parent;
  // A message span without a flow becomes its own flow root, so every leg
  // it hands the context to shares one trace id end to end.
  span.trace_id =
      (trace_id == 0 && is_message_kind(kind)) ? span.id : trace_id;
  span.kind = kind;
  span.start = start;
  span.a = a;
  span.b = b;
  span.c = c;
  span.label = intern(label);
  if (kind == SpanKind::kPartitionWindow) {
    const auto partition = static_cast<std::int32_t>(a);
    const SpanId id = span.id;
    auto it = std::find_if(
        current_window_.begin(), current_window_.end(),
        [partition](const auto& e) { return e.first == partition; });
    if (it != current_window_.end()) {
      it->second = id;
    } else {
      current_window_.emplace_back(partition, id);
    }
  }
  const SpanId id = span.id;
  open_.push_back(span);
  return id;
}

void SpanRecorder::annotate(SpanId id, std::int64_t a, std::int64_t b,
                            std::int64_t c) {
  if (!enabled_ || id == 0) return;
  for (Span& span : open_) {
    if (span.id == id) {
      span.a = a;
      span.b = b;
      span.c = c;
      return;
    }
  }
}

void SpanRecorder::end(SpanId id, Ticks end, SpanStatus status) {
  if (!enabled_ || id == 0) return;
  const auto it = std::find_if(open_.begin(), open_.end(),
                               [id](const Span& s) { return s.id == id; });
  if (it == open_.end()) return;
  Span span = std::move(*it);
  open_.erase(it);
  span.end = end;
  span.status = status;
  retire(std::move(span));
}

SpanId SpanRecorder::instant(SpanKind kind, Ticks at, SpanId parent,
                             std::uint64_t trace_id, std::int64_t a,
                             std::int64_t b, std::int64_t c,
                             std::string_view label) {
  const SpanId id = begin(kind, at, parent, trace_id, a, b, c, label);
  end(id, at, SpanStatus::kOk);
  return id;
}

SpanId SpanRecorder::current_window(std::int32_t partition) const {
  for (const auto& [key, id] : current_window_) {
    if (key == partition) return id;
  }
  return 0;
}

Span SpanRecorder::last_window(std::int32_t partition) const {
  for (const auto& [key, span] : last_window_) {
    if (key == partition) return span;
  }
  return Span{};
}

Span SpanRecorder::last_ended(SpanKind kind) const {
  return last_ended_[static_cast<std::size_t>(kind)];
}

void SpanRecorder::add_anomaly(const Anomaly& anomaly) {
  if (!enabled_) return;
  if (anomalies_ == nullptr ||
      (anomalies_->full() &&
       (capacity_ == 0 || anomalies_->capacity() < capacity_))) {
    const std::size_t grown =
        anomalies_ == nullptr ? 16 : 2 * anomalies_->capacity();
    rehome_anomalies(capacity_ == 0 ? grown : std::min(grown, capacity_));
  }
  if (anomalies_->push_overwrite(anomaly)) ++dropped_anomalies_;
  for (auto& [key, cached] : last_anomaly_) {
    if (key == anomaly.partition) {
      cached = anomaly;
      return;
    }
  }
  last_anomaly_.emplace_back(anomaly.partition, anomaly);
}

void SpanRecorder::rehome_anomalies(std::size_t capacity) {
  auto ring = std::make_unique<util::RingBuffer<Anomaly>>(capacity);
  for (std::size_t i = 0; anomalies_ != nullptr && i < anomalies_->size();
       ++i) {
    if (ring->push_overwrite(anomalies_->at(i))) ++dropped_anomalies_;
  }
  anomalies_ = std::move(ring);
}

std::vector<Anomaly> SpanRecorder::anomalies() const {
  std::vector<Anomaly> out;
  out.reserve(anomaly_count());
  for (std::size_t i = 0; i < anomaly_count(); ++i) {
    out.push_back(anomalies_->at(i));
  }
  return out;
}

const Anomaly* SpanRecorder::last_anomaly(std::int32_t partition) const {
  for (const auto& [key, anomaly] : last_anomaly_) {
    if (key == partition) return &anomaly;
  }
  return nullptr;
}

const Span* SpanRecorder::find_open(SpanId id) const {
  for (const Span& span : open_) {
    if (span.id == id) return &span;
  }
  return nullptr;
}

std::vector<Span> SpanRecorder::open_spans() const { return open_; }

void SpanRecorder::clear() {
  seq_ = 0;
  open_.clear();
  closed_.clear();
  if (ring_ != nullptr) {
    ring_->clear();
    view_dirty_ = false;
  }
  closed_total_ = 0;
  dropped_ = 0;
  last_ended_.fill(Span{});
  current_window_.clear();
  last_window_.clear();
  pending_cause_ = 0;
  pending_switch_ = 0;
  if (anomalies_ != nullptr) anomalies_->clear();
  dropped_anomalies_ = 0;
  last_anomaly_.clear();
}

const std::vector<Span>& SpanRecorder::closed() const {
  if (ring_ != nullptr && view_dirty_) {
    closed_.clear();
    closed_.reserve(ring_->size());
    for (std::size_t i = 0; i < ring_->size(); ++i) {
      closed_.push_back(ring_->at(i));
    }
    view_dirty_ = false;
  }
  return closed_;
}

void SpanRecorder::retire(Span span) {
  if (span.kind == SpanKind::kPartitionWindow) {
    const auto partition = static_cast<std::int32_t>(span.a);
    for (auto& [key, id] : current_window_) {
      if (key == partition) {
        // Entries are reset, never erased: the partition set is fixed at
        // configuration time, so the cache stops allocating after warm-up.
        if (id == span.id) id = 0;
        break;
      }
    }
    bool found = false;
    for (auto& [key, cached] : last_window_) {
      if (key == partition) {
        cached = span;
        found = true;
        break;
      }
    }
    if (!found) last_window_.emplace_back(partition, span);
  }
  last_ended_[static_cast<std::size_t>(span.kind)] = span;
  ++closed_total_;
  if (ring_ != nullptr) {
    if (ring_->push_overwrite(span)) ++dropped_;
    view_dirty_ = true;
    return;
  }
  closed_.push_back(span);
}

std::string spans_to_json(const SpanRecorder& spans, int indent) {
  std::vector<Span> all(spans.closed().begin(), spans.closed().end());
  const std::vector<Span> open = spans.open_spans();
  all.insert(all.end(), open.begin(), open.end());
  // Retirement order depends on when spans close; (start, id) is the stable
  // causal order the analyzer and the equivalence suites want.
  std::stable_sort(all.begin(), all.end(), [](const Span& x, const Span& y) {
    if (x.start != y.start) return x.start < y.start;
    return x.id < y.id;
  });

  // Members in name order, as every export writes them.
  std::string out;
  util::json::Writer w(out, indent);
  w.begin_object().key("anomalies").begin_array();
  for (const Anomaly& anomaly : spans.anomalies()) {
    w.begin_object().key("chain").begin_array();
    for (const CauseLink& link : anomaly.chain) {
      w.begin_object().key("at").integer(link.at);
      w.key("detail").string(detail(link));
      w.key("span").integer(link.span);
      w.key("what").string(to_string(link.what)).end_object();
    }
    w.end_array().key("deadline").integer(anomaly.deadline);
    w.key("detected_at").integer(anomaly.detected_at);
    w.key("partition").integer(anomaly.partition);
    w.key("process").integer(anomaly.process).end_object();
  }
  w.end_array().key("meta").begin_object();
  w.key("dropped").integer(spans.dropped_spans());
  w.key("open").integer(spans.open_count());
  w.key("origin").integer(spans.origin());
  w.key("recorded").integer(spans.recorded_spans()).end_object();
  w.key("spans").begin_array();
  for (const Span& span : all) {
    w.begin_object().key("a").integer(span.a).key("b").integer(span.b);
    w.key("c").integer(span.c).key("end").integer(span.end);
    w.key("id").integer(span.id).key("kind").string(to_string(span.kind));
    if (!span.label.empty()) w.key("label").string(span.label.view());
    w.key("parent").integer(span.parent).key("start").integer(span.start);
    w.key("status").string(to_string(span.status));
    w.key("trace_id").integer(span.trace_id).end_object();
  }
  w.end_array().end_object();
  return out;
}

}  // namespace air::telemetry
