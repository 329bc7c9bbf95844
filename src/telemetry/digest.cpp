#include "telemetry/digest.hpp"

#include <limits>

#include "util/json.hpp"

namespace air::telemetry {

namespace {

using util::json::Writer;

/// Inclusive lower bound of bucket `b` (bucket 0 also absorbs clamped
/// negative samples, so its lower bound is reported as 0).
std::int64_t bucket_lower_bound(std::size_t b) {
  return b == 0 ? 0 : Histogram::upper_bound(b - 1) + 1;
}

void write_histogram(Writer& w, const Histogram& h) {
  w.begin_object().key("buckets").begin_array();
  for (const std::uint64_t b : h.buckets) w.integer(b);
  w.end_array().key("count").integer(h.count);
  if (h.count > 0) {
    w.key("max").integer(h.max).key("min").integer(h.min);
    w.key("p50").integer(histogram_quantile(h, 500));
    w.key("p95").integer(histogram_quantile(h, 950));
    w.key("p99").integer(histogram_quantile(h, 990));
  }
  w.key("sum").integer(h.sum).end_object();
}

}  // namespace

Histogram histogram_delta(const Histogram& current, const Histogram& previous) {
  Histogram delta;
  delta.count = current.count - previous.count;
  delta.sum = current.sum - previous.sum;
  std::size_t lowest = Histogram::kBuckets;
  std::size_t highest = Histogram::kBuckets;
  for (std::size_t b = 0; b < Histogram::kBuckets; ++b) {
    delta.buckets[b] = current.buckets[b] - previous.buckets[b];
    if (delta.buckets[b] > 0) {
      if (lowest == Histogram::kBuckets) lowest = b;
      highest = b;
    }
  }
  if (delta.count == 0) return delta;  // min/max stay at their sentinels
  // Exact extremes when this window extended the cumulative ones (always
  // the case for the first window); bucket bounds otherwise.
  delta.min = (previous.count == 0 || current.min < previous.min)
                  ? current.min
                  : bucket_lower_bound(lowest);
  delta.max = (previous.count == 0 || current.max > previous.max)
                  ? current.max
                  : Histogram::upper_bound(highest);
  return delta;
}

std::int64_t histogram_quantile(const Histogram& histogram,
                                unsigned permille) {
  if (histogram.count == 0) return -1;
  if (permille > 1000) permille = 1000;
  // Rank of the requested sample, 1-based: ceil(permille/1000 * count),
  // clamped to [1, count] so p0 is the first sample and p100 the last.
  std::uint64_t rank =
      (histogram.count * static_cast<std::uint64_t>(permille) + 999) / 1000;
  if (rank == 0) rank = 1;
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < Histogram::kBuckets; ++b) {
    seen += histogram.buckets[b];
    if (seen >= rank) return Histogram::upper_bound(b);
  }
  return Histogram::upper_bound(Histogram::kBuckets - 1);
}

std::string_view to_string(Watchdog watchdog) {
  switch (watchdog) {
    case Watchdog::kDeadlineMissRate: return "deadline_miss_rate";
    case Watchdog::kJitterBudget: return "jitter_budget";
    case Watchdog::kHmErrorStorm: return "hm_error_storm";
    case Watchdog::kBusSaturation: return "bus_saturation";
    case Watchdog::kBusBacklogGrowth: return "bus_backlog_growth";
    case Watchdog::kSpanDropPressure: return "span_drop_pressure";
    case Watchdog::kCount: break;
  }
  return "unknown";
}

std::string digest_ndjson(std::string_view source,
                          const WindowDigest& digest) {
  // Members in name order, as every export writes them.
  std::string out;
  Writer w(out);
  w.begin_object();
  if (!digest.stations.empty()) {
    w.key("bus_backlog").integer(digest.bus_backlog);
    w.key("bus_frames_delivered").integer(digest.bus_frames_delivered);
    w.key("bus_frames_sent").integer(digest.bus_frames_sent);
  }
  w.key("end").integer(digest.end);
  if (!digest.partitions.empty()) {
    w.key("ipc_bytes").integer(digest.ipc_bytes);
    w.key("ipc_drops").integer(digest.ipc_drops);
    w.key("ipc_messages").integer(digest.ipc_messages);
    w.key("partitions").begin_array();
    for (std::size_t p = 0; p < digest.partitions.size(); ++p) {
      const PartitionWindow& pw = digest.partitions[p];
      w.begin_object().key("busy").integer(pw.busy_ticks);
      w.key("deadline_checks").integer(pw.deadline_checks);
      w.key("deadline_misses").integer(pw.deadline_misses);
      write_histogram(w.key("deadline_slack"), pw.deadline_slack);
      w.key("dispatches").integer(pw.dispatches);
      w.key("hm_errors").integer(pw.hm_errors);
      w.key("miss_rate_ewma_x65536").integer(pw.miss_rate_scaled);
      w.key("partition").integer(p);
      w.key("slack").integer(pw.slack_ticks).end_object();
    }
    w.end_array();
  }
  w.key("source").string(source);
  w.key("spans_dropped").integer(digest.spans_dropped);
  w.key("start").integer(digest.start);
  if (!digest.stations.empty()) {
    w.key("stations").begin_array();
    for (const StationWindow& sw : digest.stations) {
      w.begin_object().key("backlog").integer(sw.backlog);
      w.key("frames_delivered").integer(sw.frames_delivered);
      w.key("frames_sent").integer(sw.frames_sent);
      w.key("module").integer(sw.module).end_object();
    }
    w.end_array();
  }
  w.key("trace_dropped").integer(digest.trace_dropped);
  w.key("trace_dropped_critical").integer(digest.trace_dropped_critical);
  w.key("type").string("digest").key("window").integer(digest.index);
  w.end_object();
  out += '\n';
  return out;
}

std::string health_ndjson(std::string_view source, const HealthEvent& event) {
  std::string out;
  Writer w(out);
  w.begin_object().key("cause_span").integer(event.cause);
  w.key("detail").string(event.detail);
  w.key("partition").integer(event.partition);
  w.key("source").string(source);
  w.key("threshold").integer(event.threshold);
  w.key("tick").integer(event.tick);
  w.key("type").string("health");
  w.key("value").integer(event.value);
  w.key("watchdog").string(to_string(event.kind));
  w.key("window").integer(event.window_index).end_object();
  out += '\n';
  return out;
}

}  // namespace air::telemetry
