#include "telemetry/online.hpp"

#include <cstdio>

#include "util/assert.hpp"

namespace air::telemetry {

namespace {

/// Deltas of two cumulative counters (the second sample of a pair never
/// regresses: every source is monotonic).
std::int64_t delta(std::uint64_t current, std::uint64_t previous) {
  return static_cast<std::int64_t>(current - previous);
}

}  // namespace

const HealthEvent& HealthLog::keep(HealthEvent event) {
  ++raised_;
  if (ring_.push_overwrite(std::move(event))) ++evicted_;
  return ring_.at(ring_.size() - 1);
}

std::vector<HealthEvent> HealthLog::retained() const {
  std::vector<HealthEvent> out;
  out.reserve(ring_.size());
  for (std::size_t i = 0; i < ring_.size(); ++i) out.push_back(ring_.at(i));
  return out;
}

OnlinePlane::OnlinePlane(OnlineOptions options, std::string source,
                         std::size_t partition_count)
    : options_(options), source_(std::move(source)) {
  AIR_ASSERT_MSG(options_.window > 0, "online window must be positive");
  previous_.partitions.resize(partition_count);
  miss_rate_.assign(partition_count, Ewma{options_.ewma_shift});
  digest_.partitions.resize(partition_count);
}

void OnlinePlane::close_window(Ticks now, const OnlineSample& sample) {
  AIR_ASSERT_MSG(now == next_close_tick(),
                 "online window closed off its boundary tick");
  AIR_ASSERT(sample.partitions.size() == previous_.partitions.size());

  WindowDigest& digest = digest_;
  digest.index = windows_closed_;
  digest.start = static_cast<Ticks>(windows_closed_) * options_.window;
  digest.end = now + 1;
  for (std::size_t p = 0; p < sample.partitions.size(); ++p) {
    const OnlinePartitionSample& cur = sample.partitions[p];
    const OnlinePartitionSample& prev = previous_.partitions[p];
    PartitionWindow& pw = digest.partitions[p];
    pw.deadline_misses = delta(cur.deadline_misses, prev.deadline_misses);
    pw.deadline_checks = delta(cur.deadline_checks, prev.deadline_checks);
    pw.busy_ticks = delta(cur.busy_ticks, prev.busy_ticks);
    pw.slack_ticks = delta(cur.slack_ticks, prev.slack_ticks);
    pw.dispatches = delta(cur.dispatches, prev.dispatches);
    pw.hm_errors = delta(cur.hm_errors, prev.hm_errors);
    pw.deadline_slack = histogram_delta(cur.deadline_slack,
                                        prev.deadline_slack);
    miss_rate_[p].update(pw.deadline_misses);
    pw.miss_rate_scaled = miss_rate_[p].scaled();
  }
  digest.ipc_messages = delta(sample.ipc_messages, previous_.ipc_messages);
  digest.ipc_bytes = delta(sample.ipc_bytes, previous_.ipc_bytes);
  digest.ipc_drops = delta(sample.ipc_drops, previous_.ipc_drops);
  digest.spans_dropped = delta(sample.spans_dropped, previous_.spans_dropped);
  digest.trace_dropped = delta(sample.trace_dropped, previous_.trace_dropped);
  digest.trace_dropped_critical =
      delta(sample.trace_dropped_critical, previous_.trace_dropped_critical);

  if (sink_) sink_(digest_ndjson(source_, digest));

  // --- watchdogs, in fixed catalogue order (deterministic emission) ---
  const OnlineThresholds& t = options_.thresholds;
  for (std::size_t p = 0; p < digest.partitions.size(); ++p) {
    const PartitionWindow& pw = digest.partitions[p];
    if (pw.deadline_misses <= t.max_misses_per_window) continue;
    // Causally link the breach to the root-cause chain of the partition's
    // latest miss, when that miss was detected in this window.
    std::uint64_t cause = 0;
    std::string via;
    const auto partition = static_cast<std::int32_t>(p);
    const Anomaly* latest =
        spans_ != nullptr ? spans_->last_anomaly(partition) : nullptr;
    if (latest != nullptr && latest->detected_at >= digest.start &&
        latest->detected_at < digest.end) {
      for (const CauseLink& link : latest->chain) {
        if (link.span != 0) {
          cause = link.span;
          break;
        }
      }
      if (latest->chain.size() > 1) {
        via = " via " + std::string{to_string(latest->chain.back().what)};
      }
    }
    raise(now, Watchdog::kDeadlineMissRate, partition, pw.deadline_misses,
          t.max_misses_per_window,
          std::to_string(pw.deadline_misses) + " deadline miss(es) in window " +
              std::to_string(digest.index) + via,
          cause);
  }
  for (std::size_t p = 0; p < digest.partitions.size(); ++p) {
    const Histogram& slack = digest.partitions[p].deadline_slack;
    if (slack.count == 0 || slack.min >= t.jitter_min_slack) continue;
    raise(now, Watchdog::kJitterBudget, static_cast<std::int32_t>(p),
          slack.min, t.jitter_min_slack,
          "window min deadline slack " + std::to_string(slack.min) +
              " below jitter budget " + std::to_string(t.jitter_min_slack));
  }
  std::int64_t hm_total = 0;
  for (const PartitionWindow& pw : digest.partitions) {
    hm_total += pw.hm_errors;
  }
  if (hm_total >= t.hm_storm_errors) {
    raise(now, Watchdog::kHmErrorStorm, -1, hm_total, t.hm_storm_errors,
          std::to_string(hm_total) + " HM report(s) in one window");
  }
  if (digest.spans_dropped >= t.span_drop_limit) {
    raise(now, Watchdog::kSpanDropPressure, -1, digest.spans_dropped,
          t.span_drop_limit,
          std::to_string(digest.spans_dropped) +
              " span eviction(s) in one window");
  } else if (digest.trace_dropped_critical > 0) {
    raise(now, Watchdog::kSpanDropPressure, -1,
          digest.trace_dropped_critical, 1,
          std::to_string(digest.trace_dropped_critical) +
              " critical trace eviction(s) in one window");
  }

  previous_ = sample;
  ++windows_closed_;
}

void OnlinePlane::raise(Ticks now, Watchdog kind, std::int32_t partition,
                        std::int64_t value, std::int64_t threshold,
                        std::string detail, std::uint64_t cause) {
  HealthEvent event;
  event.tick = now;
  event.kind = kind;
  event.partition = partition;
  event.value = value;
  event.threshold = threshold;
  event.window_index = windows_closed_;
  event.cause = cause;
  event.detail = std::move(detail);
  const HealthEvent& kept = health_.keep(std::move(event));
  if (spans_ != nullptr) {
    spans_->instant(SpanKind::kHealth, now, cause, 0, partition,
                    static_cast<std::int64_t>(kind), value,
                    std::string{to_string(kind)});
  }
  if (sink_) sink_(health_ndjson(source_, kept));
}

std::string OnlinePlane::summary_line() const {
  char line[224];
  const int n = std::snprintf(
      line, sizeof line,
      "  online: windows=%llu (length %lld) breaches=%llu "
      "events_evicted=%llu",
      static_cast<unsigned long long>(windows_closed_),
      static_cast<long long>(options_.window),
      static_cast<unsigned long long>(health_.raised()),
      static_cast<unsigned long long>(health_.evicted()));
  std::string out(line, static_cast<std::size_t>(n));
  if (const HealthEvent* last = health_.last(); last != nullptr) {
    out += " last=" + std::string{to_string(last->kind)} + "@" +
           std::to_string(last->tick) + " (partition " +
           std::to_string(last->partition) + ")";
  }
  return out + "\n";
}

BusPlane::BusPlane(OnlineOptions options, std::string source)
    : options_(options), source_(std::move(source)) {
  AIR_ASSERT_MSG(options_.window > 0, "online window must be positive");
}

void BusPlane::close_through(Ticks completed, const BusSample& sample) {
  while (next_close_tick() <= completed) {
    close_one(next_close_tick(), sample);
  }
}

void BusPlane::close_one(Ticks now, const BusSample& sample) {
  WindowDigest& digest = digest_;
  digest.index = windows_closed_;
  digest.start = static_cast<Ticks>(windows_closed_) * options_.window;
  digest.end = now + 1;
  digest.bus_frames_sent = delta(sample.frames_sent, previous_.frames_sent);
  digest.bus_frames_delivered =
      delta(sample.frames_delivered, previous_.frames_delivered);
  digest.bus_backlog = static_cast<std::int64_t>(sample.backlog);
  digest.spans_dropped = delta(sample.spans_dropped, previous_.spans_dropped);
  digest.stations.resize(sample.stations.size());
  for (std::size_t s = 0; s < sample.stations.size(); ++s) {
    const StationWindow& cur = sample.stations[s];
    StationWindow& out = digest.stations[s];
    out.module = cur.module;
    out.backlog = cur.backlog;
    if (s < previous_.stations.size()) {
      const StationWindow& prev = previous_.stations[s];
      out.frames_sent = cur.frames_sent - prev.frames_sent;
      out.frames_delivered = cur.frames_delivered - prev.frames_delivered;
    } else {
      out.frames_sent = cur.frames_sent;
      out.frames_delivered = cur.frames_delivered;
    }
  }

  if (sink_) sink_(digest_ndjson(source_, digest));

  const OnlineThresholds& t = options_.thresholds;
  if (digest.bus_backlog >= t.bus_backlog_limit) {
    raise(now, Watchdog::kBusSaturation, digest.bus_backlog,
          t.bus_backlog_limit,
          "tx backlog " + std::to_string(digest.bus_backlog) +
              " at window boundary");
  }
  if (digest.bus_backlog > 0 && digest.bus_backlog > last_backlog_) {
    ++growth_streak_;
  } else {
    growth_streak_ = 0;
  }
  last_backlog_ = digest.bus_backlog;
  if (growth_streak_ >= t.bus_growth_windows) {
    raise(now, Watchdog::kBusBacklogGrowth, digest.bus_backlog,
          t.bus_growth_windows,
          "backlog grew across " + std::to_string(growth_streak_) +
              " consecutive windows");
    growth_streak_ = 0;  // re-arm: the next breach needs a fresh streak
  }
  if (digest.spans_dropped >= t.span_drop_limit) {
    raise(now, Watchdog::kSpanDropPressure, digest.spans_dropped,
          t.span_drop_limit,
          std::to_string(digest.spans_dropped) +
              " bus span eviction(s) in one window");
  }

  previous_ = sample;
  ++windows_closed_;
}

void BusPlane::raise(Ticks now, Watchdog kind, std::int64_t value,
                     std::int64_t threshold, std::string detail) {
  HealthEvent event;
  event.tick = now;
  event.kind = kind;
  event.partition = -1;
  event.value = value;
  event.threshold = threshold;
  event.window_index = windows_closed_;
  event.detail = std::move(detail);
  const HealthEvent& kept = health_.keep(std::move(event));
  if (spans_ != nullptr) {
    spans_->instant(SpanKind::kHealth, now, 0, 0, -1,
                    static_cast<std::int64_t>(kind), value,
                    std::string{to_string(kind)});
  }
  if (sink_) sink_(health_ndjson(source_, kept));
}

std::string BusPlane::summary_line() const {
  char line[192];
  std::snprintf(line, sizeof line,
                "  bus online: windows=%llu (length %lld) breaches=%llu "
                "events_evicted=%llu\n",
                static_cast<unsigned long long>(windows_closed_),
                static_cast<long long>(options_.window),
                static_cast<unsigned long long>(health_.raised()),
                static_cast<unsigned long long>(health_.evicted()));
  return line;
}

}  // namespace air::telemetry
