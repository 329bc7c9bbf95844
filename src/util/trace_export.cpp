#include "util/trace_export.hpp"

#include <map>

namespace air::util {

ChromeTrace::ChromeTrace() {
  w_.begin_object().key("displayTimeUnit").string("ms");
  w_.key("traceEvents").begin_array();
}

void ChromeTrace::fields(const ChromeEvent& e, json::Writer& w) {
  if (!e.bp.empty()) w.key("bp").string(e.bp);
  if (!e.cat.empty()) w.key("cat").string(e.cat);
  if (e.dur) w.key("dur").real(*e.dur);
  if (!e.id.empty()) w.key("id").string(e.id);
  w.key("name").string(e.name).key("ph").string(e.ph).key("pid").integer(e.pid);
  if (!e.s.empty()) w.key("s").string(e.s);
  if (e.tid) w.key("tid").integer(*e.tid);
  if (e.ts) w.key("ts").real(*e.ts);
  w.end_object();
}

std::string ChromeTrace::finish() {
  w_.end_array().end_object();
  return std::move(out_);
}

std::string to_chrome_trace(const Trace& trace, double tick_us) {
  ChromeTrace chrome;
  const auto instant = [&chrome](std::string_view name, double ts,
                                 std::int64_t track, std::string_view label) {
    const ChromeEvent e{
        .name = name, .ph = "i", .ts = ts, .tid = track, .s = "t"};
    if (label.empty()) {
      chrome.event(e);
    } else {
      chrome.event(e, [&](json::Writer& w) { w.key("detail").string(label); });
    }
  };
  // Counter event ("ph":"C"): Perfetto renders one stacked-area track per
  // `name`, sampling `args` at each ts.
  const auto counter = [&chrome](std::string_view name, double ts,
                                 std::string_view series, double value) {
    chrome.event({.name = name, .ph = "C", .ts = ts},
                 [&](json::Writer& w) { w.key(series).real(value); });
  };

  // Partition occupancy: open a duration on dispatch, close it when another
  // partition (or idle) takes over. Cumulative busy time per partition
  // feeds the utilization counter tracks.
  std::int64_t active = -1;
  double active_since = 0;
  std::map<std::int64_t, double> busy_us;
  auto close_active = [&](double ts) {
    if (active < 0) return;
    chrome.event({.name = 'P' + std::to_string(active + 1) + " window",
                  .ph = "X",
                  .ts = active_since,
                  .dur = ts - active_since,
                  .tid = active});
    busy_us[active] += ts - active_since;
    if (ts > 0) {
      counter('P' + std::to_string(active + 1) + " utilization", ts,
              "percent", 100.0 * busy_us[active] / ts);
    }
  };

  double last_ts = 0;
  std::int64_t miss_count = 0;
  for (const TraceEvent& e : trace.events()) {
    const double ts = static_cast<double>(e.time) * tick_us;
    last_ts = ts;
    switch (e.kind) {
      case EventKind::kPartitionDispatch:
        close_active(ts);
        active = e.a;
        active_since = ts;
        break;
      case EventKind::kDeadlineMiss:
        instant("deadline miss", ts, e.a,
                "process " + std::to_string(e.b) +
                    " missed t=" + std::to_string(e.c));
        counter("deadline misses", ts, "count",
                static_cast<double>(++miss_count));
        break;
      case EventKind::kScheduleSwitch:
        instant("schedule switch", ts, -1,
                "chi_" + std::to_string(e.b + 1) + " -> chi_" +
                    std::to_string(e.a + 1));
        break;
      case EventKind::kHmError:
        instant("HM report", ts, e.a, e.label.view());
        break;
      case EventKind::kSpatialViolation:
        instant("spatial violation", ts, e.a, "vaddr " + std::to_string(e.c));
        break;
      default:
        break;
    }
  }
  close_active(last_ts + tick_us);
  return chrome.finish();
}

std::string to_json(const Trace& trace) {
  std::string out;
  json::Writer w(out, 2);
  w.begin_array();
  for (const TraceEvent& e : trace.events()) {
    w.begin_object().key("a").integer(e.a).key("b").integer(e.b);
    w.key("c").integer(e.c).key("kind").string(to_string(e.kind));
    if (!e.label.empty()) w.key("label").string(e.label.view());
    w.key("t").integer(e.time).end_object();
  }
  w.end_array();
  return out;
}

}  // namespace air::util
