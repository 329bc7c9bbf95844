// Trace exporters.
//
// to_chrome_trace() converts a module trace into the Chrome Trace Event
// JSON format (load in chrome://tracing or Perfetto): partition occupancy
// becomes duration events on a per-partition track, while deadline misses,
// schedule switches and HM reports become instant events. Counter events
// ("ph":"C") add per-partition CPU-utilization curves and a cumulative
// deadline-miss series under the Gantt tracks. Useful for eyeballing
// exactly the charts the paper draws (Fig. 8). It writes through
// ChromeTrace, the document writer the span timeline of
// telemetry::analyze and `air-profile --chrome` use as well.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "util/json.hpp"
#include "util/trace.hpp"

namespace air::util {

/// One Chrome Trace Event; members left empty or unset are not written.
struct ChromeEvent {
  std::string_view name{};
  std::string_view ph{};  // phase: "X", "i", "C", "M", "b"/"e", "s"/"t"/"f"
  std::optional<double> ts{};  // microseconds; metadata events have none
  std::optional<double> dur{};
  std::int64_t pid{0};
  std::optional<std::int64_t> tid{};
  std::string_view cat{};
  std::string_view id{};
  std::string_view s{};   // instant-event scope
  std::string_view bp{};  // flow binding point
};

/// A Chrome Trace Event document, {"displayTimeUnit": "ms",
/// "traceEvents": [...]} at indent 2: the envelope and event layout shared
/// by the trace, span-timeline and profile views, which differ only in the
/// events they pick. An event's members come out sorted by name.
class ChromeTrace {
 public:
  ChromeTrace();
  ChromeTrace(const ChromeTrace&) = delete;
  ChromeTrace& operator=(const ChromeTrace&) = delete;

  void event(const ChromeEvent& e) { fields(e, w_.begin_object()); }
  /// An event with an "args" object, whose sorted members
  /// `args(json::Writer&)` writes.
  template <class Args>
  void event(const ChromeEvent& e, Args&& args) {
    args(w_.begin_object().key("args").begin_object());
    fields(e, w_.end_object());
  }

  /// Closes the document and hands it over.
  [[nodiscard]] std::string finish();

 private:
  /// Writes `e`'s members and closes the event.
  static void fields(const ChromeEvent& e, json::Writer& w);

  std::string out_;
  json::Writer w_{out_, 2};
};

/// Chrome Trace Event JSON. `tick_us` scales ticks to microseconds on the
/// timeline (default: 1 tick = 1 us).
[[nodiscard]] std::string to_chrome_trace(const Trace& trace,
                                          double tick_us = 1.0);

/// Flat JSON array of every event (machine-readable dump of the trace).
[[nodiscard]] std::string to_json(const Trace& trace);

}  // namespace air::util
