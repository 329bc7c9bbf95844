#include "telemetry/analysis.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>

#include "util/trace_export.hpp"

namespace air::telemetry {

namespace {

using util::ChromeTrace;
using util::json::Value;

bool parse_into(const std::string& text, Value& out, std::string* error) {
  if (text.empty()) {
    out = Value{};
    return true;
  }
  util::json::ParseResult result = util::json::parse(text);
  if (!result.ok()) {
    if (error != nullptr) *error = result.error->to_string();
    return false;
  }
  out = std::move(*result.value);
  return true;
}

/// One span row as exported by spans_to_json, plus where it came from.
struct Row {
  std::uint64_t id{0};
  std::uint64_t parent{0};
  std::uint64_t trace_id{0};
  std::string kind;
  std::string status;
  std::int64_t start{0};
  std::int64_t end{-1};
  std::int64_t a{-1};
  std::int64_t b{-1};
  std::int64_t c{-1};
  std::string label;
  std::size_t module{0};  // index into input.modules; modules.size() = bus
};

std::vector<Row> rows_of(const Value& spans_doc, std::size_t module) {
  std::vector<Row> rows;
  const Value* spans = spans_doc.find("spans");
  if (spans == nullptr || !spans->is_array()) return rows;
  for (const Value& v : spans->as_array()) {
    if (!v.is_object()) continue;
    Row row;
    row.id = static_cast<std::uint64_t>(v.get_int("id", 0));
    row.parent = static_cast<std::uint64_t>(v.get_int("parent", 0));
    row.trace_id = static_cast<std::uint64_t>(v.get_int("trace_id", 0));
    row.kind = v.get_string("kind", "");
    row.status = v.get_string("status", "");
    row.start = v.get_int("start", 0);
    row.end = v.get_int("end", -1);
    row.a = v.get_int("a", -1);
    row.b = v.get_int("b", -1);
    row.c = v.get_int("c", -1);
    row.label = v.get_string("label", "");
    row.module = module;
    rows.push_back(std::move(row));
  }
  return rows;
}

/// Counter lookup in a metrics snapshot document (-1 when absent).
std::int64_t counter_of(const Value& metrics_doc, std::string_view name,
                        std::int64_t index) {
  const Value* metrics = metrics_doc.find("metrics");
  if (metrics == nullptr || !metrics->is_array()) return -1;
  for (const Value& v : metrics->as_array()) {
    if (v.get_string("name", "") == name && v.get_int("index", -2) == index) {
      return v.get_int("value", -1);
    }
  }
  return -1;
}

// ---------- Chrome Trace Event emission ----------

void metadata(ChromeTrace& chrome, const char* what, std::int64_t pid,
              std::optional<std::int64_t> tid, std::string_view name) {
  chrome.event({.name = what, .ph = "M", .pid = pid, .tid = tid},
               [&](util::json::Writer& w) { w.key("name").string(name); });
}

std::string hex_id(std::uint64_t id) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%llx",
                static_cast<unsigned long long>(id));
  return buf;
}

/// Control-plane track (schedule switches, module-level HM reports).
constexpr std::int64_t kControlTid = 900;

void emit_span_events(const Row& row, double tick_us, ChromeTrace& chrome) {
  const auto pid = static_cast<std::int64_t>(row.module);
  const double ts = static_cast<double>(row.start) * tick_us;
  const double dur =
      row.end >= row.start ? static_cast<double>(row.end - row.start) * tick_us
                           : 0.0;
  if (row.kind == "partition_window") {
    if (row.end < 0) return;  // still open at export time
    chrome.event({.name = "P" + std::to_string(row.a + 1) + " window",
                  .ph = "X", .ts = ts, .dur = dur, .pid = pid, .tid = row.a});
    return;
  }
  if (row.kind == "job") {
    if (row.end < 0) return;
    const std::string name =
        "P" + std::to_string(row.a + 1) + " job proc" + std::to_string(row.b);
    const std::string id = hex_id(row.id);
    chrome.event({.name = name, .ph = "b", .ts = ts, .pid = pid,
                  .tid = row.a, .cat = "job", .id = id},
                 [&](util::json::Writer& w) {
                   w.key("deadline").integer(row.c);
                   w.key("status").string(row.status);
                 });
    chrome.event({.name = name, .ph = "e",
                  .ts = static_cast<double>(row.end) * tick_us, .pid = pid,
                  .tid = row.a, .cat = "job", .id = id});
    return;
  }
  if (row.kind == "msg_send" || row.kind == "msg_router_hop" ||
      row.kind == "msg_bus_transit" || row.kind == "msg_receive") {
    const std::int64_t tid =
        row.kind == "msg_bus_transit" ? 0 : std::max<std::int64_t>(row.a, 0);
    std::string name = row.kind;
    if (row.kind == "msg_bus_transit") {
      name += " M" + std::to_string(row.a) + "->M" + std::to_string(row.b);
    }
    chrome.event({.name = name, .ph = "X", .ts = ts, .dur = dur, .pid = pid,
                  .tid = tid});
    // Flow arrow: start at the send leg, step through hops and transit,
    // terminate at the receive leg. Perfetto binds each to the slice above.
    const char* ph = row.kind == "msg_send"      ? "s"
                     : row.kind == "msg_receive" ? "f"
                                                 : "t";
    chrome.event({.name = "msg flow", .ph = ph, .ts = ts, .pid = pid,
                  .tid = tid, .cat = "msg", .id = hex_id(row.trace_id),
                  .bp = row.kind == "msg_receive" ? "e" : ""});
    return;
  }
  if (row.kind == "hm_handler") {
    chrome.event({.name = row.label.empty() ? "HM handler" : "HM " + row.label,
                  .ph = "i", .ts = ts, .pid = pid,
                  .tid = row.a >= 0 ? row.a : kControlTid, .s = "t"});
    return;
  }
  if (row.kind == "schedule_switch") {
    if (row.end < 0) return;  // switch requested but not yet in effect
    chrome.event({.name = "schedule " + std::to_string(row.b) + " -> " +
                          std::to_string(row.a),
                  .ph = "X", .ts = ts, .dur = dur, .pid = pid,
                  .tid = kControlTid});
  }
}

std::string fmt_ll(std::int64_t v) { return std::to_string(v); }

}  // namespace

bool AnalysisInput::add_module(std::string name, const std::string& trace_json,
                               const std::string& metrics_json,
                               const std::string& spans_json,
                               std::string* error) {
  ModuleArtifacts artifacts;
  artifacts.name = std::move(name);
  if (!parse_into(trace_json, artifacts.trace, error) ||
      !parse_into(metrics_json, artifacts.metrics, error) ||
      !parse_into(spans_json, artifacts.spans, error)) {
    return false;
  }
  modules.push_back(std::move(artifacts));
  return true;
}

bool AnalysisInput::set_bus_spans(const std::string& spans_json,
                                  std::string* error) {
  return parse_into(spans_json, bus_spans, error);
}

bool AnalysisInput::set_baseline(const std::string& metrics_json,
                                 std::string* error) {
  return parse_into(metrics_json, baseline, error);
}

AnalysisResult analyze(const AnalysisInput& input) {
  AnalysisResult result;
  const std::size_t bus_index = input.modules.size();

  // Gather every span row, tagged with its source.
  std::vector<Row> rows;
  for (std::size_t i = 0; i < input.modules.size(); ++i) {
    const std::vector<Row> module_rows = rows_of(input.modules[i].spans, i);
    rows.insert(rows.end(), module_rows.begin(), module_rows.end());
  }
  const std::vector<Row> bus_rows = rows_of(input.bus_spans, bus_index);
  rows.insert(rows.end(), bus_rows.begin(), bus_rows.end());
  std::stable_sort(rows.begin(), rows.end(), [](const Row& x, const Row& y) {
    if (x.start != y.start) return x.start < y.start;
    return x.id < y.id;
  });

  // ---------- Chrome trace ----------
  ChromeTrace chrome;
  for (std::size_t i = 0; i < input.modules.size(); ++i) {
    metadata(chrome, "process_name", static_cast<std::int64_t>(i),
             std::nullopt, input.modules[i].name);
  }
  if (!bus_rows.empty()) {
    metadata(chrome, "process_name", static_cast<std::int64_t>(bus_index),
             std::nullopt, "bus");
  }
  std::set<std::pair<std::int64_t, std::int64_t>> named_tracks;
  for (const Row& row : rows) {
    const auto pid = static_cast<std::int64_t>(row.module);
    const std::int64_t tid = row.kind == "schedule_switch" ? kControlTid
                             : row.kind == "msg_bus_transit"
                                 ? 0
                                 : std::max<std::int64_t>(row.a, 0);
    if (named_tracks.insert({pid, tid}).second) {
      metadata(chrome, "thread_name", pid, tid,
               row.module == bus_index ? "transit"
               : tid == kControlTid    ? "control"
                                       : "partition " + std::to_string(tid));
    }
  }
  for (const Row& row : rows) emit_span_events(row, input.tick_us, chrome);

  // ---------- flow connectivity ----------
  struct Flow {
    std::set<std::uint32_t> origins;
    bool has_send{false};
    bool has_receive{false};
  };
  std::map<std::uint64_t, Flow> flows;
  for (const Row& row : rows) {
    if (row.trace_id == 0) continue;
    Flow& flow = flows[row.trace_id];
    flow.origins.insert(static_cast<std::uint32_t>((row.id >> 32) - 1));
    if (row.kind == "msg_send") flow.has_send = true;
    if (row.kind == "msg_receive") flow.has_receive = true;
  }
  for (const auto& [id, flow] : flows) {
    if (flow.origins.size() > 1) ++result.cross_module_flows;
    if (flow.has_receive && !flow.has_send) ++result.broken_flows;
  }

  // ---------- report ----------
  std::string& report = result.report;
  report += "AIR flight-data analysis\n";
  report += "========================\n";
  report += "modules: " + std::to_string(input.modules.size()) + "\n\n";

  report += "-- partition utilisation / jitter / slack --\n";
  report +=
      "module       part  util%   busy      slack     windows jitter  jobs  "
      "slack_min slack_avg\n";
  for (std::size_t i = 0; i < input.modules.size(); ++i) {
    const ModuleArtifacts& m = input.modules[i];
    // Partitions present in this module, from window/job spans and metrics.
    std::set<std::int64_t> partitions;
    for (const Row& row : rows) {
      if (row.module == i &&
          (row.kind == "partition_window" || row.kind == "job") &&
          row.a >= 0) {
        partitions.insert(row.a);
      }
    }
    for (std::int64_t index = 0;
         counter_of(m.metrics, "pmk.partition_busy_ticks", index) >= 0;
         ++index) {
      partitions.insert(index);
    }
    for (const std::int64_t partition : partitions) {
      const std::int64_t busy =
          counter_of(m.metrics, "pmk.partition_busy_ticks", partition);
      const std::int64_t slack =
          counter_of(m.metrics, "pmk.partition_slack_ticks", partition);
      // Window jitter: spread of start-to-start gaps between consecutive
      // windows (0 for a strictly periodic partition).
      std::vector<std::int64_t> starts;
      std::int64_t jobs = 0, job_slack_sum = 0, job_slack_min = -1,
                   job_count_ok = 0;
      for (const Row& row : rows) {
        if (row.module != i || row.a != partition) continue;
        if (row.kind == "partition_window") starts.push_back(row.start);
        if (row.kind == "job") {
          ++jobs;
          if (row.status == "ok" && row.c >= 0 && row.end >= 0) {
            const std::int64_t job_slack = row.c - row.end;
            job_slack_sum += job_slack;
            job_slack_min = job_count_ok == 0
                                ? job_slack
                                : std::min(job_slack_min, job_slack);
            ++job_count_ok;
          }
        }
      }
      std::int64_t jitter = 0;
      if (starts.size() >= 3) {
        std::int64_t min_gap = 0, max_gap = 0;
        for (std::size_t g = 1; g < starts.size(); ++g) {
          const std::int64_t gap = starts[g] - starts[g - 1];
          if (g == 1) {
            min_gap = max_gap = gap;
          } else {
            min_gap = std::min(min_gap, gap);
            max_gap = std::max(max_gap, gap);
          }
        }
        jitter = max_gap - min_gap;
      }
      const double util =
          busy >= 0 && slack >= 0 && busy + slack > 0
              ? 100.0 * static_cast<double>(busy) /
                    static_cast<double>(busy + slack)
              : 0.0;
      char line[200];
      std::snprintf(
          line, sizeof line,
          "%-12s %-5lld %6.1f  %-9lld %-9lld %-7zu %-7lld %-5lld %-9lld "
          "%-9lld\n",
          m.name.c_str(), static_cast<long long>(partition), util,
          static_cast<long long>(std::max<std::int64_t>(busy, 0)),
          static_cast<long long>(std::max<std::int64_t>(slack, 0)),
          starts.size(), static_cast<long long>(jitter),
          static_cast<long long>(jobs),
          static_cast<long long>(job_count_ok > 0 ? job_slack_min : 0),
          static_cast<long long>(
              job_count_ok > 0 ? job_slack_sum / job_count_ok : 0));
      report += line;
    }
  }

  report += "\n-- message flows --\n";
  report += "flows: " + std::to_string(flows.size()) + " total, " +
            std::to_string(result.cross_module_flows) + " cross-module, " +
            std::to_string(result.broken_flows) + " broken\n";

  report += "\n-- anomalies (deadline misses with root-cause chains) --\n";
  for (std::size_t i = 0; i < input.modules.size(); ++i) {
    const Value* anomalies = input.modules[i].spans.find("anomalies");
    if (anomalies == nullptr || !anomalies->is_array()) continue;
    std::size_t index = 0;
    for (const Value& v : anomalies->as_array()) {
      MissSummary miss;
      miss.module = input.modules[i].name;
      miss.partition = v.get_int("partition", -1);
      miss.process = v.get_int("process", -1);
      miss.detected_at = v.get_int("detected_at", -1);
      const Value* chain = v.find("chain");
      const std::size_t links =
          chain != nullptr && chain->is_array() ? chain->as_array().size() : 0;
      miss.chained = links >= 2;
      report += miss.module + ": miss #" + std::to_string(index + 1) +
                " t=" + fmt_ll(miss.detected_at) + " partition " +
                fmt_ll(miss.partition) + " process " + fmt_ll(miss.process) +
                " deadline " + fmt_ll(v.get_int("deadline", -1)) + "\n";
      if (links > 0) {
        for (const Value& link : chain->as_array()) {
          report += "    " + link.get_string("what", "?") + " @" +
                    fmt_ll(link.get_int("at", -1));
          const std::string detail = link.get_string("detail", "");
          if (!detail.empty()) report += "  (" + detail + ")";
          report += "\n";
        }
      } else {
        report += "    (no chain recorded)\n";
      }
      ++result.total_misses;
      // The first miss of a module may predate any causal history; every
      // later one must carry a chain -- that is the paper's Fig. 8 claim
      // and the CI gate.
      if (index > 0 && !miss.chained) ++result.unchained_misses;
      result.misses.push_back(std::move(miss));
      ++index;
    }
  }
  if (result.total_misses == 0) report += "none\n";
  report += "\nunchained misses (beyond first): " +
            std::to_string(result.unchained_misses) + "\n";

  report += "\n-- telemetry health --\n";
  for (std::size_t i = 0; i < input.modules.size(); ++i) {
    const ModuleArtifacts& m = input.modules[i];
    const Value* meta = m.spans.find("meta");
    const std::int64_t recorded =
        meta != nullptr ? meta->get_int("recorded", 0) : 0;
    const std::int64_t dropped =
        meta != nullptr ? meta->get_int("dropped", 0) : 0;
    const std::int64_t open = meta != nullptr ? meta->get_int("open", 0) : 0;
    report += m.name + ": spans recorded=" + fmt_ll(recorded) +
              " dropped=" + fmt_ll(dropped) + " open=" + fmt_ll(open) + "\n";
  }
  if (!input.bus_spans.is_null()) {
    const Value* meta = input.bus_spans.find("meta");
    if (meta != nullptr) {
      report += "bus: spans recorded=" +
                fmt_ll(meta->get_int("recorded", 0)) +
                " dropped=" + fmt_ll(meta->get_int("dropped", 0)) + "\n";
    }
  }

  if (!input.baseline.is_null()) {
    report += "\n-- slack vs baseline --\n";
    for (std::size_t i = 0; i < input.modules.size(); ++i) {
      const ModuleArtifacts& m = input.modules[i];
      for (std::int64_t partition = 0;; ++partition) {
        const std::int64_t current =
            counter_of(m.metrics, "pmk.partition_slack_ticks", partition);
        const std::int64_t base = counter_of(
            input.baseline, "pmk.partition_slack_ticks", partition);
        if (current < 0 && base < 0) break;
        char line[160];
        const bool regression = base > 0 && current >= 0 &&
                                current < base - base / 10;  // >10% worse
        std::snprintf(line, sizeof line,
                      "%s partition %lld: slack %lld (baseline %lld)%s\n",
                      m.name.c_str(), static_cast<long long>(partition),
                      static_cast<long long>(current),
                      static_cast<long long>(base),
                      regression ? "  REGRESSION" : "");
        report += line;
      }
    }
  }

  result.chrome_trace = chrome.finish();
  return result;
}

}  // namespace air::telemetry
