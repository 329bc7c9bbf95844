#include "telemetry/export.hpp"

#include "util/json.hpp"

namespace air::telemetry {

namespace {

const char* kind_name(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kHistogram: return "histogram";
  }
  return "?";
}

}  // namespace

std::string csv_escape(std::string_view field) {
  if (field.find_first_of(",\"\n\r") == std::string_view::npos) {
    return std::string{field};
  }
  // RFC 4180: wrap in double quotes, double every embedded quote.
  std::string out;
  out.reserve(field.size() + 2);
  out += '"';
  for (const char c : field) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

std::string to_json(const MetricsSnapshot& snapshot, int indent) {
  std::string out;
  util::json::Writer w(out, indent);
  w.begin_object().key("metrics").begin_array();
  for (const MetricSample& s : snapshot.samples) {
    w.begin_object();  // members in name order, as every export writes them
    if (s.kind == MetricKind::kHistogram) {
      w.key("buckets").begin_array();
      for (const std::uint64_t b : s.histogram.buckets) w.integer(b);
      w.end_array().key("count").integer(s.histogram.count);
    }
    w.key("index").integer(s.index).key("kind").string(kind_name(s.kind));
    switch (s.kind) {
      case MetricKind::kCounter:
        w.key("name").string(to_string(s.metric));
        w.key("value").integer(s.counter);
        break;
      case MetricKind::kGauge:
        w.key("last").integer(s.gauge.last).key("max").integer(s.gauge.max);
        w.key("name").string(to_string(s.metric));
        w.key("samples").integer(s.gauge.samples);
        break;
      case MetricKind::kHistogram:
        if (s.histogram.count > 0) {
          w.key("max").integer(s.histogram.max);
          w.key("min").integer(s.histogram.min);
        }
        w.key("name").string(to_string(s.metric));
        w.key("sum").integer(s.histogram.sum);
        break;
    }
    w.end_object();
  }
  w.end_array().key("time").integer(snapshot.time).end_object();
  return out;
}

std::string to_csv(const MetricsSnapshot& snapshot) {
  std::string out = "metric,index,kind,value,count,sum,min,max\n";
  char line[256];
  for (const MetricSample& s : snapshot.samples) {
    const std::string name = csv_escape(to_string(s.metric));
    switch (s.kind) {
      case MetricKind::kCounter:
        std::snprintf(line, sizeof line, "%s,%d,counter,%llu,,,,\n",
                      name.c_str(), s.index,
                      static_cast<unsigned long long>(s.counter));
        break;
      case MetricKind::kGauge:
        std::snprintf(line, sizeof line, "%s,%d,gauge,%lld,%llu,,,%lld\n",
                      name.c_str(), s.index,
                      static_cast<long long>(s.gauge.last),
                      static_cast<unsigned long long>(s.gauge.samples),
                      static_cast<long long>(s.gauge.max));
        break;
      case MetricKind::kHistogram:
        if (s.histogram.count > 0) {
          std::snprintf(line, sizeof line,
                        "%s,%d,histogram,,%llu,%lld,%lld,%lld\n",
                        name.c_str(), s.index,
                        static_cast<unsigned long long>(s.histogram.count),
                        static_cast<long long>(s.histogram.sum),
                        static_cast<long long>(s.histogram.min),
                        static_cast<long long>(s.histogram.max));
        } else {
          std::snprintf(line, sizeof line, "%s,%d,histogram,,0,0,,\n",
                        name.c_str(), s.index);
        }
        break;
    }
    out += line;
  }
  return out;
}

}  // namespace air::telemetry
