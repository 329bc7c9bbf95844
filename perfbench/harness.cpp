#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>

namespace perfbench {

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

std::uint64_t fnv1a(std::string_view bytes, std::uint64_t hash) {
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t index) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + index + 1;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

bool Checks::expect(std::string_view family, bool ok, std::string_view what) {
  ++attempted_;
  auto it = families_.find(family);
  if (it == families_.end()) it = families_.emplace(family, true).first;
  if (!ok) {
    ++failed_;
    it->second = false;
    std::fprintf(stderr, "check failed [%.*s]: %.*s\n",
                 static_cast<int>(family.size()), family.data(),
                 static_cast<int>(what.size()), what.data());
  }
  return ok;
}

double Checks::pass_frac() const {
  if (families_.empty()) return 0;
  std::size_t passed = 0;
  for (const auto& [family, ok] : families_) passed += ok ? 1 : 0;
  return static_cast<double>(passed) / static_cast<double>(families_.size());
}

double ChunkTimes::total_s() const {
  double total = 0;
  for (const double s : chunk_s) total += s;
  return total;
}

void ChunkTimes::append(const ChunkTimes& other) {
  chunk_s.insert(chunk_s.end(), other.chunk_s.begin(), other.chunk_s.end());
  warmup_chunks += other.warmup_chunks;
  warmup_s += other.warmup_s;
}

ChunkTimes time_chunks(const ChunkSteps& steps, std::size_t warmup,
                       std::size_t timed,
                       const std::function<void()>& at_timed_start) {
  ChunkTimes times;
  const auto w0 = Clock::now();
  for (std::size_t k = 0; k < warmup; ++k) {
    if (steps.before) steps.before(k);
    steps.step(k);
    if (steps.after) steps.after(k);
  }
  times.warmup_chunks = warmup;
  times.warmup_s = seconds_since(w0);
  if (at_timed_start) at_timed_start();
  times.chunk_s.reserve(timed);
  for (std::size_t k = warmup; k < warmup + timed; ++k) {
    if (steps.before) steps.before(k);
    const auto t0 = Clock::now();
    steps.step(k);
    times.chunk_s.push_back(seconds_since(t0));
    if (steps.after) steps.after(k);
  }
  return times;
}

void add_end_to_end(Report& report, double peak_per_s, double setup_s) {
  report.add("peak_throughput_per_s", peak_per_s, "1/s");
  report.add("setup_s", setup_s, "s");
  report.add("peak_rss_mb", peak_rss_mb(), "MB");
  report.add("pass_frac", report.checks.pass_frac(), "frac");
}

double fastest(const std::vector<double>& values) {
  return values.empty() ? 0 : *std::min_element(values.begin(), values.end());
}

void add_harness_layer(Report& report, const ChunkTimes& times,
                       double work_per_chunk) {
  std::vector<double> ms;
  ms.reserve(times.chunk_s.size());
  for (const double s : times.chunk_s) ms.push_back(s * 1e3);
  report.add("harness.throughput_per_s",
             work_per_chunk * static_cast<double>(ms.size()) / times.total_s(),
             "1/s");
  report.add("harness.chunk_ms_p50", percentile(ms, 0.5), "ms");
  report.add("harness.chunk_ms_p90", percentile(std::move(ms), 0.9), "ms");
  report.add_count("harness.warmup_chunks",
                   static_cast<double>(times.warmup_chunks), "count");
  report.add("harness.warmup_ms", times.warmup_s * 1e3, "ms");
  report.add_count("harness.timed_chunks",
                   static_cast<double>(times.chunk_s.size()), "count");
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double profiler_scope_ns() {
  using air::telemetry::HostProfiler;
  using air::telemetry::ProfilePoint;
  constexpr int kRounds = 9;
  constexpr int kScopes = 20000;
  std::vector<double> rounds;
  for (int r = 0; r < kRounds; ++r) {
    HostProfiler profiler;
    profiler.enable(true);
    profiler.set_stride(1);
    for (int i = 0; i < kScopes; ++i) {
      profiler.begin_tick();
      HostProfiler::Scope scope(profiler, ProfilePoint::kTick);
    }
    const auto stats = profiler.point_stats(ProfilePoint::kTick);
    rounds.push_back(static_cast<double>(stats.total_ns) /
                     static_cast<double>(stats.calls));
  }
  return median(rounds);
}

std::vector<PointSelf> self_by_point(
    const air::telemetry::HostProfiler& profiler, double scope_ns) {
  std::vector<PointSelf> out(
      static_cast<std::size_t>(air::telemetry::ProfilePoint::kCount));
  const auto& nodes = profiler.nodes();
  for (std::uint32_t i = 1; i < nodes.size(); ++i) {
    PointSelf& point = out[static_cast<std::size_t>(nodes[i].point)];
    point.self_ns += static_cast<double>(profiler.self_ns(i));
    point.calls += nodes[i].stats.calls;
  }
  for (PointSelf& point : out) {
    point.self_ns = std::max(
        0.0, point.self_ns - scope_ns * static_cast<double>(point.calls));
  }
  return out;
}

PointSelf total(const std::vector<PointSelf>& points) {
  PointSelf sum;
  for (const PointSelf& point : points) {
    sum.self_ns += point.self_ns;
    sum.calls += point.calls;
  }
  return sum;
}

void add_trace_quality(Report& report, const ChunkTimes& untraced,
                       const ChunkTimes& traced, double attributed_ns,
                       std::uint64_t scopes, double scope_ns) {
  const double untraced_chunk_s =
      untraced.total_s() / static_cast<double>(untraced.chunk_s.size());
  const double traced_chunk_s =
      traced.total_s() / static_cast<double>(traced.chunk_s.size());
  const double traced_ns = traced.total_s() * 1e9;
  const double overhead_ns = scope_ns * static_cast<double>(scopes);
  report.add("trace.overhead_frac", 1.0 - untraced_chunk_s / traced_chunk_s,
             "frac");
  report.add("trace.profiler_scope_ns", scope_ns, "ns");
  report.add("trace.residual_frac_raw", 1.0 - attributed_ns / traced_ns,
             "frac");
  report.add("trace.residual_frac",
             1.0 - (attributed_ns - overhead_ns) / (traced_ns - overhead_ns),
             "frac");
}

void check_record(Report& report, const Options& options,
                  std::string_view key, std::uint64_t value) {
  if (options.record_dir.empty() || !options.inject.empty()) return;
  namespace fs = std::filesystem;
  const fs::path dir(options.record_dir);
  std::error_code ec;
  fs::create_directories(dir, ec);
  char seconds[32];
  std::snprintf(seconds, sizeof seconds, "%g", options.seconds);
  const fs::path path = dir / (options.workload + "-" +
                               std::to_string(options.seed) + "-" + seconds +
                               "s-" + std::string(key) + ".txt");
  const std::string text = std::to_string(value);
  std::ifstream in(path);
  if (in) {
    const std::string previous((std::istreambuf_iterator<char>(in)),
                               std::istreambuf_iterator<char>());
    report.checks.expect("record-" + std::string(key), previous == text,
                         "same seed reproduces the recorded " +
                             std::string(key) + " of an earlier run");
    return;
  }
  std::ofstream(path) << text;
}

namespace {

void append_number(std::string& out, double value) {
  if (!std::isfinite(value)) value = 0;
  char buf[64];
  const auto result = std::to_chars(buf, buf + sizeof buf, value);
  out.append(buf, result.ptr);
}

}  // namespace

std::string result_json(const Report& report) {
  std::string out = "{\"correct\": ";
  out += report.checks.failed() == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(report.checks.attempted());
  out += ", \"failed\": " + std::to_string(report.checks.failed());
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const MetricValue& m = report.metrics[i];
    if (i > 0) out += ", ";
    out += "\"" + m.name + "\": {\"value\": ";
    append_number(out, m.value);
    out += ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
