// air-profile: render the host-profiler artifacts of a profiled flight
// (air-record --profile) as an attribution table, folded flamegraph stacks
// or a Chrome-trace view.
//
// Usage: air-profile [--folded] [--chrome] [--top] [flight_dir | file.json]
//
// The input is either a flight directory (meta.json names the per-module
// profiles plus world_profile.json) or a single *_profile.json written by
// telemetry::profile_to_json. With no mode flag the tool prints one
// attribution table per origin, paths sorted hottest-first.
//
//  --folded  folded stack lines "origin;tick;pal;kernel_dispatch 1234"
//            (value = self ns) for flamegraph.pl / inferno / speedscope.
//  --chrome  a Chrome "X"-event JSON on stdout: one synthetic frame per
//            origin whose nesting mirrors the aggregated call tree (open
//            in Perfetto; widths are total ns, not a timeline).
//  --top     one hot-path line per origin (hottest self-time path).
//
// Exits 2 when no profile rows could be loaded (unprofiled flight or bad
// path) so CI can assert that profiling actually happened.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "util/json.hpp"
#include "util/trace_export.hpp"

using air::util::json::Value;

namespace {

struct Row {
  std::string path;
  std::string point;
  std::int64_t depth{0};
  std::int64_t calls{0};
  std::int64_t total_ns{0};
  std::int64_t self_ns{0};
  std::int64_t max_ns{0};
  std::int64_t arena_bytes{0};
  std::int64_t heap_allocs{0};
};

struct Profile {
  std::string origin;
  std::int64_t stride{0};
  std::int64_t sampled_ticks{0};
  std::vector<Row> rows;  // preorder, as exported
};

bool load_profile(const std::filesystem::path& file, std::vector<Profile>& out) {
  std::ifstream in(file, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "air-profile: cannot read %s\n", file.c_str());
    return false;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  const auto parsed = air::util::json::parse(buffer.str());
  if (!parsed.ok()) {
    std::fprintf(stderr, "air-profile: %s: parse error: %s\n", file.c_str(),
                 parsed.error->to_string().c_str());
    return false;
  }
  Profile profile;
  if (const Value* meta = parsed.value->find("meta"); meta != nullptr) {
    profile.origin = meta->get_string("origin", file.stem().string());
    profile.stride = meta->get_int("stride", 0);
    profile.sampled_ticks = meta->get_int("sampled_ticks", 0);
  }
  const Value* paths = parsed.value->find("paths");
  if (paths == nullptr || !paths->is_array()) {
    std::fprintf(stderr, "air-profile: %s: no \"paths\" array\n",
                 file.c_str());
    return false;
  }
  for (const Value& v : paths->as_array()) {
    if (!v.is_object()) continue;
    Row row;
    row.path = v.get_string("path", "");
    row.point = v.get_string("point", "");
    row.depth = v.get_int("depth", 0);
    row.calls = v.get_int("calls", 0);
    row.total_ns = v.get_int("total_ns", 0);
    row.self_ns = v.get_int("self_ns", 0);
    row.max_ns = v.get_int("max_ns", 0);
    row.arena_bytes = v.get_int("arena_bytes", 0);
    row.heap_allocs = v.get_int("heap_allocs", 0);
    profile.rows.push_back(std::move(row));
  }
  out.push_back(std::move(profile));
  return true;
}

/// Flight directory: meta.json lists the module profiles; world_profile.json
/// holds the cross-module (epoch/bus) tree.
bool load_flight(const std::filesystem::path& dir, std::vector<Profile>& out) {
  std::ifstream in(dir / "meta.json", std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "air-profile: %s: no meta.json (not a flight dir?)\n",
                 dir.c_str());
    return false;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  const auto parsed = air::util::json::parse(buffer.str());
  if (!parsed.ok()) {
    std::fprintf(stderr, "air-profile: %s/meta.json: parse error\n",
                 dir.c_str());
    return false;
  }
  bool any = false;
  if (const Value* modules = parsed.value->find("modules");
      modules != nullptr && modules->is_array()) {
    for (const Value& entry : modules->as_array()) {
      const std::string file = entry.get_string("profile", "");
      if (!file.empty() && load_profile(dir / file, out)) any = true;
    }
  }
  const std::string world = parsed.value->get_string("world_profile", "");
  if (!world.empty() && load_profile(dir / world, out)) any = true;
  if (!any) {
    std::fprintf(stderr,
                 "air-profile: %s: no profile artifacts -- was the flight "
                 "recorded with --profile?\n",
                 dir.c_str());
  }
  return any;
}

void print_table(const Profile& profile) {
  std::printf("%s: host profile (%lld sampled ticks, stride %lld)\n",
              profile.origin.c_str(),
              static_cast<long long>(profile.sampled_ticks),
              static_cast<long long>(profile.stride));
  std::printf("  %-44s %10s %12s %9s %9s %9s %8s %6s\n", "path", "calls",
              "total_ns", "mean_ns", "self_ns", "max_ns", "arena_B", "heap");
  std::vector<const Row*> rows;
  rows.reserve(profile.rows.size());
  for (const Row& row : profile.rows) rows.push_back(&row);
  std::stable_sort(rows.begin(), rows.end(), [](const Row* x, const Row* y) {
    return x->total_ns > y->total_ns;
  });
  for (const Row* row : rows) {
    const double mean = row->calls > 0 ? static_cast<double>(row->total_ns) /
                                             static_cast<double>(row->calls)
                                       : 0.0;
    std::printf("  %-44s %10lld %12lld %9.1f %9lld %9lld %8lld %6lld\n",
                row->path.c_str(), static_cast<long long>(row->calls),
                static_cast<long long>(row->total_ns), mean,
                static_cast<long long>(row->self_ns),
                static_cast<long long>(row->max_ns),
                static_cast<long long>(row->arena_bytes),
                static_cast<long long>(row->heap_allocs));
  }
}

/// Folded stacks with the origin as the root frame, so multi-module
/// flamegraphs stay disjoint ("fig8;tick;pal;kernel_dispatch 1234").
void print_folded(const Profile& profile) {
  for (const Row& row : profile.rows) {
    if (row.self_ns <= 0) continue;
    std::printf("%s;%s %lld\n", profile.origin.c_str(), row.path.c_str(),
                static_cast<long long>(row.self_ns));
  }
}

void print_top(const Profile& profile) {
  const Row* hottest = nullptr;
  std::int64_t total = 0;
  for (const Row& row : profile.rows) {
    if (row.depth == 1) total += row.total_ns;
    if (hottest == nullptr || row.self_ns > hottest->self_ns) hottest = &row;
  }
  if (hottest == nullptr) {
    std::printf("%s: no profile data\n", profile.origin.c_str());
    return;
  }
  const double share = total > 0 ? 100.0 * static_cast<double>(hottest->self_ns) /
                                       static_cast<double>(total)
                                 : 0.0;
  std::printf("%s: hot path %s self=%lldns (%.1f%% of %lld sampled ticks)\n",
              profile.origin.c_str(), hottest->path.c_str(),
              static_cast<long long>(hottest->self_ns), share,
              static_cast<long long>(profile.sampled_ticks));
}

/// Chrome-trace view: the aggregated call tree of each origin rendered as
/// one synthetic complete-event ("X") frame at t=0. Children are laid out
/// sequentially inside their parent; widths are total microseconds. This
/// is a cost treemap in trace clothing, not a timeline.
std::string to_chrome(const std::vector<Profile>& profiles) {
  air::util::ChromeTrace chrome;
  std::int64_t pid = 0;
  for (const Profile& profile : profiles) {
    // cursor[d] = next free timestamp at depth d (inside the current
    // depth-(d-1) frame). Rows arrive in preorder, so a row at depth d
    // opens at cursor[d] and resets cursor[d+1] to its own start.
    std::vector<double> cursor(2, 0.0);
    for (const Row& row : profile.rows) {
      const auto depth = static_cast<std::size_t>(row.depth);
      if (depth == 0 || depth >= cursor.size() + 1) continue;
      if (cursor.size() <= depth + 1) cursor.resize(depth + 2, 0.0);
      const double ts = cursor[depth];
      const double dur = static_cast<double>(row.total_ns) / 1e3;  // us
      chrome.event({.name = row.point, .ph = "X", .ts = ts, .dur = dur,
                    .pid = pid, .tid = 0, .cat = profile.origin},
                   [&row](air::util::json::Writer& w) {
                     w.key("calls").integer(row.calls);
                     w.key("max_ns").integer(row.max_ns);
                     w.key("path").string(row.path);
                   });
      cursor[depth] = ts + dur;
      cursor[depth + 1] = ts;
    }
    chrome.event({.name = "process_name", .ph = "M", .pid = pid},
                 [&profile](air::util::json::Writer& w) {
                   w.key("name").string(profile.origin);
                 });
    ++pid;
  }
  return chrome.finish();
}

}  // namespace

int main(int argc, char** argv) {
  bool folded = false;
  bool chrome = false;
  bool top = false;
  std::string input = "flight";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--folded") == 0) {
      folded = true;
    } else if (std::strcmp(argv[i], "--chrome") == 0) {
      chrome = true;
    } else if (std::strcmp(argv[i], "--top") == 0) {
      top = true;
    } else {
      input = argv[i];
    }
  }

  std::vector<Profile> profiles;
  const std::filesystem::path path{input};
  const bool loaded = std::filesystem::is_directory(path)
                          ? load_flight(path, profiles)
                          : load_profile(path, profiles);
  std::size_t rows = 0;
  for (const Profile& profile : profiles) rows += profile.rows.size();
  if (!loaded || rows == 0) {
    std::fprintf(stderr, "air-profile: no profile rows in %s\n",
                 input.c_str());
    return 2;
  }

  if (chrome) {
    std::fputs(to_chrome(profiles).c_str(), stdout);
    return 0;
  }
  bool first = true;
  for (const Profile& profile : profiles) {
    if (folded) {
      print_folded(profile);
    } else if (top) {
      print_top(profile);
    } else {
      if (!first) std::printf("\n");
      print_table(profile);
    }
    first = false;
  }
  return 0;
}
