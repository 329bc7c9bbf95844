#include "telemetry/profiler.hpp"

#include <algorithm>
#include <cstdio>

#include "util/json.hpp"

namespace air::telemetry {

std::string_view to_string(ProfilePoint point) {
  switch (point) {
    case ProfilePoint::kTick: return "tick";
    case ProfilePoint::kScheduler: return "scheduler";
    case ProfilePoint::kDispatcher: return "dispatcher";
    case ProfilePoint::kRouter: return "router";
    case ProfilePoint::kPal: return "pal";
    case ProfilePoint::kExecutor: return "executor";
    case ProfilePoint::kKernelDispatch: return "kernel_dispatch";
    case ProfilePoint::kWarpScan: return "warp_scan";
    case ProfilePoint::kOnlineClose: return "online_close";
    case ProfilePoint::kTelemetryScrape: return "telemetry_scrape";
    case ProfilePoint::kEpoch: return "epoch";
    case ProfilePoint::kEpochBarrier: return "epoch_barrier";
    case ProfilePoint::kBusPump: return "bus_pump";
    case ProfilePoint::kCount: break;
  }
  return "?";
}

void HostProfiler::clear() {
  nodes_.clear();
  nodes_.push_back(Node{});  // synthetic root
  current_ = 0;
  tick_counter_ = 0;
  sampled_ticks_ = 0;
  sampling_ = false;
  countdown_ = 0;
}

std::uint32_t HostProfiler::enter(ProfilePoint point) {
  // Find `point` among the current node's children; first visit of a path
  // appends a node (steady state: pure pointer chasing, no allocation).
  for (std::uint32_t child = nodes_[current_].first_child; child != 0;
       child = nodes_[child].next_sibling) {
    if (nodes_[child].point == point) {
      current_ = child;
      return child;
    }
  }
  Node node;
  node.point = point;
  node.parent = current_;
  node.depth = nodes_[current_].depth + 1;
  node.next_sibling = nodes_[current_].first_child;
  const auto index = static_cast<std::uint32_t>(nodes_.size());
  nodes_.push_back(node);
  nodes_[current_].first_child = index;
  current_ = index;
  return index;
}

void HostProfiler::leave(std::uint32_t index, std::uint64_t ns,
                         std::uint64_t arena_bytes,
                         std::uint64_t heap_allocs) {
  PathStats& stats = nodes_[index].stats;
  ++stats.calls;
  stats.total_ns += ns;
  if (ns > stats.max_ns) stats.max_ns = ns;
  stats.arena_bytes += arena_bytes;
  stats.heap_allocs += heap_allocs;
  current_ = nodes_[index].parent;
}

HostProfiler::PathStats HostProfiler::point_stats(ProfilePoint point) const {
  PathStats out;
  for (std::size_t i = 1; i < nodes_.size(); ++i) {
    const Node& node = nodes_[i];
    if (node.point != point) continue;
    out.calls += node.stats.calls;
    out.total_ns += node.stats.total_ns;
    out.max_ns = std::max(out.max_ns, node.stats.max_ns);
    out.arena_bytes += node.stats.arena_bytes;
    out.heap_allocs += node.stats.heap_allocs;
  }
  return out;
}

std::uint64_t HostProfiler::self_ns(std::uint32_t index) const {
  std::uint64_t children = 0;
  for (std::uint32_t child = nodes_[index].first_child; child != 0;
       child = nodes_[child].next_sibling) {
    children += nodes_[child].stats.total_ns;
  }
  const std::uint64_t total = nodes_[index].stats.total_ns;
  // A child scope can time slightly longer than its parent (clock
  // granularity); clamp instead of wrapping.
  return total > children ? total - children : 0;
}

std::string HostProfiler::path(std::uint32_t index) const {
  if (index == 0 || index >= nodes_.size()) return {};
  std::vector<std::string_view> parts;
  for (std::uint32_t i = index; i != 0; i = nodes_[i].parent) {
    parts.push_back(to_string(nodes_[i].point));
  }
  std::string out;
  for (auto it = parts.rbegin(); it != parts.rend(); ++it) {
    if (!out.empty()) out += ';';
    out += *it;
  }
  return out;
}

namespace {

/// Report/export order: depth-first from the root, siblings by node index
/// (creation order) -- deterministic given the same execution, and it keeps
/// parents above children in the table.
void preorder(const std::vector<HostProfiler::Node>& nodes,
              std::uint32_t index, std::vector<std::uint32_t>& out) {
  if (index != 0) out.push_back(index);
  std::vector<std::uint32_t> children;
  for (std::uint32_t child = nodes[index].first_child; child != 0;
       child = nodes[child].next_sibling) {
    children.push_back(child);
  }
  std::sort(children.begin(), children.end());
  for (const std::uint32_t child : children) preorder(nodes, child, out);
}

}  // namespace

std::string HostProfiler::report() const {
  std::vector<std::uint32_t> order;
  preorder(nodes_, 0, order);
  // Attribution table: siblings sorted hottest-first within the preorder
  // walk would reorder parents; instead sort the flat rows by total ns and
  // keep the path string as the hierarchy cue.
  std::sort(order.begin(), order.end(), [this](std::uint32_t x,
                                               std::uint32_t y) {
    if (nodes_[x].stats.total_ns != nodes_[y].stats.total_ns) {
      return nodes_[x].stats.total_ns > nodes_[y].stats.total_ns;
    }
    return x < y;
  });

  std::string out = "host profile (wall clock, ";
  char line[256];
  std::snprintf(line, sizeof line,
                "%llu sampled ticks, stride %u):\n",
                static_cast<unsigned long long>(sampled_ticks_), stride_);
  out += line;
  std::snprintf(line, sizeof line, "  %-44s %10s %12s %9s %9s %8s %6s\n",
                "path", "calls", "total_ns", "mean_ns", "self_ns", "arena_B",
                "heap");
  out += line;
  for (const std::uint32_t index : order) {
    const Node& node = nodes_[index];
    if (node.stats.calls == 0) continue;
    const double mean = static_cast<double>(node.stats.total_ns) /
                        static_cast<double>(node.stats.calls);
    std::snprintf(line, sizeof line,
                  "  %-44s %10llu %12llu %9.1f %9llu %8llu %6llu\n",
                  path(index).c_str(),
                  static_cast<unsigned long long>(node.stats.calls),
                  static_cast<unsigned long long>(node.stats.total_ns), mean,
                  static_cast<unsigned long long>(self_ns(index)),
                  static_cast<unsigned long long>(node.stats.arena_bytes),
                  static_cast<unsigned long long>(node.stats.heap_allocs));
    out += line;
  }
  return out;
}

std::string HostProfiler::folded() const {
  std::vector<std::uint32_t> order;
  preorder(nodes_, 0, order);
  std::string out;
  for (const std::uint32_t index : order) {
    if (nodes_[index].stats.calls == 0) continue;
    const std::uint64_t self = self_ns(index);
    if (self == 0) continue;
    out += path(index);
    out += ' ';
    out += std::to_string(self);
    out += '\n';
  }
  return out;
}

std::string profile_to_json(const HostProfiler& profiler,
                            std::string_view origin, int indent) {
  std::vector<std::uint32_t> order;
  preorder(profiler.nodes(), 0, order);

  // Members in name order, as every export writes them.
  std::string out;
  util::json::Writer w(out, indent);
  w.begin_object().key("meta").begin_object().key("origin").string(origin);
  w.key("sampled_ticks").integer(profiler.ticks());
  w.key("stride").integer(profiler.stride()).end_object();
  w.key("paths").begin_array();
  for (const std::uint32_t index : order) {
    const HostProfiler::Node& node = profiler.nodes()[index];
    if (node.stats.calls == 0) continue;
    w.begin_object().key("arena_bytes").integer(node.stats.arena_bytes);
    w.key("calls").integer(node.stats.calls);
    w.key("depth").integer(node.depth);
    w.key("heap_allocs").integer(node.stats.heap_allocs);
    w.key("max_ns").integer(node.stats.max_ns);
    w.key("path").string(profiler.path(index));
    w.key("point").string(to_string(node.point));
    w.key("self_ns").integer(profiler.self_ns(index));
    w.key("total_ns").integer(node.stats.total_ns).end_object();
  }
  w.end_array().end_object();
  return out;
}

}  // namespace air::telemetry
