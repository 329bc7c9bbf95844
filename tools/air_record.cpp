// air-record: fly the paper's Fig. 8 prototype mission and write the flight
// artifacts tools/air-analyze ingests.
//
// The mission is the Sect. 6 scenario extended over the TDMA bus: module 0
// runs the four-partition Fig. 8 prototype (faulty process injected on P1,
// mode switch chi_1 -> chi_2 at t=500, five MTFs of flight), module 1 is a
// ground-segment computer whose archiver consumes the payload's science
// frames remotely -- so the recording contains at least one message flow
// that crosses the bus.
//
// Usage: air-record [--no-warp] [--clean] [--health] [--fail-on-breach]
//                   [--profile] [--status] [--network <file.json>]
//                   [out_dir]  (default: "flight")
//
// --network loads the bus topology (switched/flat, virtual links) from an
// integrator network file (config::load_network_config_file schema) instead
// of the built-in flat two-station default.
// --clean omits the faulty process (the mission then has a zero-breach SLO:
// the CI flight-health job asserts it). --health flies with the online
// observability plane enabled on both modules and the bus, streaming
// windowed digests and watchdog breaches to <out_dir>/health.ndjson -- the
// file tools/air-top renders. --profile flies with the hierarchical host
// profiler at stride 1 (exact capture; forces per-tick stepping) and writes
// <name>_profile.json per module plus world_profile.json -- the artifacts
// tools/air-profile renders. --fail-on-breach exits 2 when any watchdog
// fired. --status skips the mission: it prints the binary's build type,
// a one-line ticks/s self-measurement (a wall-clocked clean Fig. 8 flight)
// and the pooled-memory counters the zero-allocation claim rests on, so a
// shell can tell at a glance whether its timings mean anything
// (DESIGN.md §11-§12).
//
// Writes per module: <name>_trace.json, <name>_metrics.json,
// <name>_spans.json; plus bus_spans.json and meta.json (the manifest
// air-analyze loads).
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>

#include "config/fig8.hpp"
#include "config/loader.hpp"
#include "ipc/payload.hpp"
#include "system/build_info.hpp"
#include "system/world.hpp"
#include "telemetry/export.hpp"
#include "telemetry/profiler.hpp"
#include "telemetry/online.hpp"
#include "telemetry/spans.hpp"
#include "util/json.hpp"
#include "util/trace_export.hpp"

using namespace air;

namespace {

system::ModuleConfig ground_module() {
  system::ModuleConfig config;
  config.id = ModuleId{1};
  config.name = "ground";

  system::PartitionConfig ground;
  ground.name = "GROUND";
  ground.queuing_ports.push_back(
      {"SCI_IN", ipc::PortDirection::kDestination, 64, 16});
  system::ProcessConfig archiver;
  archiver.attrs.name = "archiver";
  archiver.attrs.priority = 10;
  archiver.attrs.script = pos::ScriptBuilder{}
                              .queuing_receive(0)
                              .log("science frame archived")
                              .build();
  ground.processes.push_back(std::move(archiver));
  config.partitions.push_back(std::move(ground));

  model::Schedule schedule;
  schedule.id = ScheduleId{0};
  schedule.mtf = scenarios::kFig8Mtf;
  schedule.requirements = {
      {PartitionId{0}, scenarios::kFig8Mtf, scenarios::kFig8Mtf}};
  schedule.windows = {{PartitionId{0}, 0, scenarios::kFig8Mtf}};
  config.schedules = {schedule};
  return config;
}

bool write_file(const std::filesystem::path& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  if (!out) {
    std::fprintf(stderr, "air-record: cannot write %s\n", path.c_str());
    return false;
  }
  return true;
}

// --status: say which tree this binary came from and how fast it actually
// ticks here, in one line each. The self-measurement flies a clean Fig. 8
// module (warp off, so every tick is executed) for a fixed tick budget and
// wall-clocks it -- crude, but enough to spot a debug binary (an order of
// magnitude slower) or a loaded host at a glance.
int print_status() {
  std::printf("air-record: build %s%s\n", system::build_type(),
              system::lto_build() ? " +lto" : "");
  constexpr Ticks kTicks = 20 * scenarios::kFig8Mtf;
  system::Module module(
      scenarios::fig8_config({.with_faulty_process = false}));
  module.set_time_warp(false);
  const auto start = std::chrono::steady_clock::now();
  module.run(kTicks);
  const auto elapsed = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - start)
                           .count();
  const double rate = elapsed > 0.0 ? static_cast<double>(kTicks) / elapsed
                                    : 0.0;
  std::printf(
      "air-record: self-measure %llu ticks in %.1f ms -> %.2fM ticks/s "
      "(clean fig8, warp off)%s\n",
      static_cast<unsigned long long>(kTicks), elapsed * 1e3, rate / 1e6,
      system::release_build()
          ? ""
          : "  [non-Release: not comparable to Release baselines]");
  const ipc::Payload::PoolStats pool = ipc::Payload::pool_stats();
  std::printf(
      "air-record: payload pool heap_allocs=%llu reuses=%llu returns=%llu "
      "free=%zu\n",
      static_cast<unsigned long long>(pool.heap_allocs),
      static_cast<unsigned long long>(pool.pool_reuses),
      static_cast<unsigned long long>(pool.pool_returns), pool.free_blocks);
  const telemetry::StringArena::Stats& arena = module.arena().stats();
  std::printf(
      "air-record: label arena symbols=%zu blocks=%zu bytes=%zu "
      "high_water=%zu hits=%llu misses=%llu\n",
      arena.symbols, arena.blocks, arena.bytes_used, arena.high_water,
      static_cast<unsigned long long>(arena.hits),
      static_cast<unsigned long long>(arena.misses));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool warp = true;
  bool clean = false;
  bool health = false;
  bool profile = false;
  bool fail_on_breach = false;
  std::string network_file;
  std::string out_dir = "flight";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--no-warp") == 0) {
      warp = false;
    } else if (std::strcmp(argv[i], "--clean") == 0) {
      clean = true;
    } else if (std::strcmp(argv[i], "--health") == 0) {
      health = true;
    } else if (std::strcmp(argv[i], "--profile") == 0) {
      profile = true;
    } else if (std::strcmp(argv[i], "--fail-on-breach") == 0) {
      fail_on_breach = true;
    } else if (std::strcmp(argv[i], "--status") == 0) {
      return print_status();
    } else if (std::strcmp(argv[i], "--network") == 0 && i + 1 < argc) {
      network_file = argv[++i];
    } else {
      out_dir = argv[i];
    }
  }

  // Default network: flat broadcast sized for the two-station mission.
  config::NetworkConfig network{
      {.slot_length = 10, .frames_per_slot = 2, .propagation_delay = 2}, {}};
  if (!network_file.empty()) {
    config::NetworkLoadResult loaded =
        config::load_network_config_file(network_file);
    if (!loaded.ok()) {
      std::fprintf(stderr, "air-record: %s: %s\n", network_file.c_str(),
                   loaded.error.c_str());
      return 1;
    }
    network = std::move(*loaded.config);
  }

  const std::filesystem::path dir{out_dir};
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    std::fprintf(stderr, "air-record: cannot create %s: %s\n", dir.c_str(),
                 ec.message().c_str());
    return 1;
  }

  // Online observability: window 500 divides the 7000-tick mission exactly,
  // so the last window closes on the final tick and the stream covers the
  // whole flight.
  telemetry::OnlineOptions online;
  online.enabled = true;
  online.window = 500;

  // Module 0: the Fig. 8 prototype, with the payload's science channel
  // additionally fanning out to the ground module over the bus.
  system::ModuleConfig fig8 =
      scenarios::fig8_config({.with_faulty_process = !clean});
  fig8.id = ModuleId{0};
  for (ipc::ChannelConfig& channel : fig8.channels) {
    if (channel.kind == ipc::ChannelKind::kQueuing) {
      channel.remote_destinations.push_back(
          {ModuleId{1}, PartitionId{0}, "SCI_IN"});
    }
  }
  system::ModuleConfig ground_config = ground_module();
  if (health) {
    fig8.telemetry.online = online;
    ground_config.telemetry.online = online;
  }
  if (profile) {
    // Stride 1: exact offline capture (DESIGN.md §12). The profiler forces
    // per-tick stepping, so the recording is slower but fully attributed.
    fig8.telemetry.profiler_enabled = true;
    fig8.telemetry.profiler_stride = 1;
    ground_config.telemetry.profiler_enabled = true;
    ground_config.telemetry.profiler_stride = 1;
  }

  system::World world(network.bus);
  for (const net::VirtualLinkConfig& vl : network.virtual_links) {
    world.bus().define_virtual_link(vl);
  }
  system::Module& prototype = world.add_module(std::move(fig8));
  system::Module& ground = world.add_module(std::move(ground_config));
  prototype.set_time_warp(warp);
  ground.set_time_warp(warp);
  if (profile) world.enable_profiler(1);

  std::ofstream health_file;
  if (health) {
    health_file.open(dir / "health.ndjson", std::ios::binary);
    if (!health_file) {
      std::fprintf(stderr, "air-record: cannot write %s\n",
                   (dir / "health.ndjson").c_str());
      return 1;
    }
    const auto sink = [&health_file](const std::string& line) {
      health_file << line;
    };
    prototype.online()->set_sink(sink);
    ground.online()->set_sink(sink);
    world.enable_online(online);
    world.bus_plane()->set_sink(sink);
  }

  // Sect. 6 mission: inject the faulty process on P1 (unless --clean), fly
  // 500 ticks under chi_1, request the switch to chi_2, fly five more major
  // time frames.
  if (!clean) {
    prototype.start_process_by_name(prototype.partition_id("AOCS"),
                                    scenarios::kFaultyProcessName);
  }
  world.run(500);
  (void)prototype.apex(prototype.partition_id("AOCS"))
      .set_module_schedule(ScheduleId{1});
  world.run(5 * scenarios::kFig8Mtf);

  // The manifest, members in name order as every export writes them.
  std::string meta;
  util::json::Writer w(meta, 2);
  w.begin_object().key("bus_spans").string("bus_spans.json");
  if (health) w.key("health").string("health.ndjson");
  w.key("mission").string(clean ? "fig8+ground (clean)" : "fig8+ground");
  w.key("modules").begin_array();
  for (std::size_t i = 0; i < world.module_count(); ++i) {
    system::Module& module = world.module(i);
    const std::string& name = module.config().name;
    const telemetry::MetricsSnapshot snapshot = module.metrics_snapshot();
    if (!write_file(dir / (name + "_trace.json"),
                    util::to_json(module.trace())) ||
        !write_file(dir / (name + "_metrics.json"),
                    telemetry::to_json(snapshot)) ||
        !write_file(dir / (name + "_spans.json"),
                    telemetry::spans_to_json(module.spans()))) {
      return 1;
    }
    w.begin_object().key("metrics").string(name + "_metrics.json");
    w.key("name").string(name);
    if (profile) {
      if (!write_file(dir / (name + "_profile.json"),
                      telemetry::profile_to_json(module.profiler(), name))) {
        return 1;
      }
      w.key("profile").string(name + "_profile.json");
    }
    w.key("spans").string(name + "_spans.json");
    w.key("trace").string(name + "_trace.json").end_object();
  }
  w.end_array();
  if (profile) w.key("world_profile").string("world_profile.json");
  w.end_object();
  if (profile &&
      !write_file(dir / "world_profile.json",
                  telemetry::profile_to_json(world.profiler(), "world"))) {
    return 1;
  }
  if (!write_file(dir / "bus_spans.json",
                  telemetry::spans_to_json(world.bus_spans()))) {
    return 1;
  }
  if (!write_file(dir / "meta.json", meta)) return 1;

  std::printf(
      "%s%s\n%s\nrecorded %zu+%zu spans (+%zu bus, %zu bus dropped) to %s\n",
      world.status_report().c_str(), prototype.status_report().c_str(),
      ground.status_report().c_str(),
      static_cast<std::size_t>(prototype.spans().recorded_spans()),
      static_cast<std::size_t>(ground.spans().recorded_spans()),
      static_cast<std::size_t>(world.bus_spans().recorded_spans()),
      static_cast<std::size_t>(world.bus_spans().dropped_spans()), dir.c_str());

  std::size_t breaches = 0;
  if (health) {
    health_file.close();
    breaches = prototype.online()->breaches() + ground.online()->breaches() +
               world.bus_plane()->breaches();
    std::printf("health: %zu watchdog breach(es) streamed to %s\n", breaches,
                (dir / "health.ndjson").c_str());
  }
  if (fail_on_breach && breaches > 0) {
    std::fprintf(stderr, "air-record: watchdog breach on a %s flight\n",
                 clean ? "clean" : "faulty");
    return 2;
  }
  return 0;
}
