// constellation_128: 128 single-partition beacon satellites on the
// switched virtual-link bus (8 stations per switch, one reserved VL per
// satellite), flown by World::run with default settings (one lane).
//
// Why this workload: per-module work is a few script events per beacon
// period, so host time goes to the epoch executor (horizon scan, barrier
// merge), to net::Bus TDMA/VL service and to the time warp's bulk
// advance -- the pmk/pal/pos layers of fig8_mission reached through
// warp_advance instead of per-tick stepping. The seed draws each
// satellite's beacon phase. One chunk is one 400-tick beacon period.
//
// Why 128 satellites: the modules a period touches then stay in the
// core's own caches and a period takes about half a millisecond. At 1000
// satellites each period sweeps several MB of module state through the
// last-level cache, which a shared host splits with other tenants, and
// takes 10-25 ms; on a 4-vCPU x86-64 VM even its fastest period spread by
// 0.10-0.26 (IQR/median over ten runs), against 0.02-0.08 at 128.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <stdexcept>

#include "config/export.hpp"
#include "config/loader.hpp"
#include "harness.hpp"
#include "sim.hpp"
#include "system/world.hpp"
#include "telemetry/export.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using air::ModuleId;
using air::PartitionId;
using air::Ticks;
using air::system::World;

constexpr int kModules = 128;
constexpr Ticks kPeriod = 400;  // beacon period = one chunk
// Beacons are loosely synchronised: every phase in [1, kPhaseWindow] is
// used by the same number of satellites and the seed deals them out, so
// the bus carries one burst per period and stays quiet -- and warpable --
// for the rest, whatever the seed.
constexpr Ticks kPhaseWindow = 16;
// Measured beacon periods per second of --seconds (Release+LTO, 4-CPU
// x86-64 host); the chunk count is fixed per --seconds.
constexpr double kChunksPerSecond = 1500;
constexpr std::size_t kWarmupChunks = 8;  // per flight; also the lockstep prefix
// Identical flights the timed periods are split over; the traced pass
// flies as many periods as one of them.
constexpr std::size_t kFlights = 32;

// One satellite: a partition owning the whole MTF and one beacon process
// that waits out its seeded phase once, then writes and reads its
// sampling ring every period. Small memory and bounded telemetry keep
// the constellation affordable.
air::system::ModuleConfig satellite(int id, Ticks phase) {
  air::system::ModuleConfig config;
  config.id = ModuleId{id};
  config.name = "sat" + std::to_string(id);
  config.memory_bytes = 256u << 10;
  constexpr Ticks kMtf = 500;

  air::system::PartitionConfig partition;
  partition.name = "flight";
  partition.sampling_ports.push_back(
      {"OUT", air::ipc::PortDirection::kSource, 64, air::kInfiniteTime});
  partition.sampling_ports.push_back(
      {"IN", air::ipc::PortDirection::kDestination, 64, air::kInfiniteTime});
  air::system::ProcessConfig beacon;
  beacon.attrs.name = "beacon";
  beacon.attrs.priority = 20;
  beacon.attrs.script = air::pos::ScriptBuilder{}
                            .timed_wait(phase)
                            .sampling_write(0, "beacon")
                            .sampling_read(1)
                            .timed_wait(kPeriod)
                            .jump(1)
                            .build();
  partition.processes.push_back(std::move(beacon));
  config.partitions.push_back(std::move(partition));

  air::ipc::ChannelConfig ring;
  ring.id = air::ChannelId{0};
  ring.kind = air::ipc::ChannelKind::kSampling;
  ring.source = {PartitionId{0}, "OUT"};
  ring.remote_destinations = {
      {ModuleId{(id + 1) % kModules}, PartitionId{0}, "IN"}};
  config.channels.push_back(std::move(ring));

  air::model::Schedule schedule;
  schedule.id = air::ScheduleId{0};
  schedule.mtf = kMtf;
  schedule.requirements = {{PartitionId{0}, kMtf, kMtf}};
  schedule.windows = {{PartitionId{0}, 0, kMtf}};
  config.schedules = {schedule};
  return config;
}

struct Inputs {
  std::string network_json;
  std::vector<std::string> module_json;
};

Inputs make_inputs(std::uint64_t seed) {
  Inputs inputs;
  std::vector<Ticks> phases;
  for (int m = 0; m < kModules; ++m) phases.push_back(1 + m % kPhaseWindow);
  air::util::Rng rng(mix_seed(seed, 0));
  for (std::size_t i = phases.size() - 1; i > 0; --i) {  // Fisher-Yates
    std::swap(phases[i], phases[static_cast<std::size_t>(
                             rng.uniform(0, static_cast<std::int64_t>(i)))]);
  }
  std::string vls;
  for (int m = 0; m < kModules; ++m) {
    inputs.module_json.push_back(air::config::to_json(
        satellite(m, phases[static_cast<std::size_t>(m)])));
    if (m > 0) vls += ",";
    vls += "{\"source\": " + std::to_string(m) +
           ", \"dest\": " + std::to_string((m + 1) % kModules) +
           ", \"min_gap\": 100}";
  }
  inputs.network_json =
      "{\"slot_length\": 1, \"frames_per_slot\": 4, \"propagation_delay\": 2,"
      " \"stations_per_switch\": 8, \"switch_hop_delay\": 2,"
      " \"virtual_links\": [" +
      vls + "]}";
  return inputs;
}

/// Setup: network + per-module JSON loads with validation and the
/// bounded-telemetry policy, then World, Module and VL construction.
Built<World> build(const Inputs& inputs) {
  Built<World> built;
  const auto t0 = Clock::now();
  air::config::NetworkLoadResult network =
      air::config::load_network_config(inputs.network_json);
  if (!network.ok()) throw std::runtime_error("network load: " + network.error);
  std::vector<air::system::ModuleConfig> configs;
  configs.reserve(inputs.module_json.size());
  for (const std::string& json : inputs.module_json) {
    air::config::LoadResult loaded = air::config::load_module_config(json);
    if (!loaded.ok()) throw std::runtime_error("module load: " + loaded.error);
    air::system::ModuleConfig& config = configs.emplace_back(
        std::move(*loaded.config));
    config.telemetry.flight_recorder_capacity = 64;
    config.telemetry.spans_capacity = 256;
  }
  built.load_s = seconds_since(t0);
  const auto t1 = Clock::now();
  built.system = std::make_unique<World>(network.config->bus);
  for (air::system::ModuleConfig& config : configs) {
    built.system->add_module(std::move(config));
  }
  for (const auto& link : network.config->virtual_links) {
    built.system->bus().define_virtual_link(link);
  }
  built.build_s = seconds_since(t1);
  return built;
}

std::uint64_t world_digest(World& world) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (std::size_t i = 0; i < world.module_count(); ++i) {
    hash = fnv1a(air::telemetry::to_json(world.module(i).metrics_snapshot(), 0),
                 hash);
  }
  const auto& bus = world.bus().stats();
  return fnv1a(std::to_string(bus.frames_sent) + "/" +
                   std::to_string(bus.frames_delivered) + "/" +
                   std::to_string(bus.total_latency),
               hash);
}

/// Per-chunk data-plane check, outside the timed chunk: every satellite
/// beacons once per period and no frame is dropped.
class Flight {
 public:
  Flight(World& world, Checks& checks, bool lockstep)
      : world_(world), checks_(checks), lockstep_(lockstep) {}

  void after_chunk(std::size_t k) {
    const auto& stats = world_.bus().stats();
    checks_.expect(
        "beacon-per-period",
        stats.frames_sent - sent_ == kModules && stats.frames_dropped == 0,
        "period " + std::to_string(k) +
            ": one beacon per satellite, none dropped");
    sent_ = stats.frames_sent;
  }

  [[nodiscard]] ChunkSteps steps() {
    return {{},
            [this](std::size_t) {
              if (lockstep_) {
                world_.run_lockstep(kPeriod);
              } else {
                world_.run(kPeriod);
              }
            },
            [this](std::size_t k) { after_chunk(k); }};
  }

 private:
  World& world_;
  Checks& checks_;
  bool lockstep_;
  std::uint64_t sent_{0};
};

struct WorldCounts {
  World::Stats stats;
  std::uint64_t delivered{0};
  LayerCounts layers;
};

WorldCounts sample(World& world) {
  WorldCounts counts{world.stats(), world.bus().stats().frames_delivered, {}};
  for (std::size_t i = 0; i < world.module_count(); ++i) {
    counts.layers.add(world.module(i));
  }
  return counts;
}

/// One timed pass of the epoch executor's horizon inputs: warp_headroom()
/// over every module plus the bus's next delivery, in microseconds.
double horizon_scan_us(World& world) {
  const auto t0 = Clock::now();
  Ticks least = world.bus().next_delivery(world.now());
  for (std::size_t i = 0; i < world.module_count(); ++i) {
    least = std::min(least, world.module(i).warp_headroom());
  }
  const double us = seconds_since(t0) * 1e6;
  volatile Ticks sink = least;  // keep the scan observable
  (void)sink;
  return us;
}

}  // namespace

void run_constellation(const Options& options, Report& report) {
  const auto timed = static_cast<std::size_t>(
      std::max(100.0, options.seconds * kChunksPerSecond));
  const std::size_t per_flight = (timed + kFlights - 1) / kFlights;
  const Inputs inputs = make_inputs(options.seed);
  Checks& checks = report.checks;
  SetupTimes setups;

  // Verification prefix: a second World from the same inputs flown with
  // the per-tick lockstep reference; the epoch executor must reproduce every
  // module's metrics snapshot after the same warm-up periods. Built and
  // torn down first so two worlds never coexist.
  std::uint64_t lockstep_digest = 0;
  {
    Built<World> reference = build(inputs);
    setups.note(reference);
    Flight flight(*reference.system, checks, true);
    (void)time_chunks(flight.steps(), kWarmupChunks, 0);
    lockstep_digest = world_digest(*reference.system);
    setups.teardown(reference);
  }
  if (options.inject == "digest") lockstep_digest ^= 1;

  // kFlights identical flights, one after the other, each from its own
  // set-up: the set-ups (setup_s is the fastest) and the timed periods
  // sample the host over the whole run. Flight 0 gives the layer counts;
  // every later one must end in its digest.
  ChunkTimes times;
  WorldCounts before, after;
  std::uint64_t digest = 0;
  Ticks jitter_max = 0;
  for (std::size_t f = 0; f < kFlights; ++f) {
    Built<World> main = build(inputs);
    setups.note(main);
    World& world = *main.system;
    Flight flight(world, checks, false);
    WorldCounts at_start;
    times.append(time_chunks(flight.steps(), kWarmupChunks, per_flight, [&] {
      checks.expect("lockstep-vs-run", world_digest(world) == lockstep_digest,
                    "epoch executor matches run_lockstep (every module's "
                    "metrics snapshot)");
      at_start = sample(world);
    }));
    const WorldCounts at_end = sample(world);
    const std::uint64_t flight_digest = world_digest(world);
    if (f == 0) {
      before = at_start;
      after = at_end;
      digest = flight_digest;
      for (std::size_t vl = 0; vl < world.bus().virtual_link_count(); ++vl) {
        jitter_max =
            std::max(jitter_max, world.bus().vl_stats(vl).max_queue_wait);
      }
    } else {
      checks.expect("repeat-flight", flight_digest == digest,
                    "repeated flight reproduces the first one");
    }
    setups.teardown(main);
  }
  check_record(report, options, "digest", digest);
  const double work_per_chunk = static_cast<double>(kModules * kPeriod);
  if (!options.trace) {
    // Every period does the same work; the peak is taken at the fastest.
    add_end_to_end(report, work_per_chunk / fastest(times.chunk_s),
                   fastest(setups.setup_s));
    return;
  }

  // Traced pass: World::enable_profiler(1) only. Module profilers would
  // make warp_headroom() return 0 and change what the World executes.
  Built<World> profiled = build(inputs);
  World& traced_world = *profiled.system;
  traced_world.enable_profiler(1);
  auto& profiler = traced_world.profiler();
  Flight traced_flight(traced_world, checks, false);
  ChunkSteps traced_steps = traced_flight.steps();
  std::vector<double> horizon_us;
  traced_steps.before = [&](std::size_t k) {
    if (k >= kWarmupChunks) horizon_us.push_back(horizon_scan_us(traced_world));
  };
  const ChunkTimes traced_times =
      time_chunks(traced_steps, kWarmupChunks, per_flight, [&] {
        // The same snapshot sequence as the untraced run: gauges count
        // their samples, so digests compare only like with like.
        checks.expect("profiled-run",
                      world_digest(traced_world) == lockstep_digest,
                      "profiled World matches run_lockstep");
        (void)sample(traced_world);
        profiler.clear();
      });
  (void)sample(traced_world);
  checks.expect("profiled-run", world_digest(traced_world) == digest,
                "profiled World reproduces an untraced flight");
  setups.teardown(profiled);

  add_count_metrics(report, before.layers, after.layers, per_flight);
  const double n = static_cast<double>(per_flight);
  const auto& s0 = before.stats;
  const auto& s1 = after.stats;
  report.add_count("system.world.epochs_per_chunk",
                   static_cast<double>(s1.epochs - s0.epochs) / n,
                   "count/chunk");
  report.add_count("system.world.mean_epoch_ticks",
                   static_cast<double>(s1.epoch_ticks - s0.epoch_ticks) /
                       static_cast<double>(s1.epochs - s0.epochs),
                   "ticks");
  report.add_count("system.world.frames_merged_per_chunk",
                   static_cast<double>(s1.frames_merged - s0.frames_merged) / n,
                   "count/chunk");
  report.add_count("net.bus.frames_delivered_per_chunk",
                   static_cast<double>(after.delivered - before.delivered) / n,
                   "count/chunk");
  report.add_count("net.vl.jitter_max_ticks", static_cast<double>(jitter_max),
                   "ticks");
  setups.add_layers(report);

  using air::telemetry::ProfilePoint;
  const double scope_ns = profiler_scope_ns();
  const auto raw = self_by_point(profiler, 0);
  const auto cal = self_by_point(profiler, scope_ns);
  const auto ms_per_chunk = [&](const char* name, ProfilePoint p) {
    report.add(name,
               cal[static_cast<std::size_t>(p)].self_ns / 1e6 /
                   static_cast<double>(per_flight),
               "ms/chunk");
  };
  ms_per_chunk("system.world.epoch_self_ms_per_chunk", ProfilePoint::kEpoch);
  ms_per_chunk("system.world.barrier_ms_per_chunk", ProfilePoint::kEpochBarrier);
  ms_per_chunk("net.bus.pump_ms_per_chunk", ProfilePoint::kBusPump);
  report.add("system.world.horizon_scan_us", median(horizon_us), "us");

  const PointSelf attributed = total(raw);
  add_trace_quality(report, times, traced_times, attributed.self_ns,
                    attributed.calls, scope_ns);
  add_harness_layer(report, times, work_per_chunk);
}

}  // namespace perfbench
