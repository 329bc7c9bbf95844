// fig8_mission: the paper's Sect. 6 prototype flown end to end.
//
// Why this workload: every tick runs the whole partitioned stack -- PMK
// Algorithms 1/2, PAL Algorithm 3, the POS kernels, APEX, the channel
// router, HM, the HAL MMU and the telemetry plane -- while net, World and
// model do no work. The module is loaded from the exported Fig. 8 JSON,
// the faulty AOCS process is started, chi_1 <-> chi_2 switches are
// requested through APEX at seeded MTF boundaries, the trace and spans are
// bounded in flight-recorder mode and the online plane is on. Module::run
// flies it with default settings (time warp on). One chunk is one MTF.
//
// The online plane keeps every closed WindowDigest, so resident memory
// grows with the MTFs flown; peak_rss_mb shows that growth.
#include <cstdio>
#include <memory>
#include <optional>
#include <stdexcept>

#include "config/export.hpp"
#include "config/fig8.hpp"
#include "config/loader.hpp"
#include "harness.hpp"
#include "sim.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using air::PartitionId;
using air::ProcessId;
using air::ScheduleId;
using air::Ticks;
using air::system::Module;
using air::util::EventKind;

constexpr Ticks kMtf = air::scenarios::kFig8Mtf;
// Measured MTFs per second of --seconds (Release+LTO, 4-CPU x86-64 host);
// the chunk count is fixed per --seconds so layer counts repeat exactly.
constexpr double kChunksPerSecond = 9000;
constexpr std::size_t kMissionChunks = 20000;
constexpr std::size_t kWarmupChunks = 64;  // also the per-tick prefix
constexpr std::size_t kSetups = 101;
// Share of timed chunks the stride-1 traced pass flies (it steps every
// tick, several times slower than the warped untraced run).
constexpr std::size_t kTracedDivisor = 10;
// One chi_1 <-> chi_2 switch request per kSwitchEvery MTFs, at a seeded
// boundary inside each block: the seed moves the switches, not their count.
constexpr std::size_t kSwitchEvery = 8;

struct Inputs {
  std::string config_json;
  std::vector<bool> switch_before;  // request a switch before chunk k
};

Inputs make_inputs(std::uint64_t seed, std::size_t chunks) {
  Inputs inputs;
  inputs.config_json = air::config::to_json(air::scenarios::fig8_config());
  air::util::Rng rng(mix_seed(seed, 0));
  inputs.switch_before.resize(chunks);
  for (std::size_t block = 0; block + kSwitchEvery <= chunks;
       block += kSwitchEvery) {
    const auto offset = static_cast<std::size_t>(
        rng.uniform(1, static_cast<std::int64_t>(kSwitchEvery) - 1));
    inputs.switch_before[block + offset] = true;
  }
  return inputs;
}

/// Setup: JSON load + validation, the bounded-telemetry policy, then
/// Module construction (which validates the schedules, eqs. (20)-(23)).
Built<Module> build(const Inputs& inputs, bool profiled) {
  Built<Module> built;
  const auto t0 = Clock::now();
  air::config::LoadResult loaded =
      air::config::load_module_config(inputs.config_json);
  if (!loaded.ok()) throw std::runtime_error("fig8 load: " + loaded.error);
  air::system::ModuleConfig config = std::move(*loaded.config);
  config.telemetry.flight_recorder_capacity = 1024;
  config.telemetry.flight_recorder_critical_capacity = 256;
  config.telemetry.spans_capacity = 1024;
  config.telemetry.online.enabled = true;
  if (profiled) {
    config.telemetry.profiler_enabled = true;
    config.telemetry.profiler_stride = 1;
  }
  built.load_s = seconds_since(t0);
  const auto t1 = Clock::now();
  built.system = std::make_unique<Module>(std::move(config));
  built.build_s = seconds_since(t1);
  return built;
}

/// Drives one module through the mission: injection, the seeded switch
/// requests between chunks, and the per-MTF Algorithm 3 and mode-switch
/// checks, all outside the timed chunk.
class Mission {
 public:
  Mission(Module& module, const Inputs& inputs, Checks& checks,
          bool start_faulty)
      : module_(module),
        inputs_(inputs),
        checks_(checks),
        aocs_(module.partition_id("AOCS")) {
    (void)module_.apex(aocs_).get_process_id(
        air::scenarios::kFaultyProcessName, faulty_);
    if (start_faulty) {
      module_.start_process_by_name(aocs_, air::scenarios::kFaultyProcessName);
    }
  }

  void before_chunk(std::size_t k) {
    requested_.reset();
    if (!inputs_.switch_before[k]) return;
    auto& apex = module_.apex(aocs_);
    const ScheduleId next{
        apex.get_module_schedule_status().current_schedule.value() == 0 ? 1
                                                                         : 0};
    checks_.expect(
        "mode-switch",
        apex.set_module_schedule(next) == air::apex::ReturnCode::kNoError,
        "APEX SET_MODULE_SCHEDULE accepted");
    requested_ = next;
  }

  void after_chunk(std::size_t k) {
    const Ticks start = static_cast<Ticks>(k) * kMtf;
    // Algorithm 3: from the second MTF after injection on, exactly one
    // miss per MTF, detected for p1_faulty on AOCS and nowhere else.
    const std::uint64_t expected = k == 0 ? 0 : 1;
    std::uint64_t total = 0;
    for (std::size_t p = 0; p < module_.partition_count(); ++p) {
      total += module_.pal(PartitionId{static_cast<std::int32_t>(p)})
                   .violations_detected();
    }
    const std::uint64_t aocs = module_.pal(aocs_).violations_detected();
    std::uint64_t faulty_misses = 0;
    std::uint64_t misses_in_chunk = 0;
    for (const auto& event :
         module_.trace().filtered(EventKind::kDeadlineMiss)) {
      if (event.time < start || event.time >= start + kMtf) continue;
      ++misses_in_chunk;
      if (event.a == aocs_.value() && event.b == faulty_.value()) {
        ++faulty_misses;
      }
    }
    checks_.expect("alg3-deadline-miss",
                   total - misses_total_ == expected &&
                       aocs - misses_aocs_ == expected &&
                       misses_in_chunk == expected &&
                       faulty_misses == expected,
                   "MTF " + std::to_string(k) + ": " +
                       std::to_string(expected) +
                       " deadline miss(es), on p1_faulty only");
    misses_total_ = total;
    misses_aocs_ = aocs;
    if (requested_) {
      // The switch takes effect at the MTF boundary that opened this chunk.
      const auto status = module_.apex(aocs_).get_module_schedule_status();
      checks_.expect("mode-switch",
                     status.current_schedule == *requested_ &&
                         status.last_switch_time == start,
                     "MTF " + std::to_string(k) +
                         ": requested schedule switch took effect at the "
                         "next MTF boundary");
    }
  }

  [[nodiscard]] ChunkSteps steps() {
    return {[this](std::size_t k) { before_chunk(k); },
            [this](std::size_t) { module_.run(kMtf); },
            [this](std::size_t k) { after_chunk(k); }};
  }

 private:
  Module& module_;
  const Inputs& inputs_;
  Checks& checks_;
  PartitionId aocs_;
  ProcessId faulty_{};
  std::optional<ScheduleId> requested_;
  std::uint64_t misses_total_{0};
  std::uint64_t misses_aocs_{0};
};

}  // namespace

void run_fig8_mission(const Options& options, Report& report) {
  // The timed MTFs are split over identical missions of at most
  // kMissionChunks each: the online plane's digests grow with every MTF, so
  // this bounds resident memory while a run still spans --seconds.
  const auto all_chunks = static_cast<std::size_t>(
      std::max(200.0, options.seconds * kChunksPerSecond));
  const std::size_t missions =
      (all_chunks + kMissionChunks - 1) / kMissionChunks;
  const std::size_t timed = (all_chunks + missions - 1) / missions;
  const std::size_t traced = std::max<std::size_t>(100, timed / kTracedDivisor);
  const Inputs inputs = make_inputs(options.seed, kWarmupChunks + timed);
  const bool start_faulty = options.inject != "drop-miss";
  Checks& checks = report.checks;
  SetupTimes setups;

  // Verification prefix: a second instance from the same inputs flown per
  // tick (time warp off); every warped mission must match its digest
  // after the same warm-up chunks.
  std::uint64_t per_tick_digest = 0;
  {
    Built<Module> reference = build(inputs, false);
    setups.note(reference);
    reference.system->set_time_warp(false);
    Mission mission(*reference.system, inputs, checks, start_faulty);
    (void)time_chunks(mission.steps(), kWarmupChunks, 0);
    per_tick_digest = module_digest(*reference.system);
    setups.teardown(reference);
  }
  if (options.inject == "digest") per_tick_digest ^= 1;

  // Spare set-ups between missions, so the fastest of all kSetups
  // (setup_s) samples the host over the whole run; every mission's own
  // set-up counts as one too.
  const std::size_t spares = kSetups - 1 - missions;
  const auto set_up_spares = [&](std::size_t gap) {
    const std::size_t until = spares * (gap + 1) / (missions + 1);
    for (std::size_t i = spares * gap / (missions + 1); i < until; ++i) {
      Built<Module> spare = build(inputs, false);
      setups.note(spare);
      setups.teardown(spare);
    }
  };

  ChunkTimes times;
  LayerCounts before, after;
  std::uint64_t digest = 0, digest_at_traced_end = 0;
  for (std::size_t m = 0; m < missions; ++m) {
    set_up_spares(m);
    Built<Module> main = build(inputs, false);
    setups.note(main);
    Module& module = *main.system;
    Mission mission(module, inputs, checks, start_faulty);
    // Every mission snapshots at the traced pass's end (snapshots count
    // gauge samples), so the missions stay alike; mission 0's is kept.
    ChunkSteps steps = mission.steps();
    steps.after = [&](std::size_t k) {
      mission.after_chunk(k);
      if (k + 1 == kWarmupChunks + traced) {
        const std::uint64_t at_end = module_digest(module);
        if (m == 0) digest_at_traced_end = at_end;
      }
    };
    times.append(time_chunks(steps, kWarmupChunks, timed, [&] {
      checks.expect("warp-vs-per-tick",
                    module_digest(module) == per_tick_digest,
                    "warped run matches the per-tick run (trace + metrics "
                    "digest)");
      LayerCounts sample;
      sample.add(module);
      if (m == 0) before = sample;
    }));
    LayerCounts sample;
    sample.add(module);
    const std::uint64_t mission_digest = module_digest(module);
    if (m == 0) {
      after = sample;
      digest = mission_digest;
    } else {
      // Same inputs, same bytes: a repeat must reproduce mission 0.
      checks.expect("repeat-mission", mission_digest == digest,
                    "repeated mission reproduces the first one");
    }
    setups.teardown(main);
  }
  set_up_spares(missions);
  check_record(report, options, "digest", digest);
  if (!options.trace) {
    // The peak is taken at the fastest MTF of the run: with ~0.07 ms MTFs,
    // some fall between bursts of host interference even in its busiest
    // minutes.
    add_end_to_end(report, static_cast<double>(kMtf) / fastest(times.chunk_s),
                   fastest(setups.setup_s));
    return;
  }

  // Traced pass: a fresh instance with the module HostProfiler at stride
  // 1. An enabled profiler makes warp_headroom() return 0, so this pass
  // steps every tick; system.stepped_frac above is the untraced run's.
  std::fprintf(stderr,
               "note: fig8_mission traced pass uses the module HostProfiler "
               "at stride 1, which forces per-tick stepping (untraced "
               "system.stepped_frac is reported beside it)\n");
  const double scope_ns = profiler_scope_ns();
  Built<Module> profiled = build(inputs, true);
  Module& traced_module = *profiled.system;
  Mission traced_mission(traced_module, inputs, checks, start_faulty);
  auto& profiler = traced_module.profiler();
  std::uint64_t traced_stepped0 = 0;
  const ChunkTimes traced_times =
      time_chunks(traced_mission.steps(), kWarmupChunks, traced, [&] {
        // The untraced run's snapshot sequence: gauges count their samples.
        checks.expect("profiled-run",
                      module_digest(traced_module) == per_tick_digest,
                      "profiled run matches the per-tick run");
        LayerCounts unused;
        unused.add(traced_module);
        profiler.clear();
        traced_stepped0 = traced_module.warp_stats().stepped_ticks;
      });
  const double stepped = static_cast<double>(
      traced_module.warp_stats().stepped_ticks - traced_stepped0);
  checks.expect("profiled-run",
                module_digest(traced_module) == digest_at_traced_end,
                "profiled per-tick run reproduces the untraced run (trace + "
                "metrics digest)");

  add_count_metrics(report, before, after, timed);
  setups.add_layers(report);

  using air::telemetry::ProfilePoint;
  const auto raw = self_by_point(profiler, 0);
  const auto cal = self_by_point(profiler, scope_ns);
  const auto per_tick = [&](const char* name, ProfilePoint p) {
    report.add(name, cal[static_cast<std::size_t>(p)].self_ns / stepped,
               "ns/tick");
  };
  per_tick("pmk.scheduler.ns_per_tick", ProfilePoint::kScheduler);
  per_tick("pmk.dispatcher.ns_per_tick", ProfilePoint::kDispatcher);
  per_tick("ipc.router.ns_per_tick", ProfilePoint::kRouter);
  per_tick("pal.announce.ns_per_tick", ProfilePoint::kPal);
  per_tick("pos.kernel_dispatch.ns_per_tick", ProfilePoint::kKernelDispatch);
  per_tick("system.executor.ns_per_tick", ProfilePoint::kExecutor);
  per_tick("system.tick.self_ns", ProfilePoint::kTick);
  per_tick("system.warp_scan.ns_per_tick", ProfilePoint::kWarpScan);
  per_tick("telemetry.online_close.ns_per_tick", ProfilePoint::kOnlineClose);

  const PointSelf attributed = total(raw);
  add_trace_quality(report, times, traced_times, attributed.self_ns,
                    attributed.calls, scope_ns);
  add_harness_layer(report, times, static_cast<double>(kMtf));
}

}  // namespace perfbench
