// Golden bytes of every JSON writer: one FNV-1a digest per exporter output,
// over inputs that reach each optional member, in tests/golden/.
//
// The exporters are byte contracts: flight artifacts are diffed across runs
// and drivers, and reproducer files must stay diffable. A writer change that
// moves one key, one space or one digit shows here, named by its writer.
// The air-record manifest and the air-profile Chrome view come from the
// tool binaries themselves.
//
// Regenerate after an *intentional* format change with:
//   AIR_UPDATE_GOLDEN=1 ./air_tests --gtest_filter='JsonExports.*'
#include <gtest/gtest.h>

#include <cctype>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <unistd.h>
#include <vector>

#include "config/candidates.hpp"
#include "config/export.hpp"
#include "config/fig8.hpp"
#include "config/loader.hpp"
#include "fi/fault_plan.hpp"
#include "model/batch.hpp"
#include "system/module.hpp"
#include "system/world.hpp"
#include "telemetry/analysis.hpp"
#include "telemetry/digest.hpp"
#include "telemetry/export.hpp"
#include "telemetry/profiler.hpp"
#include "telemetry/spans.hpp"
#include "util/trace_export.hpp"

namespace air {
namespace {

namespace fs = std::filesystem;

constexpr const char* kGoldenPath =
    AIR_SOURCE_DIR "/tests/golden/json_exports.digest";

/// A string with every escape class the writers must handle.
constexpr const char* kEscapes =
    "q\"b\\n\nt\tr\rc\x01\x1f utf8 \xc3\xa9\xe2\x9c\x93";

// ---------- inputs ----------

/// Fig. 8 plus one process running every op kind (finite and infinite
/// timeouts), every IPC object kind, an error handler and a change action.
system::ModuleConfig every_op_config() {
  system::ModuleConfig config = scenarios::fig8_config();
  system::PartitionConfig& p = config.partitions.front();
  system::ProcessConfig process;
  process.attrs.name = kEscapes;
  process.attrs.period = kInfiniteTime;
  process.attrs.priority = 3;
  process.attrs.sporadic = true;
  process.auto_start = false;
  process.attrs.script = {
      pos::OpCompute{4}, pos::OpPeriodicWait{}, pos::OpSporadicWait{},
      pos::OpReleaseProcess{"r"}, pos::OpTimedWait{2}, pos::OpSuspendSelf{},
      pos::OpSuspendSelf{7}, pos::OpStopSelf{}, pos::OpReplenish{9},
      pos::OpLockPreemption{}, pos::OpUnlockPreemption{},
      pos::OpSemWait{0, 5}, pos::OpSemSignal{0}, pos::OpEventSet{0},
      pos::OpEventReset{0}, pos::OpEventWait{0},
      pos::OpBufferSend{0, "m", 3}, pos::OpBufferReceive{0},
      pos::OpBlackboardDisplay{0, "bb"}, pos::OpBlackboardRead{0, 1},
      pos::OpSamplingWrite{0, "s"}, pos::OpSamplingRead{0},
      pos::OpQueuingSend{0, "qs"}, pos::OpQueuingReceive{0, 4},
      pos::OpSetModuleSchedule{1}, pos::OpRaiseError{2, kEscapes},
      pos::OpTryDisableClockIrq{}, pos::OpMemoryAccess{0xfffffff0u, true},
      pos::OpStopProcess{"x"}, pos::OpStartProcess{"y"}, pos::OpLog{"log"},
      pos::OpGoto{1}};
  p.processes.push_back(std::move(process));
  p.buffers.push_back({"buf", 32, 4, ipc::QueuingDiscipline::kPriority});
  p.blackboards.push_back({"board", 16});
  p.semaphores.push_back({"sem", 0, 2, ipc::QueuingDiscipline::kFifo});
  p.events.push_back({"evt"});
  p.error_handler = {pos::OpLog{"handled"}, pos::OpStopSelf{}};
  p.pos_kind = pos::Policy::kRoundRobin;
  p.deadline_registry = pal::RegistryKind::kTree;
  return config;
}

/// Two cores, so config::to_json writes its "cores" member.
system::ModuleConfig dual_core_config() {
  system::ModuleConfig config;
  config.name = "dual";
  for (const char* name : {"A", "B"}) {
    system::PartitionConfig p;
    p.name = name;
    config.partitions.push_back(std::move(p));
  }
  for (std::int32_t core = 0; core < 2; ++core) {
    model::Schedule s;
    s.id = ScheduleId{core};
    s.mtf = 100;
    s.requirements = {{PartitionId{core}, 100, 50}};
    s.windows = {{PartitionId{core}, 0, 50}};
    config.cores.push_back({{s}, ScheduleId{core}});
  }
  return config;
}

telemetry::MetricsSnapshot edge_snapshot() {
  telemetry::MetricsSnapshot snapshot;
  snapshot.time = 1234;
  telemetry::MetricSample counter;
  counter.metric = telemetry::Metric::kDeadlineChecks;
  counter.index = 0;
  counter.counter = 77;
  telemetry::MetricSample gauge;
  gauge.metric = telemetry::Metric::kPartitionBusyTicks;
  gauge.kind = telemetry::MetricKind::kGauge;
  gauge.gauge.last = -5;
  gauge.gauge.max = 12;
  gauge.gauge.samples = 3;
  telemetry::MetricSample empty;
  empty.metric = telemetry::Metric::kDeadlineSlack;
  empty.index = 1;
  empty.kind = telemetry::MetricKind::kHistogram;
  telemetry::MetricSample filled = empty;
  filled.index = 2;
  for (const std::int64_t v : {-3, 0, 5, 900, 70000}) {
    filled.histogram.observe(v);
  }
  snapshot.samples = {counter, gauge, empty, filled};
  return snapshot;
}

void fly_fig8(system::Module& module) {
  module.start_process_by_name(module.partition_id("AOCS"),
                               scenarios::kFaultyProcessName);
  module.run(500);
  (void)module.apex(module.partition_id("AOCS"))
      .set_module_schedule(ScheduleId{1});
  module.run(5 * scenarios::kFig8Mtf);
}

/// The two-module flight of tools/air-record: Fig. 8 with its faulty
/// process, sending science frames over the bus to a ground module.
std::string two_module_chrome_trace() {
  system::ModuleConfig fig8 = scenarios::fig8_config();
  fig8.id = ModuleId{0};
  for (ipc::ChannelConfig& channel : fig8.channels) {
    if (channel.kind == ipc::ChannelKind::kQueuing) {
      channel.remote_destinations.push_back(
          {ModuleId{1}, PartitionId{0}, "SCI_IN"});
    }
  }
  system::ModuleConfig ground_config;
  ground_config.id = ModuleId{1};
  ground_config.name = "ground";
  system::PartitionConfig ground;
  ground.name = "GROUND";
  ground.queuing_ports.push_back(
      {"SCI_IN", ipc::PortDirection::kDestination, 64, 16});
  system::ProcessConfig archiver;
  archiver.attrs.name = "archiver";
  archiver.attrs.priority = 10;
  archiver.attrs.script =
      pos::ScriptBuilder{}.queuing_receive(0).log("archived").build();
  ground.processes.push_back(std::move(archiver));
  ground_config.partitions.push_back(std::move(ground));
  model::Schedule schedule;
  schedule.id = ScheduleId{0};
  schedule.mtf = scenarios::kFig8Mtf;
  schedule.requirements = {
      {PartitionId{0}, scenarios::kFig8Mtf, scenarios::kFig8Mtf}};
  schedule.windows = {{PartitionId{0}, 0, scenarios::kFig8Mtf}};
  ground_config.schedules = {schedule};

  system::World world(
      {.slot_length = 10, .frames_per_slot = 2, .propagation_delay = 2});
  system::Module& m0 = world.add_module(std::move(fig8));
  system::Module& m1 = world.add_module(std::move(ground_config));
  m0.start_process_by_name(m0.partition_id("AOCS"),
                           scenarios::kFaultyProcessName);
  world.run(500);
  (void)m0.apex(m0.partition_id("AOCS")).set_module_schedule(ScheduleId{1});
  world.run(3 * scenarios::kFig8Mtf);

  telemetry::AnalysisInput input;
  input.tick_us = 0.5;
  std::string error;
  for (system::Module* m : {&m0, &m1}) {
    EXPECT_TRUE(input.add_module(m->config().name, util::to_json(m->trace()),
                                 telemetry::to_json(m->metrics_snapshot()),
                                 telemetry::spans_to_json(m->spans()), &error))
        << error;
  }
  EXPECT_TRUE(
      input.set_bus_spans(telemetry::spans_to_json(world.bus_spans()), &error))
      << error;
  return telemetry::analyze(input).chrome_trace;
}

/// Host timings are wall clock: zero every "<name>_ns" value so the rest of
/// the document (keys, layout, counts) can be compared byte for byte.
std::string zero_timings(std::string text) {
  for (const char* key : {"\"total_ns\":", "\"self_ns\":", "\"max_ns\":"}) {
    for (std::size_t at = text.find(key); at != std::string::npos;
         at = text.find(key, at + 1)) {
      std::size_t begin = at + std::strlen(key);
      while (begin < text.size() && text[begin] == ' ') ++begin;
      std::size_t end = begin;
      while (end < text.size() &&
             std::isdigit(static_cast<unsigned char>(text[end])) != 0) {
        ++end;
      }
      text.replace(begin, end - begin, 1, '0');
    }
  }
  return text;
}

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void write_file(const fs::path& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
}

/// Runs a tool; its standard output goes to `stdout_file`.
int run_tool(const std::string& command, const fs::path& stdout_file) {
  const std::string line = command + " > '" + stdout_file.string() + "'";
  return std::system(line.c_str());
}

/// A hand-written profile pair (one module, the World) for air-profile:
/// fixed timings, nested three deep, so the Chrome view is deterministic.
void write_profile_flight(const fs::path& dir) {
  write_file(dir / "meta.json", R"({
    "modules": [{"name": "fig8", "profile": "fig8_profile.json"}],
    "world_profile": "world_profile.json"})");
  write_file(dir / "fig8_profile.json", R"({
    "meta": {"origin": "fig8", "stride": 1, "sampled_ticks": 40},
    "paths": [
      {"path": "tick", "point": "tick", "depth": 1, "calls": 40,
       "total_ns": 123457, "self_ns": 20001, "max_ns": 9000},
      {"path": "tick;pal", "point": "pal", "depth": 2, "calls": 40,
       "total_ns": 60333, "self_ns": 10333, "max_ns": 4000},
      {"path": "tick;pal;kernel_dispatch", "point": "kernel_dispatch",
       "depth": 3, "calls": 40, "total_ns": 50000, "self_ns": 50000,
       "max_ns": 3000},
      {"path": "tick;scheduler", "point": "scheduler", "depth": 2,
       "calls": 40, "total_ns": 43123, "self_ns": 43123, "max_ns": 2500}]})");
  write_file(dir / "world_profile.json", R"({
    "meta": {"origin": "world", "stride": 1, "sampled_ticks": 8},
    "paths": [
      {"path": "epoch", "point": "epoch", "depth": 1, "calls": 8,
       "total_ns": 7777, "self_ns": 1111, "max_ns": 1500},
      {"path": "epoch;bus_pump", "point": "bus_pump", "depth": 2,
       "calls": 8, "total_ns": 6666, "self_ns": 6666, "max_ns": 999}]})");
}

// ---------- the digests ----------

std::map<std::string, std::uint64_t> export_digests() {
  std::map<std::string, std::uint64_t> d;
  const auto put = [&d](const std::string& key, const std::string& bytes) {
    d[key] = fi::digest64(bytes);
  };

  // config::to_json
  put("config.fig8", config::to_json(scenarios::fig8_config()));
  const config::LoadResult mission =
      config::load_module_config_file(AIR_SOURCE_DIR "/examples/mission.json");
  EXPECT_TRUE(mission.ok()) << mission.error;
  if (mission.ok()) put("config.mission", config::to_json(*mission.config));
  put("config.every_op", config::to_json(every_op_config()));
  put("config.dual_core", config::to_json(dual_core_config()));

  // telemetry::to_json over hand-built and flown snapshots
  system::Module module(scenarios::fig8_config());
  fly_fig8(module);
  const telemetry::MetricsSnapshot edge = edge_snapshot();
  const telemetry::MetricsSnapshot flown = module.metrics_snapshot();
  for (const int indent : {-1, 0, 2}) {
    const std::string suffix = ".indent" + std::to_string(indent);
    put("metrics.edge" + suffix, telemetry::to_json(edge, indent));
    put("metrics.fig8" + suffix, telemetry::to_json(flown, indent));
  }

  // spans and profile
  put("spans.fig8", telemetry::spans_to_json(module.spans()));
  put("spans.fig8.compact", telemetry::spans_to_json(module.spans(), -1));
  using Scope = telemetry::HostProfiler::Scope;
  using telemetry::ProfilePoint;
  telemetry::HostProfiler profiler;
  profiler.enable(true);
  profiler.set_stride(1);
  for (int tick = 0; tick < 3; ++tick) {
    profiler.begin_tick();
    Scope t(profiler, ProfilePoint::kTick);
    {
      Scope p(profiler, ProfilePoint::kPal);
      Scope k(profiler, ProfilePoint::kKernelDispatch);
    }
    Scope s(profiler, ProfilePoint::kScheduler);
  }
  put("profile", zero_timings(telemetry::profile_to_json(profiler, kEscapes)));
  put("profile.compact",
      zero_timings(telemetry::profile_to_json(profiler, "p", -1)));

  // NDJSON digests and health events
  telemetry::WindowDigest partitions;
  partitions.index = 3;
  partitions.start = 300;
  partitions.end = 400;
  partitions.partitions.resize(2);
  partitions.partitions[1].deadline_misses = 2;
  partitions.partitions[1].deadline_checks = 9;
  partitions.partitions[1].busy_ticks = 60;
  partitions.partitions[1].slack_ticks = -1;
  partitions.partitions[1].dispatches = 4;
  partitions.partitions[1].hm_errors = 1;
  partitions.partitions[1].miss_rate_scaled = 98304;
  for (const std::int64_t v : {1, 7, 30}) {
    partitions.partitions[1].deadline_slack.observe(v);
  }
  partitions.ipc_messages = 5;
  partitions.ipc_bytes = 320;
  partitions.ipc_drops = 1;
  partitions.spans_dropped = 2;
  put("digest.partitions", telemetry::digest_ndjson(kEscapes, partitions));
  telemetry::WindowDigest stations;
  stations.index = 1;
  stations.start = 100;
  stations.end = 200;
  stations.stations = {{0, 3, 2, 1}, {1, 0, 3, 0}};
  stations.bus_frames_sent = 3;
  stations.bus_frames_delivered = 5;
  stations.bus_backlog = 1;
  stations.trace_dropped = 4;
  stations.trace_dropped_critical = 1;
  put("digest.stations", telemetry::digest_ndjson("bus", stations));
  telemetry::HealthEvent event;
  event.tick = 399;
  event.kind = telemetry::Watchdog::kBusBacklogGrowth;
  event.partition = -1;
  event.value = -7;
  event.threshold = 4;
  event.window_index = 3;
  event.cause = 0x100000002ull;
  event.detail = kEscapes;
  put("health", telemetry::health_ndjson("m0", event));

  // trace exporters
  put("trace.json", util::to_json(module.trace()));
  put("trace.chrome", util::to_chrome_trace(module.trace()));
  put("trace.chrome.tick_0.1", util::to_chrome_trace(module.trace(), 0.1));
  put("analyze.chrome", two_module_chrome_trace());

  // candidate_to_jsonl
  model::CandidateSpec spec;
  spec.count = 24;
  spec.seed = 5;
  std::vector<model::Candidate> candidates = model::generate_candidates(spec);
  model::Candidate escaped = candidates.front();
  escaped.name = kEscapes;
  escaped.partitions.front().name = kEscapes;
  escaped.partitions.front().processes.front().name = kEscapes;
  escaped.partitions.front().processes.front().deadline = kInfiniteTime;
  candidates.push_back(escaped);
  std::string lines;
  for (const model::Candidate& c : candidates) {
    lines += config::candidate_to_jsonl(c) + "\n";
  }
  put("candidates", lines);

  // the tools: air-record's manifest, air-profile's Chrome view
  const fs::path dir = fs::temp_directory_path() /
                       ("air_json_exports_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir / "profiles");
  const fs::path out = dir / "stdout.txt";
  EXPECT_EQ(run_tool(std::string{AIR_RECORD_BIN} + " '" +
                         (dir / "plain").string() + "'",
                     out),
            0);
  put("air-record.meta", read_file(dir / "plain" / "meta.json"));
  EXPECT_EQ(run_tool(std::string{AIR_RECORD_BIN} + " --health --profile '" +
                         (dir / "full").string() + "'",
                     out),
            0);
  put("air-record.meta.health_profile", read_file(dir / "full" / "meta.json"));
  write_profile_flight(dir / "profiles");
  EXPECT_EQ(run_tool(std::string{AIR_PROFILE_BIN} + " --chrome '" +
                         (dir / "profiles").string() + "'",
                     out),
            0);
  put("air-profile.chrome", read_file(out));
  fs::remove_all(dir);
  return d;
}

TEST(JsonExports, EveryWriterMatchesTheGoldenBytes) {
  const std::map<std::string, std::uint64_t> digests = export_digests();
  if (std::getenv("AIR_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(kGoldenPath, std::ios::binary);
    for (const auto& [key, value] : digests) {
      out << key << ' ' << std::hex << value << '\n';
    }
    GTEST_SKIP() << "golden digests regenerated at " << kGoldenPath;
  }

  std::ifstream in(kGoldenPath);
  ASSERT_TRUE(in) << "missing " << kGoldenPath
                  << " -- regenerate with AIR_UPDATE_GOLDEN=1";
  std::map<std::string, std::uint64_t> golden;
  std::string key;
  std::uint64_t value = 0;
  while (in >> key >> std::hex >> value) golden[key] = value;
  EXPECT_EQ(golden.size(), digests.size());
  for (const auto& [name, digest] : digests) {
    const auto it = golden.find(name);
    ASSERT_NE(it, golden.end()) << name << " has no golden digest";
    EXPECT_EQ(digest, it->second)
        << name << " bytes diverged from the golden snapshot; if the change "
        << "is intentional, regenerate with AIR_UPDATE_GOLDEN=1";
  }
}

}  // namespace
}  // namespace air
