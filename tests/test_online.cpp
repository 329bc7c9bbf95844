// Online observability plane: digest arithmetic (EWMA, histogram windows,
// quantile extraction), watchdog semantics, and the determinism contract --
// digest sequences and HealthEvent streams must be byte-identical across
// the per-tick, warped, lockstep and epoch drivers. Also covers
// the telemetry export edge cases that ride along in this change: empty
// registries, non-finite doubles in the JSON writer, CSV field escaping.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "config/fig8.hpp"
#include "fi/campaign.hpp"
#include "hm/health_monitor.hpp"
#include "pos/workload.hpp"
#include "system/module.hpp"
#include "system/world.hpp"
#include "telemetry/digest.hpp"
#include "telemetry/export.hpp"
#include "telemetry/online.hpp"
#include "telemetry/spans.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/trace.hpp"

namespace air {
namespace {

using pos::ScriptBuilder;
using telemetry::Ewma;
using telemetry::Histogram;

// ---------------------------------------------------------------- digest --

TEST(EwmaTest, SeedsWithTheFirstSample) {
  Ewma ewma(3);
  ewma.update(40);
  EXPECT_EQ(ewma.rounded(), 40);
  EXPECT_EQ(ewma.scaled(), std::int64_t{40} << Ewma::kFracBits);
}

TEST(EwmaTest, ConvergesTowardsAConstantStream) {
  Ewma ewma(2);  // alpha = 1/4
  ewma.update(0);
  for (int i = 0; i < 64; ++i) ewma.update(100);
  EXPECT_EQ(ewma.rounded(), 100);
  // Identical update sequences produce identical integer state.
  Ewma other(2);
  other.update(0);
  for (int i = 0; i < 64; ++i) other.update(100);
  EXPECT_EQ(ewma.scaled(), other.scaled());
}

TEST(HistogramDeltaTest, BucketsCountAndSumSubtractExactly) {
  Histogram cumulative;
  cumulative.observe(1);
  cumulative.observe(5);
  const Histogram before = cumulative;
  cumulative.observe(2);
  cumulative.observe(300);
  const Histogram window = telemetry::histogram_delta(cumulative, before);
  EXPECT_EQ(window.count, 2u);
  EXPECT_EQ(window.sum, 302);
  std::uint64_t total = 0;
  for (const std::uint64_t b : window.buckets) total += b;
  EXPECT_EQ(total, 2u);
}

TEST(HistogramDeltaTest, ExtremesExactWhenTheWindowExtendsThem) {
  Histogram cumulative;
  cumulative.observe(10);
  const Histogram before = cumulative;
  cumulative.observe(3);    // new cumulative min
  cumulative.observe(900);  // new cumulative max
  const Histogram window = telemetry::histogram_delta(cumulative, before);
  EXPECT_EQ(window.min, 3);
  EXPECT_EQ(window.max, 900);
}

TEST(HistogramDeltaTest, ExtremesFallBackToBucketBoundsInside) {
  Histogram cumulative;
  cumulative.observe(0);
  cumulative.observe(1000);
  const Histogram before = cumulative;
  cumulative.observe(20);  // strictly inside the cumulative range
  const Histogram window = telemetry::histogram_delta(cumulative, before);
  EXPECT_EQ(window.count, 1u);
  EXPECT_EQ(window.sum, 20);
  // log2 resolution: 20 lives in bucket floor(log2(21)) = 4, bounds 15..30.
  EXPECT_LE(window.min, 20);
  EXPECT_GE(window.max, 20);
}

TEST(HistogramDeltaTest, EmptyWindowKeepsSentinels) {
  Histogram cumulative;
  cumulative.observe(7);
  const Histogram window = telemetry::histogram_delta(cumulative, cumulative);
  EXPECT_EQ(window.count, 0u);
  EXPECT_EQ(window.sum, 0);
}

TEST(HistogramQuantileTest, RanksAreExactWithinBucketResolution) {
  Histogram h;
  for (int i = 0; i < 99; ++i) h.observe(1);  // bucket 1 (bounds 1..2)
  h.observe(1000);                            // bucket 9 (bounds 511..1022)
  EXPECT_EQ(telemetry::histogram_quantile(h, 500), 2);
  EXPECT_EQ(telemetry::histogram_quantile(h, 990), 2);   // rank 99
  EXPECT_EQ(telemetry::histogram_quantile(h, 1000), 1022);  // rank 100
}

TEST(HistogramQuantileTest, EmptyHistogramReturnsMinusOne) {
  EXPECT_EQ(telemetry::histogram_quantile(Histogram{}, 500), -1);
}

TEST(DigestNdjson, EmitsOneParseableLinePerRecord) {
  telemetry::WindowDigest digest;
  digest.index = 3;
  digest.start = 300;
  digest.end = 400;
  digest.partitions.resize(2);
  digest.partitions[1].deadline_misses = 2;
  const std::string line = telemetry::digest_ndjson("m0", digest);
  ASSERT_FALSE(line.empty());
  EXPECT_EQ(line.back(), '\n');
  EXPECT_EQ(line.find('\n'), line.size() - 1) << "must be single-line";
  const util::json::ParseResult parsed =
      util::json::parse(std::string_view{line}.substr(0, line.size() - 1));
  ASSERT_TRUE(parsed.ok()) << parsed.error->to_string();
  EXPECT_EQ(parsed.value->get_string("type", ""), "digest");
  EXPECT_EQ(parsed.value->get_int("window", -1), 3);

  telemetry::HealthEvent event;
  event.tick = 399;
  event.kind = telemetry::Watchdog::kDeadlineMissRate;
  event.partition = 1;
  event.detail = "2 deadline miss(es) in window 3";
  const std::string health = telemetry::health_ndjson("m0", event);
  const util::json::ParseResult hp =
      util::json::parse(std::string_view{health}.substr(0, health.size() - 1));
  ASSERT_TRUE(hp.ok()) << hp.error->to_string();
  EXPECT_EQ(hp.value->get_string("watchdog", ""), "deadline_miss_rate");
  EXPECT_EQ(hp.value->get_int("partition", -1), 1);
}

// ----------------------------------------------------------- determinism --

/// The digest and health stream of a plane, collected through its sink
/// (a plane retains no digests).
telemetry::HealthSink collect(std::string& out) {
  return [&out](const std::string& line) { out += line; };
}

struct Mission {
  net::BusConfig bus;
  std::vector<system::ModuleConfig> modules;
  telemetry::OnlineOptions online;
  Ticks length{0};
};

// Randomized multi-module mission with remote traffic and deadline-tight
// workers, every module flying with the online plane enabled.
Mission random_mission(std::uint64_t seed) {
  util::Rng rng(seed);
  Mission mission;
  mission.bus.slot_length = static_cast<Ticks>(rng.uniform(2, 10));
  mission.bus.frames_per_slot = static_cast<std::size_t>(rng.uniform(1, 4));
  mission.bus.propagation_delay = static_cast<Ticks>(rng.uniform(1, 6));
  mission.length = static_cast<Ticks>(rng.uniform(900, 2600));
  mission.online.enabled = true;
  const Ticks windows[] = {32, 64, 100, 256};
  mission.online.window = windows[rng.uniform(0, 3)];

  const int nmodules = static_cast<int>(rng.uniform(2, 3));
  for (int m = 0; m < nmodules; ++m) {
    system::ModuleConfig config;
    config.id = ModuleId{m};
    config.name = "m" + std::to_string(m);
    config.telemetry.online = mission.online;
    const Ticks slice = static_cast<Ticks>(rng.uniform(20, 60));

    system::PartitionConfig partition;
    partition.name = "p0";
    partition.sampling_ports.push_back(
        {"OUT", ipc::PortDirection::kSource, 64, kInfiniteTime});
    partition.sampling_ports.push_back(
        {"IN", ipc::PortDirection::kDestination, 64, 200});
    system::ProcessConfig chatter;
    chatter.attrs.name = "chatter";
    chatter.attrs.priority = 5;
    chatter.attrs.script = ScriptBuilder{}
                               .compute(rng.uniform(1, 5))
                               .sampling_write(0, "ring-" + std::to_string(m))
                               .sampling_read(1)
                               .timed_wait(static_cast<Ticks>(
                                   rng.uniform(15, 90)))
                               .build();
    partition.processes.push_back(std::move(chatter));
    // A deadline-tight periodic worker: some seeds miss, engaging the
    // deadline watchdog and its causal link in every driver identically.
    system::ProcessConfig worker;
    worker.attrs.name = "tight";
    worker.attrs.priority = 10;
    worker.attrs.period = slice * static_cast<Ticks>(rng.uniform(1, 4));
    worker.attrs.time_capacity =
        rng.chance(0.5) ? worker.attrs.period / 4 : worker.attrs.period;
    worker.attrs.script = ScriptBuilder{}
                              .compute(rng.uniform(1, 15))
                              .periodic_wait()
                              .build();
    partition.processes.push_back(std::move(worker));
    config.partitions.push_back(std::move(partition));

    ipc::ChannelConfig ring;
    ring.id = ChannelId{0};
    ring.kind = ipc::ChannelKind::kSampling;
    ring.source = {PartitionId{0}, "OUT"};
    ring.remote_destinations = {
        {ModuleId{(m + 1) % nmodules}, PartitionId{0}, "IN"}};
    config.channels.push_back(std::move(ring));

    model::Schedule schedule;
    schedule.id = ScheduleId{0};
    schedule.mtf = slice;
    schedule.requirements = {{PartitionId{0}, slice, slice}};
    schedule.windows = {{PartitionId{0}, 0, slice}};
    config.schedules = {schedule};
    mission.modules.push_back(std::move(config));
  }
  return mission;
}

enum class Driver { kPerTick, kWarped, kEpoch };

std::string fly(const Mission& mission, Driver driver) {
  system::World world(mission.bus);
  std::vector<std::string> streams(mission.modules.size());
  for (std::size_t m = 0; m < mission.modules.size(); ++m) {
    system::Module& module = world.add_module(mission.modules[m]);
    if (driver == Driver::kPerTick) module.set_time_warp(false);
    module.online()->set_sink(collect(streams[m]));
  }
  std::string bus;
  world.enable_online(mission.online);
  world.bus_plane()->set_sink(collect(bus));
  if (driver == Driver::kPerTick || driver == Driver::kWarped) {
    world.run_lockstep(mission.length);
  } else {
    world.run(mission.length);
  }
  std::string out;
  for (std::size_t m = 0; m < world.module_count(); ++m) {
    out += "=== " + world.module(m).config().name + "\n" + streams[m];
  }
  return out + "=== bus\n" + bus;
}

TEST(OnlinePlane, StreamsAreByteIdenticalAcrossDrivers) {
  std::size_t missions_with_breaches = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const Mission mission = random_mission(seed);
    const std::string label =
        "seed " + std::to_string(seed) + " window " +
        std::to_string(mission.online.window);
    const std::string reference = fly(mission, Driver::kPerTick);
    EXPECT_EQ(reference, fly(mission, Driver::kWarped))
        << label << ": warped lockstep diverges from per-tick";
    EXPECT_EQ(reference, fly(mission, Driver::kEpoch))
        << label << ": epoch driver diverges from per-tick";
    EXPECT_NE(reference.find("\"type\":\"digest\""), std::string::npos)
        << label << ": no digest windows closed";
    if (reference.find("\"type\":\"health\"") != std::string::npos) {
      ++missions_with_breaches;
    }
  }
  // The sweep must exercise the watchdog path, not just quiet flights.
  EXPECT_GT(missions_with_breaches, 0u)
      << "no seed produced a health event; the equivalence check never "
         "covered watchdog emission";
}

TEST(OnlinePlane, Fig8MissionStreamsIdenticalUnderWarp) {
  const auto fly_fig8 = [](bool warp) {
    scenarios::Fig8Options options;  // stock: faulty process on P1
    system::ModuleConfig config = scenarios::fig8_config(options);
    config.telemetry.online.enabled = true;
    config.telemetry.online.window = 325;  // 4 windows per MTF
    system::Module module(std::move(config));
    module.set_time_warp(warp);
    std::string stream;
    module.online()->set_sink(collect(stream));
    module.start_process_by_name(module.partition_id("AOCS"),
                                 scenarios::kFaultyProcessName);
    module.run(4 * scenarios::kFig8Mtf);
    return stream;
  };
  const std::string stepped = fly_fig8(false);
  const std::string warped = fly_fig8(true);
  EXPECT_EQ(stepped, warped);
  EXPECT_NE(stepped.find("\"type\":\"digest\""), std::string::npos);
}

// ------------------------------------------------------------- watchdogs --

TEST(OnlinePlane, CleanFig8FlightRaisesNoBreaches) {
  system::ModuleConfig config =
      scenarios::fig8_config({.with_faulty_process = false});
  config.telemetry.online.enabled = true;
  config.telemetry.online.window = 650;
  system::Module module(std::move(config));
  module.run(4 * scenarios::kFig8Mtf);
  ASSERT_NE(module.online(), nullptr);
  EXPECT_EQ(module.online()->windows_closed(), 8u);
  for (const telemetry::HealthEvent& event : module.online()->events()) {
    ADD_FAILURE() << "clean flight raised " << to_string(event.kind) << " @"
                  << event.tick << ": " << event.detail;
  }
}

TEST(OnlinePlane, FaultyFig8FlightLightsTheDeadlineWatchdog) {
  system::ModuleConfig config = scenarios::fig8_config();
  config.telemetry.online.enabled = true;
  config.telemetry.online.window = 650;
  system::Module module(std::move(config));
  module.start_process_by_name(module.partition_id("AOCS"),
                               scenarios::kFaultyProcessName);
  module.run(4 * scenarios::kFig8Mtf);
  ASSERT_NE(module.online(), nullptr);
  const std::int32_t aocs = module.partition_id("AOCS").value();
  bool fired = false;
  for (const telemetry::HealthEvent& event : module.online()->events()) {
    if (event.kind == telemetry::Watchdog::kDeadlineMissRate &&
        event.partition == aocs) {
      fired = true;
      EXPECT_NE(event.cause, 0u)
          << "breach not causally linked to a root-cause chain";
    }
  }
  EXPECT_TRUE(fired) << "the faulty process missed deadlines but no "
                        "deadline watchdog fired on AOCS";
}

TEST(OnlinePlane, HealthEventsLandInSpansAndSinkNotTrace) {
  system::ModuleConfig config = scenarios::fig8_config();
  config.telemetry.online.enabled = true;
  config.telemetry.online.window = 650;
  system::Module module(std::move(config));
  std::string stream;
  module.online()->set_sink(collect(stream));
  module.start_process_by_name(module.partition_id("AOCS"),
                               scenarios::kFaultyProcessName);
  module.run(2 * scenarios::kFig8Mtf);
  ASSERT_FALSE(module.online()->events().empty());
  EXPECT_NE(stream.find("\"type\":\"health\""), std::string::npos)
      << "breach missing from the health sink";
  bool spanned = false;
  for (const telemetry::Span& span : module.spans().closed()) {
    if (span.kind == telemetry::SpanKind::kHealth) spanned = true;
  }
  EXPECT_TRUE(spanned) << "kHealth instant span missing";
  // The trace keeps the evidence itself (misses, HM reports), not a copy
  // of each breach: its text names no health event.
  EXPECT_EQ(module.trace().to_text().find("health"), std::string::npos);
}

TEST(OnlinePlane, DisabledByDefaultAndInvisibleToMetrics) {
  // Default config: no plane.
  system::Module plain(scenarios::fig8_config());
  EXPECT_EQ(plain.online(), nullptr);

  // The plane samples the registry through point reads, never snapshot():
  // metrics exports are byte-identical with the plane on or off.
  const auto metrics_with_plane = [](bool enabled) {
    system::ModuleConfig config = scenarios::fig8_config();
    config.telemetry.online.enabled = enabled;
    config.telemetry.online.window = 256;
    system::Module module(std::move(config));
    module.run(2 * scenarios::kFig8Mtf);
    return telemetry::to_json(module.metrics_snapshot());
  };
  EXPECT_EQ(metrics_with_plane(false), metrics_with_plane(true));
}

TEST(OnlinePlane, StatusReportCarriesTheSummaryLine) {
  system::ModuleConfig config = scenarios::fig8_config();
  config.telemetry.online.enabled = true;
  config.telemetry.online.window = 650;
  system::Module module(std::move(config));
  module.run(scenarios::kFig8Mtf);
  const std::string report = module.status_report();
  EXPECT_NE(report.find("online: windows="), std::string::npos) << report;
  EXPECT_NE(report.find("trace: recorded="), std::string::npos) << report;
}

// ------------------------------------------------------------- retention --

// A plane exposes no digest history: the sink is the digest stream.
template <class Plane>
concept RetainsDigests = requires(const Plane& plane) { plane.digests(); };
static_assert(!RetainsDigests<telemetry::OnlinePlane>);
static_assert(!RetainsDigests<telemetry::BusPlane>);

constexpr std::size_t kLongFlightMtfs = 20000;

system::ModuleConfig long_flight_config(bool online) {
  system::ModuleConfig config = scenarios::fig8_config();
  config.telemetry.flight_recorder_capacity = 1024;
  config.telemetry.spans_capacity = 1024;
  config.telemetry.online.enabled = online;
  return config;
}

TEST(OnlinePlane, LongFaultyFlightRetainsBoundedHistory) {
  system::Module module(long_flight_config(true));
  module.start_process_by_name(module.partition_id("AOCS"),
                               scenarios::kFaultyProcessName);
  module.run(static_cast<Ticks>(kLongFlightMtfs) * scenarios::kFig8Mtf);

  const telemetry::OnlinePlane& plane = *module.online();
  const std::size_t capacity = telemetry::kHealthCapacity;
  EXPECT_EQ(plane.windows_closed(),
            kLongFlightMtfs * scenarios::kFig8Mtf /
                static_cast<std::size_t>(plane.options().window));
  const std::size_t retained = plane.events().size();
  EXPECT_GT(plane.breaches(), capacity) << "the flight never filled the ring";
  EXPECT_EQ(retained, capacity);
  EXPECT_EQ(plane.events_evicted(), plane.breaches() - retained);
  // Anomaly eviction never hides the chain a breach links to.
  for (const telemetry::HealthEvent& event : plane.events()) {
    if (event.kind == telemetry::Watchdog::kDeadlineMissRate) {
      EXPECT_NE(event.cause, 0u) << "window " << event.window_index;
    }
  }

  const telemetry::MetricsSnapshot snap = module.metrics_snapshot();
  std::uint64_t misses = 0;
  for (std::size_t p = 0; p < module.partition_count(); ++p) {
    misses += snap.counter(telemetry::Metric::kDeadlineMisses,
                           static_cast<std::int32_t>(p));
  }
  const telemetry::SpanRecorder& spans = module.spans();
  EXPECT_GT(misses, 1024u);
  EXPECT_EQ(spans.anomaly_count(), 1024u);
  EXPECT_EQ(spans.dropped_anomalies(), misses - spans.anomaly_count());

  const std::string report = module.status_report();
  EXPECT_NE(report.find("events_evicted=" +
                        std::to_string(plane.events_evicted())),
            std::string::npos)
      << report;
  EXPECT_NE(report.find("anomalies=1024 anomalies_dropped=" +
                        std::to_string(spans.dropped_anomalies())),
            std::string::npos)
      << report;
}

TEST(OnlinePlane, DeadlineMissesInternNoTextAfterWarmUp) {
  for (const bool online : {false, true}) {
    system::Module module(long_flight_config(online));
    module.start_process_by_name(module.partition_id("AOCS"),
                                 scenarios::kFaultyProcessName);
    module.run(100 * scenarios::kFig8Mtf);
    const std::size_t symbols = module.arena().stats().symbols;
    module.run(static_cast<Ticks>(kLongFlightMtfs - 100) * scenarios::kFig8Mtf);
    EXPECT_GT(module.spans().anomaly_count(), 0u) << "online=" << online;
    EXPECT_EQ(module.arena().stats().symbols, symbols) << "online=" << online;
  }
}

// One count of deadline misses across the recording planes: the trace, the
// metrics registry, the HM log, the span recorder's anomalies and the
// online digests all see every miss of a faulty Fig. 8 flight, on every
// driver -- window closes warped through included.
TEST(OnlinePlane, DeadlineMissCountAgreesAcrossPlanesOnEveryDriver) {
  constexpr Ticks kMtfs = 50;
  enum class Flight { kPerTick, kWarped, kLockstep, kEpoch };
  for (const Flight flight : {Flight::kPerTick, Flight::kWarped,
                              Flight::kLockstep, Flight::kEpoch}) {
    system::ModuleConfig config = scenarios::fig8_config();
    config.telemetry.online.enabled = true;
    system::World world;
    system::Module& module = world.add_module(std::move(config));
    module.set_time_warp(flight != Flight::kPerTick);
    std::string stream;
    module.online()->set_sink(collect(stream));
    module.start_process_by_name(module.partition_id("AOCS"),
                                 scenarios::kFaultyProcessName);
    const Ticks length = kMtfs * scenarios::kFig8Mtf;
    switch (flight) {
      case Flight::kPerTick:
      case Flight::kWarped: module.run(length); break;
      case Flight::kLockstep: world.run_lockstep(length); break;
      case Flight::kEpoch: world.run(length); break;
    }
    const auto name = static_cast<int>(flight);

    const std::size_t traced =
        module.trace().filtered(util::EventKind::kDeadlineMiss).size();
    const telemetry::MetricsSnapshot snap = module.metrics_snapshot();
    std::uint64_t metered = 0;
    for (std::size_t p = 0; p < module.partition_count(); ++p) {
      metered += snap.counter(telemetry::Metric::kDeadlineMisses,
                              static_cast<std::int32_t>(p));
    }
    std::size_t reported = 0;
    for (const hm::ErrorReport& report : module.health().log()) {
      if (report.code == hm::ErrorCode::kDeadlineMissed) ++reported;
    }
    const std::size_t anomalies = module.spans().anomaly_count();
    std::int64_t digested = 0;
    std::size_t begin = 0;
    for (std::size_t end = stream.find('\n'); end != std::string::npos;
         begin = end + 1, end = stream.find('\n', begin)) {
      const util::json::ParseResult line =
          util::json::parse(stream.substr(begin, end - begin));
      ASSERT_TRUE(line.ok()) << name;
      if (line.value->find("type")->as_string() != "digest") continue;
      for (const util::json::Value& p :
           line.value->find("partitions")->as_array()) {
        digested += p.find("deadline_misses")->as_int();
      }
    }
    EXPECT_EQ(traced, 49u) << "driver " << name;
    EXPECT_EQ(metered, traced) << "driver " << name;
    EXPECT_EQ(reported, traced) << "driver " << name;
    EXPECT_EQ(anomalies, traced) << "driver " << name;
    EXPECT_EQ(static_cast<std::size_t>(digested), traced) << "driver " << name;
  }
}

TEST(FiWatchdogOracle, SelfTestDetectsAndLinksForcedMisses) {
  const std::vector<fi::Breach> failures = fi::watchdog_selftest();
  for (const fi::Breach& failure : failures) {
    ADD_FAILURE() << "[" << failure.oracle << "] " << failure.detail;
  }
}

// ------------------------------------------------------- export edge cases --

TEST(MetricsExportEdge, EmptyRegistryExportsHeaderOnly) {
  telemetry::MetricsRegistry registry;
  const telemetry::MetricsSnapshot snapshot = registry.snapshot(0);
  EXPECT_TRUE(snapshot.samples.empty());
  const std::string json = telemetry::to_json(snapshot);
  const util::json::ParseResult parsed = util::json::parse(json);
  ASSERT_TRUE(parsed.ok()) << parsed.error->to_string();
  const util::json::Value* metrics = parsed.value->find("metrics");
  ASSERT_NE(metrics, nullptr);
  EXPECT_TRUE(metrics->as_array().empty());
  EXPECT_EQ(telemetry::to_csv(snapshot),
            "metric,index,kind,value,count,sum,min,max\n");
}

TEST(JsonExportEdge, NonFiniteDoublesSerialiseAsNull) {
  using util::json::Value;
  EXPECT_EQ(Value{std::numeric_limits<double>::quiet_NaN()}.dump(), "null");
  EXPECT_EQ(Value{std::numeric_limits<double>::infinity()}.dump(), "null");
  EXPECT_EQ(Value{-std::numeric_limits<double>::infinity()}.dump(), "null");
  util::json::Array mixed;
  mixed.push_back(Value{1.5});
  mixed.push_back(Value{std::numeric_limits<double>::quiet_NaN()});
  const std::string dumped = Value{std::move(mixed)}.dump();
  EXPECT_EQ(dumped, "[1.5,null]");
  // The document must round-trip through the parser (a bare `nan` token
  // would be rejected).
  EXPECT_TRUE(util::json::parse(dumped).ok());
}

TEST(CsvEscapeEdge, QuotesFieldsWithSeparatorsAndQuotes) {
  EXPECT_EQ(telemetry::csv_escape("plain_name"), "plain_name");
  EXPECT_EQ(telemetry::csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(telemetry::csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(telemetry::csv_escape("line\nbreak"), "\"line\nbreak\"");
  EXPECT_EQ(telemetry::csv_escape(""), "");
}

}  // namespace
}  // namespace air
