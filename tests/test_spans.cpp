// Causal span layer: taxonomy, cross-layer parenting, trace-context
// propagation across the router and the bus, root-cause chains on deadline
// misses, determinism, and the post-mortem analyzer built on top.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "config/fig8.hpp"
#include "system/module.hpp"
#include "system/world.hpp"
#include "telemetry/analysis.hpp"
#include "telemetry/export.hpp"
#include "telemetry/spans.hpp"
#include "util/trace_export.hpp"

namespace air {
namespace {

using telemetry::Span;
using telemetry::SpanKind;
using telemetry::SpanStatus;

std::vector<Span> all_spans(const telemetry::SpanRecorder& spans) {
  std::vector<Span> all(spans.closed().begin(), spans.closed().end());
  const std::vector<Span> open = spans.open_spans();
  all.insert(all.end(), open.begin(), open.end());
  return all;
}

std::vector<Span> of_kind(const telemetry::SpanRecorder& spans,
                          SpanKind kind) {
  std::vector<Span> out;
  for (const Span& span : all_spans(spans)) {
    if (span.kind == kind) out.push_back(span);
  }
  return out;
}

const Span* by_id(const std::vector<Span>& spans, telemetry::SpanId id) {
  for (const Span& span : spans) {
    if (span.id == id) return &span;
  }
  return nullptr;
}

// The Sect. 6 mission: faulty process on P1, mode switch at t=500.
system::Module& fig8_mission(system::Module& module) {
  module.start_process_by_name(module.partition_id("AOCS"),
                               scenarios::kFaultyProcessName);
  module.run(500);
  (void)module.apex(module.partition_id("AOCS"))
      .set_module_schedule(ScheduleId{1});
  module.run(5 * scenarios::kFig8Mtf);
  return module;
}

TEST(Spans, WindowsJobsAndMessagesFormACausalTree) {
  system::Module module(scenarios::fig8_config());
  fig8_mission(module);
  const auto& spans = module.spans();
  const std::vector<Span> all = all_spans(spans);

  // Every taxonomy member the single-module mission can produce shows up.
  EXPECT_FALSE(of_kind(spans, SpanKind::kPartitionWindow).empty());
  EXPECT_FALSE(of_kind(spans, SpanKind::kJob).empty());
  EXPECT_FALSE(of_kind(spans, SpanKind::kMsgSend).empty());
  EXPECT_FALSE(of_kind(spans, SpanKind::kMsgRouterHop).empty());
  EXPECT_FALSE(of_kind(spans, SpanKind::kMsgReceive).empty());
  EXPECT_FALSE(of_kind(spans, SpanKind::kHmHandler).empty());
  EXPECT_FALSE(of_kind(spans, SpanKind::kScheduleSwitch).empty());

  // Jobs parent to the partition window they were released in.
  std::size_t parented_jobs = 0;
  for (const Span& job : of_kind(spans, SpanKind::kJob)) {
    if (job.parent == 0) continue;
    const Span* window = by_id(all, job.parent);
    ASSERT_NE(window, nullptr) << "job parent evicted or bogus";
    EXPECT_EQ(window->kind, SpanKind::kPartitionWindow);
    EXPECT_EQ(window->a, job.a) << "parent window belongs to the partition";
    ++parented_jobs;
  }
  EXPECT_GT(parented_jobs, 0u);

  // Message legs form flows: every receive shares its trace id with a send,
  // and the send is the flow root (trace_id == its own id).
  std::set<std::uint64_t> send_flows;
  for (const Span& send : of_kind(spans, SpanKind::kMsgSend)) {
    EXPECT_EQ(send.trace_id, send.id);
    send_flows.insert(send.trace_id);
  }
  const std::vector<Span> receives = of_kind(spans, SpanKind::kMsgReceive);
  EXPECT_FALSE(receives.empty());
  for (const Span& receive : receives) {
    EXPECT_TRUE(send_flows.count(receive.trace_id))
        << "receive leg without a send root";
  }

  // The schedule switch span runs from the APEX request to the MTF boundary
  // where the scheduler honoured it.
  const std::vector<Span> switches =
      of_kind(spans, SpanKind::kScheduleSwitch);
  ASSERT_EQ(switches.size(), 1u);
  EXPECT_EQ(switches[0].a, 1) << "switched to chi_2";
  EXPECT_EQ(switches[0].b, 0);
  EXPECT_EQ(switches[0].start, 499) << "requested at now() after run(500)";
  EXPECT_EQ(switches[0].end, scenarios::kFig8Mtf) << "took effect at the MTF";
  EXPECT_EQ(switches[0].status, SpanStatus::kOk);
}

TEST(Spans, DeadlineMissRetiresJobAndParentsHmHandler) {
  system::Module module(scenarios::fig8_config());
  fig8_mission(module);
  const auto& spans = module.spans();
  const std::vector<Span> all = all_spans(spans);

  std::size_t missed_jobs = 0;
  for (const Span& job : of_kind(spans, SpanKind::kJob)) {
    if (job.status != SpanStatus::kDeadlineMiss) continue;
    ++missed_jobs;
    // Algorithm 3 detects at a clock announce after the deadline passed.
    EXPECT_GE(job.end, job.c) << "retired at detection, not before";
    // The HM handler invocation for this miss is parented on the job.
    bool handled = false;
    for (const Span& handler : of_kind(spans, SpanKind::kHmHandler)) {
      if (handler.parent == job.id) handled = true;
    }
    EXPECT_TRUE(handled) << "miss at " << job.end << " has no HM span";
  }
  EXPECT_GT(missed_jobs, 0u);
  EXPECT_EQ(spans.anomaly_count(), missed_jobs)
      << "every miss carries an anomaly record";
  (void)all;
}

TEST(Spans, EveryMissCarriesARootCauseChain) {
  system::Module module(scenarios::fig8_config());
  fig8_mission(module);
  const std::vector<telemetry::Anomaly> anomalies =
      module.spans().anomalies();
  ASSERT_FALSE(anomalies.empty());
  for (const telemetry::Anomaly& anomaly : anomalies) {
    ASSERT_GE(anomaly.chain.size(), 3u);
    EXPECT_EQ(anomaly.chain[0].what, telemetry::Cause::kDeadlineMiss);
    EXPECT_EQ(anomaly.chain[1].what, telemetry::Cause::kJobReleased);
    // The faulty process misses across a window boundary, so the chain
    // names the preemption; misses inside a window blame the overrun.
    const telemetry::Cause cause = anomaly.chain[2].what;
    EXPECT_TRUE(cause == telemetry::Cause::kWindowEndPreemption ||
                cause == telemetry::Cause::kCapacityOverrun)
        << telemetry::to_string(cause);
  }
  // The first miss happens while chi_1 -> chi_2 takes effect: its chain
  // walks all the way back to the SET_MODULE_SCHEDULE request.
  bool blames_switch = false;
  for (const telemetry::CauseLink& link : anomalies.front().chain) {
    if (link.what == telemetry::Cause::kRequestedBy) blames_switch = true;
  }
  EXPECT_TRUE(blames_switch);
}

TEST(Spans, ExportIsDeterministicAcrossRuns) {
  auto fly = [] {
    system::Module module(scenarios::fig8_config());
    fig8_mission(module);
    return telemetry::spans_to_json(module.spans());
  };
  const std::string first = fly();
  EXPECT_EQ(first, fly());
  EXPECT_NE(first.find("\"anomalies\""), std::string::npos);
}

TEST(Spans, DisabledRecorderCostsNothingAndRecordsNothing) {
  auto config = scenarios::fig8_config();
  config.telemetry.spans_enabled = false;
  system::Module module(std::move(config));
  fig8_mission(module);
  EXPECT_EQ(module.spans().recorded_spans(), 0u);
  EXPECT_EQ(module.spans().open_count(), 0u);
  EXPECT_EQ(module.spans().anomaly_count(), 0u);
  // The mission itself is unaffected: the faulty process still misses.
  EXPECT_GT(module.trace().count(util::EventKind::kDeadlineMiss), 0u);
}

TEST(Spans, TraceContextCrossesTheBusAsOneFlow) {
  // Module 0's queuing channel fans out to module 1 over the TDMA bus.
  system::ModuleConfig sender = scenarios::fig8_config();
  sender.id = ModuleId{0};
  for (ipc::ChannelConfig& channel : sender.channels) {
    if (channel.kind == ipc::ChannelKind::kQueuing) {
      channel.remote_destinations.push_back(
          {ModuleId{1}, PartitionId{0}, "SCI_IN"});
    }
  }
  system::ModuleConfig receiver;
  receiver.id = ModuleId{1};
  receiver.name = "ground";
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
  receiver.partitions.push_back(std::move(ground));
  model::Schedule schedule;
  schedule.id = ScheduleId{0};
  schedule.mtf = scenarios::kFig8Mtf;
  schedule.requirements = {
      {PartitionId{0}, scenarios::kFig8Mtf, scenarios::kFig8Mtf}};
  schedule.windows = {{PartitionId{0}, 0, scenarios::kFig8Mtf}};
  receiver.schedules = {schedule};

  system::World world(
      {.slot_length = 10, .frames_per_slot = 2, .propagation_delay = 2});
  system::Module& m0 = world.add_module(std::move(sender));
  system::Module& m1 = world.add_module(std::move(receiver));
  world.run(3 * scenarios::kFig8Mtf);

  // Pick a science frame the ground module actually received and follow its
  // flow backwards: receive (module 1) -> remote-arrival router hop
  // (module 1) -> bus transit (bus recorder) -> send (module 0), all under
  // one trace id.
  const std::vector<Span> receives = of_kind(m1.spans(), SpanKind::kMsgReceive);
  ASSERT_FALSE(receives.empty()) << "no frame crossed the bus";
  const Span& receive = receives.front();
  ASSERT_NE(receive.trace_id, 0u);

  const std::vector<Span> hops = of_kind(m1.spans(), SpanKind::kMsgRouterHop);
  const Span* arrival = by_id(hops, receive.parent);
  ASSERT_NE(arrival, nullptr) << "receive does not parent on an arrival hop";
  EXPECT_EQ(arrival->a, -1) << "remote arrivals have no local channel";
  EXPECT_EQ(arrival->trace_id, receive.trace_id);

  const std::vector<Span> transits =
      of_kind(world.bus_spans(), SpanKind::kMsgBusTransit);
  const Span* transit = by_id(transits, arrival->parent);
  ASSERT_NE(transit, nullptr) << "arrival does not parent on a bus transit";
  EXPECT_EQ(transit->trace_id, receive.trace_id);
  EXPECT_EQ(transit->a, 0) << "sent by module 0";
  EXPECT_EQ(transit->b, 1) << "addressed to module 1";
  EXPECT_EQ(transit->status, SpanStatus::kOk);
  EXPECT_GT(transit->end, transit->start) << "bus latency is visible";

  const std::vector<Span> sends = of_kind(m0.spans(), SpanKind::kMsgSend);
  const Span* send = by_id(sends, receive.trace_id);
  ASSERT_NE(send, nullptr) << "flow root is the APEX send";
  EXPECT_EQ(send->trace_id, receive.trace_id);

  // Ids are namespaced by origin: three recorders, no collisions.
  EXPECT_EQ(send->id >> 32, 1u);
  EXPECT_EQ(receive.id >> 32, 2u);
  EXPECT_EQ(transit->id >> 32,
            static_cast<std::uint64_t>(
                telemetry::SpanRecorder::kBusOrigin) + 1);

  // The analyzer stitches the same story offline.
  telemetry::AnalysisInput input;
  std::string error;
  ASSERT_TRUE(input.add_module("m0", util::to_json(m0.trace()),
                               telemetry::to_json(m0.metrics_snapshot()),
                               telemetry::spans_to_json(m0.spans()), &error))
      << error;
  ASSERT_TRUE(input.add_module("m1", util::to_json(m1.trace()),
                               telemetry::to_json(m1.metrics_snapshot()),
                               telemetry::spans_to_json(m1.spans()), &error))
      << error;
  ASSERT_TRUE(
      input.set_bus_spans(telemetry::spans_to_json(world.bus_spans()), &error))
      << error;
  const telemetry::AnalysisResult result = telemetry::analyze(input);
  EXPECT_GT(result.cross_module_flows, 0);
  EXPECT_EQ(result.broken_flows, 0);
  EXPECT_NE(result.chrome_trace.find("\"ph\": \"s\""), std::string::npos);
  EXPECT_NE(result.chrome_trace.find("\"ph\": \"f\""), std::string::npos);
  EXPECT_NE(result.report.find("cross-module"), std::string::npos);
}

TEST(Spans, AnalyzerGatesOnMissesAndRendersChains) {
  system::Module module(scenarios::fig8_config());
  fig8_mission(module);
  telemetry::AnalysisInput input;
  std::string error;
  ASSERT_TRUE(input.add_module(
      "fig8", util::to_json(module.trace()),
      telemetry::to_json(module.metrics_snapshot()),
      telemetry::spans_to_json(module.spans()), &error))
      << error;
  const telemetry::AnalysisResult result = telemetry::analyze(input);
  EXPECT_GT(result.total_misses, 0);
  EXPECT_EQ(result.unchained_misses, 0)
      << "every miss beyond the first must carry a chain";
  for (const telemetry::MissSummary& miss : result.misses) {
    EXPECT_TRUE(miss.chained);
  }
  EXPECT_NE(result.report.find("deadline_miss"), std::string::npos);
  EXPECT_NE(result.report.find("window_end_preemption"), std::string::npos);
  EXPECT_NE(result.chrome_trace.find("\"ph\": \"X\""), std::string::npos);

  // Malformed input is reported, not crashed on.
  telemetry::AnalysisInput bad;
  EXPECT_FALSE(bad.add_module("x", "{not json", "", "", &error));
  EXPECT_FALSE(error.empty());
}

}  // namespace
}  // namespace air
