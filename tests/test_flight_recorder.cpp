// Flight-recorder trace mode: bounded rings, exact drop accounting,
// severity-based retention, and streaming sinks.
#include <gtest/gtest.h>

#include <vector>

#include "config/fig8.hpp"
#include "system/module.hpp"
#include "telemetry/spans.hpp"
#include "util/ring_buffer.hpp"
#include "util/trace.hpp"

namespace air {
namespace {

using util::EventKind;
using util::Severity;
using util::Trace;
using util::TraceEvent;

TEST(RingBuffer, PushOverwriteEvictsOldest) {
  util::RingBuffer<int> ring(3);
  EXPECT_FALSE(ring.push_overwrite(1));
  EXPECT_FALSE(ring.push_overwrite(2));
  EXPECT_FALSE(ring.push_overwrite(3));
  EXPECT_TRUE(ring.push_overwrite(4));  // evicts 1
  EXPECT_TRUE(ring.push_overwrite(5));  // evicts 2
  ASSERT_EQ(ring.size(), 3u);
  EXPECT_EQ(ring.at(0), 3);
  EXPECT_EQ(ring.at(1), 4);
  EXPECT_EQ(ring.at(2), 5);
}

TEST(FlightRecorder, WrapKeepsTheNewestAndCountsDropsExactly) {
  Trace trace;
  trace.set_flight_recorder(8);
  for (Ticks t = 0; t < 100; ++t) {
    trace.record(t, EventKind::kProcessStateChange, 0, 0, t);
  }
  EXPECT_EQ(trace.recorded_events(), 100u);
  EXPECT_EQ(trace.dropped_events(), 92u);
  EXPECT_EQ(trace.dropped_critical_events(), 0u);

  const auto& events = trace.events();
  ASSERT_EQ(events.size(), 8u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].time, static_cast<Ticks>(92 + i));
  }
}

TEST(FlightRecorder, CriticalEventsSurviveADebugFlood) {
  Trace trace;
  trace.set_flight_recorder(16, 4);
  // Two critical events early, then a flood of debug events.
  trace.record(1, EventKind::kDeadlineMiss, 0, 1, 10);
  trace.record(2, EventKind::kHmError, 0, 1, 0);
  for (Ticks t = 3; t < 1000; ++t) {
    trace.record(t, EventKind::kProcessStateChange, 0, 0, t);
  }
  // The debug ring wrapped many times; the critical ring kept both.
  const auto misses = trace.filtered(EventKind::kDeadlineMiss);
  ASSERT_EQ(misses.size(), 1u);
  EXPECT_EQ(misses[0].time, 1);
  EXPECT_EQ(trace.filtered(EventKind::kHmError).size(), 1u);
  EXPECT_EQ(trace.dropped_critical_events(), 0u);

  // The merged view is ordered by recording sequence: critical first.
  const auto& events = trace.events();
  ASSERT_EQ(events.size(), 18u);
  EXPECT_EQ(events[0].kind, EventKind::kDeadlineMiss);
  EXPECT_EQ(events[1].kind, EventKind::kHmError);
  for (std::size_t i = 2; i < events.size(); ++i) {
    EXPECT_LT(events[i - 1].time, events[i].time);
  }
}

TEST(FlightRecorder, CriticalRingAlsoWrapsWithExactCount) {
  Trace trace;
  trace.set_flight_recorder(4, 2);
  for (Ticks t = 0; t < 10; ++t) {
    trace.record(t, EventKind::kDeadlineMiss, 0, 0, t);
  }
  EXPECT_EQ(trace.dropped_events(), 8u);
  EXPECT_EQ(trace.dropped_critical_events(), 8u);
  const auto& events = trace.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].time, 8);
  EXPECT_EQ(events[1].time, 9);
}

TEST(FlightRecorder, ExistingEventsAreReroutedOnActivation) {
  Trace trace;
  trace.record(1, EventKind::kProcessStateChange, 0);
  trace.record(2, EventKind::kDeadlineMiss, 0, 0, 2);
  trace.set_flight_recorder(4, 4);
  trace.record(3, EventKind::kProcessStateChange, 0);

  const auto& events = trace.events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].time, 1);
  EXPECT_EQ(events[1].time, 2);
  EXPECT_EQ(events[2].time, 3);
  EXPECT_EQ(trace.count(EventKind::kDeadlineMiss), 1u);
}

TEST(FlightRecorder, ClearResetsRingsAndCounters) {
  Trace trace;
  trace.set_flight_recorder(2);
  for (Ticks t = 0; t < 10; ++t) {
    trace.record(t, EventKind::kProcessStateChange, 0);
  }
  trace.clear();
  EXPECT_TRUE(trace.events().empty());
  EXPECT_EQ(trace.dropped_events(), 0u);
  EXPECT_EQ(trace.recorded_events(), 0u);
  EXPECT_TRUE(trace.flight_recorder()) << "mode survives clear";
}

TEST(FlightRecorder, SeverityClassification) {
  EXPECT_EQ(severity(EventKind::kDeadlineMiss), Severity::kCritical);
  EXPECT_EQ(severity(EventKind::kHmError), Severity::kCritical);
  EXPECT_EQ(severity(EventKind::kScheduleSwitch), Severity::kCritical);
  EXPECT_EQ(severity(EventKind::kSpatialViolation), Severity::kCritical);
  EXPECT_EQ(severity(EventKind::kPartitionDispatch), Severity::kInfo);
  EXPECT_EQ(severity(EventKind::kProcessStateChange), Severity::kDebug);
  EXPECT_EQ(severity(EventKind::kPortSend), Severity::kDebug);
}

// --- debug traffic vs the flight recorder ---

TEST(FlightRecorder, DebugFloodDropsExactlyAndSparesCriticalRing) {
  Trace trace;
  trace.set_flight_recorder(8, 4);
  // Two critical events first, then a flood of debug process-state events.
  trace.record(1, EventKind::kDeadlineMiss, 0, 1, 10);
  trace.record(2, EventKind::kHmError, 0, 1, 0);
  for (Ticks t = 3; t < 503; ++t) {
    trace.record(t, EventKind::kProcessStateChange, 0, 0, t);
  }

  // Exact accounting: 2 critical + 500 debug recorded; the debug ring kept
  // the newest 8, the critical ring kept both critical events.
  EXPECT_EQ(trace.recorded_events(), 502u);
  EXPECT_EQ(trace.dropped_events(), 492u);
  EXPECT_EQ(trace.dropped_critical_events(), 0u);
  ASSERT_EQ(trace.filtered(EventKind::kDeadlineMiss).size(), 1u);
  ASSERT_EQ(trace.filtered(EventKind::kHmError).size(), 1u);
  const auto flood = trace.filtered(EventKind::kProcessStateChange);
  ASSERT_EQ(flood.size(), 8u);
  EXPECT_EQ(flood.back().time, 502);
}

TEST(SpanRecorder, BoundedCapacityEvictsOldestWithExactCount) {
  telemetry::SpanRecorder spans;
  spans.set_capacity(4);
  for (Ticks t = 0; t < 10; ++t) {
    spans.instant(telemetry::SpanKind::kMsgSend, t, 0, 0, 0, 0, 1);
  }
  EXPECT_EQ(spans.recorded_spans(), 10u);
  EXPECT_EQ(spans.dropped_spans(), 6u);
  ASSERT_EQ(spans.closed().size(), 4u);
  EXPECT_EQ(spans.closed().front().start, 6);
  EXPECT_EQ(spans.closed().back().start, 9);
}

TEST(SpanRecorder, AnomaliesShareTheBoundAndKeepTheLatestPerPartition) {
  const auto anomaly = [](Ticks at, std::int32_t partition) {
    telemetry::Anomaly a;
    a.detected_at = at;
    a.partition = partition;
    a.chain.push_back({telemetry::Cause::kDeadlineMiss, 0, at, 100, 1});
    return a;
  };
  telemetry::SpanRecorder bounded;
  bounded.set_capacity(4);
  bounded.add_anomaly(anomaly(0, 1));
  for (Ticks t = 1; t < 10; ++t) bounded.add_anomaly(anomaly(t, 0));
  EXPECT_EQ(bounded.anomaly_count(), 4u);
  EXPECT_EQ(bounded.dropped_anomalies(), 6u);
  EXPECT_EQ(bounded.anomalies().front().detected_at, 6);
  // Partition 1's only miss left the ring; its latest anomaly did not.
  ASSERT_NE(bounded.last_anomaly(1), nullptr);
  EXPECT_EQ(bounded.last_anomaly(1)->detected_at, 0);
  EXPECT_EQ(bounded.last_anomaly(0)->detected_at, 9);
  EXPECT_EQ(bounded.last_anomaly(2), nullptr);

  // A bound past the first ring's size grows it by doubling, up to the
  // bound, without dropping anything on the way.
  telemetry::SpanRecorder growing;
  growing.set_capacity(40);
  for (Ticks t = 0; t < 40; ++t) growing.add_anomaly(anomaly(t, 0));
  EXPECT_EQ(growing.anomaly_count(), 40u);
  EXPECT_EQ(growing.dropped_anomalies(), 0u);
  for (Ticks t = 40; t < 50; ++t) growing.add_anomaly(anomaly(t, 0));
  EXPECT_EQ(growing.anomaly_count(), 40u);
  EXPECT_EQ(growing.dropped_anomalies(), 10u);
  EXPECT_EQ(growing.anomalies().front().detected_at, 10);
  EXPECT_EQ(growing.anomalies().back().detected_at, 49);

  // Unbounded mode keeps every anomaly; bounding later drops the oldest.
  telemetry::SpanRecorder unbounded;
  for (Ticks t = 0; t < 40; ++t) unbounded.add_anomaly(anomaly(t, 0));
  EXPECT_EQ(unbounded.anomaly_count(), 40u);
  EXPECT_EQ(unbounded.dropped_anomalies(), 0u);
  unbounded.set_capacity(2);
  EXPECT_EQ(unbounded.anomaly_count(), 2u);
  EXPECT_EQ(unbounded.dropped_anomalies(), 38u);
  EXPECT_EQ(unbounded.anomalies().back().detected_at, 39);
  EXPECT_EQ(telemetry::detail(unbounded.anomalies().back().chain[0]),
            "deadline 100 expired for process 1");
}

// --- streaming sinks ---

struct CollectingSink final : util::TraceSink {
  std::vector<TraceEvent> seen;
  void on_event(const TraceEvent& event) override { seen.push_back(event); }
};

TEST(TraceSink, ReceivesEveryEventInOrderRegardlessOfMode) {
  for (const bool bounded : {false, true}) {
    Trace trace;
    if (bounded) trace.set_flight_recorder(2);
    CollectingSink sink;
    trace.add_sink(&sink);
    for (Ticks t = 0; t < 50; ++t) {
      trace.record(t, EventKind::kProcessStateChange, 0, 0, t);
    }
    trace.remove_sink(&sink);
    trace.record(50, EventKind::kProcessStateChange, 0);

    ASSERT_EQ(sink.seen.size(), 50u) << "bounded=" << bounded;
    for (Ticks t = 0; t < 50; ++t) {
      EXPECT_EQ(sink.seen[static_cast<std::size_t>(t)].time, t);
    }
  }
}

TEST(TraceSink, ModuleRegistrationStreamsModuleEvents) {
  system::Module module(scenarios::fig8_config());
  CollectingSink sink;
  module.add_trace_sink(&sink);
  module.run(scenarios::kFig8Mtf);
  module.remove_trace_sink(&sink);
  const std::size_t streamed = sink.seen.size();
  EXPECT_GT(streamed, 0u);
  module.run(scenarios::kFig8Mtf);
  EXPECT_EQ(sink.seen.size(), streamed) << "no events after removal";

  // Streamed events mirror the retained trace over the same interval.
  std::size_t dispatches = 0;
  for (const auto& event : sink.seen) {
    if (event.kind == EventKind::kPartitionDispatch) ++dispatches;
  }
  EXPECT_GT(dispatches, 0u);
}

TEST(FlightRecorder, ModuleRunsBoundedWithCompleteCriticalHistory) {
  auto config = scenarios::fig8_config();
  config.telemetry.flight_recorder_capacity = 64;
  config.telemetry.flight_recorder_critical_capacity = 512;
  system::Module module(std::move(config));
  module.start_process_by_name(module.partition_id("AOCS"),
                               scenarios::kFaultyProcessName);
  module.run(5 * scenarios::kFig8Mtf);

  EXPECT_TRUE(module.trace().flight_recorder());
  EXPECT_GT(module.trace().dropped_events(), 0u) << "flood exceeded capacity";
  EXPECT_EQ(module.trace().dropped_critical_events(), 0u);
  // All 4 misses of the faulty process survive in the critical ring.
  EXPECT_EQ(module.trace().count(EventKind::kDeadlineMiss), 4u);
  // Retained events are bounded by the two ring capacities.
  EXPECT_LE(module.trace().events().size(), 64u + 512u);
}

// A long faulty Fig. 8 flight in the benchmark's telemetry configuration:
// the critical ring holds only evidence -- misses, HM reports and the
// reactions to them, schedule switches -- and its deadline misses are the
// newest of the flight, with none in between lost.
TEST(FlightRecorder, CriticalRingKeepsOnlyEvidenceOfALongFaultyFlight) {
  auto config = scenarios::fig8_config();
  config.telemetry.flight_recorder_capacity = 1024;
  config.telemetry.flight_recorder_critical_capacity = 256;
  config.telemetry.spans_capacity = 1024;
  config.telemetry.online.enabled = true;
  system::Module module(std::move(config));
  CollectingSink sink;
  module.add_trace_sink(&sink);
  const PartitionId aocs = module.partition_id("AOCS");
  module.start_process_by_name(aocs, scenarios::kFaultyProcessName);
  constexpr int kMtfs = 2064;
  for (int k = 0; k < kMtfs; ++k) {
    if (k % 129 == 64) {
      const ScheduleId next{
          module.apex(aocs).get_module_schedule_status().current_schedule ==
                  ScheduleId{0}
              ? 1
              : 0};
      ASSERT_EQ(module.apex(aocs).set_module_schedule(next),
                apex::ReturnCode::kNoError);
    }
    module.run(scenarios::kFig8Mtf);
  }
  module.remove_trace_sink(&sink);

  std::vector<Ticks> all_misses;
  for (const TraceEvent& event : sink.seen) {
    if (event.kind == EventKind::kDeadlineMiss) all_misses.push_back(event.time);
  }
  std::vector<Ticks> kept_misses;
  std::size_t critical = 0;
  for (const TraceEvent& event : module.trace().events()) {
    if (severity(event.kind) != Severity::kCritical) continue;
    ++critical;
    switch (event.kind) {
      case EventKind::kDeadlineMiss:
        kept_misses.push_back(event.time);
        break;
      case EventKind::kHmError:
      case EventKind::kHmAction:
      case EventKind::kScheduleSwitchReq:
      case EventKind::kScheduleSwitch:
      case EventKind::kScheduleChangeAction:
      case EventKind::kPartitionModeChange:
      case EventKind::kSpatialViolation:
      case EventKind::kClockParavirtTrap:
        break;
      default:
        ADD_FAILURE() << "critical ring holds a " << util::to_string(event.kind)
                      << " event at t=" << event.time;
    }
  }
  EXPECT_EQ(critical, 256u) << "the critical ring is full";
  EXPECT_GE(kept_misses.size(), 100u);
  ASSERT_LE(kept_misses.size(), all_misses.size());
  const std::vector<Ticks> newest(
      all_misses.end() - static_cast<std::ptrdiff_t>(kept_misses.size()),
      all_misses.end());
  EXPECT_EQ(kept_misses, newest) << "retained misses are not the newest run";
}

}  // namespace
}  // namespace air
