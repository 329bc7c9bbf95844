// Trace exporter tests: Chrome Trace Event format and the flat JSON dump,
// both of which must be parseable and carry the expected content.
#include <gtest/gtest.h>

#include "config/fig8.hpp"
#include "system/module.hpp"
#include "util/json.hpp"
#include "util/trace_export.hpp"

namespace air {
namespace {

TEST(TraceExport, ChromeTraceOfFig8ParsesAndCoversPartitions) {
  system::Module module(scenarios::fig8_config());
  module.start_process_by_name(module.partition_id("AOCS"),
                               scenarios::kFaultyProcessName);
  module.run(3 * scenarios::kFig8Mtf);

  const std::string text = util::to_chrome_trace(module.trace());
  const auto parsed = util::json::parse(text);
  ASSERT_TRUE(parsed.ok()) << parsed.error->to_string();

  const auto* trace_events = parsed.value->find("traceEvents");
  ASSERT_NE(trace_events, nullptr);
  const auto& events = trace_events->as_array();
  ASSERT_FALSE(events.empty());

  bool windows[4] = {};
  bool miss_seen = false;
  for (const auto& event : events) {
    const std::string name = event.get_string("name", "");
    for (int p = 0; p < 4; ++p) {
      if (name == 'P' + std::to_string(p + 1) + " window") {
        windows[p] = true;
        EXPECT_TRUE(event.find("dur")->is_number());
      }
    }
    if (name == "deadline miss") miss_seen = true;
  }
  for (int p = 0; p < 4; ++p) {
    EXPECT_TRUE(windows[p]) << "no window events for partition " << p;
  }
  EXPECT_TRUE(miss_seen);
}

TEST(TraceExport, DurationsMatchTheFig8Windows) {
  scenarios::Fig8Options options;
  options.with_faulty_process = false;
  system::Module module(scenarios::fig8_config(options));
  module.run(scenarios::kFig8Mtf);

  const auto parsed =
      util::json::parse(util::to_chrome_trace(module.trace()));
  ASSERT_TRUE(parsed.ok());
  // The first P1 window must be [0, 200).
  for (const auto& event :
       parsed.value->find("traceEvents")->as_array()) {
    if (event.get_string("name", "") == "P1 window") {
      EXPECT_EQ(event.get_int("ts", -1), 0);
      EXPECT_EQ(event.get_int("dur", -1), 200);
      return;
    }
  }
  FAIL() << "P1 window not found";
}

TEST(TraceExport, ChromeTraceCarriesCounterEvents) {
  system::Module module(scenarios::fig8_config());
  module.start_process_by_name(module.partition_id("AOCS"),
                               scenarios::kFaultyProcessName);
  module.run(3 * scenarios::kFig8Mtf);

  const auto parsed =
      util::json::parse(util::to_chrome_trace(module.trace()));
  ASSERT_TRUE(parsed.ok()) << parsed.error->to_string();

  bool utilization_seen = false;
  bool miss_counter_seen = false;
  for (const auto& event :
       parsed.value->find("traceEvents")->as_array()) {
    if (event.get_string("ph", "") != "C") continue;
    const std::string name = event.get_string("name", "");
    if (name == "P1 utilization") {
      utilization_seen = true;
      const auto* args = event.find("args");
      ASSERT_NE(args, nullptr);
      ASSERT_NE(args->find("percent"), nullptr);
      EXPECT_TRUE(args->find("percent")->is_number());
      EXPECT_GT(event.get_int("ts", -1), 0);
    }
    if (name == "deadline misses") {
      miss_counter_seen = true;
      ASSERT_NE(event.find("args"), nullptr);
      EXPECT_GE(event.find("args")->get_int("count", -1), 1);
    }
  }
  EXPECT_TRUE(utilization_seen) << "no utilization counter series";
  EXPECT_TRUE(miss_counter_seen) << "no cumulative miss counter";
}

TEST(TraceExport, FlatJsonRoundTrips) {
  util::Trace trace;
  trace.record(5, util::EventKind::kDeadlineMiss, 0, 2, 205, "note");
  trace.record(6, util::EventKind::kUser, 1, -1, -1, "hello");
  const auto parsed = util::json::parse(util::to_json(trace));
  ASSERT_TRUE(parsed.ok());
  const auto& events = parsed.value->as_array();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].get_string("kind", ""), "deadline_miss");
  EXPECT_EQ(events[0].get_int("c", 0), 205);
  EXPECT_EQ(events[1].get_string("label", ""), "hello");
}

}  // namespace
}  // namespace air
