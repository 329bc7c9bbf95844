// The schedulability service (src/model/batch.hpp) end to end: pinned
// stats of the golden stream (and split batches that add up to one),
// memoisation transparency (cached supplies change nothing but speed),
// infeasibility classification with binding equations, NDJSON candidate
// codec round-trip, telemetry publication, air-schedule's rejection of
// hostile flags, the differential flight oracle over a generated
// 500-config stream, and the mutation self-test (a deliberately unsound
// analysis must be caught).
//
// The golden verdict digest pins the stream itself, so a supply that is
// wrong the same way memoised and unmemoised still fails here.
// Regenerate it after an *intentional* verdict change with:
//   AIR_UPDATE_GOLDEN=1 ./air_tests --gtest_filter='BatchAnalyzer.Golden*'
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "config/candidates.hpp"
#include "fi/fault_plan.hpp"
#include "model/batch.hpp"
#include "system/flight_validate.hpp"
#include "telemetry/metrics.hpp"
#include "util/json.hpp"

namespace air {
namespace {

std::string verdict_stream(const std::vector<model::BatchVerdict>& verdicts) {
  std::string out;
  for (const auto& v : verdicts) {
    out += v.to_ndjson();
    out += '\n';
  }
  return out;
}

constexpr const char* kGoldenVerdictsPath =
    AIR_SOURCE_DIR "/tests/golden/batch_verdicts.digest";

std::vector<model::Candidate> golden_candidates() {
  model::CandidateSpec spec;
  spec.count = 500;
  spec.seed = 42;
  return model::generate_candidates(spec);
}

std::uint64_t golden_stream_digest(model::Phasing phasing) {
  model::BatchOptions options;
  options.analysis.phasing = phasing;
  model::BatchAnalyzer analyzer(options);
  return fi::digest64(verdict_stream(analyzer.analyze(golden_candidates())));
}

model::CandidateSpec small_spec() {
  model::CandidateSpec spec;
  spec.count = 96;
  spec.seed = 2024;
  return spec;
}

/// Every Stats field, in declaration order.
std::vector<std::uint64_t> stats_fields(const model::BatchAnalyzer& analyzer) {
  const model::BatchAnalyzer::Stats& s = analyzer.stats();
  return {s.analyzed,     s.schedulable,   s.unschedulable, s.infeasible,
          s.psts_built,   s.cache.lookups, s.cache.hits,    s.cache.misses,
          s.cache.entries, s.cache.bytes};
}

TEST(BatchAnalyzer, GoldenStreamStatsArePinnedAndSplitBatchesAddUp) {
  // The memo and the cache are written in candidate order, so every stat
  // follows from the stream alone.
  const std::vector<model::Candidate> all = golden_candidates();
  const std::vector<model::Candidate> head(all.begin(), all.begin() + 200);
  const std::vector<model::Candidate> tail(all.begin() + 200, all.end());
  for (const auto& [phasing, schedulable] :
       {std::pair{model::Phasing::kMtfAligned, 348u},
        std::pair{model::Phasing::kWorstCase, 328u}}) {
    model::BatchOptions options;
    options.analysis.phasing = phasing;
    model::BatchAnalyzer whole(options);
    const std::string stream = verdict_stream(whole.analyze(all));
    EXPECT_EQ(stats_fields(whole),
              (std::vector<std::uint64_t>{500, schedulable, 454 - schedulable,
                                          46, 62, 1418, 1256, 162, 162,
                                          463744}));
    // Daemon mode: the memo and the cache persist across calls, so two
    // calls on one analyzer equal one call on the concatenation, in
    // verdicts and in every stats field.
    model::BatchAnalyzer split(options);
    std::string split_stream = verdict_stream(split.analyze(head));
    split_stream += verdict_stream(split.analyze(tail));
    EXPECT_EQ(split_stream, stream);
    EXPECT_EQ(stats_fields(split), stats_fields(whole));
  }
}

TEST(BatchAnalyzer, CachePersistsAcrossBatches) {
  const auto candidates = model::generate_candidates(small_spec());
  model::BatchAnalyzer analyzer;
  const auto first = analyzer.analyze(candidates);
  const auto misses_after_first = analyzer.stats().cache.misses;
  const auto second = analyzer.analyze(candidates);
  // Daemon mode: the second pass over the same stream builds no new table.
  EXPECT_EQ(analyzer.stats().cache.misses, misses_after_first);
  EXPECT_EQ(verdict_stream(first), verdict_stream(second));
  EXPECT_EQ(analyzer.stats().analyzed, 2 * candidates.size());
}

TEST(BatchAnalyzer, GoldenVerdictStreamIsUnchanged) {
  const model::BatchOptions defaults;
  const std::uint64_t mtf_aligned =
      golden_stream_digest(defaults.analysis.phasing);
  const std::uint64_t worst_case =
      golden_stream_digest(model::Phasing::kWorstCase);

  if (std::getenv("AIR_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(kGoldenVerdictsPath, std::ios::binary);
    out << "default " << std::hex << mtf_aligned << "\n"
        << "worst_case " << std::hex << worst_case << "\n";
    GTEST_SKIP() << "golden digests regenerated at " << kGoldenVerdictsPath;
  }

  std::ifstream in(kGoldenVerdictsPath);
  ASSERT_TRUE(in) << "missing " << kGoldenVerdictsPath
                  << " -- regenerate with AIR_UPDATE_GOLDEN=1";
  std::string key;
  std::uint64_t value = 0;
  std::uint64_t golden_default = 0;
  std::uint64_t golden_worst_case = 0;
  while (in >> key >> std::hex >> value) {
    if (key == "default") golden_default = value;
    if (key == "worst_case") golden_worst_case = value;
  }
  EXPECT_EQ(mtf_aligned, golden_default)
      << "default-options verdict stream diverged from the golden snapshot; "
         "if the change is intentional, regenerate with AIR_UPDATE_GOLDEN=1";
  EXPECT_EQ(worst_case, golden_worst_case)
      << "kWorstCase verdict stream diverged from the golden snapshot; if "
         "the change is intentional, regenerate with AIR_UPDATE_GOLDEN=1";
}

TEST(BatchAnalyzer, MemoisationChangesNothingButSpeed) {
  const auto candidates = model::generate_candidates(small_spec());
  model::BatchOptions memoised;
  model::BatchOptions bare;
  bare.memoise = false;
  model::BatchAnalyzer with_cache(memoised);
  model::BatchAnalyzer without_cache(bare);
  EXPECT_EQ(verdict_stream(with_cache.analyze(candidates)),
            verdict_stream(without_cache.analyze(candidates)));

  const auto& cache = with_cache.stats().cache;
  EXPECT_EQ(cache.hits + cache.misses, cache.lookups);
  EXPECT_EQ(cache.entries, cache.misses);
  EXPECT_GT(cache.lookups, 0u);
  // The generated stream shares requirement sets (distinct_psts ~ count/8),
  // so the cache must actually pay off -- a broken canonical key degrades
  // to miss-every-time and fails here.
  EXPECT_GT(static_cast<double>(cache.hits),
            0.5 * static_cast<double>(cache.lookups));
  EXPECT_EQ(without_cache.stats().cache.lookups, 0u);
}

model::PartitionModel one_process(int partition, Ticks period,
                                  Ticks deadline, Ticks wcet) {
  model::PartitionModel pm;
  pm.id = PartitionId{partition};
  pm.name = "P" + std::to_string(partition);
  pm.processes.push_back({"q0", period, deadline, 10, wcet, true});
  return pm;
}

TEST(BatchAnalyzer, CandidatesSharingAPstKeepTheirOwnIdAndName) {
  // Same requirement set, different ids, names and process sets: one PST,
  // three verdicts that must not leak into each other.
  const std::vector<model::ScheduleRequirement> reqs = {
      {PartitionId{0}, 100, 40}, {PartitionId{1}, 100, 30}};
  std::vector<model::Candidate> candidates(3);
  const Ticks wcets[] = {5, 80, 20};
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    model::Candidate& c = candidates[i];
    c.id = 100 + i;
    c.name = "shared-" + std::to_string(i);
    c.requirements = reqs;
    c.partitions.push_back(one_process(0, 100, 100, wcets[i]));
  }
  candidates[2].partitions.push_back(one_process(1, 100, 100, 10));

  model::BatchAnalyzer analyzer;
  const auto verdicts = analyzer.analyze(candidates);
  ASSERT_EQ(verdicts.size(), 3u);
  for (std::size_t i = 0; i < verdicts.size(); ++i) {
    EXPECT_EQ(verdicts[i].id, candidates[i].id);
    EXPECT_EQ(verdicts[i].name, candidates[i].name);
    EXPECT_EQ(verdicts[i].partitions.size(),
              candidates[i].partitions.size());
  }
  EXPECT_EQ(verdicts[0].verdict, model::Verdict::kSchedulable);
  EXPECT_EQ(verdicts[1].verdict, model::Verdict::kUnschedulable);
  EXPECT_TRUE(verdicts[1].definite);
  EXPECT_EQ(verdicts[2].verdict, model::Verdict::kSchedulable);
  EXPECT_EQ(analyzer.stats().psts_built, 1u);

  model::BatchOptions bare;
  bare.memoise = false;
  model::BatchAnalyzer unmemoised(bare);
  EXPECT_EQ(verdict_stream(unmemoised.analyze(candidates)),
            verdict_stream(verdicts));
  EXPECT_EQ(unmemoised.stats().psts_built, candidates.size());
}

TEST(BatchAnalyzer, ExplicitWindowsWithEqualRequirementsAreNotMerged) {
  // Equal MTF and requirements; only the window layout differs. Under
  // MTF-aligned phasing a job released at 0 with deadline 50 meets it in
  // an early window and misses it in a late one.
  model::Candidate early;
  early.id = 1;
  early.name = "early";
  early.mtf = 100;
  early.requirements = {{PartitionId{0}, 100, 40},
                        {PartitionId{1}, 100, 40}};
  early.windows = {{PartitionId{0}, 0, 40}, {PartitionId{1}, 50, 40}};
  early.partitions.push_back(one_process(0, 100, 50, 30));
  model::Candidate late = early;
  late.id = 2;
  late.name = "late";
  late.windows = {{PartitionId{1}, 0, 40}, {PartitionId{0}, 60, 40}};

  model::BatchAnalyzer analyzer;
  const auto verdicts = analyzer.analyze({early, late});
  ASSERT_EQ(verdicts.size(), 2u);
  EXPECT_EQ(verdicts[0].verdict, model::Verdict::kSchedulable);
  EXPECT_EQ(verdicts[0].worst_wcrt, 30);
  EXPECT_EQ(verdicts[1].verdict, model::Verdict::kUnschedulable);
  EXPECT_EQ(verdicts[1].worst_wcrt, -1) << "the late window ends past D";
  EXPECT_EQ(analyzer.stats().psts_built, 2u);
}

TEST(BatchAnalyzer, EveryCandidateOnAnInfeasibleSetCitesTheSameBinding) {
  std::vector<model::Candidate> candidates;
  for (std::uint64_t i = 0; i < 4; ++i) {
    model::Candidate c;
    c.id = i;
    c.name = "over-" + std::to_string(i);
    c.requirements = {{PartitionId{0}, 100, 80}, {PartitionId{1}, 100, 40}};
    c.partitions.push_back(one_process(0, 100, 100, 5 + 5 * i));
    candidates.push_back(std::move(c));
  }
  model::BatchAnalyzer analyzer;
  const auto verdicts = analyzer.analyze(candidates);
  ASSERT_EQ(verdicts.size(), candidates.size());
  for (std::size_t i = 0; i < verdicts.size(); ++i) {
    EXPECT_EQ(verdicts[i].name, candidates[i].name);
    EXPECT_EQ(verdicts[i].verdict, model::Verdict::kInfeasible);
    EXPECT_EQ(verdicts[i].binding, "eq. (8): total utilisation exceeds 1");
  }
  EXPECT_EQ(analyzer.stats().psts_built, 1u);
  EXPECT_EQ(analyzer.stats().infeasible, candidates.size());
}

TEST(BatchAnalyzer, BuildsOnePstPerDistinctRequirementSet) {
  const auto candidates = model::generate_candidates(small_spec());
  std::set<std::vector<Ticks>> distinct;
  for (const model::Candidate& c : candidates) {
    ASSERT_TRUE(c.windows.empty());
    std::vector<Ticks> key{c.mtf};
    for (const auto& r : c.requirements) {
      key.insert(key.end(), {r.partition.value(), r.period, r.duration});
    }
    distinct.insert(std::move(key));
  }
  ASSERT_LT(distinct.size(), candidates.size());

  model::BatchAnalyzer analyzer;
  (void)analyzer.analyze(candidates);
  EXPECT_EQ(analyzer.stats().psts_built, distinct.size());
  (void)analyzer.analyze(candidates);
  EXPECT_EQ(analyzer.stats().psts_built, distinct.size())
      << "the memo persists across batches";

  model::BatchOptions bare;
  bare.memoise = false;
  model::BatchAnalyzer unmemoised(bare);
  (void)unmemoised.analyze(candidates);
  EXPECT_EQ(unmemoised.stats().psts_built, candidates.size());
}

TEST(BatchAnalyzer, InfeasibleCandidatesCiteTheBindingEquation) {
  // Over-utilised requirement set: eq. (8).
  model::Candidate over;
  over.id = 1;
  over.name = "over";
  over.requirements = {{PartitionId{0}, 100, 80},
                       {PartitionId{1}, 100, 40}};

  // Overlapping explicit windows: eq. (21).
  model::Candidate overlap;
  overlap.id = 2;
  overlap.name = "overlap";
  overlap.mtf = 100;
  overlap.requirements = {{PartitionId{0}, 100, 40},
                          {PartitionId{1}, 100, 40}};
  overlap.windows = {{PartitionId{0}, 0, 40}, {PartitionId{1}, 30, 40}};

  // MTF not a multiple of the cycle lcm: eq. (22).
  model::Candidate badmtf;
  badmtf.id = 3;
  badmtf.name = "badmtf";
  badmtf.mtf = 150;
  badmtf.requirements = {{PartitionId{0}, 100, 40}};

  // And one good candidate to prove the batch keeps going.
  model::Candidate good;
  good.id = 4;
  good.name = "good";
  good.requirements = {{PartitionId{0}, 100, 40}};
  model::PartitionModel pm;
  pm.id = PartitionId{0};
  pm.processes.push_back({"q0", 100, 100, 10, 5, true});
  good.partitions.push_back(pm);

  model::BatchAnalyzer analyzer;
  const auto verdicts =
      analyzer.analyze({over, overlap, badmtf, good});
  ASSERT_EQ(verdicts.size(), 4u);
  EXPECT_EQ(verdicts[0].verdict, model::Verdict::kInfeasible);
  EXPECT_NE(verdicts[0].binding.find("eq. (8)"), std::string::npos)
      << verdicts[0].binding;
  EXPECT_EQ(verdicts[1].verdict, model::Verdict::kInfeasible);
  EXPECT_NE(verdicts[1].binding.find("eq. (21)"), std::string::npos)
      << verdicts[1].binding;
  EXPECT_EQ(verdicts[2].verdict, model::Verdict::kInfeasible);
  EXPECT_NE(verdicts[2].binding.find("eq. (22)"), std::string::npos)
      << verdicts[2].binding;
  EXPECT_EQ(verdicts[3].verdict, model::Verdict::kSchedulable);
  EXPECT_NE(verdicts[3].binding.find("eq. (14)"), std::string::npos)
      << verdicts[3].binding;
  EXPECT_EQ(analyzer.stats().infeasible, 3u);
  EXPECT_EQ(analyzer.stats().schedulable, 1u);
}

TEST(BatchAnalyzer, MtfAboveTheBoundIsInfeasibleBeforeAnyTableIsBuilt) {
  const auto huge = [](std::uint64_t id, Ticks mtf,
                       std::vector<model::ScheduleRequirement> reqs) {
    model::Candidate c;
    c.id = id;
    c.name = "huge-" + std::to_string(id);
    c.mtf = mtf;
    c.requirements = std::move(reqs);
    model::PartitionModel pm;
    pm.id = PartitionId{0};
    pm.processes.push_back({"q0", 100, 100, 10, 5, true});
    c.partitions.push_back(pm);
    return c;
  };
  // Given MTF one past the bound, period dividing it.
  const model::Candidate given =
      huge(1, model::kMaxMtf + 1, {{PartitionId{0}, model::kMaxMtf + 1, 10}});
  // No MTF: the lcm of the periods is the MTF, and it is past the bound.
  const model::Candidate from_lcm =
      huge(2, 0, {{PartitionId{0}, 1'000'003, 10},
                  {PartitionId{1}, 999'983, 10}});
  // Co-prime periods whose lcm overflows Ticks: saturates, never wraps.
  const model::Candidate overflow =
      huge(3, 0, {{PartitionId{0}, 4'000'000'007, 10},
                  {PartitionId{1}, 3'999'999'979, 10},
                  {PartitionId{2}, 3'999'999'959, 10}});
  // Explicit windows over a 4e9-tick MTF.
  model::Candidate windows =
      huge(4, 4'000'000'000, {{PartitionId{0}, 4'000'000'000, 10}});
  windows.windows = {{PartitionId{0}, 0, 10}};

  for (const bool memoise : {true, false}) {
    model::BatchOptions options;
    options.memoise = memoise;
    model::BatchAnalyzer analyzer(options);
    const auto verdicts =
        analyzer.analyze({given, from_lcm, overflow, windows});
    ASSERT_EQ(verdicts.size(), 4u);
    for (const model::BatchVerdict& v : verdicts) {
      EXPECT_EQ(v.verdict, model::Verdict::kInfeasible) << v.to_ndjson();
      EXPECT_NE(v.binding.find("analysable bound"), std::string::npos)
          << v.to_ndjson();
    }
    EXPECT_EQ(analyzer.stats().cache.misses, 0u) << "no supply built";
  }
}

/// air-schedule --in's path for one candidate line whose only process
/// carries `process` (name, period, deadline, priority, wcet fields).
model::BatchVerdict analyze_line_with_process(const std::string& process,
                                              model::BatchAnalyzer& analyzer) {
  const auto stream = config::parse_candidates(
      "{\"id\":1,\"mtf\":97,\"requirements\":[{\"partition\":0,"
      "\"period\":97,\"duration\":10}],\"partitions\":[{\"id\":0,"
      "\"processes\":[{" +
      process + "}]}]}\n");
  EXPECT_TRUE(stream.ok());
  const auto verdicts = analyzer.analyze(stream.candidates);
  EXPECT_EQ(verdicts.size(), 1u);
  return verdicts.at(0);
}

void expect_process_bound_binding(const model::BatchVerdict& v,
                                  const std::string& field,
                                  const model::BatchAnalyzer& analyzer) {
  EXPECT_EQ(v.verdict, model::Verdict::kInfeasible) << v.to_ndjson();
  EXPECT_EQ(v.binding, "process " + field +
                           " exceeds the analysable bound of " +
                           std::to_string(model::kMaxProcessTicks) + " ticks");
  EXPECT_TRUE(v.partitions.empty());
  EXPECT_EQ(analyzer.stats().cache.lookups, 0u) << "no supply resolved";
}

TEST(BatchAnalyzer, ProcessPeriodAboveTheBoundIsInfeasible) {
  // Unbounded, lcm(period, MTF) overflows Ticks in the MTF-aligned
  // analysis.
  model::BatchAnalyzer analyzer;
  const model::BatchVerdict v = analyze_line_with_process(
      "\"name\":\"q\",\"period\":100000000000000001,\"deadline\":97,"
      "\"priority\":1,\"wcet\":5",
      analyzer);
  expect_process_bound_binding(v, "period", analyzer);
}

TEST(BatchAnalyzer, ProcessDeadlineAboveTheBoundIsInfeasible) {
  model::BatchAnalyzer analyzer;
  const model::BatchVerdict v = analyze_line_with_process(
      "\"name\":\"q\",\"period\":97,\"deadline\":" +
          std::to_string(model::kMaxProcessTicks + 1) +
          ",\"priority\":1,\"wcet\":5",
      analyzer);
  expect_process_bound_binding(v, "deadline", analyzer);
}

TEST(BatchAnalyzer, ProcessWcetAboveTheBoundIsInfeasible) {
  // Unbounded, the wcet overflows the supply inverse's rank arithmetic.
  model::BatchAnalyzer analyzer;
  const model::BatchVerdict v = analyze_line_with_process(
      "\"name\":\"q\",\"period\":97,\"deadline\":97,\"priority\":1,"
      "\"wcet\":9000000000000000000",
      analyzer);
  expect_process_bound_binding(v, "wcet", analyzer);
}

TEST(BatchAnalyzer, WorstCasePhasingIsByteIdenticalWithAndWithoutMemoisation) {
  // The memoised service inverting the sbf from gap starts against the
  // unmemoised reference.
  const auto candidates = model::generate_candidates(small_spec());
  model::BatchOptions memoised;
  memoised.analysis.phasing = model::Phasing::kWorstCase;
  model::BatchOptions bare = memoised;
  bare.memoise = false;
  model::BatchAnalyzer with_cache(memoised);
  model::BatchAnalyzer reference(bare);
  const std::string stream = verdict_stream(with_cache.analyze(candidates));
  EXPECT_EQ(stream, verdict_stream(reference.analyze(candidates)));
  EXPECT_GT(with_cache.stats().cache.hits, 0u);
  EXPECT_NE(stream.find("\"verdict\":\"schedulable\""), std::string::npos);
}

TEST(BatchVerdict, NdjsonEscapesStringsAndPrintsUtilisationAsPercentG) {
  model::BatchVerdict v;
  v.id = std::numeric_limits<std::uint64_t>::max();
  v.name = "say \"hi\"\\ \x01\n\t\r\x1f end";
  v.verdict = model::Verdict::kUnschedulable;
  v.binding = "back\\slash \"q\" \x7f\x02";
  v.definite = true;
  v.worst_wcrt = -1;
  const std::string line = v.to_ndjson();
  EXPECT_EQ(line.substr(0, line.find(",\"utilisation\"")),
            "{\"id\":18446744073709551615,"
            "\"name\":\"say \\\"hi\\\"\\\\ \\u0001\\n\\t\\r\\u001f end\","
            "\"verdict\":\"unschedulable\","
            "\"binding\":\"back\\\\slash \\\"q\\\" \x7f\\u0002\","
            "\"definite\":true");
  v.id = 7;  // util::json reads integers only within the int64 range
  const auto parsed = util::json::parse(v.to_ndjson());
  ASSERT_TRUE(parsed.ok()) << v.to_ndjson();
  EXPECT_EQ(parsed.value->get_string("name", ""), v.name);
  EXPECT_EQ(parsed.value->get_string("binding", ""), v.binding);

  for (const double u : {0.0, 1.0, 1e-7, 0.1234565, 123456789.0, 2.0 / 3.0}) {
    v.utilisation = u;
    char expected[40];
    std::snprintf(expected, sizeof expected, "%.6g", u);
    EXPECT_NE(v.to_ndjson().find(",\"utilisation\":" + std::string{expected} +
                                 ",\"worst_wcrt\":-1}"),
              std::string::npos)
        << v.to_ndjson();
  }
}

TEST(BatchAnalyzer, GeneratedStreamIsNotVacuous) {
  model::CandidateSpec spec;
  spec.count = 256;
  spec.seed = 7;
  const auto candidates = model::generate_candidates(spec);
  model::BatchAnalyzer analyzer;
  const auto verdicts = analyzer.analyze(candidates);
  std::size_t definite = 0;
  for (const auto& v : verdicts) definite += v.definite ? 1 : 0;
  const auto& s = analyzer.stats();
  // Every verdict class must be populated, or the differential oracle and
  // the bench measure nothing.
  EXPECT_GE(s.schedulable, 32u);
  EXPECT_GE(s.infeasible, 8u);
  EXPECT_GE(definite, 16u) << "necessity-check population too small";
}

TEST(BatchAnalyzer, PublishExportsTheRunningTotals) {
  const auto candidates = model::generate_candidates(small_spec());
  model::BatchAnalyzer analyzer;
  (void)analyzer.analyze(candidates);
  telemetry::MetricsRegistry registry;
  analyzer.publish(registry);
  const auto snap = registry.snapshot(0);
  const auto& s = analyzer.stats();
  EXPECT_EQ(snap.counter(telemetry::Metric::kBatchConfigs), s.analyzed);
  EXPECT_EQ(snap.counter(telemetry::Metric::kBatchSchedulable),
            s.schedulable);
  EXPECT_EQ(snap.counter(telemetry::Metric::kBatchUnschedulable),
            s.unschedulable);
  EXPECT_EQ(snap.counter(telemetry::Metric::kBatchInfeasible), s.infeasible);
  EXPECT_EQ(snap.counter(telemetry::Metric::kBatchSupplyHits),
            s.cache.hits);
  EXPECT_EQ(snap.counter(telemetry::Metric::kBatchSupplyMisses),
            s.cache.misses);
}

TEST(CandidateCodec, JsonlRoundTripPreservesTheVerdictStream) {
  const auto candidates = model::generate_candidates(small_spec());
  std::string text = "// candidate stream\n\n";
  for (const auto& c : candidates) {
    text += config::candidate_to_jsonl(c);
    text += '\n';
  }
  const auto stream = config::parse_candidates(text);
  ASSERT_TRUE(stream.ok()) << stream.errors.front();
  ASSERT_EQ(stream.candidates.size(), candidates.size());

  model::BatchAnalyzer a;
  model::BatchAnalyzer b;
  EXPECT_EQ(verdict_stream(a.analyze(candidates)),
            verdict_stream(b.analyze(stream.candidates)));
}

TEST(CandidateCodec, MalformedLinesAreReportedNotFatal) {
  const auto stream = config::parse_candidates(
      "{\"id\":1,\"requirements\":[{\"partition\":0,\"period\":100,"
      "\"duration\":10}],\"partitions\":[]}\n"
      "{not json}\n"
      "{\"id\":2,\"partitions\":[]}\n");
  ASSERT_EQ(stream.candidates.size(), 1u);
  ASSERT_EQ(stream.errors.size(), 2u);
  EXPECT_NE(stream.errors[0].find("line 2"), std::string::npos);
  EXPECT_NE(stream.errors[1].find("line 3"), std::string::npos)
      << "missing requirements must be an error";
}

TEST(CandidateCodec, VerdictIdsRoundTripThroughTheJsonReader) {
  for (const std::int64_t id :
       {std::int64_t{0}, std::numeric_limits<std::int64_t>::max()}) {
    const auto stream = config::parse_candidates(
        "{\"id\":" + std::to_string(id) +
        ",\"requirements\":[{\"partition\":0,\"period\":100,"
        "\"duration\":10}],\"partitions\":[]}\n");
    ASSERT_TRUE(stream.ok()) << stream.errors.front();
    model::BatchAnalyzer analyzer;
    const auto verdicts = analyzer.analyze(stream.candidates);
    ASSERT_EQ(verdicts.size(), 1u);
    const auto parsed = util::json::parse(verdicts[0].to_ndjson());
    ASSERT_TRUE(parsed.ok()) << verdicts[0].to_ndjson();
    EXPECT_EQ(parsed.value->get_int("id", -1), id);
  }
}

TEST(CandidateCodec, NegativeIdIsALineError) {
  const auto stream = config::parse_candidates(
      "{\"id\":-1,\"requirements\":[{\"partition\":0,\"period\":100,"
      "\"duration\":10}],\"partitions\":[]}\n");
  EXPECT_TRUE(stream.candidates.empty());
  ASSERT_EQ(stream.errors.size(), 1u);
  EXPECT_NE(stream.errors[0].find("line 1"), std::string::npos);
  EXPECT_NE(stream.errors[0].find("id must be a non-negative integer"),
            std::string::npos)
      << stream.errors[0];
}

TEST(CandidateCodec, DeeplyNestedLineIsMalformedNotACrash) {
  const std::string deep(200000, '[');
  const auto stream = config::parse_candidates(
      deep + "\n"
      "{\"id\":1,\"requirements\":[{\"partition\":0,\"period\":100,"
      "\"duration\":10}],\"partitions\":[]}\n");
  ASSERT_EQ(stream.errors.size(), 1u);
  EXPECT_NE(stream.errors[0].find("line 1"), std::string::npos)
      << stream.errors[0];
  EXPECT_NE(stream.errors[0].find("nesting"), std::string::npos)
      << stream.errors[0];
  EXPECT_EQ(stream.candidates.size(), 1u) << "the next line still parses";
}

TEST(CandidateCodec, HugeMtfLineIsInfeasibleNotAnAllocation) {
  // Both lines once asked PartitionSupply for O(MTF) tables: the first
  // for tens of GB, the second through an undefined double-to-int cast.
  const auto stream = config::parse_candidates(
      "{\"id\":1,\"mtf\":4000000000,\"requirements\":[{\"partition\":0,"
      "\"period\":4000000000,\"duration\":10}],\"partitions\":[]}\n"
      "{\"id\":2,\"mtf\":1e300,\"requirements\":[{\"partition\":0,"
      "\"period\":100,\"duration\":10}],\"partitions\":[]}\n");
  ASSERT_TRUE(stream.ok()) << stream.errors.front();
  ASSERT_EQ(stream.candidates.size(), 2u);
  EXPECT_EQ(stream.candidates[1].mtf, std::numeric_limits<Ticks>::max());
  model::BatchAnalyzer analyzer;
  for (const model::BatchVerdict& v : analyzer.analyze(stream.candidates)) {
    EXPECT_EQ(v.verdict, model::Verdict::kInfeasible) << v.to_ndjson();
    EXPECT_NE(v.binding.find("analysable bound"), std::string::npos)
        << v.to_ndjson();
  }
}

/// An air-schedule argument list whose last flag has a hostile value.
struct HostileFlags {
  const char* name;
  std::string args;
};

void PrintTo(const HostileFlags& flags, std::ostream* os) { *os << flags.args; }

class AirScheduleFlags : public ::testing::TestWithParam<HostileFlags> {};

TEST_P(AirScheduleFlags, HostileValueIsAUsageError) {
  const std::string& args = GetParam().args;
  const std::size_t at = args.rfind("--");
  const std::string flag = args.substr(at, args.find(' ', at) - at);
  FILE* pipe = ::popen(
      (std::string{AIR_SCHEDULE_BIN} + " " + args + " 2>&1 >/dev/null").c_str(),
      "r");
  ASSERT_NE(pipe, nullptr);
  std::string err;
  char buf[256];
  while (std::fgets(buf, sizeof buf, pipe) != nullptr) err += buf;
  const int status = ::pclose(pipe);
  ASSERT_TRUE(WIFEXITED(status)) << err;
  EXPECT_EQ(WEXITSTATUS(status), 1) << err;
  EXPECT_NE(err.find(flag + " needs"), std::string::npos) << err;
}

INSTANTIATE_TEST_SUITE_P(
    Rejected, AirScheduleFlags,
    ::testing::Values(
        HostileFlags{"GenerateNegative", "--generate -1"},
        HostileFlags{"GenerateNotANumber", "--generate abc"},
        HostileFlags{"GenerateTrailingText", "--generate 10x"},
        HostileFlags{"GeneratePlusSign", "--generate +10"},
        HostileFlags{"GenerateEmpty", "--generate ''"},
        HostileFlags{"GenerateAboveBound", "--generate 1048577"},
        HostileFlags{"DistinctNegative", "--generate 10 --distinct -1"},
        HostileFlags{"DistinctAboveBound", "--generate 1 --distinct 1048577"},
        HostileFlags{"SeedOverflow", "--seed 18446744073709551616"},
        HostileFlags{"AcceptedTrailingText", "--accepted 3x"},
        HostileFlags{"RejectedFraction", "--rejected 2.5"},
        HostileFlags{"OverloadAboveOne", "--generate 10 --overload 1.5"},
        HostileFlags{"OverloadNan", "--overload nan"},
        HostileFlags{"InfeasibleNegative", "--infeasible -0.1"},
        HostileFlags{"InfeasibleInfinite", "--infeasible inf"},
        HostileFlags{"GenerateAndIn", "--generate 3 --in /nonexistent/x.jsonl"}),
    [](const auto& info) { return std::string{info.param.name}; });

TEST(AirScheduleFlagsAccepted, BoundaryValuesRun) {
  const std::string command =
      std::string{AIR_SCHEDULE_BIN} +
      " --generate 16 --distinct 3 --seed 18446744073709551615"
      " --overload 1 --infeasible 0 --accepted 0 --rejected 0 > /dev/null";
  EXPECT_EQ(std::system(command.c_str()), 0);
}

TEST(DifferentialValidation, OracleHoldsOver500GeneratedConfigs) {
  model::CandidateSpec spec;
  spec.count = 500;
  spec.seed = 11;
  const auto candidates = model::generate_candidates(spec);
  model::BatchAnalyzer analyzer;
  const auto verdicts = analyzer.analyze(candidates);

  system::DifferentialOptions options;
  options.max_accepted = 10;
  options.max_rejected = 5;
  const auto report =
      system::validate_differential(candidates, verdicts, options);
  EXPECT_TRUE(report.ok()) << report.to_text();
  EXPECT_EQ(report.accepted_flown, 10u);
  EXPECT_EQ(report.rejected_flown, 5u);
  // All four drivers per flown candidate.
  EXPECT_EQ(report.flights, 4u * (report.accepted_flown +
                                  report.rejected_flown));
  EXPECT_GE(report.accepted_population, 100u);
  EXPECT_GE(report.rejected_population, 40u);
}

TEST(DifferentialValidation, MutationSelftestCatchesUnsoundAnalysis) {
  const auto report = system::schedulability_selftest(96, 7);
  EXPECT_TRUE(report.caught()) << report.to_text();
  EXPECT_GT(report.flipped, 0u);
  // Every flown unsoundly-accepted candidate was a definite overload: the
  // flight must observe the miss the sound analysis predicted.
  EXPECT_EQ(report.divergent, report.flown) << report.to_text();
}

}  // namespace
}  // namespace air
