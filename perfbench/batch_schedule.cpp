// batch_schedule: the air-schedule --in path.
//
// Why this workload: there is no simulation. util::json and config
// dominate set-up (parsing the candidate JSONL corpus) and model -- sbf
// tables, the supply cache, response-time analysis -- dominates the run,
// so simulator changes must leave it flat and analyser changes show only
// here. The corpus holds independent 256-candidate streams, each seeded
// from the workload seed and its request index; it is generated before
// set-up timing starts. One chunk is one request: a fresh default
// BatchAnalyzer, analyze(), then to_ndjson() per verdict. Chunks cycle
// through the corpus, so every request is analysed several times and each
// repeat must reproduce its first output byte for byte.
#include <algorithm>
#include <cstdio>
#include <map>
#include <stdexcept>

#include "config/candidates.hpp"
#include "harness.hpp"
#include "model/batch.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using air::model::BatchAnalyzer;
using air::model::Candidate;

constexpr std::size_t kCandidates = 256;  // per request
constexpr std::size_t kRequests = 48;     // distinct streams in the corpus
// Measured requests per second of --seconds (Release+LTO, 4-CPU x86-64
// host); the chunk count is fixed per --seconds.
constexpr double kChunksPerSecond = 20;
constexpr std::size_t kWarmupChunks = 2;
// Corpus parses: one before the run, the rest spread evenly over the
// timed chunks (outside their clocks), so setup_s, the fastest of them,
// samples the host over the whole run rather than one moment of it.
constexpr std::size_t kSetups = 16;
constexpr std::size_t kMemoiseSamples = 2;  // memoise=false cross-checks
constexpr std::size_t kTracedDivisor = 3;

std::vector<std::string> make_corpus(std::uint64_t seed) {
  std::vector<std::string> corpus;
  for (std::size_t r = 0; r < kRequests; ++r) {
    air::model::CandidateSpec spec;
    spec.count = kCandidates;
    spec.seed = mix_seed(seed, r);
    std::string text;
    for (const Candidate& c : air::model::generate_candidates(spec)) {
      text += air::config::candidate_to_jsonl(c);
      text += '\n';
    }
    corpus.push_back(std::move(text));
  }
  return corpus;
}

using Parsed = std::vector<std::vector<Candidate>>;

Parsed parse(const std::vector<std::string>& corpus) {
  Parsed parsed;
  parsed.reserve(corpus.size());
  for (const std::string& text : corpus) {
    air::config::CandidateStream stream = air::config::parse_candidates(text);
    if (!stream.ok()) throw std::runtime_error("corpus: " + stream.errors[0]);
    parsed.push_back(std::move(stream.candidates));
  }
  return parsed;
}

struct Request {
  std::string ndjson;
  BatchAnalyzer::Stats stats;
  std::size_t verdicts{0};
  bool ids_match{true};
};

Request finish(const BatchAnalyzer& analyzer,
               const std::vector<air::model::BatchVerdict>& verdicts,
               const std::vector<Candidate>& candidates, std::string ndjson) {
  Request request{std::move(ndjson), analyzer.stats(), verdicts.size(), true};
  for (std::size_t i = 0; i < verdicts.size() && i < candidates.size(); ++i) {
    request.ids_match = request.ids_match && verdicts[i].id == candidates[i].id;
  }
  return request;
}

Request analyze(const std::vector<Candidate>& candidates,
                air::model::BatchOptions options = {}) {
  BatchAnalyzer analyzer(options);
  const auto verdicts = analyzer.analyze(candidates);
  std::string ndjson;
  for (const auto& verdict : verdicts) ndjson += verdict.to_ndjson();
  return finish(analyzer, verdicts, candidates, std::move(ndjson));
}

/// Output checks of one request, outside the timed chunk; a repeat of a
/// request must reproduce its first NDJSON byte for byte.
class Verifier {
 public:
  Verifier(Checks& checks, std::map<std::size_t, std::uint64_t> expected)
      : checks_(checks), expected_(std::move(expected)) {}

  void check(std::size_t r, const Request& request) {
    const auto& s = request.stats;
    checks_.expect("verdict-per-candidate",
                   request.verdicts == kCandidates && request.ids_match &&
                       s.analyzed == kCandidates &&
                       s.schedulable + s.unschedulable + s.infeasible ==
                           kCandidates,
                   "request " + std::to_string(r) +
                       ": one verdict per candidate, in order");
    const std::uint64_t digest = fnv1a(request.ndjson);
    const auto [it, first] = expected_.emplace(r, digest);
    if (!first) {
      checks_.expect("ndjson-reference", it->second == digest,
                     "request " + std::to_string(r) +
                         ": NDJSON matches the reference bytes");
    }
  }

  [[nodiscard]] std::uint64_t digest() const {
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (const auto& [r, d] : expected_) {
      hash = fnv1a(std::to_string(r) + ":" + std::to_string(d), hash);
    }
    return hash;
  }

 private:
  Checks& checks_;
  std::map<std::size_t, std::uint64_t> expected_;
};

/// Cost of one empty harness span (two clock reads), median of rounds.
double harness_span_ns() {
  std::vector<double> rounds;
  for (int r = 0; r < 9; ++r) {
    double total = 0;
    constexpr int kSpans = 20000;
    for (int i = 0; i < kSpans; ++i) {
      const auto t0 = Clock::now();
      total += std::chrono::duration<double, std::nano>(Clock::now() - t0)
                   .count();
    }
    rounds.push_back(total / kSpans);
  }
  return median(rounds);
}

}  // namespace

void run_batch_schedule(const Options& options, Report& report) {
  const auto timed = static_cast<std::size_t>(
      std::max(kRequests * 1.0, options.seconds * kChunksPerSecond));
  const std::size_t traced =
      std::max<std::size_t>(kRequests, timed / kTracedDivisor);
  const std::vector<std::string> corpus = make_corpus(options.seed);

  std::vector<double> parse_s, teardown_s;
  Parsed parsed;
  const auto set_up = [&] {
    const auto t0 = Clock::now();
    Parsed fresh = parse(corpus);
    parse_s.push_back(seconds_since(t0));
    const auto t1 = Clock::now();
    const bool replacing = !parsed.empty();
    parsed = std::move(fresh);  // releases the previous set-up's corpus
    if (replacing) teardown_s.push_back(seconds_since(t1));
  };
  set_up();
  const std::size_t setup_every = timed / kSetups;

  // Verification prefix: sampled requests analysed with memoise=false give
  // the reference bytes the memoised default must reproduce.
  std::map<std::size_t, std::uint64_t> reference;
  air::util::Rng rng(mix_seed(options.seed, kRequests));
  for (std::size_t i = 0; i < kMemoiseSamples; ++i) {
    const auto r = static_cast<std::size_t>(
        rng.uniform(0, static_cast<std::int64_t>(kRequests) - 1));
    air::model::BatchOptions plain;
    plain.memoise = false;
    std::uint64_t digest = fnv1a(analyze(parsed[r], plain).ndjson);
    if (options.inject == "digest") digest ^= 1;
    reference.emplace(r, digest);
  }
  Verifier verifier(report.checks, reference);

  std::uint64_t hits = 0, lookups = 0, built = 0;
  std::uint64_t schedulable = 0, unschedulable = 0, infeasible = 0;
  Request request;
  const ChunkSteps steps{
      {},
      [&](std::size_t k) { request = analyze(parsed[k % kRequests]); },
      [&](std::size_t k) {
        verifier.check(k % kRequests, request);
        if (k >= kWarmupChunks) {
          hits += request.stats.cache.hits;
          lookups += request.stats.cache.lookups;
          built += request.stats.cache.misses;
          schedulable += request.stats.schedulable;
          unschedulable += request.stats.unschedulable;
          infeasible += request.stats.infeasible;
        }
        request = {};  // free the output outside the next timed chunk
        if (k >= kWarmupChunks && (k - kWarmupChunks + 1) % setup_every == 0 &&
            parse_s.size() < kSetups) {
          set_up();
        }
      }};
  const ChunkTimes times = time_chunks(steps, kWarmupChunks, timed);
  check_record(report, options, "digest", verifier.digest());
  const double work_per_chunk = static_cast<double>(kCandidates);
  if (!options.trace) {
    // Requests differ in work, so the peak is taken per request: the
    // fastest of its analyses, summed over the corpus.
    std::vector<double> request_s(kRequests, 0);
    for (std::size_t i = 0; i < times.chunk_s.size(); ++i) {
      double& best = request_s[(kWarmupChunks + i) % kRequests];
      if (best == 0 || times.chunk_s[i] < best) best = times.chunk_s[i];
    }
    double corpus_s = 0;
    for (const double s : request_s) corpus_s += s;
    add_end_to_end(report,
                   work_per_chunk * static_cast<double>(kRequests) / corpus_s,
                   fastest(parse_s));
    return;
  }

  // Traced pass: the harness's own spans around analyze and emit.
  ChunkTimes traced_times;
  double analyze_ns = 0, emit_ns = 0;
  for (std::size_t k = kWarmupChunks; k < kWarmupChunks + traced; ++k) {
    const std::size_t r = k % kRequests;
    const auto t0 = Clock::now();
    BatchAnalyzer analyzer;
    const auto a0 = Clock::now();
    const auto verdicts = analyzer.analyze(parsed[r]);
    const auto a1 = Clock::now();
    std::string ndjson;
    for (const auto& verdict : verdicts) ndjson += verdict.to_ndjson();
    const auto e1 = Clock::now();
    analyze_ns += std::chrono::duration<double, std::nano>(a1 - a0).count();
    emit_ns += std::chrono::duration<double, std::nano>(e1 - a1).count();
    traced_times.chunk_s.push_back(seconds_since(t0));
    verifier.check(r, finish(analyzer, verdicts, parsed[r], std::move(ndjson)));
  }
  const double span_ns = harness_span_ns();
  const double nt = static_cast<double>(traced);
  const double n = static_cast<double>(timed);
  report.add("config.parse_ms", fastest(parse_s) * 1e3, "ms");
  report.add("system.teardown_ms", fastest(teardown_s) * 1e3, "ms");
  report.add("model.analyze_ms_per_request",
             (analyze_ns - span_ns * nt) / 1e6 / nt,
             "ms/request");
  report.add("model.emit_ms_per_request", (emit_ns - span_ns * nt) / 1e6 / nt,
             "ms/request");
  report.add_count("model.cache_hit_rate",
                   lookups > 0 ? static_cast<double>(hits) /
                                     static_cast<double>(lookups)
                               : 0.0,
                   "frac");
  const auto per_request = [&](const char* name, std::uint64_t count) {
    report.add_count(name, static_cast<double>(count) / n, "count/request");
  };
  per_request("model.tables_built_per_request", built);
  per_request("model.verdicts_schedulable", schedulable);
  per_request("model.verdicts_unschedulable", unschedulable);
  per_request("model.verdicts_infeasible", infeasible);
  add_trace_quality(report, times, traced_times, analyze_ns + emit_ns,
                    2 * traced, span_ns);
  add_harness_layer(report, times, work_per_chunk);
}

}  // namespace perfbench
