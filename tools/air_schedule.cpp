// air-schedule: the schedulability service CLI.
//
// Batch front-end to model::BatchAnalyzer: ingest thousands of candidate
// configurations (NDJSON lines, or generated), analyse them against the
// paper's conditions (eqs. (8), (14), (19)-(23)) with supply-table
// memoisation, and emit a deterministic verdict stream (NDJSON,
// byte-identical with and without --no-memoise). Optionally close the
// loop: fly a sample of the verdicts in the simulator and check the
// differential oracle (analysis-schedulable <=> zero deadline misses).
//
// Usage:
//   air-schedule [--in <file.jsonl>|-] [--generate <count>] [--seed <n>]
//                [--distinct <n>] [--overload <frac>] [--infeasible <frac>]
//                [--no-memoise] [--out <file>] [--metrics <file>] [--stats]
//                [--differential] [--accepted <n>] [--rejected <n>]
//                [--switched-bus] [--reproducers <file.jsonl>]
//                [--selftest]
//
// Counts are whole unsigned decimals (--generate and --distinct at most
// 2^20, the kMaxMtf scale) and fractions are in [0, 1]; any other value is
// a usage error.
//
// Exit codes: 0 ok; 1 usage/IO failure; 2 candidate parse errors;
// 3 differential divergence detected (reproducers written when asked);
// with --selftest, 0 = mutation caught (pipeline works), 3 = not caught.
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>

#include "config/candidates.hpp"
#include "model/batch.hpp"
#include "system/flight_validate.hpp"
#include "telemetry/export.hpp"

namespace {

bool read_input(const std::string& path, std::string& out) {
  if (path == "-") {
    std::ostringstream buffer;
    buffer << std::cin.rdbuf();
    out = buffer.str();
    return true;
  }
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "air-schedule: cannot read %s\n", path.c_str());
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  out = buffer.str();
  return true;
}

bool write_output(const std::string& path, const std::string& text) {
  if (path.empty() || path == "-") {
    std::fputs(text.c_str(), stdout);
    return true;
  }
  std::ofstream out(path, std::ios::binary);
  out << text;
  if (!out) {
    std::fprintf(stderr, "air-schedule: cannot write %s\n", path.c_str());
    return false;
  }
  return true;
}

void usage() {
  std::fprintf(
      stderr,
      "usage: air-schedule [--in <file.jsonl>|-] [--generate <count>]\n"
      "                    [--seed <n>] [--distinct <n>] [--overload <f>]\n"
      "                    [--infeasible <f>] [--no-memoise]\n"
      "                    [--out <file>] [--metrics <file>]\n"
      "                    [--stats] [--differential] [--accepted <n>]\n"
      "                    [--rejected <n>] [--switched-bus]\n"
      "                    [--reproducers <file.jsonl>] [--selftest]\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::string in_path;
  std::string out_path;
  std::string metrics_path;
  std::string reproducers_path;
  air::model::CandidateSpec spec;
  bool generate = false;
  bool stats = false;
  bool differential = false;
  bool selftest = false;
  air::model::BatchOptions batch_options;
  air::system::DifferentialOptions diff_options;

  for (int i = 1; i < argc; ++i) {
    const auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "air-schedule: %s needs a value\n", flag);
        std::exit(1);
      }
      return argv[++i];
    };
    // A decimal in [0, max] with no sign and no trailing text: whole for
    // an integer T; NaN fails the bound, and so does infinity.
    const auto parse = [&]<typename T>(const char* flag, T max,
                                       const char* expected) {
      const char* text = next(flag);
      const char* end = text + std::strlen(text);
      T value{};
      const auto [ptr, ec] = std::from_chars(text, end, value);
      if (ec != std::errc{} || ptr != end || *text == '-' || !(value <= max)) {
        std::fprintf(stderr, "air-schedule: %s needs %s, got '%s'\n", flag,
                     expected, text);
        std::exit(1);
      }
      return value;
    };
    constexpr auto kMaxCount = static_cast<std::uint64_t>(air::model::kMaxMtf);
    constexpr auto kAnyCount = std::numeric_limits<std::uint64_t>::max();
    constexpr const char* kCount = "a whole number";
    constexpr const char* kBoundedCount = "a whole number <= 2^20";
    constexpr const char* kFraction = "a number in [0, 1]";
    if (std::strcmp(argv[i], "--in") == 0) {
      in_path = next("--in");
    } else if (std::strcmp(argv[i], "--generate") == 0) {
      generate = true;
      spec.count = parse("--generate", kMaxCount, kBoundedCount);
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      spec.seed = parse("--seed", kAnyCount, kCount);
    } else if (std::strcmp(argv[i], "--distinct") == 0) {
      spec.distinct_psts = parse("--distinct", kMaxCount, kBoundedCount);
    } else if (std::strcmp(argv[i], "--overload") == 0) {
      spec.overload_fraction = parse("--overload", 1.0, kFraction);
    } else if (std::strcmp(argv[i], "--infeasible") == 0) {
      spec.infeasible_fraction = parse("--infeasible", 1.0, kFraction);
    } else if (std::strcmp(argv[i], "--no-memoise") == 0) {
      batch_options.memoise = false;
    } else if (std::strcmp(argv[i], "--out") == 0) {
      out_path = next("--out");
    } else if (std::strcmp(argv[i], "--metrics") == 0) {
      metrics_path = next("--metrics");
    } else if (std::strcmp(argv[i], "--stats") == 0) {
      stats = true;
    } else if (std::strcmp(argv[i], "--differential") == 0) {
      differential = true;
    } else if (std::strcmp(argv[i], "--accepted") == 0) {
      diff_options.max_accepted = parse("--accepted", kAnyCount, kCount);
    } else if (std::strcmp(argv[i], "--rejected") == 0) {
      diff_options.max_rejected = parse("--rejected", kAnyCount, kCount);
    } else if (std::strcmp(argv[i], "--switched-bus") == 0) {
      diff_options.switched_bus = true;
    } else if (std::strcmp(argv[i], "--reproducers") == 0) {
      reproducers_path = next("--reproducers");
    } else if (std::strcmp(argv[i], "--selftest") == 0) {
      selftest = true;
    } else {
      usage();
      return 1;
    }
  }
  if (generate && !in_path.empty()) {
    std::fprintf(stderr,
                 "air-schedule: --in needs to be the only input source; "
                 "drop --generate\n");
    usage();
    return 1;
  }

  if (selftest) {
    const auto report = air::system::schedulability_selftest();
    std::fputs(report.to_text().c_str(), stderr);
    return report.caught() ? 0 : 3;
  }

  // --- ingest ---
  std::vector<air::model::Candidate> candidates;
  if (generate) {
    candidates = air::model::generate_candidates(spec);
  } else if (!in_path.empty()) {
    std::string text;
    if (!read_input(in_path, text)) return 1;
    air::config::CandidateStream stream =
        air::config::parse_candidates(text);
    for (const std::string& err : stream.errors) {
      std::fprintf(stderr, "air-schedule: %s\n", err.c_str());
    }
    if (!stream.ok()) return 2;
    candidates = std::move(stream.candidates);
  } else {
    usage();
    return 1;
  }

  // --- analyse ---
  air::model::BatchAnalyzer analyzer(batch_options);
  const auto verdicts = analyzer.analyze(candidates);

  std::string out;
  for (const auto& v : verdicts) {
    out += v.to_ndjson();
    out += '\n';
  }
  if (!write_output(out_path, out)) return 1;

  if (stats) {
    const auto& s = analyzer.stats();
    std::fprintf(stderr,
                 "air-schedule: %llu configs (%llu schedulable, %llu "
                 "unschedulable, %llu infeasible); %llu PSTs built; "
                 "supply cache: %llu lookups, %llu hits, %llu misses, "
                 "%zu entries\n",
                 static_cast<unsigned long long>(s.analyzed),
                 static_cast<unsigned long long>(s.schedulable),
                 static_cast<unsigned long long>(s.unschedulable),
                 static_cast<unsigned long long>(s.infeasible),
                 static_cast<unsigned long long>(s.psts_built),
                 static_cast<unsigned long long>(s.cache.lookups),
                 static_cast<unsigned long long>(s.cache.hits),
                 static_cast<unsigned long long>(s.cache.misses),
                 s.cache.entries);
  }
  if (!metrics_path.empty()) {
    air::telemetry::MetricsRegistry registry;
    analyzer.publish(registry);
    if (!write_output(metrics_path,
                      air::telemetry::to_json(registry.snapshot(0)))) {
      return 1;
    }
  }

  // --- differential flight validation ---
  if (differential) {
    const auto report =
        air::system::validate_differential(candidates, verdicts,
                                           diff_options);
    std::fputs(report.to_text().c_str(), stderr);
    if (!report.ok()) {
      if (!reproducers_path.empty()) {
        std::string repro;
        for (std::uint64_t id : report.divergent_ids) {
          for (const auto& c : candidates) {
            if (c.id == id) {
              repro += air::config::candidate_to_jsonl(c);
              repro += '\n';
              break;
            }
          }
        }
        if (!write_output(reproducers_path, repro)) return 1;
      }
      return 3;
    }
  }
  return 0;
}
