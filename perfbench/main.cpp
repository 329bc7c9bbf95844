// air_perfbench: one workload per invocation, the result as the last line
// of standard output.
//
//   air_perfbench --workload <fig8_mission|constellation_128|batch_schedule>
//                 --seed <n> --seconds <s> --trace <0|1>
//                 [--record-dir <dir>] [--inject <digest|drop-miss>]
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones
// the workload measures; run.py completes the per-layer set from
// BENCHMARK.json.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "harness.hpp"

namespace {

[[noreturn]] void usage(const char* error) {
  std::fprintf(stderr,
               "error: %s\nusage: air_perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--record-dir <dir>] "
               "[--inject <digest|drop-miss>]\n",
               error);
  std::exit(2);
}

/// The per-layer counts must reproduce an earlier run's record.
void check_counts(const perfbench::Options& options,
                  perfbench::Report& report) {
  std::uint64_t counts = perfbench::fnv1a({});
  for (const auto& m : report.metrics) {
    if (!m.count) continue;
    counts = perfbench::fnv1a(m.name + "=" + std::to_string(m.value) + ";",
                              counts);
  }
  perfbench::check_record(report, options, "counts", counts);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
      have_seconds = options.seconds > 0;
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      options.trace = value == "1";
      have_trace = true;
    } else if (arg == "--record-dir") {
      options.record_dir = value;
    } else if (arg == "--inject") {
      options.inject = value;
    } else {
      usage(("unknown option " + arg).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace) {
    usage("--seed, --seconds (> 0) and --trace are required");
  }

  perfbench::Report report;
  try {
    if (options.workload == "fig8_mission") {
      perfbench::run_fig8_mission(options, report);
    } else if (options.workload == "constellation_128") {
      perfbench::run_constellation(options, report);
    } else if (options.workload == "batch_schedule") {
      perfbench::run_batch_schedule(options, report);
    } else {
      usage("unknown workload");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  if (options.trace) check_counts(options, report);
  std::printf("%s\n", perfbench::result_json(report).c_str());
  return 0;
}
