// air-faultcamp: deterministic fault-injection campaign against the Fig. 8
// prototype, with system-wide containment oracles.
//
// Sweeps seeds (each a reproducible FaultPlan: memory upsets, rogue writes,
// clock/interrupt anomalies, process overruns, stuck processes, schedule
// storms, bus frame faults), flies every plan against a clean reference run
// and checks the spatial / temporal / HM / liveness containment oracles.
// Breached seeds are shrunk to a minimal reproducer plan and written to the
// output directory.
//
// Usage:
//   air-faultcamp [--seeds N] [--first-seed S] [--mtfs M] [--weaken-hm]
//                 [--no-world] [--out DIR] [--quiet]
//                 [--watchdog-selftest]
//
// --watchdog-selftest skips the sweep and instead verifies the online
// observability plane end to end: a clean flight must stay silent, and a
// single forced deadline miss must light the deadline watchdog on the
// target partition with a causal span link.
//
// Exit codes: 0 = all seeds contained, 2 = containment breach found,
//             1 = usage error.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "fi/campaign.hpp"

using namespace air;

namespace {

bool parse_u64(const char* text, std::uint64_t& out) {
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0') return false;
  out = value;
  return true;
}

int usage() {
  std::fprintf(
      stderr,
      "usage: air-faultcamp [--seeds N] [--first-seed S] [--mtfs M]\n"
      "                     [--weaken-hm] [--no-world]\n"
      "                     [--out DIR] [--quiet] [--watchdog-selftest]\n");
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  fi::CampaignOptions options;
  options.verbose = true;
  bool watchdog_selftest = false;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    std::uint64_t value = 0;
    if (std::strcmp(arg, "--seeds") == 0 && i + 1 < argc) {
      if (!parse_u64(argv[++i], value)) return usage();
      options.seeds = static_cast<std::size_t>(value);
    } else if (std::strcmp(arg, "--first-seed") == 0 && i + 1 < argc) {
      if (!parse_u64(argv[++i], value)) return usage();
      options.first_seed = value;
    } else if (std::strcmp(arg, "--mtfs") == 0 && i + 1 < argc) {
      if (!parse_u64(argv[++i], value) || value == 0) return usage();
      options.mtfs = static_cast<Ticks>(value);
    } else if (std::strcmp(arg, "--weaken-hm") == 0) {
      options.weaken_hm = true;
    } else if (std::strcmp(arg, "--no-world") == 0) {
      options.world_missions = false;
    } else if (std::strcmp(arg, "--out") == 0 && i + 1 < argc) {
      options.out_dir = argv[++i];
    } else if (std::strcmp(arg, "--quiet") == 0) {
      options.verbose = false;
    } else if (std::strcmp(arg, "--watchdog-selftest") == 0) {
      watchdog_selftest = true;
    } else {
      return usage();
    }
  }

  if (watchdog_selftest) {
    const std::vector<fi::Breach> failures = fi::watchdog_selftest();
    if (failures.empty()) {
      std::printf("air-faultcamp: watchdog self-test passed (clean flight "
                  "silent, forced miss detected and causally linked)\n");
      return 0;
    }
    for (const fi::Breach& failure : failures) {
      std::printf("air-faultcamp: [%s] %s\n", failure.oracle.c_str(),
                  failure.detail.c_str());
    }
    return 2;
  }

  const fi::CampaignResult result = fi::run_campaign(options);
  std::printf(
      "air-faultcamp: %zu seed(s), %zu injection(s) planned, %zu breached "
      "(%s config)\n",
      result.seeds_run, result.injections_applied, result.failures.size(),
      options.weaken_hm ? "weakened" : "stock");
  for (const fi::SeedResult& failure : result.failures) {
    std::printf("%s\n", failure.report.c_str());
  }
  if (!result.failures.empty() && !options.out_dir.empty()) {
    std::printf("reproducers written to %s\n", options.out_dir.c_str());
  }
  return result.breached() ? 2 : 0;
}
