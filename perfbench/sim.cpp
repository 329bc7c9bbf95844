#include "sim.hpp"

#include "ipc/payload.hpp"
#include "telemetry/export.hpp"

namespace perfbench {

using air::telemetry::Metric;

void LayerCounts::add(air::system::Module& module) {
  (void)module.metrics_snapshot();  // scrape the batched layer counters
  const auto& registry = module.metrics();
  schedule_switches += registry.counter_total(Metric::kScheduleSwitches);
  deadline_checks += registry.counter_total(Metric::kDeadlineChecks);
  deadline_misses += registry.counter_total(Metric::kDeadlineMisses);
  process_dispatches += registry.counter_total(Metric::kProcessDispatches);
  ipc_messages += registry.counter_total(Metric::kIpcMessages);
  hm_errors += registry.counter_total(Metric::kHmErrors);
  tlb_hits += registry.counter_total(Metric::kTlbHits);
  tlb_misses += registry.counter_total(Metric::kTlbMisses);
  stepped_ticks += module.warp_stats().stepped_ticks;
  warped_ticks += module.warp_stats().warped_ticks;
  pool_heap_allocs = air::ipc::Payload::pool_stats().heap_allocs;
}

void SetupTimes::add_layers(Report& report) const {
  report.add("config.load_ms", fastest(load_s) * 1e3, "ms");
  report.add("system.module_build_ms", fastest(build_s) * 1e3, "ms");
  report.add("system.teardown_ms", fastest(teardown_s) * 1e3, "ms");
}

void add_count_metrics(Report& report, const LayerCounts& before,
                       const LayerCounts& after, std::size_t chunks) {
  const auto per_chunk = [&](const char* name, std::uint64_t a,
                             std::uint64_t b) {
    report.add_count(name,
                     static_cast<double>(b - a) / static_cast<double>(chunks),
                     "count/chunk");
  };
  const auto share = [](std::uint64_t part, std::uint64_t rest) {
    const double sum = static_cast<double>(part) + static_cast<double>(rest);
    return sum > 0 ? static_cast<double>(part) / sum : 0.0;
  };
  per_chunk("pmk.schedule_switches", before.schedule_switches,
            after.schedule_switches);
  per_chunk("pal.deadline_checks", before.deadline_checks,
            after.deadline_checks);
  per_chunk("pal.deadline_misses", before.deadline_misses,
            after.deadline_misses);
  per_chunk("pos.process_dispatches", before.process_dispatches,
            after.process_dispatches);
  per_chunk("ipc.messages", before.ipc_messages, after.ipc_messages);
  per_chunk("ipc.pool_spills", before.pool_heap_allocs,
            after.pool_heap_allocs);
  per_chunk("hm.errors", before.hm_errors, after.hm_errors);
  report.add_count("hal.tlb_hit_rate",
                   share(after.tlb_hits - before.tlb_hits,
                         after.tlb_misses - before.tlb_misses),
                   "frac");
  report.add_count("system.stepped_frac",
                   share(after.stepped_ticks - before.stepped_ticks,
                         after.warped_ticks - before.warped_ticks),
                   "frac");
}

std::uint64_t module_digest(air::system::Module& module) {
  const std::uint64_t hash = fnv1a(module.trace().to_text());
  return fnv1a(air::telemetry::to_json(module.metrics_snapshot(), 0), hash);
}

}  // namespace perfbench
