#include "system/flight_validate.hpp"

#include <algorithm>
#include <sstream>

#include "system/world.hpp"
#include "util/assert.hpp"

namespace air::system {

namespace {

using pos::ScriptBuilder;

/// Chatter peer for switched-bus flights: one beacon partition writing a
/// sampling frame to its ring neighbour every 400 ticks (the constellation
/// satellite, trimmed). Its traffic crosses a switch hop; the candidate
/// module must be unaffected (temporal isolation).
ModuleConfig chatter_peer(int id, int peer) {
  ModuleConfig config;
  config.id = ModuleId{id};
  config.name = "peer" + std::to_string(id);
  config.memory_bytes = 256u << 10;
  config.telemetry.flight_recorder_capacity = 64;
  config.telemetry.spans_capacity = 256;
  constexpr Ticks kMtf = 500;

  PartitionConfig partition;
  partition.name = "chatter";
  partition.sampling_ports.push_back(
      {"OUT", ipc::PortDirection::kSource, 64, kInfiniteTime});
  partition.sampling_ports.push_back(
      {"IN", ipc::PortDirection::kDestination, 64, kInfiniteTime});
  ProcessConfig beacon;
  beacon.attrs.name = "beacon";
  beacon.attrs.priority = 20;
  beacon.attrs.script = ScriptBuilder{}
                            .sampling_write(0, "beacon")
                            .sampling_read(1)
                            .timed_wait(400)
                            .build();
  partition.processes.push_back(std::move(beacon));
  config.partitions.push_back(std::move(partition));

  ipc::ChannelConfig link;
  link.id = ChannelId{0};
  link.kind = ipc::ChannelKind::kSampling;
  link.source = {PartitionId{0}, "OUT"};
  link.remote_destinations = {{ModuleId{peer}, PartitionId{0}, "IN"}};
  config.channels.push_back(std::move(link));

  model::Schedule schedule;
  schedule.id = ScheduleId{0};
  schedule.mtf = kMtf;
  schedule.requirements = {{PartitionId{0}, kMtf, kMtf}};
  schedule.windows = {{PartitionId{0}, 0, kMtf}};
  config.schedules = {schedule};
  return config;
}

/// Switched topology: candidate (station 0) and peer 1 share a switch,
/// peer 2 sits behind a hop, so chatter frames traverse the switch fabric.
net::BusConfig switched_bus_config() {
  net::BusConfig bus;
  bus.slot_length = 1;
  bus.frames_per_slot = 4;
  bus.propagation_delay = 2;
  bus.stations_per_switch = 2;
  bus.switch_hop_delay = 2;
  return bus;
}

[[nodiscard]] std::uint64_t miss_count(const Module& module) {
  return module.trace().count(util::EventKind::kDeadlineMiss);
}

}  // namespace

std::string_view to_string(FlightDriver driver) {
  switch (driver) {
    case FlightDriver::kPerTick: return "per-tick";
    case FlightDriver::kWarped: return "warped";
    case FlightDriver::kLockstep: return "lockstep";
    case FlightDriver::kEpoch: return "epoch";
  }
  return "?";
}

std::optional<model::Schedule> build_schedule(
    const model::Candidate& candidate) {
  if (candidate.windows.empty()) {
    model::GeneratorInput input;
    input.requirements = candidate.requirements;
    input.mtf = candidate.mtf;
    input.name = candidate.name.empty() ? "generated" : candidate.name;
    return model::generate_schedule(input);
  }
  model::Schedule schedule;
  schedule.id = ScheduleId{0};
  schedule.name = candidate.name;
  schedule.mtf = candidate.mtf > 0
                     ? candidate.mtf
                     : model::lcm_of_periods(candidate.requirements);
  schedule.requirements = candidate.requirements;
  schedule.windows = candidate.windows;
  std::sort(schedule.windows.begin(), schedule.windows.end(),
            [](const model::Window& a, const model::Window& b) {
              return a.offset < b.offset;
            });
  if (schedule.mtf <= 0 || !model::validate_schedule(schedule).ok()) {
    return std::nullopt;
  }
  return schedule;
}

ModuleConfig flight_config(const model::Candidate& candidate,
                           const model::Schedule& schedule) {
  ModuleConfig config;
  config.id = ModuleId{0};
  config.name = candidate.name.empty() ? "candidate" : candidate.name;
  config.schedules = {schedule};

  hm::HmTable table;
  table.set(hm::ErrorCode::kDeadlineMissed, hm::ErrorLevel::kProcess,
            hm::RecoveryAction::kIgnore);
  config.module_hm_table = table;

  // Partition slots are indexed by PartitionId value; cover every id the
  // windows reference even when the candidate models only some of them.
  std::int32_t max_id = -1;
  for (const model::PartitionModel& pm : candidate.partitions) {
    max_id = std::max(max_id, pm.id.value());
  }
  for (const model::Window& w : schedule.windows) {
    max_id = std::max(max_id, w.partition.value());
  }
  config.partitions.resize(static_cast<std::size_t>(max_id + 1));
  for (std::size_t p = 0; p < config.partitions.size(); ++p) {
    config.partitions[p].name = 'P' + std::to_string(p);
    config.partitions[p].hm_table = table;
  }

  for (const model::PartitionModel& pm : candidate.partitions) {
    PartitionConfig& partition =
        config.partitions[static_cast<std::size_t>(pm.id.value())];
    if (!pm.name.empty()) partition.name = pm.name;
    for (const model::ProcessModel& proc : pm.processes) {
      if (proc.wcet <= 0 || proc.period <= 0 ||
          proc.period == kInfiniteTime || !proc.periodic) {
        continue;  // flight models periodic compute-only processes
      }
      ProcessConfig process;
      process.attrs.name = proc.name;
      process.attrs.period = proc.period;
      process.attrs.time_capacity = proc.deadline;
      process.attrs.priority = proc.priority;
      // WCET = compute + 1 tick for the completing PERIODIC_WAIT.
      process.attrs.script = ScriptBuilder{}
                                 .compute(std::max<Ticks>(1, proc.wcet - 1))
                                 .periodic_wait()
                                 .build();
      partition.processes.push_back(std::move(process));
    }
  }
  config.trace_enabled = true;
  return config;
}

std::uint64_t fly_candidate(const model::Candidate& candidate,
                            const model::Schedule& schedule,
                            FlightDriver driver,
                            const FlightOptions& options) {
  ModuleConfig config = flight_config(candidate, schedule);
  const Ticks horizon = options.mtfs * schedule.mtf;

  const bool in_world = options.switched_bus ||
                        driver == FlightDriver::kLockstep ||
                        driver == FlightDriver::kEpoch;
  if (!in_world) {
    Module module(std::move(config));
    module.set_time_warp(driver == FlightDriver::kWarped);
    module.run(horizon);
    return miss_count(module);
  }

  World world(options.switched_bus ? switched_bus_config()
                                   : net::BusConfig{});
  Module& module = world.add_module(std::move(config));
  if (options.switched_bus) {
    world.add_module(chatter_peer(1, 2));
    world.add_module(chatter_peer(2, 1));
  }
  // Module drivers map onto world drivers: per-tick = lockstep with the
  // candidate's warp engine off, warped = epochs.
  module.set_time_warp(driver != FlightDriver::kPerTick);
  switch (driver) {
    case FlightDriver::kPerTick:
    case FlightDriver::kLockstep:
      world.run_lockstep(horizon);
      break;
    case FlightDriver::kWarped:
    case FlightDriver::kEpoch:
      world.run(horizon);
      break;
  }
  return miss_count(module);
}

namespace {

/// Evenly strided deterministic sample of `population` indices, at most
/// `cap` of them (first element always included).
std::vector<std::size_t> strided_sample(const std::vector<std::size_t>& population,
                                        std::size_t cap) {
  if (population.size() <= cap || cap == 0) return population;
  std::vector<std::size_t> picked;
  picked.reserve(cap);
  const std::size_t stride = population.size() / cap;
  for (std::size_t i = 0; i < population.size() && picked.size() < cap;
       i += stride) {
    picked.push_back(population[i]);
  }
  return picked;
}

}  // namespace

DifferentialReport validate_differential(
    const std::vector<model::Candidate>& candidates,
    const std::vector<model::BatchVerdict>& verdicts,
    const DifferentialOptions& options) {
  AIR_ASSERT_MSG(candidates.size() == verdicts.size(),
                 "verdicts must be index-aligned with candidates");
  DifferentialReport report;

  std::vector<std::size_t> accepted;
  std::vector<std::size_t> rejected;
  for (std::size_t i = 0; i < verdicts.size(); ++i) {
    if (verdicts[i].verdict == model::Verdict::kSchedulable) {
      accepted.push_back(i);
    } else if (verdicts[i].verdict == model::Verdict::kUnschedulable &&
               verdicts[i].definite) {
      rejected.push_back(i);
    }
  }
  report.accepted_population = accepted.size();
  report.rejected_population = rejected.size();

  const auto diverge = [&](std::size_t i, FlightDriver driver,
                           std::uint64_t misses, std::string_view claim) {
    std::ostringstream os;
    os << "candidate " << verdicts[i].id << " (" << verdicts[i].name
       << "): " << claim << " but " << to_string(driver) << " flight saw "
       << misses << " deadline miss(es)";
    report.divergences.push_back(os.str());
    report.divergent_ids.push_back(verdicts[i].id);
  };

  // Soundness: accepted => miss-free, on every driver.
  for (std::size_t i : strided_sample(accepted, options.max_accepted)) {
    const auto schedule = build_schedule(candidates[i]);
    AIR_ASSERT_MSG(schedule.has_value(),
                   "accepted candidate must have a valid PST");
    ++report.accepted_flown;
    for (FlightDriver driver : kAllFlightDrivers) {
      const std::uint64_t misses =
          fly_candidate(candidates[i], *schedule, driver,
                        {options.accepted_mtfs, options.switched_bus});
      ++report.flights;
      if (misses != 0) {
        diverge(i, driver, misses, "analysis accepted (schedulable)");
      }
    }
  }

  // Necessity: definite rejects => the predicted miss shows up, on every
  // driver (they must agree on the miss, not just on clean flights).
  for (std::size_t i : strided_sample(rejected, options.max_rejected)) {
    const auto schedule = build_schedule(candidates[i]);
    AIR_ASSERT_MSG(schedule.has_value(),
                   "definite reject must still have a valid PST");
    ++report.rejected_flown;
    for (FlightDriver driver : kAllFlightDrivers) {
      const std::uint64_t misses =
          fly_candidate(candidates[i], *schedule, driver,
                        {options.rejected_mtfs, options.switched_bus});
      ++report.flights;
      if (misses == 0) {
        diverge(i, driver, misses,
                "analysis definitely rejected (demand > supply)");
      }
    }
  }
  return report;
}

std::string DifferentialReport::to_text() const {
  std::ostringstream os;
  os << "differential: " << accepted_flown << "/" << accepted_population
     << " accepted and " << rejected_flown << "/" << rejected_population
     << " definite-rejected candidates flown (" << flights << " flights): "
     << (ok() ? "OK" : "DIVERGENT") << '\n';
  for (const std::string& line : divergences) os << "  " << line << '\n';
  return os.str();
}

SelftestReport schedulability_selftest(std::size_t count,
                                       std::uint64_t seed) {
  SelftestReport report;
  model::CandidateSpec spec;
  spec.count = count;
  spec.seed = seed;
  spec.overload_fraction = 0.4;  // plenty of definite rejects to flip
  const auto candidates = model::generate_candidates(spec);
  report.candidates = candidates.size();

  model::BatchOptions sound_options;
  model::BatchAnalyzer sound(sound_options);
  model::BatchOptions weak_options;
  // The mutation: pretend every inversion has 48 free ticks of supply --
  // an off-by-a-window-sized-chunk unsound analysis.
  weak_options.analysis.supply_bonus = 48;
  model::BatchAnalyzer weak(weak_options);

  const auto sound_verdicts = sound.analyze(candidates);
  const auto weak_verdicts = weak.analyze(candidates);

  constexpr std::size_t kMaxFlights = 8;
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    const bool flipped =
        weak_verdicts[i].verdict == model::Verdict::kSchedulable &&
        sound_verdicts[i].verdict == model::Verdict::kUnschedulable &&
        sound_verdicts[i].definite;
    if (!flipped) continue;
    ++report.flipped;
    if (report.flown >= kMaxFlights) continue;
    const auto schedule = build_schedule(candidates[i]);
    AIR_ASSERT(schedule.has_value());
    ++report.flown;
    if (fly_candidate(candidates[i], *schedule, FlightDriver::kWarped,
                      {.mtfs = 40}) > 0) {
      ++report.divergent;
    }
  }
  return report;
}

std::string SelftestReport::to_text() const {
  std::ostringstream os;
  os << "selftest: " << candidates << " candidates, " << flipped
     << " unsoundly accepted by the mutated analysis, " << flown
     << " flown, " << divergent << " missed in flight: "
     << (caught() ? "mutation CAUGHT (pipeline works)"
                  : "mutation NOT caught (pipeline broken)")
     << '\n';
  return os.str();
}

}  // namespace air::system
