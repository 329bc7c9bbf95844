#include "config/constellation.hpp"

#include <string>
#include <utility>

namespace air::scenarios {

system::ModuleConfig satellite(int id, int nmodules) {
  system::ModuleConfig config;
  config.id = ModuleId{id};
  config.name = "sat" + std::to_string(id);
  config.memory_bytes = 256u << 10;
  config.telemetry.flight_recorder_capacity = 64;
  config.telemetry.spans_capacity = 256;
  constexpr Ticks kMtf = 500;

  system::PartitionConfig partition;
  partition.name = "flight";
  partition.sampling_ports.push_back(
      {"OUT", ipc::PortDirection::kSource, 64, kInfiniteTime});
  partition.sampling_ports.push_back(
      {"IN", ipc::PortDirection::kDestination, 64, kInfiniteTime});
  system::ProcessConfig chatter;
  chatter.attrs.name = "chatter";
  chatter.attrs.priority = 20;
  chatter.attrs.script = pos::ScriptBuilder{}
                             .sampling_write(0, "beacon")
                             .sampling_read(1)
                             .timed_wait(400)
                             .build();
  partition.processes.push_back(std::move(chatter));
  config.partitions.push_back(std::move(partition));

  ipc::ChannelConfig ring;
  ring.id = ChannelId{0};
  ring.kind = ipc::ChannelKind::kSampling;
  ring.source = {PartitionId{0}, "OUT"};
  ring.remote_destinations = {
      {ModuleId{(id + 1) % nmodules}, PartitionId{0}, "IN"}};
  config.channels.push_back(std::move(ring));

  model::Schedule schedule;
  schedule.id = ScheduleId{0};
  schedule.mtf = kMtf;
  schedule.requirements = {{PartitionId{0}, kMtf, kMtf}};
  schedule.windows = {{PartitionId{0}, 0, kMtf}};
  config.schedules = {schedule};
  return config;
}

std::unique_ptr<system::World> build_constellation(int nmodules,
                                                   std::size_t per_switch) {
  // Slot geometry sized so a switch cycle (8 stations x 1-tick slots) drains
  // a full beacon burst within ~10 ticks of the ~400-tick beacon period --
  // the switched bus then goes quiet and the epoch driver warps the
  // constellation across the long gap. Short cycles matter twice over: each
  // occupied TDMA slot tick is a delivery tick, and every delivery tick
  // bounds an epoch, so an 8-tick cycle costs ~10 short epochs per burst
  // where a 2 * N flat cycle (2000 ticks at 1000 stations) never drains at
  // all and pins the whole constellation to propagation-length epochs.
  auto world = std::make_unique<system::World>(
      net::BusConfig{.slot_length = 1,
                     .frames_per_slot = 4,
                     .propagation_delay = 2,
                     .stations_per_switch = per_switch,
                     .switch_hop_delay = 2});
  for (int m = 0; m < nmodules; ++m) {
    world->add_module(satellite(m, nmodules));
    // Every beacon rides a reserved virtual link with a bandwidth budget
    // matching its ~400-tick period and a generous jitter budget, so the
    // VL accounting is on the hot path without gating the steady state.
    world->bus().define_virtual_link({ModuleId{m},
                                      ModuleId{(m + 1) % nmodules},
                                      /*min_gap=*/100,
                                      /*jitter_budget=*/kInfiniteTime});
  }
  return world;
}

}  // namespace air::scenarios
