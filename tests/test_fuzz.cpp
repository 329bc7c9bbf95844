// Randomised whole-module property tests.
//
// Each seed generates a random module -- partitions (RT and generic POS),
// processes with random workload scripts, intrapartition objects, sampling
// and queuing channels, HM policies -- over a PST produced by the EDF
// generator (valid by construction), runs it for thousands of ticks and
// checks global invariants:
//   * temporal partitioning: at every tick the dispatched partition is
//     exactly the one the PST assigns to that offset;
//   * trace time is monotone;
//   * deadline misses only happen to processes with finite time capacity;
//   * kernels stay consistent (at most one running process per partition);
//   * the module never crashes or hangs.
#include <gtest/gtest.h>

#include <map>

#include "model/generator.hpp"
#include "system/module.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace air {
namespace {

using pos::ScriptBuilder;

struct GeneratedSystem {
  system::ModuleConfig config;
  model::Schedule schedule;
};

pos::Script random_script(util::Rng& rng, bool periodic, int semaphores,
                          int buffers, int sampling_ports,
                          int queuing_ports) {
  ScriptBuilder script;
  const int ops = static_cast<int>(rng.uniform(1, 5));
  for (int i = 0; i < ops; ++i) {
    switch (rng.uniform(0, 9)) {
      case 0:
      case 1:
      case 2:
        script.compute(rng.uniform(1, 40));
        break;
      case 3:
        script.timed_wait(rng.uniform(1, 60));
        break;
      case 4:
        if (semaphores > 0) {
          const auto sem =
              static_cast<std::int32_t>(rng.uniform(0, semaphores - 1));
          script.sem_wait(sem, rng.uniform(0, 50));
          script.sem_signal(sem);
        } else {
          script.compute(rng.uniform(1, 10));
        }
        break;
      case 5:
        if (buffers > 0) {
          const auto buf =
              static_cast<std::int32_t>(rng.uniform(0, buffers - 1));
          if (rng.chance(0.5)) {
            script.buffer_send(buf, "m", rng.uniform(0, 40));
          } else {
            script.buffer_receive(buf, rng.uniform(0, 40));
          }
        } else {
          script.compute(1);
        }
        break;
      case 6:
        if (sampling_ports > 0) {
          const auto port =
              static_cast<std::int32_t>(rng.uniform(0, sampling_ports - 1));
          if (rng.chance(0.5)) {
            script.sampling_write(port, "sample");
          } else {
            script.sampling_read(port);
          }
        } else {
          script.compute(1);
        }
        break;
      case 7:
        if (queuing_ports > 0) {
          const auto port =
              static_cast<std::int32_t>(rng.uniform(0, queuing_ports - 1));
          if (rng.chance(0.5)) {
            script.queuing_send(port, "q", rng.uniform(0, 30));
          } else {
            script.queuing_receive(port, rng.uniform(0, 30));
          }
        } else {
          script.compute(1);
        }
        break;
      case 8:
        if (rng.chance(0.2)) {
          script.raise_error(static_cast<std::int32_t>(rng.uniform(1, 99)),
                             "fuzz");
        } else if (rng.chance(0.3)) {
          script.memory_access(
              rng.chance(0.7) ? pmk::kAppDataBase
                              : static_cast<std::uint32_t>(0x7000'0000),
              rng.chance(0.5));
        } else {
          script.log("fuzz");
        }
        break;
      default:
        script.compute(rng.uniform(1, 20));
    }
  }
  if (periodic) {
    script.periodic_wait();
  } else if (rng.chance(0.5)) {
    script.timed_wait(rng.uniform(5, 80));
  }
  return script.build();
}

GeneratedSystem generate_system(std::uint64_t seed) {
  util::Rng rng(seed);
  GeneratedSystem out;
  auto& config = out.config;
  config.name = "fuzz-" + std::to_string(seed);

  const int partitions = static_cast<int>(rng.uniform(2, 5));

  // PST from random requirements via the EDF generator: always valid.
  static constexpr Ticks kPeriods[] = {60, 120, 240};
  std::vector<model::ScheduleRequirement> reqs;
  double budget = 0.85;
  for (int p = 0; p < partitions; ++p) {
    const Ticks period =
        kPeriods[static_cast<std::size_t>(rng.uniform(0, 2))];
    const double share = budget / static_cast<double>(partitions - p) *
                         (0.6 + rng.uniform01() * 0.4);
    const Ticks duration = std::max<Ticks>(
        4, static_cast<Ticks>(share * static_cast<double>(period)));
    budget -= static_cast<double>(duration) / static_cast<double>(period);
    reqs.push_back({PartitionId{p}, period, duration});
  }
  model::GeneratorInput input;
  input.requirements = reqs;
  auto schedule = model::generate_schedule(input);
  AIR_ASSERT_MSG(schedule.has_value(), "generator rejected feasible input");
  out.schedule = *schedule;
  config.schedules = {*schedule};

  for (int p = 0; p < partitions; ++p) {
    system::PartitionConfig partition;
    partition.name = "P" + std::to_string(p);
    partition.pos_kind =
        rng.chance(0.25) ? pos::Policy::kRoundRobin : pos::Policy::kRt;
    partition.deadline_registry = rng.chance(0.5)
                                      ? pal::RegistryKind::kLinkedList
                                      : pal::RegistryKind::kTree;
    const int semaphores = static_cast<int>(rng.uniform(0, 2));
    for (int s = 0; s < semaphores; ++s) {
      partition.semaphores.push_back(
          {"sem" + std::to_string(s),
           static_cast<std::int32_t>(rng.uniform(0, 1)), 4});
    }
    const int buffers = static_cast<int>(rng.uniform(0, 2));
    for (int b = 0; b < buffers; ++b) {
      partition.buffers.push_back({"buf" + std::to_string(b), 32, 3});
    }
    // One sampling + one queuing port per partition, randomly wired below.
    partition.sampling_ports.push_back(
        {"S", rng.chance(0.5) ? ipc::PortDirection::kSource
                              : ipc::PortDirection::kDestination,
         32, rng.uniform(50, 500)});
    partition.queuing_ports.push_back(
        {"Q", rng.chance(0.5) ? ipc::PortDirection::kSource
                              : ipc::PortDirection::kDestination,
         32, static_cast<std::size_t>(rng.uniform(2, 6))});

    const int processes = static_cast<int>(rng.uniform(1, 3));
    for (int q = 0; q < processes; ++q) {
      system::ProcessConfig process;
      process.attrs.name = "proc" + std::to_string(q);
      const bool periodic = rng.chance(0.6);
      if (periodic) {
        const Ticks part_period = reqs[static_cast<std::size_t>(p)].period;
        process.attrs.period = part_period * rng.uniform(1, 3);
        process.attrs.time_capacity =
            rng.chance(0.5) ? process.attrs.period : kInfiniteTime;
      }
      process.attrs.priority =
          static_cast<Priority>(rng.uniform(1, 60));
      process.attrs.script =
          random_script(rng, periodic, semaphores, buffers, 1, 1);
      process.auto_start = rng.chance(0.9);
      partition.processes.push_back(std::move(process));
    }
    if (rng.chance(0.3)) {
      partition.error_handler =
          ScriptBuilder{}.log("handled").stop_self().build();
    }
    // Containment-friendly random HM policy.
    partition.hm_table.set(
        hm::ErrorCode::kDeadlineMissed, hm::ErrorLevel::kProcess,
        rng.chance(0.7) ? hm::RecoveryAction::kIgnore
                        : hm::RecoveryAction::kStopProcess);
    partition.hm_table.set(
        hm::ErrorCode::kApplicationError, hm::ErrorLevel::kProcess,
        rng.chance(0.5) ? hm::RecoveryAction::kIgnore
                        : hm::RecoveryAction::kRestartProcess,
        static_cast<std::uint32_t>(rng.uniform(1, 3)));
    partition.hm_table.set(hm::ErrorCode::kMemoryViolation,
                           hm::ErrorLevel::kProcess,
                           hm::RecoveryAction::kStopProcess);
    config.partitions.push_back(std::move(partition));
  }

  // Wire channels between compatible port pairs.
  for (int src = 0; src < partitions; ++src) {
    if (config.partitions[static_cast<std::size_t>(src)]
            .sampling_ports[0]
            .direction != ipc::PortDirection::kSource) {
      continue;
    }
    ipc::ChannelConfig channel;
    channel.id = ChannelId{src};
    channel.kind = ipc::ChannelKind::kSampling;
    channel.source = {PartitionId{src}, "S"};
    for (int dst = 0; dst < partitions; ++dst) {
      if (dst != src &&
          config.partitions[static_cast<std::size_t>(dst)]
                  .sampling_ports[0]
                  .direction == ipc::PortDirection::kDestination) {
        channel.local_destinations.push_back({PartitionId{dst}, "S"});
      }
    }
    if (!channel.local_destinations.empty()) {
      config.channels.push_back(std::move(channel));
    }
  }
  for (int src = 0; src < partitions; ++src) {
    if (config.partitions[static_cast<std::size_t>(src)]
            .queuing_ports[0]
            .direction != ipc::PortDirection::kSource) {
      continue;
    }
    for (int dst = 0; dst < partitions; ++dst) {
      if (dst != src &&
          config.partitions[static_cast<std::size_t>(dst)]
                  .queuing_ports[0]
                  .direction == ipc::PortDirection::kDestination) {
        ipc::ChannelConfig channel;
        channel.id = ChannelId{100 + src};
        channel.kind = ipc::ChannelKind::kQueuing;
        channel.source = {PartitionId{src}, "Q"};
        channel.local_destinations = {{PartitionId{dst}, "Q"}};
        config.channels.push_back(std::move(channel));
        break;
      }
    }
  }
  return out;
}

class ModuleFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ModuleFuzz, InvariantsHoldOverThousandsOfTicks) {
  GeneratedSystem generated = generate_system(GetParam());
  const model::Schedule schedule = generated.schedule;
  system::Module module(std::move(generated.config));

  const auto owner_at = [&schedule](Ticks t) -> std::int64_t {
    const Ticks offset = t % schedule.mtf;
    for (const auto& w : schedule.windows) {
      if (offset >= w.offset && offset < w.offset + w.duration) {
        return w.partition.value();
      }
    }
    return -1;
  };

  const Ticks horizon = 4000;
  for (Ticks t = 0; t < horizon; ++t) {
    module.tick_once();
    if (module.stopped()) break;
    // Temporal partitioning: the dispatched partition is the PST owner.
    const PartitionId active = module.dispatcher().active_partition();
    ASSERT_EQ(active.valid() ? active.value() : -1, owner_at(t))
        << "seed " << GetParam() << " tick " << t;
  }

  // Trace sanity: monotone time, valid partition indices.
  Ticks previous = -1;
  for (const auto& event : module.trace().events()) {
    ASSERT_GE(event.time, previous);
    previous = event.time;
    if (event.kind == util::EventKind::kDeadlineMiss) {
      // Only deadline-bearing processes may miss.
      const auto partition = PartitionId{static_cast<std::int32_t>(event.a)};
      const auto* pcb = module.kernel(partition).pcb(
          ProcessId{static_cast<std::int32_t>(event.b)});
      ASSERT_NE(pcb, nullptr);
      ASSERT_NE(pcb->attrs.time_capacity, kInfiniteTime)
          << "seed " << GetParam();
    }
  }

  // Kernel consistency: at most one running process per partition, and the
  // running one is the kernel's current process.
  for (std::size_t p = 0; p < module.partition_count(); ++p) {
    const auto id = PartitionId{static_cast<std::int32_t>(p)};
    auto& kernel = module.kernel(id);
    int running = 0;
    for (std::size_t q = 0; q < kernel.process_count(); ++q) {
      const auto* pcb = kernel.pcb(ProcessId{static_cast<std::int32_t>(q)});
      if (pcb->state == pos::ProcessState::kRunning) {
        ++running;
        ASSERT_EQ(kernel.current(), pcb->id);
      }
    }
    ASSERT_LE(running, 1) << "seed " << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ModuleFuzz,
                         ::testing::Range<std::uint64_t>(1, 49));

}  // namespace
}  // namespace air
