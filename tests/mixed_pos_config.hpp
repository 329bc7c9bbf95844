// The mixed-POS mission (Sect. 2.5): an RTOS partition running a periodic
// control loop beside a round-robin, Linux-like partition whose tasks try
// to disable the clock interrupt. Shared by the generic-POS suite (which
// pins its trace with a golden digest) and the time-warp property tests.
#pragma once

#include <string>
#include <utility>

#include "pos/workload.hpp"
#include "system/module_config.hpp"

namespace air {

inline system::ModuleConfig mixed_pos_config() {
  system::ModuleConfig config;
  system::PartitionConfig rt;
  rt.name = "RT";
  system::ProcessConfig control;
  control.attrs.name = "control";
  control.attrs.period = 50;
  control.attrs.time_capacity = 50;
  control.attrs.priority = 10;
  control.attrs.script =
      pos::ScriptBuilder{}.compute(10).log("cycle").periodic_wait().build();
  rt.processes.push_back(std::move(control));

  system::PartitionConfig linux_like;
  linux_like.name = "LINUX";
  linux_like.pos_kind = pos::Policy::kRoundRobin;
  for (int i = 0; i < 2; ++i) {
    system::ProcessConfig task;
    task.attrs.name = "task" + std::to_string(i);
    task.attrs.priority = 100;
    task.attrs.script = pos::ScriptBuilder{}
                            .compute(7)
                            .try_disable_clock_irq()
                            .build();
    linux_like.processes.push_back(std::move(task));
  }

  config.partitions.push_back(std::move(rt));
  config.partitions.push_back(std::move(linux_like));

  model::Schedule s;
  s.id = ScheduleId{0};
  s.mtf = 50;
  s.requirements = {{PartitionId{0}, 50, 20}, {PartitionId{1}, 50, 30}};
  s.windows = {{PartitionId{0}, 0, 20}, {PartitionId{1}, 20, 30}};
  config.schedules = {s};
  return config;
}

}  // namespace air
