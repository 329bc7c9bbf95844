#include "config/export.hpp"

#include <algorithm>
#include <variant>

#include "util/json.hpp"

// Every object's members are written in name order, the schema's canonical
// layout, so an exported file diffs cleanly against an earlier export.
namespace air::config {

namespace {

using util::json::Writer;

std::int64_t time_out(Ticks t) { return t == kInfiniteTime ? -1 : t; }

const std::string& partition_name(const system::ModuleConfig& config,
                                  PartitionId id) {
  return config.partitions[static_cast<std::size_t>(id.value())].name;
}

void write_op(Writer& w, const pos::Op& op) {
  w.begin_object();
  const auto name = [&w](const char* op_name) -> Writer& {
    return w.key("op").string(op_name);
  };
  std::visit(
      [&](const auto& v) {
        using T = std::decay_t<decltype(v)>;
        if constexpr (std::is_same_v<T, pos::OpCompute>) {
          name("compute").key("ticks").integer(v.ticks);
        } else if constexpr (std::is_same_v<T, pos::OpPeriodicWait>) {
          name("periodic_wait");
        } else if constexpr (std::is_same_v<T, pos::OpSporadicWait>) {
          name("sporadic_wait");
        } else if constexpr (std::is_same_v<T, pos::OpReleaseProcess>) {
          name("release_process").key("process").string(v.process);
        } else if constexpr (std::is_same_v<T, pos::OpTimedWait>) {
          w.key("delay").integer(v.delay);
          name("timed_wait");
        } else if constexpr (std::is_same_v<T, pos::OpSuspendSelf>) {
          name("suspend_self").key("timeout").integer(time_out(v.timeout));
        } else if constexpr (std::is_same_v<T, pos::OpStopSelf>) {
          name("stop_self");
        } else if constexpr (std::is_same_v<T, pos::OpReplenish>) {
          w.key("budget").integer(v.budget);
          name("replenish");
        } else if constexpr (std::is_same_v<T, pos::OpLockPreemption>) {
          name("lock_preemption");
        } else if constexpr (std::is_same_v<T, pos::OpUnlockPreemption>) {
          name("unlock_preemption");
        } else if constexpr (std::is_same_v<T, pos::OpSemWait>) {
          name("sem_wait").key("semaphore").integer(v.semaphore);
          w.key("timeout").integer(time_out(v.timeout));
        } else if constexpr (std::is_same_v<T, pos::OpSemSignal>) {
          name("sem_signal").key("semaphore").integer(v.semaphore);
        } else if constexpr (std::is_same_v<T, pos::OpEventSet>) {
          w.key("event").integer(v.event);
          name("event_set");
        } else if constexpr (std::is_same_v<T, pos::OpEventReset>) {
          w.key("event").integer(v.event);
          name("event_reset");
        } else if constexpr (std::is_same_v<T, pos::OpEventWait>) {
          w.key("event").integer(v.event);
          name("event_wait").key("timeout").integer(time_out(v.timeout));
        } else if constexpr (std::is_same_v<T, pos::OpBufferSend>) {
          w.key("buffer").integer(v.buffer).key("message").string(v.message);
          name("buffer_send").key("timeout").integer(time_out(v.timeout));
        } else if constexpr (std::is_same_v<T, pos::OpBufferReceive>) {
          w.key("buffer").integer(v.buffer);
          name("buffer_receive").key("timeout").integer(time_out(v.timeout));
        } else if constexpr (std::is_same_v<T, pos::OpBlackboardDisplay>) {
          w.key("blackboard").integer(v.blackboard);
          w.key("message").string(v.message);
          name("blackboard_display");
        } else if constexpr (std::is_same_v<T, pos::OpBlackboardRead>) {
          w.key("blackboard").integer(v.blackboard);
          name("blackboard_read").key("timeout").integer(time_out(v.timeout));
        } else if constexpr (std::is_same_v<T, pos::OpSamplingWrite>) {
          w.key("message").string(v.message);
          name("sampling_write").key("port").integer(v.port);
        } else if constexpr (std::is_same_v<T, pos::OpSamplingRead>) {
          name("sampling_read").key("port").integer(v.port);
        } else if constexpr (std::is_same_v<T, pos::OpQueuingSend>) {
          w.key("message").string(v.message);
          name("queuing_send").key("port").integer(v.port);
          w.key("timeout").integer(time_out(v.timeout));
        } else if constexpr (std::is_same_v<T, pos::OpQueuingReceive>) {
          name("queuing_receive").key("port").integer(v.port);
          w.key("timeout").integer(time_out(v.timeout));
        } else if constexpr (std::is_same_v<T, pos::OpSetModuleSchedule>) {
          name("set_module_schedule").key("schedule").integer(v.schedule);
        } else if constexpr (std::is_same_v<T, pos::OpRaiseError>) {
          w.key("code").integer(v.code).key("message").string(v.message);
          name("raise_error");
        } else if constexpr (std::is_same_v<T, pos::OpTryDisableClockIrq>) {
          name("try_disable_clock_irq");
        } else if constexpr (std::is_same_v<T, pos::OpMemoryAccess>) {
          name("memory_access").key("vaddr").integer(v.vaddr);
          w.key("write").boolean(v.write);
        } else if constexpr (std::is_same_v<T, pos::OpStopProcess>) {
          name("stop_process").key("process").string(v.process);
        } else if constexpr (std::is_same_v<T, pos::OpStartProcess>) {
          name("start_process").key("process").string(v.process);
        } else if constexpr (std::is_same_v<T, pos::OpLog>) {
          name("log").key("text").string(v.text);
        } else if constexpr (std::is_same_v<T, pos::OpGoto>) {
          name("goto").key("target").integer(v.target);
        }
      },
      op);
  w.end_object();
}

void write_script(Writer& w, const pos::Script& script) {
  w.begin_array();
  for (const auto& op : script) write_op(w, op);
  w.end_array();
}

void write_hm_table(Writer& w, const hm::HmTable& table) {
  w.begin_array();
  for (const auto& [key, entry] : table.entries()) {
    w.begin_object().key("action").string(to_string(entry.action));
    w.key("error").string(to_string(key.first));
    w.key("level").string(to_string(key.second));
    w.key("threshold").integer(entry.log_threshold).end_object();
  }
  w.end_array();
}

const char* direction_name(ipc::PortDirection d) {
  return d == ipc::PortDirection::kSource ? "source" : "destination";
}

const char* discipline_name(ipc::QueuingDiscipline d) {
  return d == ipc::QueuingDiscipline::kFifo ? "fifo" : "priority";
}

void write_partition(Writer& w, const system::PartitionConfig& p) {
  w.begin_object().key("blackboards").begin_array();
  for (const auto& bb : p.blackboards) {
    w.begin_object().key("max_bytes").integer(bb.max_message_bytes);
    w.key("name").string(bb.name).end_object();
  }
  w.end_array().key("buffers").begin_array();
  for (const auto& buffer : p.buffers) {
    w.begin_object().key("capacity").integer(buffer.capacity);
    w.key("discipline").string(discipline_name(buffer.discipline));
    w.key("max_bytes").integer(buffer.max_message_bytes);
    w.key("name").string(buffer.name).end_object();
  }
  w.end_array();
  if (!p.error_handler.empty()) {
    write_script(w.key("error_handler"), p.error_handler);
  }
  w.key("events").begin_array();
  for (const auto& event : p.events) {
    w.begin_object().key("name").string(event.name).end_object();
  }
  w.end_array();
  write_hm_table(w.key("hm_table"), p.hm_table);
  w.key("name").string(p.name);
  w.key("pos").string(p.pos_kind == pos::Policy::kRoundRobin ? "generic"
                                                             : "rt");
  w.key("processes").begin_array();
  for (const auto& process : p.processes) {
    w.begin_object().key("auto_start").boolean(process.auto_start);
    w.key("name").string(process.attrs.name);
    w.key("period").integer(time_out(process.attrs.period));
    w.key("priority").integer(process.attrs.priority);
    write_script(w.key("script"), process.attrs.script);
    w.key("sporadic").boolean(process.attrs.sporadic);
    w.key("stack_bytes").integer(process.attrs.stack_bytes);
    w.key("time_capacity").integer(time_out(process.attrs.time_capacity));
    w.end_object();
  }
  w.end_array().key("queuing_ports").begin_array();
  for (const auto& port : p.queuing_ports) {
    w.begin_object().key("capacity").integer(port.capacity);
    w.key("direction").string(direction_name(port.direction));
    w.key("discipline").string(discipline_name(port.discipline));
    w.key("max_bytes").integer(port.max_message_bytes);
    w.key("name").string(port.name).end_object();
  }
  w.end_array();
  w.key("registry").string(
      p.deadline_registry == pal::RegistryKind::kTree ? "tree" : "list");
  w.key("sampling_ports").begin_array();
  for (const auto& port : p.sampling_ports) {
    w.begin_object().key("direction").string(direction_name(port.direction));
    w.key("max_bytes").integer(port.max_message_bytes);
    w.key("name").string(port.name);
    w.key("refresh").integer(time_out(port.refresh_period)).end_object();
  }
  w.end_array().key("semaphores").begin_array();
  for (const auto& sem : p.semaphores) {
    w.begin_object().key("discipline").string(discipline_name(sem.discipline));
    w.key("initial").integer(sem.initial).key("maximum").integer(sem.maximum);
    w.key("name").string(sem.name).end_object();
  }
  w.end_array().key("system").boolean(p.system_partition).end_object();
}

void write_schedule(Writer& w, const model::Schedule& s,
                    const system::ModuleConfig& config) {
  w.begin_object();
  const auto& actions = config.change_actions;
  if (std::any_of(actions.begin(), actions.end(),
                  [&s](const auto& a) { return a.first.first == s.id; })) {
    w.key("change_actions").begin_array();
    for (const auto& [key, action] : actions) {
      if (key.first != s.id) continue;
      w.begin_object().key("action").string(
          action == pmk::ScheduleChangeAction::kWarmRestart   ? "warm_restart"
          : action == pmk::ScheduleChangeAction::kColdRestart ? "cold_restart"
                                                              : "none");
      w.key("partition").string(partition_name(config, key.second));
      w.end_object();
    }
    w.end_array();
  }
  w.key("id").integer(s.id.value()).key("mtf").integer(s.mtf);
  w.key("name").string(s.name).key("requirements").begin_array();
  for (const auto& req : s.requirements) {
    w.begin_object().key("duration").integer(req.duration);
    w.key("partition").string(partition_name(config, req.partition));
    w.key("period").integer(req.period).end_object();
  }
  w.end_array().key("windows").begin_array();
  for (const auto& win : s.windows) {
    w.begin_object().key("duration").integer(win.duration);
    w.key("offset").integer(win.offset);
    w.key("partition").string(partition_name(config, win.partition));
    w.end_object();
  }
  w.end_array().end_object();
}

}  // namespace

std::string to_json(const system::ModuleConfig& config) {
  std::string out;
  Writer w(out, 2);
  w.begin_object().key("channels").begin_array();
  for (const auto& channel : config.channels) {
    w.begin_object().key("destinations").begin_array();
    for (const auto& dest : channel.local_destinations) {
      w.begin_object().key("partition");
      w.string(partition_name(config, dest.partition));
      w.key("port").string(dest.port).end_object();
    }
    for (const auto& dest : channel.remote_destinations) {
      w.begin_object().key("module").integer(dest.module.value());
      w.key("partition_id").integer(dest.partition.value());
      w.key("port").string(dest.port).end_object();
    }
    w.end_array().key("kind").string(
        channel.kind == ipc::ChannelKind::kSampling ? "sampling" : "queuing");
    w.key("source").begin_object();
    w.key("partition").string(partition_name(config, channel.source.partition));
    w.key("port").string(channel.source.port).end_object().end_object();
  }
  w.end_array();

  // Schedules: the flat list plus, for multicore configs, the per-core id
  // references. When `cores` is set, the flat list is the union.
  if (!config.cores.empty()) {
    w.key("cores").begin_array();
    for (const auto& core : config.cores) {
      w.begin_object();
      w.key("initial_schedule").integer(core.initial_schedule.value());
      w.key("schedules").begin_array();
      for (const auto& s : core.schedules) w.integer(s.id.value());
      w.end_array().end_object();
    }
    w.end_array();
  }
  w.key("id").integer(config.id.value());
  w.key("initial_schedule").integer(config.initial_schedule.value());
  w.key("memory_bytes").integer(config.memory_bytes);
  write_hm_table(w.key("module_hm_table"), config.module_hm_table);
  w.key("name").string(config.name).key("partitions").begin_array();
  for (const auto& p : config.partitions) write_partition(w, p);
  w.end_array().key("schedules").begin_array();
  if (config.cores.empty()) {
    for (const auto& s : config.schedules) write_schedule(w, s, config);
  } else {
    for (const auto& core : config.cores) {
      for (const auto& s : core.schedules) write_schedule(w, s, config);
    }
  }
  w.end_array().key("validate").boolean(config.validate).end_object();
  return out;
}

}  // namespace air::config
