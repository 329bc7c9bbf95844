#include "config/export.hpp"

#include <variant>

#include "util/json.hpp"

namespace air::config {

namespace {

using util::json::Array;
using util::json::Object;
using util::json::Value;

std::int64_t time_out(Ticks t) { return t == kInfiniteTime ? -1 : t; }

Value op_to_json(const pos::Op& op) {
  Object o;
  std::visit(
      [&](const auto& v) {
        using T = std::decay_t<decltype(v)>;
        if constexpr (std::is_same_v<T, pos::OpCompute>) {
          o["op"] = Value{"compute"};
          o["ticks"] = Value{v.ticks};
        } else if constexpr (std::is_same_v<T, pos::OpPeriodicWait>) {
          o["op"] = Value{"periodic_wait"};
        } else if constexpr (std::is_same_v<T, pos::OpSporadicWait>) {
          o["op"] = Value{"sporadic_wait"};
        } else if constexpr (std::is_same_v<T, pos::OpReleaseProcess>) {
          o["op"] = Value{"release_process"};
          o["process"] = Value{v.process};
        } else if constexpr (std::is_same_v<T, pos::OpTimedWait>) {
          o["op"] = Value{"timed_wait"};
          o["delay"] = Value{v.delay};
        } else if constexpr (std::is_same_v<T, pos::OpSuspendSelf>) {
          o["op"] = Value{"suspend_self"};
          o["timeout"] = Value{time_out(v.timeout)};
        } else if constexpr (std::is_same_v<T, pos::OpStopSelf>) {
          o["op"] = Value{"stop_self"};
        } else if constexpr (std::is_same_v<T, pos::OpReplenish>) {
          o["op"] = Value{"replenish"};
          o["budget"] = Value{v.budget};
        } else if constexpr (std::is_same_v<T, pos::OpLockPreemption>) {
          o["op"] = Value{"lock_preemption"};
        } else if constexpr (std::is_same_v<T, pos::OpUnlockPreemption>) {
          o["op"] = Value{"unlock_preemption"};
        } else if constexpr (std::is_same_v<T, pos::OpSemWait>) {
          o["op"] = Value{"sem_wait"};
          o["semaphore"] = Value{v.semaphore};
          o["timeout"] = Value{time_out(v.timeout)};
        } else if constexpr (std::is_same_v<T, pos::OpSemSignal>) {
          o["op"] = Value{"sem_signal"};
          o["semaphore"] = Value{v.semaphore};
        } else if constexpr (std::is_same_v<T, pos::OpEventSet>) {
          o["op"] = Value{"event_set"};
          o["event"] = Value{v.event};
        } else if constexpr (std::is_same_v<T, pos::OpEventReset>) {
          o["op"] = Value{"event_reset"};
          o["event"] = Value{v.event};
        } else if constexpr (std::is_same_v<T, pos::OpEventWait>) {
          o["op"] = Value{"event_wait"};
          o["event"] = Value{v.event};
          o["timeout"] = Value{time_out(v.timeout)};
        } else if constexpr (std::is_same_v<T, pos::OpBufferSend>) {
          o["op"] = Value{"buffer_send"};
          o["buffer"] = Value{v.buffer};
          o["message"] = Value{v.message};
          o["timeout"] = Value{time_out(v.timeout)};
        } else if constexpr (std::is_same_v<T, pos::OpBufferReceive>) {
          o["op"] = Value{"buffer_receive"};
          o["buffer"] = Value{v.buffer};
          o["timeout"] = Value{time_out(v.timeout)};
        } else if constexpr (std::is_same_v<T, pos::OpBlackboardDisplay>) {
          o["op"] = Value{"blackboard_display"};
          o["blackboard"] = Value{v.blackboard};
          o["message"] = Value{v.message};
        } else if constexpr (std::is_same_v<T, pos::OpBlackboardRead>) {
          o["op"] = Value{"blackboard_read"};
          o["blackboard"] = Value{v.blackboard};
          o["timeout"] = Value{time_out(v.timeout)};
        } else if constexpr (std::is_same_v<T, pos::OpSamplingWrite>) {
          o["op"] = Value{"sampling_write"};
          o["port"] = Value{v.port};
          o["message"] = Value{v.message};
        } else if constexpr (std::is_same_v<T, pos::OpSamplingRead>) {
          o["op"] = Value{"sampling_read"};
          o["port"] = Value{v.port};
        } else if constexpr (std::is_same_v<T, pos::OpQueuingSend>) {
          o["op"] = Value{"queuing_send"};
          o["port"] = Value{v.port};
          o["message"] = Value{v.message};
          o["timeout"] = Value{time_out(v.timeout)};
        } else if constexpr (std::is_same_v<T, pos::OpQueuingReceive>) {
          o["op"] = Value{"queuing_receive"};
          o["port"] = Value{v.port};
          o["timeout"] = Value{time_out(v.timeout)};
        } else if constexpr (std::is_same_v<T, pos::OpSetModuleSchedule>) {
          o["op"] = Value{"set_module_schedule"};
          o["schedule"] = Value{v.schedule};
        } else if constexpr (std::is_same_v<T, pos::OpRaiseError>) {
          o["op"] = Value{"raise_error"};
          o["code"] = Value{v.code};
          o["message"] = Value{v.message};
        } else if constexpr (std::is_same_v<T, pos::OpTryDisableClockIrq>) {
          o["op"] = Value{"try_disable_clock_irq"};
        } else if constexpr (std::is_same_v<T, pos::OpMemoryAccess>) {
          o["op"] = Value{"memory_access"};
          o["vaddr"] = Value{static_cast<std::int64_t>(v.vaddr)};
          o["write"] = Value{v.write};
        } else if constexpr (std::is_same_v<T, pos::OpStopProcess>) {
          o["op"] = Value{"stop_process"};
          o["process"] = Value{v.process};
        } else if constexpr (std::is_same_v<T, pos::OpStartProcess>) {
          o["op"] = Value{"start_process"};
          o["process"] = Value{v.process};
        } else if constexpr (std::is_same_v<T, pos::OpLog>) {
          o["op"] = Value{"log"};
          o["text"] = Value{v.text};
        } else if constexpr (std::is_same_v<T, pos::OpGoto>) {
          o["op"] = Value{"goto"};
          o["target"] = Value{static_cast<std::int64_t>(v.target)};
        }
      },
      op);
  return Value{std::move(o)};
}

Value script_to_json(const pos::Script& script) {
  Array ops;
  for (const auto& op : script) ops.push_back(op_to_json(op));
  return Value{std::move(ops)};
}

const char* error_code_name(hm::ErrorCode code) { return to_string(code); }

const char* level_name(hm::ErrorLevel level) { return to_string(level); }

const char* action_name(hm::RecoveryAction action) {
  return to_string(action);
}

Value hm_table_to_json(const hm::HmTable& table) {
  Array entries;
  for (const auto& [key, entry] : table.entries()) {
    Object e;
    e["error"] = Value{error_code_name(key.first)};
    e["level"] = Value{level_name(key.second)};
    e["action"] = Value{action_name(entry.action)};
    e["threshold"] =
        Value{static_cast<std::int64_t>(entry.log_threshold)};
    entries.push_back(Value{std::move(e)});
  }
  return Value{std::move(entries)};
}

const char* direction_name(ipc::PortDirection d) {
  return d == ipc::PortDirection::kSource ? "source" : "destination";
}

const char* discipline_name(ipc::QueuingDiscipline d) {
  return d == ipc::QueuingDiscipline::kFifo ? "fifo" : "priority";
}

Value partition_to_json(const system::PartitionConfig& p) {
  Object o;
  o["name"] = Value{p.name};
  o["system"] = Value{p.system_partition};
  o["pos"] =
      Value{p.pos_kind == pos::Policy::kRoundRobin ? "generic" : "rt"};
  o["registry"] = Value{
      p.deadline_registry == pal::RegistryKind::kTree ? "tree" : "list"};

  Array processes;
  for (const auto& process : p.processes) {
    Object pr;
    pr["name"] = Value{process.attrs.name};
    pr["period"] = Value{time_out(process.attrs.period)};
    pr["time_capacity"] = Value{time_out(process.attrs.time_capacity)};
    pr["priority"] = Value{process.attrs.priority};
    pr["stack_bytes"] =
        Value{static_cast<std::int64_t>(process.attrs.stack_bytes)};
    pr["sporadic"] = Value{process.attrs.sporadic};
    pr["auto_start"] = Value{process.auto_start};
    pr["script"] = script_to_json(process.attrs.script);
    processes.push_back(Value{std::move(pr)});
  }
  o["processes"] = Value{std::move(processes)};

  Array sampling;
  for (const auto& port : p.sampling_ports) {
    Object s;
    s["name"] = Value{port.name};
    s["direction"] = Value{direction_name(port.direction)};
    s["max_bytes"] =
        Value{static_cast<std::int64_t>(port.max_message_bytes)};
    s["refresh"] = Value{time_out(port.refresh_period)};
    sampling.push_back(Value{std::move(s)});
  }
  o["sampling_ports"] = Value{std::move(sampling)};

  Array queuing;
  for (const auto& port : p.queuing_ports) {
    Object q;
    q["name"] = Value{port.name};
    q["direction"] = Value{direction_name(port.direction)};
    q["max_bytes"] =
        Value{static_cast<std::int64_t>(port.max_message_bytes)};
    q["capacity"] = Value{static_cast<std::int64_t>(port.capacity)};
    q["discipline"] = Value{discipline_name(port.discipline)};
    queuing.push_back(Value{std::move(q)});
  }
  o["queuing_ports"] = Value{std::move(queuing)};

  Array buffers;
  for (const auto& buffer : p.buffers) {
    Object b;
    b["name"] = Value{buffer.name};
    b["max_bytes"] =
        Value{static_cast<std::int64_t>(buffer.max_message_bytes)};
    b["capacity"] = Value{static_cast<std::int64_t>(buffer.capacity)};
    b["discipline"] = Value{discipline_name(buffer.discipline)};
    buffers.push_back(Value{std::move(b)});
  }
  o["buffers"] = Value{std::move(buffers)};

  Array blackboards;
  for (const auto& bb : p.blackboards) {
    Object b;
    b["name"] = Value{bb.name};
    b["max_bytes"] =
        Value{static_cast<std::int64_t>(bb.max_message_bytes)};
    blackboards.push_back(Value{std::move(b)});
  }
  o["blackboards"] = Value{std::move(blackboards)};

  Array semaphores;
  for (const auto& sem : p.semaphores) {
    Object s;
    s["name"] = Value{sem.name};
    s["initial"] = Value{sem.initial};
    s["maximum"] = Value{sem.maximum};
    s["discipline"] = Value{discipline_name(sem.discipline)};
    semaphores.push_back(Value{std::move(s)});
  }
  o["semaphores"] = Value{std::move(semaphores)};

  Array events;
  for (const auto& event : p.events) {
    Object e;
    e["name"] = Value{event.name};
    events.push_back(Value{std::move(e)});
  }
  o["events"] = Value{std::move(events)};

  if (!p.error_handler.empty()) {
    o["error_handler"] = script_to_json(p.error_handler);
  }
  o["hm_table"] = hm_table_to_json(p.hm_table);
  return Value{std::move(o)};
}

Value schedule_to_json(const model::Schedule& s,
                       const system::ModuleConfig& config) {
  Object o;
  o["id"] = Value{s.id.value()};
  o["name"] = Value{s.name};
  o["mtf"] = Value{s.mtf};
  Array reqs;
  for (const auto& req : s.requirements) {
    Object r;
    r["partition"] = Value{
        config.partitions[static_cast<std::size_t>(req.partition.value())]
            .name};
    r["period"] = Value{req.period};
    r["duration"] = Value{req.duration};
    reqs.push_back(Value{std::move(r)});
  }
  o["requirements"] = Value{std::move(reqs)};
  Array windows;
  for (const auto& w : s.windows) {
    Object win;
    win["partition"] = Value{
        config.partitions[static_cast<std::size_t>(w.partition.value())]
            .name};
    win["offset"] = Value{w.offset};
    win["duration"] = Value{w.duration};
    windows.push_back(Value{std::move(win)});
  }
  o["windows"] = Value{std::move(windows)};

  Array actions;
  for (const auto& [key, action] : config.change_actions) {
    if (key.first != s.id) continue;
    Object a;
    a["partition"] = Value{
        config.partitions[static_cast<std::size_t>(key.second.value())]
            .name};
    a["action"] =
        Value{action == pmk::ScheduleChangeAction::kWarmRestart
                  ? "warm_restart"
                  : action == pmk::ScheduleChangeAction::kColdRestart
                        ? "cold_restart"
                        : "none"};
    actions.push_back(Value{std::move(a)});
  }
  if (!actions.empty()) o["change_actions"] = Value{std::move(actions)};
  return Value{std::move(o)};
}

}  // namespace

std::string to_json(const system::ModuleConfig& config) {
  Object root;
  root["name"] = Value{config.name};
  root["id"] = Value{config.id.value()};
  root["memory_bytes"] =
      Value{static_cast<std::int64_t>(config.memory_bytes)};
  root["validate"] = Value{config.validate};
  root["initial_schedule"] = Value{config.initial_schedule.value()};

  Array partitions;
  for (const auto& p : config.partitions) {
    partitions.push_back(partition_to_json(p));
  }
  root["partitions"] = Value{std::move(partitions)};

  // Schedules: the flat list plus, for multicore configs, the per-core id
  // references. When `cores` is set, the flat list is the union.
  Array schedules;
  if (config.cores.empty()) {
    for (const auto& s : config.schedules) {
      schedules.push_back(schedule_to_json(s, config));
    }
  } else {
    Array cores;
    for (const auto& core : config.cores) {
      Object c;
      Array ids;
      for (const auto& s : core.schedules) {
        schedules.push_back(schedule_to_json(s, config));
        ids.push_back(Value{s.id.value()});
      }
      c["schedules"] = Value{std::move(ids)};
      c["initial_schedule"] = Value{core.initial_schedule.value()};
      cores.push_back(Value{std::move(c)});
    }
    root["cores"] = Value{std::move(cores)};
  }
  root["schedules"] = Value{std::move(schedules)};

  Array channels;
  for (const auto& channel : config.channels) {
    Object c;
    c["kind"] = Value{
        channel.kind == ipc::ChannelKind::kSampling ? "sampling" : "queuing"};
    Object source;
    source["partition"] = Value{
        config.partitions[static_cast<std::size_t>(
                              channel.source.partition.value())]
            .name};
    source["port"] = Value{channel.source.port};
    c["source"] = Value{std::move(source)};
    Array destinations;
    for (const auto& dest : channel.local_destinations) {
      Object d;
      d["partition"] = Value{
          config.partitions[static_cast<std::size_t>(dest.partition.value())]
              .name};
      d["port"] = Value{dest.port};
      destinations.push_back(Value{std::move(d)});
    }
    for (const auto& dest : channel.remote_destinations) {
      Object d;
      d["module"] = Value{dest.module.value()};
      d["partition_id"] = Value{dest.partition.value()};
      d["port"] = Value{dest.port};
      destinations.push_back(Value{std::move(d)});
    }
    c["destinations"] = Value{std::move(destinations)};
    channels.push_back(Value{std::move(c)});
  }
  root["channels"] = Value{std::move(channels)};
  root["module_hm_table"] = hm_table_to_json(config.module_hm_table);

  return Value{std::move(root)}.dump(2);
}

}  // namespace air::config
