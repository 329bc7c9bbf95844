#include "system/module.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "ipc/payload.hpp"
#include "model/validation.hpp"
#include "system/build_info.hpp"
#include "system/executor.hpp"
#include "util/assert.hpp"

namespace air::system {

using util::EventKind;

Module::Module(ModuleConfig config)
    : config_(std::move(config)),
      machine_(config_.memory_bytes),
      spatial_(machine_) {
  time_warp_ = config_.time_warp;
  // Arena wiring first: boot-time events recorded later in this ctor must
  // already intern their labels into the module-owned arena.
  trace_.set_arena(&arena_);
  spans_.set_arena(&arena_);
  trace_.enable(config_.trace_enabled);
  metrics_.enable(config_.telemetry.metrics_enabled);
  profiler_.enable(config_.telemetry.profiler_enabled);
  profiler_.set_stride(config_.telemetry.profiler_stride);
  profiler_.set_arena_probe(&arena_);
  profiler_.set_heap_probe(
      [] { return ipc::Payload::pool_stats().heap_allocs; });
  if (config_.telemetry.flight_recorder_capacity > 0) {
    trace_.set_flight_recorder(
        config_.telemetry.flight_recorder_capacity,
        config_.telemetry.flight_recorder_critical_capacity);
  }
  spans_.enable(config_.telemetry.spans_enabled);
  spans_.set_origin(static_cast<std::uint32_t>(config_.id.value()));
  spans_.set_capacity(config_.telemetry.spans_capacity);
  if (config_.telemetry.online.enabled && config_.telemetry.metrics_enabled) {
    online_ = std::make_unique<telemetry::OnlinePlane>(
        config_.telemetry.online, config_.name, config_.partitions.size());
    if (config_.telemetry.spans_enabled) online_->set_spans(&spans_);
  }
  AIR_ASSERT_MSG(!config_.partitions.empty(), "module has no partitions");

  // Normalise to the multicore representation: a single-core module is a
  // one-entry core list built from the legacy fields.
  if (config_.cores.empty()) {
    AIR_ASSERT_MSG(!config_.schedules.empty(), "module has no schedules");
    config_.cores.push_back({config_.schedules, config_.initial_schedule});
  }

  // Offline verification of the integrator-defined parameters (Sect. 3),
  // plus the multicore affinity rule: a partition is scheduled by exactly
  // one core (parallel windows of *different* partitions only).
  std::map<PartitionId, std::size_t> affinity;
  for (std::size_t core = 0; core < config_.cores.size(); ++core) {
    for (const auto& schedule : config_.cores[core].schedules) {
      if (config_.validate) {
        const model::ValidationReport report =
            model::validate_schedule(schedule);
        if (!report.ok()) {
          throw std::invalid_argument("invalid schedule " + schedule.name +
                                      ":\n" + report.to_text());
        }
      }
      for (const auto& req : schedule.requirements) {
        auto [it, inserted] = affinity.emplace(req.partition, core);
        if (!inserted && it->second != core) {
          throw std::invalid_argument(
              "partition " + std::to_string(req.partition.value()) +
              " is scheduled on two cores");
        }
      }
    }
  }

  // PMK partition table + spatial separation setup.
  pcbs_.reserve(config_.partitions.size());
  core_affinity_.resize(config_.partitions.size(), 0);
  for (std::size_t i = 0; i < config_.partitions.size(); ++i) {
    const PartitionConfig& pc = config_.partitions[i];
    pmk::PartitionControlBlock pcb;
    pcb.id = PartitionId{static_cast<std::int32_t>(i)};
    pcb.name = pc.name;
    pcb.system_partition = pc.system_partition;
    pcb.last_tick = -1;
    pcb.mmu_context = spatial_.setup_partition(pcb.id, pc.memory).context;
    auto it = affinity.find(pcb.id);
    if (it != affinity.end()) core_affinity_[i] = it->second;
    pcbs_.push_back(std::move(pcb));
  }

  // One scheduler + dispatcher pair per core, with the core's PSTs
  // compiled and installed.
  cores_.reserve(config_.cores.size());
  for (const CoreConfig& core_config : config_.cores) {
    Core& core = cores_.emplace_back();
    for (const auto& schedule : core_config.schedules) {
      std::map<PartitionId, pmk::ScheduleChangeAction> actions;
      for (const auto& [key, action] : config_.change_actions) {
        if (key.first == schedule.id) actions[key.second] = action;
      }
      core.scheduler.add_schedule(pmk::compile_schedule(schedule, actions));
    }
    core.scheduler.set_initial_schedule(core_config.initial_schedule);
    core.dispatcher =
        std::make_unique<pmk::PartitionDispatcher>(pcbs_, &machine_.mmu());
    if (config_.telemetry.spans_enabled) {
      core.dispatcher->set_spans(&spans_);
    }
  }
  if (config_.telemetry.metrics_enabled) {
    router_.set_metrics(&metrics_);
    health_.set_metrics(&metrics_);
  }
  if (config_.telemetry.spans_enabled) {
    router_.set_spans(&spans_, [this] { return now(); });
    health_.set_spans(&spans_);
  }

  // Per-partition runtime: PAL (wrapping the POS kernel) + APEX. A
  // partition's APEX is bound to the scheduler of its core, which scopes
  // SET_MODULE_SCHEDULE to that core's PSTs.
  partitions_.resize(config_.partitions.size());
  for (std::size_t i = 0; i < config_.partitions.size(); ++i) {
    const PartitionConfig& pc = config_.partitions[i];
    const PartitionId id{static_cast<std::int32_t>(i)};
    PartitionRuntime& rt = partitions_[i];
    rt.pal = std::make_unique<pal::Pal>(pc.pos_kind, pc.deadline_registry);
    if (config_.telemetry.metrics_enabled) {
      rt.pal->set_metrics(&metrics_, static_cast<std::int32_t>(i));
    }
    if (config_.telemetry.profiler_enabled) {
      rt.pal->set_profiler(&profiler_);
    }
    rt.apex = std::make_unique<apex::Apex>(
        id, pcbs_[i], *rt.pal, router_, health_,
        cores_[core_affinity_[i]].scheduler, [this] { return now(); });
    if (config_.telemetry.spans_enabled) {
      rt.pal->set_spans(&spans_, static_cast<std::int32_t>(i));
      rt.apex->set_spans(&spans_);
    }
    wire_partition(id);
  }

  // Channels.
  for (const auto& channel : config_.channels) {
    router_.add_channel(channel);
  }
  router_.on_delivery = [this](const ipc::PortRef& dest) {
    if (dest.partition.valid() &&
        static_cast<std::size_t>(dest.partition.value()) <
            partitions_.size()) {
      apex(dest.partition).notify_queuing_delivery(dest.port);
    }
  };
  router_.on_source_space = [this](const ipc::PortRef& source) {
    if (source.partition.valid() &&
        static_cast<std::size_t>(source.partition.value()) <
            partitions_.size()) {
      apex(source.partition).notify_queuing_space(source.port);
    }
  };
  router_.remote_send = [this](const ipc::RemotePortRef& dest,
                               const ipc::Message& message,
                               ipc::ChannelKind kind) {
    if (remote_send) remote_send(dest, message, kind);
  };

  // Health Monitor policy tables and mechanisms. Integrated modules use the
  // full ARINC 653 dispatch: partition-level errors without a configured
  // partition-level response escalate to module level.
  health_.set_escalation(true);
  health_.set_module_table(config_.module_hm_table);
  for (std::size_t i = 0; i < config_.partitions.size(); ++i) {
    health_.set_partition_table(PartitionId{static_cast<std::int32_t>(i)},
                                config_.partitions[i].hm_table);
  }
  health_.invoke_error_handler = [this](PartitionId id,
                                        const hm::ErrorReport& report) {
    return apex(id).activate_error_handler(report);
  };
  health_.stop_process = [this](PartitionId id, ProcessId pid) {
    (void)apex(id).stop(pid);
  };
  health_.restart_process = [this](PartitionId id, ProcessId pid) {
    (void)apex(id).stop(pid);
    (void)apex(id).start(pid);
  };
  health_.stop_partition = [this](PartitionId id) {
    (void)apex(id).set_partition_mode(pmk::OperatingMode::kIdle);
    trace_.record(now(), EventKind::kPartitionModeChange, id.value(),
                  static_cast<std::int64_t>(pmk::OperatingMode::kIdle));
  };
  health_.restart_partition = [this](PartitionId id, bool cold) {
    init_partition(id, cold);
  };
  health_.stop_module = [this](bool reset) {
    stopped_ = true;
    trace_.record(now(), EventKind::kHmAction, -1, reset ? 1 : 0,
                  -1, "module_stop");
  };
  health_.on_report = [this](const hm::ErrorReport& report) {
    trace_.record(report.time, EventKind::kHmError, report.partition.value(),
                  report.process.value(),
                  static_cast<std::int64_t>(report.code),
                  to_string(report.action_taken));
  };

  // Scheduler/dispatcher observation + mode-based schedule actions, per
  // core.
  for (Core& core : cores_) {
    pmk::PartitionScheduler* scheduler = &core.scheduler;
    core.scheduler.on_schedule_switch = [this, scheduler](ScheduleId next,
                                                          ScheduleId old) {
      trace_.record(now(), EventKind::kScheduleSwitch, next.value(),
                    old.value());
      // Close the switch span SET_MODULE_SCHEDULE opened: the request has
      // now taken effect at the MTF boundary.
      const telemetry::SpanId sw = spans_.take_pending_schedule_switch();
      if (sw != 0) spans_.end(sw, now());
      const pmk::RuntimeSchedule* schedule = scheduler->schedule(next);
      AIR_ASSERT(schedule != nullptr);
      for (auto& pcb : pcbs_) {
        auto it = schedule->change_actions.find(pcb.id);
        if (it != schedule->change_actions.end() &&
            it->second != pmk::ScheduleChangeAction::kNone &&
            pcb.mode == pmk::OperatingMode::kNormal) {
          pcb.schedule_change_pending = true;
          pcb.pending_action = it->second;
        }
      }
    };
    core.dispatcher->on_context_switch = [this](PartitionId heir,
                                                PartitionId previous) {
      if (previous.valid()) {
        trace_.record(now(), EventKind::kPartitionPreempt, previous.value(),
                      heir.value());
      }
      trace_.record(now(), EventKind::kPartitionDispatch, heir.value(),
                    previous.value());
    };
    core.dispatcher->on_pending_schedule_change_action =
        [this](PartitionId id) { apply_pending_change_action(id); };
  }

  // Boot: initialise every partition (cold start -> NORMAL).
  for (std::size_t i = 0; i < partitions_.size(); ++i) {
    init_partition(PartitionId{static_cast<std::int32_t>(i)}, true);
  }
}

Module::~Module() = default;

void Module::wire_partition(PartitionId id) {
  PartitionRuntime& rt = partitions_[static_cast<std::size_t>(id.value())];
  const PartitionConfig& pc =
      config_.partitions[static_cast<std::size_t>(id.value())];

  // PAL deadline violations feed the Health Monitor (Algorithm 3 line 6).
  rt.pal->on_deadline_violation = [this, id](ProcessId pid, Ticks deadline,
                                             Ticks detected_at) {
    trace_.record(detected_at, EventKind::kDeadlineMiss, id.value(),
                  pid.value(), deadline);
    if (pos::ProcessControlBlock* pcb = kernel(id).pcb(pid)) {
      ++pcb->deadline_misses;
    }
    // Attach the root-cause chain while the causal caches still describe
    // the detection instant (HM recovery below may reset them).
    build_miss_anomaly(id, pid, deadline, detected_at);
    health_.report(detected_at, hm::ErrorCode::kDeadlineMissed,
                   hm::ErrorLevel::kProcess, id, pid, "deadline missed");
  };

  // Process state changes are traced (partition id in `a`).
  rt.pal->kernel().on_state_change = [this, id](ProcessId pid,
                                                pos::ProcessState state) {
    trace_.record(now(), EventKind::kProcessStateChange, id.value(),
                  pid.value(), static_cast<std::int64_t>(state));
  };

  rt.apex->console = [this, id](std::string_view line) {
    partitions_[static_cast<std::size_t>(id.value())].console_lines.emplace_back(
        line);
    trace_.record(now(), EventKind::kUser, id.value(), -1, -1,
                  std::string{line});
  };
  rt.apex->on_mode_transition = [this, id](pmk::OperatingMode mode) {
    trace_.record(now(), EventKind::kPartitionModeChange, id.value(),
                  static_cast<std::int64_t>(mode));
    if (mode == pmk::OperatingMode::kColdStart ||
        mode == pmk::OperatingMode::kWarmStart) {
      init_partition(id, mode == pmk::OperatingMode::kColdStart);
    }
  };

  // Integration-time port definition.
  for (const auto& port : pc.sampling_ports) {
    rt.apex->define_sampling_port(port.name, port.direction,
                                  port.max_message_bytes,
                                  port.refresh_period);
  }
  for (const auto& port : pc.queuing_ports) {
    rt.apex->define_queuing_port(port.name, port.direction,
                                 port.max_message_bytes, port.capacity,
                                 port.discipline);
  }
}

void Module::init_partition(PartitionId id, bool cold) {
  PartitionRuntime& rt = partitions_[static_cast<std::size_t>(id.value())];
  const PartitionConfig& pc =
      config_.partitions[static_cast<std::size_t>(id.value())];
  pmk::PartitionControlBlock& pcb =
      pcbs_[static_cast<std::size_t>(id.value())];

  pcb.mode = cold ? pmk::OperatingMode::kColdStart
                  : pmk::OperatingMode::kWarmStart;
  trace_.record(now(), EventKind::kPartitionModeChange, id.value(),
                static_cast<std::int64_t>(pcb.mode));

  rt.pal->reset();
  rt.apex->reset_runtime_state();
  health_.reset_occurrences(id);

  // --- partition init code (modelled as zero-time) ---
  apex::Apex& apex = *rt.apex;
  for (const auto& buffer : pc.buffers) {
    BufferId out;
    (void)apex.create_buffer(buffer.name, buffer.max_message_bytes,
                             buffer.capacity, out, buffer.discipline);
  }
  for (const auto& blackboard : pc.blackboards) {
    BlackboardId out;
    (void)apex.create_blackboard(blackboard.name,
                                 blackboard.max_message_bytes, out);
  }
  for (const auto& semaphore : pc.semaphores) {
    SemaphoreId out;
    (void)apex.create_semaphore(semaphore.name, semaphore.initial,
                                semaphore.maximum, out,
                                semaphore.discipline);
  }
  for (const auto& event : pc.events) {
    EventId out;
    (void)apex.create_event(event.name, out);
  }
  if (!pc.error_handler.empty()) {
    (void)apex.create_error_handler(pc.error_handler, 4096);
  }
  for (const auto& process : pc.processes) {
    ProcessId pid;
    if (apex.create_process(process.attrs, pid) !=
        apex::ReturnCode::kNoError) {
      // Already exists (partition restart): the kernel kept the process.
      (void)apex.get_process_id(process.attrs.name, pid);
    }
    if (process.auto_start && pid.valid()) {
      (void)apex.start(pid);
    }
  }

  const apex::ReturnCode rc =
      apex.set_partition_mode(pmk::OperatingMode::kNormal);
  AIR_ASSERT(rc == apex::ReturnCode::kNoError);
  trace_.record(now(), EventKind::kPartitionModeChange, id.value(),
                static_cast<std::int64_t>(pmk::OperatingMode::kNormal));
}

void Module::apply_pending_change_action(PartitionId id) {
  pmk::PartitionControlBlock& pcb =
      pcbs_[static_cast<std::size_t>(id.value())];
  if (!pcb.schedule_change_pending) return;
  const pmk::ScheduleChangeAction action = pcb.pending_action;
  pcb.schedule_change_pending = false;
  pcb.pending_action = pmk::ScheduleChangeAction::kNone;
  trace_.record(now(), EventKind::kScheduleChangeAction, id.value(),
                static_cast<std::int64_t>(action));
  switch (action) {
    case pmk::ScheduleChangeAction::kNone:
      break;
    case pmk::ScheduleChangeAction::kWarmRestart:
      init_partition(id, false);
      break;
    case pmk::ScheduleChangeAction::kColdRestart:
      init_partition(id, true);
      break;
  }
}

void Module::tick_once() {
  if (stopped_) return;
  ++warp_stats_.stepped_ticks;
  profiler_.begin_tick();
  telemetry::HostProfiler::Scope tick_scope(profiler_,
                                            telemetry::ProfilePoint::kTick);

  // Timer interrupt.
  machine_.tick();
  (void)machine_.interrupts().take(hal::IrqLine::kTimer);

  // Algorithms 1 + 2 on every core (parallel partition windows; the
  // simulation serialises cores within the tick, which is sound because
  // core affinity keeps their partition sets disjoint).
  struct Dispatched {
    PartitionId active;
    Ticks elapsed;
  };
  util::FixedVector<Dispatched, 16> dispatched;
  for (Core& core : cores_) {
    {
      telemetry::HostProfiler::Scope scope(
          profiler_, telemetry::ProfilePoint::kScheduler);
      (void)core.scheduler.tick();
    }
    telemetry::HostProfiler::Scope scope(
        profiler_, telemetry::ProfilePoint::kDispatcher);
    const auto result = core.dispatcher->dispatch(
        core.scheduler.heir_partition(), core.scheduler.ticks());
    if (result.active.valid()) {
      dispatched.push_back({result.active, result.elapsed_ticks});
    }
  }

  // PMK channel service: queuing channels progress regardless of which
  // partitions are active.
  {
    telemetry::HostProfiler::Scope scope(profiler_,
                                         telemetry::ProfilePoint::kRouter);
    router_.pump_all();
  }

  for (const Dispatched& d : dispatched) {
    if (stopped_) return;
    pmk::PartitionControlBlock& pcb =
        pcbs_[static_cast<std::size_t>(d.active.value())];
    if (pcb.mode != pmk::OperatingMode::kNormal) continue;

    // Algorithm 3: surrogate clock-tick announce + deadline verification,
    // then run the partition's heir process for this tick.
    step_active_partition(d.active, d.elapsed);
  }

  // Observability window boundary: close after this tick's detections (a
  // miss detected on the boundary tick lands in the window it belongs to).
  close_due_online_window();

  // Tick hook last: injected effects become visible from the next tick on,
  // exactly like an asynchronous fault landing between two timer periods.
  // warp_headroom() consults the hook's next_event(), so hooked ticks are
  // always stepped -- never folded into a warp span.
  if (tick_hook_ != nullptr && !stopped_) tick_hook_->on_tick(*this, now());
}

void Module::step_active_partition(PartitionId id, Ticks elapsed) {
  PartitionRuntime& rt = partitions_[static_cast<std::size_t>(id.value())];
  pmk::PartitionControlBlock& pcb =
      pcbs_[static_cast<std::size_t>(id.value())];
  // With several cores, another core's dispatch may have moved the MMU off
  // this partition's context within the same tick; re-select it (a no-op
  // on the single-core fast path).
  if (pcb.mmu_context >= 0) {
    machine_.mmu().set_active_context(pcb.mmu_context);
  }
  {
    telemetry::HostProfiler::Scope scope(profiler_,
                                         telemetry::ProfilePoint::kPal);
    rt.pal->announce_ticks(now(), elapsed);
  }
  if (stopped_) return;
  if (pcb.mode != pmk::OperatingMode::kNormal) return;  // HM intervened
  telemetry::HostProfiler::Scope scope(profiler_,
                                       telemetry::ProfilePoint::kExecutor);
  // Busy/slack telemetry is scraped from the PCB accounting at snapshot
  // time; the per-tick path pays only the two increments it always did.
  if (Executor::step(*this, id, now())) {
    ++pcb.busy_ticks;
  } else {
    ++pcb.slack_ticks;
  }
}

std::size_t Module::core_of(PartitionId partition) const {
  AIR_ASSERT(partition.valid() &&
             static_cast<std::size_t>(partition.value()) <
                 core_affinity_.size());
  return core_affinity_[static_cast<std::size_t>(partition.value())];
}

void Module::run(Ticks ticks) {
  if (ticks <= 0) return;  // explicit no-op
  Ticks done = 0;
  while (done < ticks && !stopped_) {
    if (time_warp_) {
      const Ticks n = std::min(warp_headroom(), ticks - done);
      if (n > 0) {
        warp_advance(n);
        done += n;
        continue;
      }
    }
    tick_once();
    ++done;
  }
}

void Module::run_until(Ticks time) {
  if (time <= now()) return;  // explicit no-op for now/past targets
  while (now() < time && !stopped_) {
    if (time_warp_) {
      const Ticks n = std::min(warp_headroom(), time - now());
      if (n > 0) {
        warp_advance(n);
        continue;
      }
    }
    tick_once();
  }
}

PartitionId Module::partition_id(std::string_view name) const {
  for (const auto& pcb : pcbs_) {
    if (pcb.name == name) return pcb.id;
  }
  return PartitionId::invalid();
}

apex::Apex& Module::apex(PartitionId id) {
  AIR_ASSERT(id.valid() &&
             static_cast<std::size_t>(id.value()) < partitions_.size());
  return *partitions_[static_cast<std::size_t>(id.value())].apex;
}

pal::Pal& Module::pal(PartitionId id) {
  AIR_ASSERT(id.valid() &&
             static_cast<std::size_t>(id.value()) < partitions_.size());
  return *partitions_[static_cast<std::size_t>(id.value())].pal;
}

pos::Kernel& Module::kernel(PartitionId id) { return pal(id).kernel(); }

pmk::PartitionControlBlock& Module::partition_pcb(PartitionId id) {
  AIR_ASSERT(id.valid() &&
             static_cast<std::size_t>(id.value()) < pcbs_.size());
  return pcbs_[static_cast<std::size_t>(id.value())];
}

const std::vector<std::string>& Module::console(PartitionId id) const {
  AIR_ASSERT(id.valid() &&
             static_cast<std::size_t>(id.value()) < partitions_.size());
  return partitions_[static_cast<std::size_t>(id.value())].console_lines;
}

telemetry::MetricsSnapshot Module::metrics_snapshot() {
  // The scrape is host work on behalf of observability; attribute it to
  // the telemetry plane itself. Wall-clock readings stay out of the
  // snapshot, which must remain deterministic.
  telemetry::HostProfiler::Scope profile_scope(
      profiler_, telemetry::ProfilePoint::kTelemetryScrape);
  if (metrics_.enabled()) {
    // Scrape the totals that layers count locally (cheap increments on
    // members they own) rather than publishing per event: PAL deadline
    // counters, POS kernel scheduling counters, and the MMU statistics.
    for (std::size_t i = 0; i < partitions_.size(); ++i) {
      const auto index = static_cast<std::int32_t>(i);
      const pmk::PartitionControlBlock& pcb = pcbs_[i];
      metrics_.set_counter(telemetry::Metric::kPartitionBusyTicks, index,
                           static_cast<std::uint64_t>(pcb.busy_ticks));
      metrics_.set_counter(telemetry::Metric::kPartitionSlackTicks, index,
                           static_cast<std::uint64_t>(pcb.slack_ticks));
      const pal::Pal& p = *partitions_[i].pal;
      metrics_.set_counter(telemetry::Metric::kDeadlineChecks, index,
                           p.deadline_checks());
      metrics_.set_counter(telemetry::Metric::kDeadlineMisses, index,
                           p.violations_detected());
      const pos::Kernel& k = p.kernel();
      metrics_.set_counter(telemetry::Metric::kProcessDispatches, index,
                           k.dispatch_count());
      metrics_.set_counter(telemetry::Metric::kProcessSwitches, index,
                           k.process_switches());
      metrics_.set(telemetry::Metric::kReadyQueueDepth, index,
                   static_cast<std::int64_t>(k.ready_depth()));
    }
    // Partition context switches / preemptions: the dispatcher already
    // counts them in the PCBs, so the context-switch path pays no registry
    // write; the totals land here. A zero total stays unwritten -- the
    // per-event adds never touched those slots either.
    for (std::size_t i = 0; i < partitions_.size(); ++i) {
      const auto index = static_cast<std::int32_t>(i);
      const pmk::PartitionControlBlock& pcb = pcbs_[i];
      if (pcb.context_restores > 0) {
        metrics_.set_counter(telemetry::Metric::kPartitionContextSwitches,
                             index, pcb.context_restores);
      }
      if (pcb.context_saves > 0) {
        metrics_.set_counter(telemetry::Metric::kPartitionPreemptions, index,
                             pcb.context_saves);
      }
    }
    // Partition-scheduler counters, summed across cores (all cores share
    // the module-wide -1 slot, as the per-event adds did).
    std::uint64_t points = 0;
    std::uint64_t switches = 0;
    for (const Core& core : cores_) {
      points += core.scheduler.preemption_points_hit();
      switches += core.scheduler.schedule_switches();
    }
    if (points > 0) {
      metrics_.set_counter(telemetry::Metric::kSchedulePreemptionPoints, -1,
                           points);
    }
    if (switches > 0) {
      metrics_.set_counter(telemetry::Metric::kScheduleSwitches, -1,
                           switches);
    }
    // Router traffic counters (messages/bytes per channel, remote drops).
    router_.scrape_traffic();
    const hal::MmuStats& mmu = machine_.mmu().stats();
    metrics_.set_counter(telemetry::Metric::kTlbHits, -1, mmu.tlb_hits);
    metrics_.set_counter(telemetry::Metric::kTlbMisses, -1, mmu.tlb_misses);
    metrics_.set_counter(telemetry::Metric::kMmuTableWalks, -1,
                         mmu.table_walks);
    metrics_.set_counter(telemetry::Metric::kMmuFaults, -1, mmu.faults);
    if (config_.telemetry.spans_enabled) {
      metrics_.set_counter(telemetry::Metric::kSpansRecorded, -1,
                           spans_.recorded_spans());
      metrics_.set_counter(telemetry::Metric::kSpansDropped, -1,
                           spans_.dropped_spans());
      metrics_.set(telemetry::Metric::kSpansOpen, -1,
                   static_cast<std::int64_t>(spans_.open_count()));
    }
  }
  return metrics_.snapshot(now());
}

void Module::close_due_online_window() {
  if (online_ == nullptr || stopped_ || now() != online_->next_close_tick()) {
    return;
  }
  telemetry::HostProfiler::Scope scope(profiler_,
                                       telemetry::ProfilePoint::kOnlineClose);
  online_->close_window(now(), sample_online());
}

const telemetry::OnlineSample& Module::sample_online() {
  telemetry::OnlineSample& sample = online_sample_;
  sample.partitions.resize(partitions_.size());
  for (std::size_t i = 0; i < partitions_.size(); ++i) {
    const auto index = static_cast<std::int32_t>(i);
    telemetry::OnlinePartitionSample& ps = sample.partitions[i];
    const pmk::PartitionControlBlock& pcb = pcbs_[i];
    ps.busy_ticks = static_cast<std::uint64_t>(pcb.busy_ticks);
    ps.slack_ticks = static_cast<std::uint64_t>(pcb.slack_ticks);
    const pal::Pal& p = *partitions_[i].pal;
    ps.deadline_checks = p.deadline_checks();
    ps.deadline_misses = p.violations_detected();
    ps.dispatches = p.kernel().dispatch_count();
    ps.hm_errors =
        metrics_.counter_value(telemetry::Metric::kHmErrors, index);
    const telemetry::Histogram* slack =
        metrics_.histogram(telemetry::Metric::kDeadlineSlack, index);
    ps.deadline_slack = slack != nullptr ? *slack : telemetry::Histogram{};
  }
  // Router-local totals, not registry reads: traffic counters reach the
  // registry only at snapshot time (scrape_traffic), and the router
  // accumulates them under the same metrics-enabled condition the retired
  // per-message adds used -- so these values are unchanged.
  sample.ipc_messages = router_.total_messages();
  sample.ipc_bytes = router_.total_bytes();
  sample.ipc_drops = router_.total_drops();
  sample.spans_dropped = spans_.dropped_spans();
  sample.trace_dropped = trace_.dropped_events();
  sample.trace_dropped_critical = trace_.dropped_critical_events();
  return sample;
}

bool Module::start_process_by_name(PartitionId id, std::string_view name) {
  apex::Apex& a = apex(id);
  ProcessId pid;
  if (a.get_process_id(name, pid) != apex::ReturnCode::kNoError) return false;
  return a.start(pid) == apex::ReturnCode::kNoError;
}

std::string Module::status_report() {
  std::string out;
  char line[160];
  std::snprintf(line, sizeof line, "module %s  t=%lld%s  cores=%zu\n",
                config_.name.c_str(), static_cast<long long>(now()),
                stopped_ ? "  [STOPPED]" : "", cores_.size());
  out += line;
  // Measurement conditions up front: timings in this report are only
  // comparable to the checked-in baselines when taken from a Release tree.
  std::snprintf(line, sizeof line, "  build: %s%s%s\n", build_type(),
                lto_build() ? " +lto" : "",
                release_build() ? "" : "  [non-Release: timings not "
                                       "comparable to Release baselines]");
  out += line;
  for (std::size_t c = 0; c < cores_.size(); ++c) {
    const auto status = cores_[c].scheduler.status();
    std::snprintf(line, sizeof line,
                  "  core %zu: schedule %d (next %d, last switch %lld)\n", c,
                  status.current.value(), status.next.value(),
                  static_cast<long long>(status.last_switch_time));
    out += line;
  }
  for (const auto& pcb : pcbs_) {
    std::snprintf(line, sizeof line,
                  "  partition %-12s mode=%-9s busy=%llu slack=%llu "
                  "switches=%llu\n",
                  pcb.name.c_str(), to_string(pcb.mode),
                  static_cast<unsigned long long>(pcb.busy_ticks),
                  static_cast<unsigned long long>(pcb.slack_ticks),
                  static_cast<unsigned long long>(pcb.context_restores));
    out += line;
    auto& k = kernel(pcb.id);
    for (std::size_t q = 0; q < k.process_count(); ++q) {
      apex::ProcessStatus st;
      if (apex(pcb.id).get_process_status(
              ProcessId{static_cast<std::int32_t>(q)}, st) !=
          apex::ReturnCode::kNoError) {
        continue;
      }
      std::snprintf(line, sizeof line,
                    "    %-20s %-8s prio=%-3d completions=%llu "
                    "max_resp=%lld misses=%llu\n",
                    st.name.c_str(), to_string(st.state),
                    st.current_priority,
                    static_cast<unsigned long long>(st.completions),
                    static_cast<long long>(st.max_response),
                    static_cast<unsigned long long>(st.deadline_misses));
      out += line;
    }
  }
  std::snprintf(line, sizeof line, "  hm log entries: %zu\n",
                health_.log().size());
  out += line;
  std::snprintf(line, sizeof line,
                "  warp: stepped=%llu warped=%llu spans=%llu\n",
                static_cast<unsigned long long>(warp_stats_.stepped_ticks),
                static_cast<unsigned long long>(warp_stats_.warped_ticks),
                static_cast<unsigned long long>(warp_stats_.warp_spans));
  out += line;
  if (config_.telemetry.spans_enabled) {
    std::snprintf(line, sizeof line,
                  "  spans: recorded=%llu dropped=%llu open=%zu anomalies=%zu "
                  "anomalies_dropped=%llu\n",
                  static_cast<unsigned long long>(spans_.recorded_spans()),
                  static_cast<unsigned long long>(spans_.dropped_spans()),
                  spans_.open_count(), spans_.anomaly_count(),
                  static_cast<unsigned long long>(spans_.dropped_anomalies()));
    out += line;
  }
  if (config_.trace_enabled) {
    std::snprintf(
        line, sizeof line,
        "  trace: recorded=%llu dropped=%llu dropped_critical=%llu%s\n",
        static_cast<unsigned long long>(trace_.recorded_events()),
        static_cast<unsigned long long>(trace_.dropped_events()),
        static_cast<unsigned long long>(trace_.dropped_critical_events()),
        trace_.flight_recorder() ? " [flight recorder]" : "");
    out += line;
  }
  // Pooled-memory observability (PR 7 pools + the label arena): these are
  // the counters the zero-allocation steady-state claim rests on.
  {
    const ipc::Payload::PoolStats pool = ipc::Payload::pool_stats();
    std::snprintf(line, sizeof line,
                  "  payload pool: heap_allocs=%llu reuses=%llu "
                  "returns=%llu free=%zu\n",
                  static_cast<unsigned long long>(pool.heap_allocs),
                  static_cast<unsigned long long>(pool.pool_reuses),
                  static_cast<unsigned long long>(pool.pool_returns),
                  pool.free_blocks);
    out += line;
    const telemetry::StringArena::Stats& arena = arena_.stats();
    std::snprintf(line, sizeof line,
                  "  label arena: symbols=%zu blocks=%zu bytes=%zu "
                  "high_water=%zu hits=%llu misses=%llu trims=%llu\n",
                  arena.symbols, arena.blocks, arena.bytes_used,
                  arena.high_water,
                  static_cast<unsigned long long>(arena.hits),
                  static_cast<unsigned long long>(arena.misses),
                  static_cast<unsigned long long>(arena.trims));
    out += line;
  }
  if (profiler_.enabled() && profiler_.ticks() > 0) {
    const telemetry::HostProfiler::PathStats tick =
        profiler_.point_stats(telemetry::ProfilePoint::kTick);
    std::snprintf(line, sizeof line,
                  "  profile: sampled=%llu ticks (stride %u), "
                  "mean tick=%.1f ns, max=%llu ns\n",
                  static_cast<unsigned long long>(profiler_.ticks()),
                  profiler_.stride(),
                  tick.calls > 0 ? static_cast<double>(tick.total_ns) /
                                       static_cast<double>(tick.calls)
                                 : 0.0,
                  static_cast<unsigned long long>(tick.max_ns));
    out += line;
  }
  if (online_ != nullptr) out += online_->summary_line();
  if (metrics_.enabled()) {
    const telemetry::MetricsSnapshot snap = metrics_snapshot();
    std::snprintf(line, sizeof line, "  telemetry: %zu metric series\n",
                  snap.samples.size());
    out += line;
    for (const auto& pcb : pcbs_) {
      const auto index = pcb.id.value();
      const std::uint64_t busy =
          snap.counter(telemetry::Metric::kPartitionBusyTicks, index);
      const std::uint64_t slack =
          snap.counter(telemetry::Metric::kPartitionSlackTicks, index);
      const double util =
          busy + slack > 0
              ? 100.0 * static_cast<double>(busy) /
                    static_cast<double>(busy + slack)
              : 0.0;
      std::snprintf(
          line, sizeof line,
          "    %-12s util=%5.1f%% deadline_misses=%llu dispatches=%llu\n",
          pcb.name.c_str(), util,
          static_cast<unsigned long long>(
              snap.counter(telemetry::Metric::kDeadlineMisses, index)),
          static_cast<unsigned long long>(
              snap.counter(telemetry::Metric::kProcessDispatches, index)));
      out += line;
    }
    std::uint64_t msgs = 0, bytes = 0, drops = 0;
    for (const auto& sample : snap.samples) {
      if (sample.metric == telemetry::Metric::kIpcMessages) {
        msgs += sample.counter;
      } else if (sample.metric == telemetry::Metric::kIpcBytes) {
        bytes += sample.counter;
      } else if (sample.metric == telemetry::Metric::kIpcDrops) {
        drops += sample.counter;
      }
    }
    std::snprintf(line, sizeof line,
                  "    ipc: %llu messages, %llu bytes, %llu drops\n",
                  static_cast<unsigned long long>(msgs),
                  static_cast<unsigned long long>(bytes),
                  static_cast<unsigned long long>(drops));
    out += line;
  }
  return out;
}

void Module::deliver_remote(PartitionId partition, const std::string& port,
                            const ipc::Message& message,
                            ipc::ChannelKind kind) {
  router_.deliver_remote({partition, port}, message, kind);
}

void Module::build_miss_anomaly(PartitionId id, ProcessId pid, Ticks deadline,
                                Ticks detected_at) {
  if (!config_.telemetry.spans_enabled) return;
  // PAL closed the job span (status kDeadlineMiss) just before invoking this
  // callback, so the recorder's last_ended cache still points at it. Walk
  // the causal caches backwards from there; each hop explains why the
  // previous one happened.
  telemetry::Anomaly anomaly;
  anomaly.detected_at = detected_at;
  anomaly.partition = id.value();
  anomaly.process = pid.value();
  anomaly.deadline = deadline;

  using telemetry::Cause;
  const telemetry::Span job = spans_.last_ended(telemetry::SpanKind::kJob);
  const bool job_matches =
      job.id != 0 && job.a == id.value() && job.b == pid.value() &&
      job.status == telemetry::SpanStatus::kDeadlineMiss;
  anomaly.chain.push_back({Cause::kDeadlineMiss, job_matches ? job.id : 0,
                           detected_at, deadline, pid.value()});
  if (!job_matches) {
    spans_.add_anomaly(anomaly);
    return;
  }
  anomaly.chain.push_back(
      {Cause::kJobReleased, job.id, job.start, id.value()});

  // Was the partition's window closed between release and detection? Then
  // the miss was (at least partly) a preemption blackout: the partition
  // could not run while other windows held the processor.
  const telemetry::Span w = spans_.last_window(id.value());
  bool causal_link = false;
  if (w.id != 0 && w.end > job.start && w.end <= detected_at) {
    causal_link = true;
    anomaly.chain.push_back({Cause::kWindowEndPreemption, w.id, w.end});
    if (deadline >= w.end) {
      anomaly.chain.push_back({Cause::kPartitionInactive, 0, detected_at});
    }
    // Did a schedule switch take effect in that gap? Then the blackout came
    // from mode change, and its parent span says who requested it.
    const telemetry::Span sw =
        spans_.last_ended(telemetry::SpanKind::kScheduleSwitch);
    if (sw.id != 0 && sw.end > job.start && sw.end <= detected_at) {
      anomaly.chain.push_back(
          {Cause::kScheduleSwitch, sw.id, sw.end, sw.b, sw.a});
      if (sw.parent != 0) {
        anomaly.chain.push_back({Cause::kRequestedBy, sw.parent, sw.start});
      }
    }
  }
  if (!causal_link) {
    // No external event stole the processor: the job simply ran past its
    // time capacity inside its own window.
    anomaly.chain.push_back({Cause::kCapacityOverrun, job.id, detected_at});
  }
  spans_.add_anomaly(anomaly);
}

}  // namespace air::system
