// APEX interface -- the ARINC 653 Application Executive (Sect. 2.3).
//
// One Apex instance per partition, layered on the partition's PAL (and
// through it the POS kernel), the PMK channel router, the Health Monitor and
// the Partition Scheduler. This is AIR's "Portable APEX": every service is
// implemented against the PAL and the kernel's mechanical primitives, never
// against a scheduling policy, so the same APEX runs over the RT and the
// round-robin (generic) POS.
//
// Implemented services (ARINC 653 P1 plus the P2 mode-based schedule
// services of Sect. 4.2):
//   partition:  GET_PARTITION_STATUS, SET_PARTITION_MODE
//   process:    CREATE_PROCESS, START, DELAYED_START, STOP, STOP_SELF,
//               SUSPEND, SUSPEND_SELF, RESUME, SET_PRIORITY, GET_MY_ID,
//               GET_PROCESS_ID, GET_PROCESS_STATUS, LOCK_PREEMPTION,
//               UNLOCK_PREEMPTION
//   time:       GET_TIME, TIMED_WAIT, PERIODIC_WAIT, REPLENISH
//   intra-ipc:  buffers, blackboards, semaphores, events (CREATE_*, and the
//               blocking SEND/RECEIVE/READ/WAIT services with timeouts)
//   inter-ipc:  CREATE/WRITE/READ_SAMPLING_*, CREATE/SEND/RECEIVE_QUEUING_*
//   health:     REPORT_APPLICATION_MESSAGE, CREATE_ERROR_HANDLER,
//               RAISE_APPLICATION_ERROR, GET_ERROR_STATUS
//   schedules:  SET_MODULE_SCHEDULE, GET_MODULE_SCHEDULE_STATUS
//
// Blocking contract: services that can wait return ServiceResult. When
// `blocked` is true the caller process was put in the waiting state; the
// executor re-issues the call with `resumed = true` after the process
// wakes, and the service then either completes or re-blocks against the
// original absolute timeout (ProcessControlBlock::wait_deadline).
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "apex/types.hpp"
#include "hm/health_monitor.hpp"
#include "ipc/intra.hpp"
#include "ipc/ports.hpp"
#include "ipc/router.hpp"
#include "pal/pal.hpp"
#include "pmk/partition.hpp"
#include "pmk/partition_scheduler.hpp"

namespace air::apex {

class Apex {
 public:
  Apex(PartitionId partition, pmk::PartitionControlBlock& pcb, pal::Pal& pal,
       ipc::Router& router, hm::HealthMonitor& health,
       pmk::PartitionScheduler& scheduler, std::function<Ticks()> now_fn);

  [[nodiscard]] PartitionId partition() const { return partition_; }
  [[nodiscard]] pal::Pal& pal() { return pal_; }
  [[nodiscard]] pos::Kernel& kernel() { return pal_.kernel(); }
  [[nodiscard]] pmk::PartitionControlBlock& partition_pcb() { return pcb_; }

  // ---------- partition management ----------
  [[nodiscard]] PartitionStatus get_partition_status() const;
  ReturnCode set_partition_mode(pmk::OperatingMode mode);

  // ---------- process management ----------
  ReturnCode create_process(const pos::ProcessAttributes& attrs,
                            ProcessId& out);
  ReturnCode start(ProcessId pid);
  ReturnCode delayed_start(ProcessId pid, Ticks delay);
  ReturnCode stop(ProcessId pid);
  ReturnCode stop_self();
  ServiceResult suspend_self(Ticks timeout, bool resumed);
  ReturnCode suspend(ProcessId pid);
  ReturnCode resume(ProcessId pid);
  ReturnCode set_priority(ProcessId pid, Priority priority);
  [[nodiscard]] ProcessId get_my_id() const;
  ReturnCode get_process_id(std::string_view name, ProcessId& out) const;
  ReturnCode get_process_status(ProcessId pid, ProcessStatus& out) const;
  ReturnCode lock_preemption();
  ReturnCode unlock_preemption();

  // ---------- time management ----------
  [[nodiscard]] Ticks get_time() const { return now_fn_(); }
  ServiceResult timed_wait(Ticks delay);
  ServiceResult periodic_wait();
  ReturnCode replenish(Ticks budget);

  // ---------- sporadic activation (model extension, future work iii) ----
  /// Block the calling sporadic process until it is released *and* its
  /// minimum inter-arrival time (attrs.period) since the previous
  /// activation has elapsed.
  ServiceResult sporadic_wait();
  /// Release a sporadic process for its next activation. A release landing
  /// while the target is still busy is buffered (one deep; further ones
  /// count as lost). Returns kInvalidMode for non-sporadic/dormant targets.
  ReturnCode release_process(ProcessId pid);

  // ---------- intrapartition communication ----------
  ReturnCode create_buffer(
      std::string name, std::size_t max_bytes, std::size_t capacity,
      BufferId& out,
      ipc::QueuingDiscipline discipline = ipc::QueuingDiscipline::kFifo);
  ReturnCode create_blackboard(std::string name, std::size_t max_bytes,
                               BlackboardId& out);
  ReturnCode create_semaphore(
      std::string name, std::int32_t initial, std::int32_t maximum,
      SemaphoreId& out,
      ipc::QueuingDiscipline discipline = ipc::QueuingDiscipline::kFifo);
  ReturnCode create_event(std::string name, EventId& out);

  ServiceResult send_buffer(BufferId id, std::string message, Ticks timeout,
                            bool resumed);
  ServiceResult receive_buffer(BufferId id, Ticks timeout, std::string& out,
                               bool resumed);
  ReturnCode display_blackboard(BlackboardId id, std::string message);
  ReturnCode clear_blackboard(BlackboardId id);
  ServiceResult read_blackboard(BlackboardId id, Ticks timeout,
                                std::string& out, bool resumed);
  ServiceResult wait_semaphore(SemaphoreId id, Ticks timeout, bool resumed);
  ReturnCode signal_semaphore(SemaphoreId id);
  ReturnCode set_event(EventId id);
  ReturnCode reset_event(EventId id);
  ServiceResult wait_event(EventId id, Ticks timeout, bool resumed);

  /// Name-based id lookup for intrapartition objects (ARINC 653
  /// GET_*_ID services).
  ReturnCode get_buffer_id(std::string_view name, BufferId& out) const;
  ReturnCode get_blackboard_id(std::string_view name,
                               BlackboardId& out) const;
  ReturnCode get_semaphore_id(std::string_view name, SemaphoreId& out) const;
  ReturnCode get_event_id(std::string_view name, EventId& out) const;

  /// Status services (ARINC 653 GET_*_STATUS).
  ReturnCode get_buffer_status(BufferId id, BufferStatus& out) const;
  ReturnCode get_blackboard_status(BlackboardId id,
                                   BlackboardStatus& out) const;
  ReturnCode get_semaphore_status(SemaphoreId id,
                                  SemaphoreStatus& out) const;
  ReturnCode get_event_status(EventId id, EventStatus& out) const;
  ReturnCode get_sampling_port_status(PortId id,
                                      SamplingPortStatus& out) const;
  ReturnCode get_queuing_port_status(PortId id,
                                     QueuingPortStatus& out) const;

  // ---------- interpartition communication ----------
  /// Integration-time port definition (from the module configuration); the
  /// returned index is what workload scripts reference.
  PortId define_sampling_port(std::string name, ipc::PortDirection direction,
                              std::size_t max_bytes, Ticks refresh_period);
  PortId define_queuing_port(
      std::string name, ipc::PortDirection direction, std::size_t max_bytes,
      std::size_t capacity,
      ipc::QueuingDiscipline discipline = ipc::QueuingDiscipline::kFifo);

  /// APEX CREATE_*_PORT: binds to a configured port by name.
  ReturnCode create_sampling_port(std::string_view name, PortId& out) const;
  ReturnCode create_queuing_port(std::string_view name, PortId& out) const;

  // Send legs take a view: the bytes land straight in the pooled
  // ipc::Payload (inline up to Payload::kInlineBytes), so the steady-state
  // hot path never copies through a heap std::string.
  ReturnCode write_sampling_message(PortId port, std::string_view message);
  ReturnCode read_sampling_message(PortId port, std::string& out,
                                   bool& valid);
  ServiceResult send_queuing_message(PortId port, std::string_view message,
                                     Ticks timeout, bool resumed);
  ServiceResult receive_queuing_message(PortId port, Ticks timeout,
                                        std::string& out, bool resumed);

  /// Module wiring: a message landed on / space opened in one of this
  /// partition's queuing ports -- wake blocked processes.
  void notify_queuing_delivery(std::string_view port_name);
  void notify_queuing_space(std::string_view port_name);

  // ---------- health monitoring ----------
  ReturnCode report_application_message(std::string message);
  ReturnCode create_error_handler(pos::Script script,
                                  std::size_t stack_bytes);
  ReturnCode raise_application_error(std::int32_t code, std::string message);
  ReturnCode get_error_status(ErrorStatus& out);
  /// HM hook target: activate the error handler for `report`; false when the
  /// partition created no handler.
  bool activate_error_handler(const hm::ErrorReport& report);
  [[nodiscard]] ProcessId error_handler() const { return error_handler_; }

  // ---------- mode-based schedules (ARINC 653 P2, Sect. 4.2) ----------
  ReturnCode set_module_schedule(ScheduleId schedule);
  [[nodiscard]] ModuleScheduleStatus get_module_schedule_status() const;

  // ---------- wiring ----------
  /// Module mechanism for partition restarts/shutdown requested through
  /// SET_PARTITION_MODE (cold/warm start and idle transitions).
  std::function<void(pmk::OperatingMode)> on_mode_transition;
  /// Partition console sink (VITRAL window).
  std::function<void(std::string_view)> console;

  /// Record message-lifetime and schedule-switch spans (send/receive legs
  /// parented on the caller's job span). nullptr = off.
  void set_spans(telemetry::SpanRecorder* spans) { spans_ = spans; }

  /// Called by the module when the partition (re)enters NORMAL mode.
  void enter_normal_mode();

  /// Partition restart support: clears APEX object state built at runtime.
  void reset_runtime_state();

 private:
  struct WaitQueue {
    ipc::QueuingDiscipline discipline{ipc::QueuingDiscipline::kFifo};
    std::deque<ProcessId> waiters;
  };

  // Object + its wait queues.
  struct BufferObject {
    ipc::BufferState state;
    WaitQueue senders;
    WaitQueue receivers;
  };
  struct BlackboardObject {
    ipc::BlackboardState state;
    WaitQueue readers;
  };
  struct SemaphoreObject {
    ipc::SemaphoreState state;
    WaitQueue waiters;
  };
  struct EventObject {
    ipc::EventState state;
    WaitQueue waiters;
  };
  struct SamplingPortObject {
    std::unique_ptr<ipc::SamplingPort> port;
  };
  struct QueuingPortObject {
    std::unique_ptr<ipc::QueuingPort> port;
    WaitQueue senders;    // blocked on full source queue
    WaitQueue receivers;  // blocked on empty destination queue
  };

  [[nodiscard]] bool in_init_mode() const {
    return pcb_.mode == pmk::OperatingMode::kColdStart ||
           pcb_.mode == pmk::OperatingMode::kWarmStart;
  }
  [[nodiscard]] pos::ProcessControlBlock* current_pcb();

  /// Common prologue for blocking calls: resolve the absolute timeout
  /// deadline (fresh or preserved across retries).
  Ticks resolve_wait_deadline(pos::ProcessControlBlock& self, Ticks timeout,
                              bool resumed);
  /// Block the current process on `reason` until `deadline`.
  ServiceResult block_current(pos::ProcessControlBlock& self,
                              pos::WaitReason reason, Ticks deadline,
                              WaitQueue& queue);
  static void purge_waiter(WaitQueue& queue, ProcessId pid);
  void purge_from_all_queues(ProcessId pid);
  void wake_first(WaitQueue& queue);
  void wake_all(WaitQueue& queue);

  void start_now(ProcessId pid);

  PartitionId partition_;
  pmk::PartitionControlBlock& pcb_;
  pal::Pal& pal_;
  ipc::Router& router_;
  hm::HealthMonitor& health_;
  pmk::PartitionScheduler& scheduler_;
  std::function<Ticks()> now_fn_;
  telemetry::SpanRecorder* spans_{nullptr};

  std::vector<BufferObject> buffers_;
  std::vector<BlackboardObject> blackboards_;
  std::vector<SemaphoreObject> semaphores_;
  std::vector<EventObject> events_;
  std::vector<SamplingPortObject> sampling_ports_;
  std::vector<QueuingPortObject> queuing_ports_;

  std::vector<ProcessId> pending_starts_;  // STARTed during initialisation
  ProcessId error_handler_{ProcessId::invalid()};
  std::deque<ErrorStatus> pending_errors_;
};

}  // namespace air::apex
