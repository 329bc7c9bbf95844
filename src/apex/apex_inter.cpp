// APEX interpartition communication services (sampling and queuing ports)
// and the health-monitoring services.
#include "apex/apex.hpp"

#include "util/assert.hpp"

namespace air::apex {

namespace {

bool consume_timeout(pos::ProcessControlBlock& self) {
  const bool timed_out = self.wake_result == pos::WakeResult::kTimeout;
  self.wake_result = pos::WakeResult::kNone;
  return timed_out;
}

}  // namespace

// ---------- port definition / binding ----------

PortId Apex::define_sampling_port(std::string name,
                                  ipc::PortDirection direction,
                                  std::size_t max_bytes,
                                  Ticks refresh_period) {
  auto port = std::make_unique<ipc::SamplingPort>(std::move(name), direction,
                                                  max_bytes, refresh_period);
  router_.add_sampling_port(partition_, port.get());
  sampling_ports_.push_back({std::move(port)});
  return PortId{static_cast<std::int32_t>(sampling_ports_.size() - 1)};
}

PortId Apex::define_queuing_port(std::string name,
                                 ipc::PortDirection direction,
                                 std::size_t max_bytes, std::size_t capacity,
                                 ipc::QueuingDiscipline discipline) {
  auto port = std::make_unique<ipc::QueuingPort>(std::move(name), direction,
                                                 max_bytes, capacity);
  router_.add_queuing_port(partition_, port.get());
  QueuingPortObject obj{std::move(port), {}, {}};
  obj.senders.discipline = discipline;
  obj.receivers.discipline = discipline;
  queuing_ports_.push_back(std::move(obj));
  return PortId{static_cast<std::int32_t>(queuing_ports_.size() - 1)};
}

ReturnCode Apex::create_sampling_port(std::string_view name,
                                      PortId& out) const {
  for (std::size_t i = 0; i < sampling_ports_.size(); ++i) {
    if (sampling_ports_[i].port->name() == name) {
      out = PortId{static_cast<std::int32_t>(i)};
      return ReturnCode::kNoError;
    }
  }
  return ReturnCode::kInvalidConfig;
}

ReturnCode Apex::create_queuing_port(std::string_view name,
                                     PortId& out) const {
  for (std::size_t i = 0; i < queuing_ports_.size(); ++i) {
    if (queuing_ports_[i].port->name() == name) {
      out = PortId{static_cast<std::int32_t>(i)};
      return ReturnCode::kNoError;
    }
  }
  return ReturnCode::kInvalidConfig;
}

// ---------- sampling services ----------

ReturnCode Apex::write_sampling_message(PortId id, std::string_view message) {
  if (!id.valid() ||
      static_cast<std::size_t>(id.value()) >= sampling_ports_.size()) {
    return ReturnCode::kInvalidParam;
  }
  ipc::SamplingPort& port =
      *sampling_ports_[static_cast<std::size_t>(id.value())].port;
  if (port.direction() != ipc::PortDirection::kSource) {
    return ReturnCode::kInvalidMode;
  }
  ipc::Message msg{ipc::Payload{message}, now_fn_(), partition_, {}};
  if (msg.payload.size() > port.max_message_bytes()) {
    return ReturnCode::kInvalidParam;  // too large (port.write would refuse)
  }
  if (spans_ != nullptr) {
    // The send leg roots the message flow; the context rides in the message
    // through router hops and bus transit to the receive leg.
    const telemetry::SpanId send = spans_->instant(
        telemetry::SpanKind::kMsgSend, msg.sent_at,
        pal_.job_span(pal_.kernel().current()), 0, partition_.value(),
        id.value(), static_cast<std::int64_t>(msg.payload.size()));
    msg.ctx = {send, send};
  }
  if (!port.write(msg)) return ReturnCode::kInvalidParam;
  router_.propagate_sampling({partition_, port.name()}, msg);
  return ReturnCode::kNoError;
}

ReturnCode Apex::read_sampling_message(PortId id, std::string& out,
                                       bool& valid) {
  if (!id.valid() ||
      static_cast<std::size_t>(id.value()) >= sampling_ports_.size()) {
    return ReturnCode::kInvalidParam;
  }
  const ipc::SamplingPort& port =
      *sampling_ports_[static_cast<std::size_t>(id.value())].port;
  if (port.direction() != ipc::PortDirection::kDestination) {
    return ReturnCode::kInvalidMode;
  }
  const auto result = port.read(now_fn_());
  if (!result.message.has_value()) {
    valid = false;
    return ReturnCode::kNotAvailable;  // empty port
  }
  out = result.message->payload;
  valid = result.valid;
  if (spans_ != nullptr && result.message->ctx.trace_id != 0) {
    spans_->instant(telemetry::SpanKind::kMsgReceive, now_fn_(),
                    result.message->ctx.parent_span,
                    result.message->ctx.trace_id, partition_.value(),
                    id.value(), static_cast<std::int64_t>(out.size()));
  }
  if (pos::ProcessControlBlock* self = current_pcb()) self->inbox = out;
  return ReturnCode::kNoError;
}

// ---------- queuing services ----------

ServiceResult Apex::send_queuing_message(PortId id, std::string_view message,
                                         Ticks timeout, bool resumed) {
  if (!id.valid() ||
      static_cast<std::size_t>(id.value()) >= queuing_ports_.size()) {
    return ServiceResult::error(ReturnCode::kInvalidParam);
  }
  QueuingPortObject& obj =
      queuing_ports_[static_cast<std::size_t>(id.value())];
  if (obj.port->direction() != ipc::PortDirection::kSource) {
    return ServiceResult::error(ReturnCode::kInvalidMode);
  }
  pos::ProcessControlBlock* self = current_pcb();
  if (self == nullptr) return ServiceResult::error(ReturnCode::kInvalidMode);
  if (resumed && consume_timeout(*self)) {
    purge_waiter(obj.senders, self->id);
    return ServiceResult::error(ReturnCode::kTimedOut);
  }
  ipc::Message msg{ipc::Payload{message}, now_fn_(), partition_, {}};
  if (spans_ != nullptr && !obj.port->full() &&
      msg.payload.size() <= obj.port->max_message_bytes()) {
    // Root the flow only for a message that will actually enqueue; refused
    // sends (full queue, oversized payload) leave no orphan span.
    const telemetry::SpanId send = spans_->instant(
        telemetry::SpanKind::kMsgSend, msg.sent_at,
        pal_.job_span(pal_.kernel().current()), 0, partition_.value(),
        id.value(), static_cast<std::int64_t>(msg.payload.size()));
    msg.ctx = {send, send};
  }
  switch (obj.port->send(std::move(msg))) {
    case ipc::QueuingPort::SendStatus::kOk:
      // Opportunistic channel transfer; the PMK also pumps every tick.
      router_.pump({partition_, obj.port->name()});
      return ServiceResult::ok();
    case ipc::QueuingPort::SendStatus::kTooLarge:
      return ServiceResult::error(ReturnCode::kInvalidParam);
    case ipc::QueuingPort::SendStatus::kFull:
      break;
  }
  if (timeout == 0) return ServiceResult::error(ReturnCode::kNotAvailable);
  const Ticks deadline = resolve_wait_deadline(*self, timeout, resumed);
  return block_current(*self, pos::WaitReason::kQueuingPort, deadline,
                       obj.senders);
}

ServiceResult Apex::receive_queuing_message(PortId id, Ticks timeout,
                                            std::string& out, bool resumed) {
  if (!id.valid() ||
      static_cast<std::size_t>(id.value()) >= queuing_ports_.size()) {
    return ServiceResult::error(ReturnCode::kInvalidParam);
  }
  QueuingPortObject& obj =
      queuing_ports_[static_cast<std::size_t>(id.value())];
  if (obj.port->direction() != ipc::PortDirection::kDestination) {
    return ServiceResult::error(ReturnCode::kInvalidMode);
  }
  pos::ProcessControlBlock* self = current_pcb();
  if (self == nullptr) return ServiceResult::error(ReturnCode::kInvalidMode);
  if (resumed && consume_timeout(*self)) {
    purge_waiter(obj.receivers, self->id);
    return ServiceResult::error(ReturnCode::kTimedOut);
  }
  if (auto message = obj.port->receive()) {
    out = message->payload;
    if (spans_ != nullptr && message->ctx.trace_id != 0) {
      spans_->instant(telemetry::SpanKind::kMsgReceive, now_fn_(),
                      message->ctx.parent_span, message->ctx.trace_id,
                      partition_.value(), id.value(),
                      static_cast<std::int64_t>(out.size()));
    }
    self->inbox = out;
    return ServiceResult::ok();
  }
  if (timeout == 0) return ServiceResult::error(ReturnCode::kNotAvailable);
  const Ticks deadline = resolve_wait_deadline(*self, timeout, resumed);
  return block_current(*self, pos::WaitReason::kQueuingPort, deadline,
                       obj.receivers);
}

void Apex::notify_queuing_delivery(std::string_view port_name) {
  for (auto& obj : queuing_ports_) {
    if (obj.port->name() == port_name) {
      wake_first(obj.receivers);
      return;
    }
  }
}

void Apex::notify_queuing_space(std::string_view port_name) {
  for (auto& obj : queuing_ports_) {
    if (obj.port->name() == port_name) {
      wake_first(obj.senders);
      return;
    }
  }
}

// ---------- health monitoring ----------

ReturnCode Apex::report_application_message(std::string message) {
  if (console) console(message);
  return ReturnCode::kNoError;
}

ReturnCode Apex::create_error_handler(pos::Script script,
                                      std::size_t stack_bytes) {
  if (!in_init_mode()) return ReturnCode::kInvalidMode;
  if (error_handler_.valid()) return ReturnCode::kNoAction;
  pos::ProcessAttributes attrs;
  attrs.name = "__error_handler";
  attrs.script = std::move(script);
  attrs.period = kInfiniteTime;        // aperiodic
  attrs.time_capacity = kInfiniteTime; // the handler itself has no deadline
  attrs.priority = 0;                  // above every application process
  attrs.stack_bytes = stack_bytes;
  error_handler_ = pal_.kernel().create_process(std::move(attrs));
  return ReturnCode::kNoError;
}

ReturnCode Apex::raise_application_error(std::int32_t code,
                                         std::string message) {
  const ProcessId self = pal_.kernel().current();
  health_.report(now_fn_(), hm::ErrorCode::kApplicationError,
                 hm::ErrorLevel::kProcess, partition_, self,
                 std::move(message) + " (code " + std::to_string(code) + ")");
  return ReturnCode::kNoError;
}

ReturnCode Apex::get_error_status(ErrorStatus& out) {
  if (pending_errors_.empty()) return ReturnCode::kNoAction;
  out = pending_errors_.front();
  pending_errors_.pop_front();
  return ReturnCode::kNoError;
}

bool Apex::activate_error_handler(const hm::ErrorReport& report) {
  if (!error_handler_.valid()) return false;
  pos::ProcessControlBlock* handler = pal_.kernel().pcb(error_handler_);
  if (handler == nullptr) return false;
  pending_errors_.push_back({static_cast<std::int32_t>(report.code),
                             report.process, report.message, report.time});
  if (handler->state == pos::ProcessState::kDormant) {
    start_now(error_handler_);
  }
  return true;
}

}  // namespace air::apex
