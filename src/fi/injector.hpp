// Fault-plan execution.
//
// Injector is the module-side half: a system::TickHook that applies each
// planned injection at the end of its exact tick. Because the time-warp
// engine bounds its spans by TickHook::next_event() and every World driver
// funnels through tick_once(), an armed plan replays byte-identically under
// per-tick, warped, lockstep and epoch execution.
//
// BusInjector is the bus-side half: planned frame faults keyed on the
// deterministic TDMA transmit sequence number, installed as the Bus fault
// hook.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "fi/fault_plan.hpp"
#include "net/bus.hpp"
#include "system/module.hpp"

namespace air::fi {

/// Outcome of one attempted injection (the campaign report material).
struct InjectionRecord {
  std::size_t index{0};  // position in the plan's injection list
  Ticks tick{0};
  FaultClass fault{FaultClass::kMemoryBitFlip};
  std::int32_t target{-1};
  bool applied{false};
  std::string note;
};

class Injector : public system::TickHook {
 public:
  explicit Injector(FaultPlan plan);

  /// Install this injector as the module's tick hook. The injector must
  /// outlive the module's runs.
  void arm(system::Module& module) { module.set_tick_hook(this); }

  [[nodiscard]] Ticks next_event(Ticks now) const override;
  void on_tick(system::Module& module, Ticks now) override;

  [[nodiscard]] const FaultPlan& plan() const { return plan_; }
  [[nodiscard]] const std::vector<InjectionRecord>& log() const {
    return log_;
  }

  /// Name of the dormant CPU-hog process kProcessStuck starts; campaign
  /// configurations create one per partition.
  static constexpr const char* kHogProcessName = "fi_hog";

 private:
  void apply(system::Module& module, Ticks now, const Injection& injection,
             InjectionRecord& record);

  FaultPlan plan_;
  std::vector<std::size_t> module_events_;  // plan indices, bus faults out
  std::size_t cursor_{0};                   // next entry of module_events_
  std::vector<InjectionRecord> log_;
};

class BusInjector {
 public:
  explicit BusInjector(const FaultPlan& plan);

  /// Install as the bus's fault hook. Must outlive the bus's runs.
  void arm(net::Bus& bus);

  [[nodiscard]] net::Bus::FaultDecision decide(std::uint64_t seq) const;
  [[nodiscard]] std::size_t planned() const { return decisions_.size(); }

 private:
  std::map<std::uint64_t, net::Bus::FaultDecision> decisions_;
};

}  // namespace air::fi
