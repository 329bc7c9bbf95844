// Integration-time configuration of an AIR module (programmatic form).
//
// This mirrors what ARINC 653 puts in the integrator's XML configuration
// files: partitions and their POS, processes, intrapartition objects, ports,
// channels, HM tables, and the set of partition scheduling tables. The JSON
// loader in src/config produces exactly this structure.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "hm/health_monitor.hpp"
#include "ipc/router.hpp"
#include "model/model.hpp"
#include "pal/pal.hpp"
#include "pmk/partition.hpp"
#include "pmk/spatial.hpp"
#include "pos/kernel.hpp"
#include "pos/process.hpp"
#include "telemetry/online.hpp"
#include "telemetry/profiler.hpp"

namespace air::system {

struct ProcessConfig {
  pos::ProcessAttributes attrs;
  /// Started by the partition init code (becomes ready on NORMAL mode).
  bool auto_start{true};
};

struct SamplingPortConfig {
  std::string name;
  ipc::PortDirection direction{ipc::PortDirection::kSource};
  std::size_t max_message_bytes{64};
  Ticks refresh_period{kInfiniteTime};
};

struct QueuingPortConfig {
  std::string name;
  ipc::PortDirection direction{ipc::PortDirection::kSource};
  std::size_t max_message_bytes{64};
  std::size_t capacity{8};
  ipc::QueuingDiscipline discipline{ipc::QueuingDiscipline::kFifo};
};

struct BufferConfig {
  std::string name;
  std::size_t max_message_bytes{64};
  std::size_t capacity{8};
  ipc::QueuingDiscipline discipline{ipc::QueuingDiscipline::kFifo};
};

struct BlackboardConfig {
  std::string name;
  std::size_t max_message_bytes{64};
};

struct SemaphoreConfig {
  std::string name;
  std::int32_t initial{1};
  std::int32_t maximum{1};
  ipc::QueuingDiscipline discipline{ipc::QueuingDiscipline::kFifo};
};

struct EventConfig {
  std::string name;
};

struct PartitionConfig {
  std::string name;
  bool system_partition{false};
  /// POS kernel heir policy: kRt (RTOS, config "rt") or kRoundRobin
  /// (non-real-time, config "generic").
  pos::Policy pos_kind{pos::Policy::kRt};
  pal::RegistryKind deadline_registry{pal::RegistryKind::kLinkedList};
  pmk::PartitionMemoryConfig memory;

  std::vector<ProcessConfig> processes;
  std::vector<SamplingPortConfig> sampling_ports;
  std::vector<QueuingPortConfig> queuing_ports;
  std::vector<BufferConfig> buffers;
  std::vector<BlackboardConfig> blackboards;
  std::vector<SemaphoreConfig> semaphores;
  std::vector<EventConfig> events;

  /// Error handler process body; empty script = no handler created.
  pos::Script error_handler;

  /// Partition HM table (empty = module defaults).
  hm::HmTable hm_table;
};

/// Scheduling configuration of one processor core (multicore extension --
/// the paper's future work (iv): parallel partition time windows). Each
/// core runs its own set of PSTs; a partition may appear in the schedules
/// of exactly one core (static core affinity), which is what keeps the
/// two-level scheduling argument intact per core.
struct CoreConfig {
  std::vector<model::Schedule> schedules;
  ScheduleId initial_schedule{ScheduleId{0}};
};

/// Observability configuration (src/telemetry). Metrics are deterministic
/// and on by default; the host-side tick profiler is off by default; a
/// flight-recorder capacity of 0 keeps the unbounded trace of the seed.
struct TelemetryConfig {
  bool metrics_enabled{true};
  bool profiler_enabled{false};
  /// Host profiler sampling stride: measure one tick in N. The default
  /// keeps always-on overhead inside the bench_telemetry mode 8 gate;
  /// air-record --profile sets 1 for exact offline capture.
  std::uint32_t profiler_stride{telemetry::HostProfiler::kDefaultStride};
  /// Flight recorder: bounded trace storage. 0 = unbounded vector.
  std::size_t flight_recorder_capacity{0};
  /// Separate retention for critical events (deadline misses, HM reports,
  /// schedule switches) so debug floods cannot evict the evidence.
  std::size_t flight_recorder_critical_capacity{256};
  /// Causal span layer: windows, jobs, message lifetimes, HM handlers,
  /// root-cause chains on deadline misses. Deterministic; off = layers hold
  /// a null recorder pointer and pay nothing.
  bool spans_enabled{true};
  /// Retained closed spans. 0 = unbounded; otherwise newest win and
  /// evictions are counted exactly (SpanRecorder::dropped_spans).
  std::size_t spans_capacity{0};
  /// In-flight observability plane: windowed digests + online SLO
  /// watchdogs (src/telemetry/online.hpp). Off by default; requires
  /// metrics_enabled (the digests sample the registry).
  telemetry::OnlineOptions online;
};

struct ModuleConfig {
  std::string name{"module"};
  ModuleId id{ModuleId{0}};
  std::size_t memory_bytes{16u << 20};

  std::vector<PartitionConfig> partitions;

  /// The set chi of partition scheduling tables (eq. 17); PartitionIds in
  /// the windows index into `partitions`.
  std::vector<model::Schedule> schedules;
  ScheduleId initial_schedule{ScheduleId{0}};

  /// Multicore: when non-empty, each entry describes one core and the
  /// single-core fields above are ignored. Schedule ids must be unique
  /// across cores; SET_MODULE_SCHEDULE from a partition addresses the
  /// schedules of the core hosting it.
  std::vector<CoreConfig> cores;
  /// ScheduleChangeAction per (schedule switched *to*, partition).
  std::map<std::pair<ScheduleId, PartitionId>, pmk::ScheduleChangeAction>
      change_actions;

  std::vector<ipc::ChannelConfig> channels;
  hm::HmTable module_hm_table;

  /// Validate every schedule against eqs. (20)-(23) at construction and
  /// abort on violation -- offline verification per Sect. 3/5.
  bool validate{true};
  /// Next-event time warp: when the module is quiescent, run()/run_until()
  /// fast-forward to the next interesting tick in O(1) instead of stepping.
  /// Observably equivalent to per-tick execution (metrics, traces and
  /// APEX-visible state are byte-identical); disable to force stepping.
  bool time_warp{true};
  /// Record events in the trace (disable for hot-path benches).
  bool trace_enabled{true};
  /// Metrics registry, tick profiler and flight recorder setup.
  TelemetryConfig telemetry;
};

}  // namespace air::system
