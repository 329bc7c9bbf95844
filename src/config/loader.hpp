// Integration-file loader: JSON -> system::ModuleConfig.
//
// ARINC 653 systems are configured by integrator-written files (the
// standard uses XML; we use JSON with // comments). The loader performs the
// same role as AIR's configuration tool chain: it resolves partition names
// to ids, builds the schedules, channels, HM tables and process workload
// scripts, and leaves model validation to Module construction.
//
// Schema sketch (all times in ticks; -1 encodes "infinite"):
//   {
//     "name": "...", "memory_bytes": 16777216, "initial_schedule": 0,
//     "partitions": [ { "name", "system", "pos" ("rt"|"generic"),
//        "registry" ("list"|"tree"), "processes": [ { "name", "period",
//        "time_capacity", "priority", "auto_start", "script": [ <op>... ] }],
//        "sampling_ports": [...], "queuing_ports": [...], "buffers": [...],
//        "blackboards": [...], "semaphores": [...], "events": [...],
//        "error_handler": [ <op>... ], "hm_table": [ <hm entry>... ] } ],
//     "schedules": [ { "id", "name", "mtf", "requirements": [ { "partition",
//        "period", "duration" } ], "windows": [ { "partition", "offset",
//        "duration" } ], "change_actions": [ { "partition", "action" } ] } ],
//     "channels": [ { "kind" ("sampling"|"queuing"), "source": { "partition",
//        "port" }, "destinations": [ { "partition", "port" } ] } ],
//     "module_hm_table": [ <hm entry>... ]
//   }
// An <op> is { "op": "compute", "ticks": 30 } etc. -- see loader.cpp for
// the full op table. "memory_bytes" must lie in [4096, 2^32) (PhysAddr is
// 32 bits) and hold the 64 KiB PMK region plus every partition's sections.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "net/bus.hpp"
#include "system/module_config.hpp"

namespace air::config {

struct LoadResult {
  std::optional<system::ModuleConfig> config;
  std::string error;

  [[nodiscard]] bool ok() const { return config.has_value(); }
};

[[nodiscard]] LoadResult load_module_config(std::string_view json_text);
[[nodiscard]] LoadResult load_module_config_file(const std::string& path);

/// World-level network topology (the integrator's counterpart of the ARINC
/// 664 network configuration tables). Schema (all times in ticks; -1 means
/// "infinite"; either the top-level object or its "network" member):
///   { "network": {
///       "slot_length": 10, "frames_per_slot": 4, "propagation_delay": 1,
///       "stations_per_switch": 32, "switch_hop_delay": 2,
///       "virtual_links": [ { "source": 0, "dest": 1,
///                            "min_gap": 20, "jitter_budget": 100 } ] } }
/// stations_per_switch 0 (the default) keeps the flat broadcast topology.
struct NetworkConfig {
  net::BusConfig bus;
  std::vector<net::VirtualLinkConfig> virtual_links;
};

struct NetworkLoadResult {
  std::optional<NetworkConfig> config;
  std::string error;

  [[nodiscard]] bool ok() const { return config.has_value(); }
};

[[nodiscard]] NetworkLoadResult load_network_config(std::string_view json_text);
[[nodiscard]] NetworkLoadResult load_network_config_file(
    const std::string& path);

}  // namespace air::config
