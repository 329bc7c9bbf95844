// Spatial partitioning mechanisms (Sect. 2.1, Fig. 3).
//
// Integration-time memory requirements are expressed as high-level,
// processor-independent descriptors -- per partition, per execution level
// (application / POS / PMK) and per memory section (code / data / stack) --
// and mapped at runtime onto the simulated three-level page-based MMU
// (LEON3-style, src/hal/mmu).
//
// Every partition gets its own MMU context with an identical *virtual*
// layout; physical frames never overlap between partitions. The PMK region
// is mapped into every context but only accessible at the PMK execution
// level, which is how the kernel can run during any partition's window
// without the partition being able to touch it.
#pragma once

#include <map>

#include "hal/machine.hpp"
#include "util/types.hpp"

namespace air::pmk {

/// Fixed virtual layout (identical in every partition's context).
inline constexpr hal::VirtAddr kAppCodeBase = 0x0040'0000;
inline constexpr hal::VirtAddr kAppDataBase = 0x0080'0000;
inline constexpr hal::VirtAddr kAppStackBase = 0x00C0'0000;
inline constexpr hal::VirtAddr kPosCodeBase = 0x0100'0000;
inline constexpr hal::VirtAddr kPosDataBase = 0x0140'0000;
inline constexpr hal::VirtAddr kPmkBase = 0x0180'0000;

/// Integration-time sizes of a partition's memory sections.
struct PartitionMemoryConfig {
  std::size_t app_code_bytes{16 << 10};
  std::size_t app_data_bytes{16 << 10};
  std::size_t app_stack_bytes{8 << 10};
  std::size_t pos_code_bytes{16 << 10};
  std::size_t pos_data_bytes{16 << 10};
};

/// Size of the PMK's own region, carved first from every module's memory.
inline constexpr std::size_t kPmkRegionBytes = 64 << 10;

/// Physical bytes setup_partition carves for `config`: every section
/// rounded up to a whole page. kPmkRegionBytes plus the sum over a module's
/// partitions is the least memory the module boots with.
[[nodiscard]] std::size_t partition_footprint(
    const PartitionMemoryConfig& config);

/// Runtime descriptor of a partition's address space.
struct PartitionSpace {
  hal::MmuContextId context{-1};
  hal::PhysAddr app_code{0};
  hal::PhysAddr app_data{0};
  hal::PhysAddr app_stack{0};
  hal::PhysAddr pos_code{0};
  hal::PhysAddr pos_data{0};
  PartitionMemoryConfig config;
};

class SpatialManager {
 public:
  explicit SpatialManager(hal::Machine& machine);

  /// Allocate physical memory for `partition`, create its MMU context and
  /// program the page tables per the descriptor set of Fig. 3.
  const PartitionSpace& setup_partition(PartitionId partition,
                                        const PartitionMemoryConfig& config);

  [[nodiscard]] const PartitionSpace* space(PartitionId partition) const;

  /// The PMK's own (shared) region physical base.
  [[nodiscard]] hal::PhysAddr pmk_region() const { return pmk_phys_; }

 private:
  hal::Machine& machine_;
  hal::PhysAddr pmk_phys_{0};
  std::map<PartitionId, PartitionSpace> spaces_;
};

}  // namespace air::pmk
