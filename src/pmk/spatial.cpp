#include "pmk/spatial.hpp"

#include "util/assert.hpp"

namespace air::pmk {

namespace {

using hal::AccessRights;
using hal::ExecLevel;
using hal::LevelRights;

LevelRights app_code_rights() {
  LevelRights r;
  r.at(ExecLevel::kApplication) = AccessRights::rx();
  r.at(ExecLevel::kPos) = AccessRights::rx();
  r.at(ExecLevel::kPmk) = AccessRights{true, true, true};
  return r;
}

LevelRights app_data_rights() {
  LevelRights r;
  r.at(ExecLevel::kApplication) = AccessRights::rw();
  r.at(ExecLevel::kPos) = AccessRights::rw();
  r.at(ExecLevel::kPmk) = AccessRights{true, true, false};
  return r;
}

LevelRights pos_code_rights() {
  LevelRights r;
  // Application-level code cannot execute or read POS internals.
  r.at(ExecLevel::kPos) = AccessRights::rx();
  r.at(ExecLevel::kPmk) = AccessRights{true, true, true};
  return r;
}

LevelRights pos_data_rights() {
  LevelRights r;
  r.at(ExecLevel::kPos) = AccessRights::rw();
  r.at(ExecLevel::kPmk) = AccessRights{true, true, false};
  return r;
}

LevelRights pmk_rights() {
  LevelRights r;
  // Only the PMK level may touch the PMK region, in any context.
  r.at(ExecLevel::kPmk) = AccessRights{true, true, true};
  return r;
}

}  // namespace

std::size_t partition_footprint(const PartitionMemoryConfig& config) {
  constexpr std::size_t kPage = hal::Mmu::kPageSize;
  const auto page = [](std::size_t bytes) {
    return (bytes + kPage - 1) / kPage * kPage;
  };
  return page(config.app_code_bytes) + page(config.app_data_bytes) +
         page(config.app_stack_bytes) + page(config.pos_code_bytes) +
         page(config.pos_data_bytes);
}

SpatialManager::SpatialManager(hal::Machine& machine) : machine_(machine) {
  pmk_phys_ =
      machine_.allocator().allocate(kPmkRegionBytes, hal::Mmu::kPageSize);
}

const PartitionSpace& SpatialManager::setup_partition(
    PartitionId partition, const PartitionMemoryConfig& config) {
  AIR_ASSERT_MSG(spaces_.find(partition) == spaces_.end(),
                 "partition space already configured");

  PartitionSpace space;
  space.config = config;
  space.context = machine_.mmu().create_context();

  auto& alloc = machine_.allocator();
  const std::size_t page = hal::Mmu::kPageSize;
  space.app_code = alloc.allocate(config.app_code_bytes, page);
  space.app_data = alloc.allocate(config.app_data_bytes, page);
  space.app_stack = alloc.allocate(config.app_stack_bytes, page);
  space.pos_code = alloc.allocate(config.pos_code_bytes, page);
  space.pos_data = alloc.allocate(config.pos_data_bytes, page);

  auto& mmu = machine_.mmu();
  mmu.map(space.context, kAppCodeBase, space.app_code, config.app_code_bytes,
          app_code_rights());
  mmu.map(space.context, kAppDataBase, space.app_data, config.app_data_bytes,
          app_data_rights());
  mmu.map(space.context, kAppStackBase, space.app_stack,
          config.app_stack_bytes, app_data_rights());
  mmu.map(space.context, kPosCodeBase, space.pos_code, config.pos_code_bytes,
          pos_code_rights());
  mmu.map(space.context, kPosDataBase, space.pos_data, config.pos_data_bytes,
          pos_data_rights());
  // The PMK region: same physical frames in every context, PMK-only rights.
  mmu.map(space.context, kPmkBase, pmk_phys_, kPmkRegionBytes, pmk_rights());

  auto [it, inserted] = spaces_.emplace(partition, space);
  AIR_ASSERT(inserted);
  return it->second;
}

const PartitionSpace* SpatialManager::space(PartitionId partition) const {
  auto it = spaces_.find(partition);
  return it != spaces_.end() ? &it->second : nullptr;
}

}  // namespace air::pmk
