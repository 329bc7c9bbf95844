// The beacon constellation (DESIGN.md §13): small satellites on a switched
// virtual-link bus, shared by bench_constellation and the constellation
// equivalence tests.
#pragma once

#include <cstddef>
#include <memory>

#include "system/module_config.hpp"
#include "system/world.hpp"

namespace air::scenarios {

/// A small satellite: one partition owning the whole 500-tick MTF and a
/// single beacon process (write + read the sampling ring to module
/// (id + 1) % nmodules, then sleep ~400 ticks). No filler compute, so a
/// flight measures the data-plane machinery. memory_bytes is trimmed
/// (simulated RAM is demand-zero, but 16 MiB per module would still reserve
/// 16 GiB of address space at 1000 modules); telemetry captures are bounded.
[[nodiscard]] system::ModuleConfig satellite(int id, int nmodules);

/// `nmodules` satellites in a ring, each beacon on a reserved virtual link,
/// over a bus with `per_switch` stations per switch (0 = one flat
/// broadcast domain).
[[nodiscard]] std::unique_ptr<system::World> build_constellation(
    int nmodules, std::size_t per_switch);

}  // namespace air::scenarios
