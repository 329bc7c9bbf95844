// Zero-allocation steady state (the DESIGN.md section 12 claim).
//
// After PR 7 pooled message payloads and this PR interned every telemetry
// label, a warmed-up flight with the full observability stack enabled --
// metrics, bounded flight recorder, spans, host profiler -- must execute
// ticks without touching the heap at all. This test proves it with a
// counting global operator new (every allocation in the process increments
// an atomic), cross-checked against the two subsystem counters the claim
// rests on: StringArena::Stats::bytes_used and Payload::PoolStats::
// heap_allocs.
//
// The counting operator new/delete pair replaces the global ones for the
// whole test binary; it only counts and delegates, so the other suites are
// unaffected. Under ASan/TSan the sanitizer owns the allocator, so the
// replacement is compiled out and the test skips.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "config/fig8.hpp"
#include "ipc/payload.hpp"
#include "system/module.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define AIR_ALLOC_COUNTING_DISABLED 1
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define AIR_ALLOC_COUNTING_DISABLED 1
#endif
#endif

#ifndef AIR_ALLOC_COUNTING_DISABLED

namespace {
std::atomic<std::uint64_t> g_allocations{0};

std::uint64_t allocation_count() {
  return g_allocations.load(std::memory_order_relaxed);
}

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc{};
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

#endif  // AIR_ALLOC_COUNTING_DISABLED

namespace air {
namespace {

TEST(ZeroAlloc, SteadyStateFlightNeverTouchesTheHeap) {
#ifdef AIR_ALLOC_COUNTING_DISABLED
  GTEST_SKIP() << "allocation counting is owned by the sanitizer runtime";
#else
  // Full observability stack: metrics, bounded trace rings, bounded span
  // ring, host profiler at stride 1 (which also forces per-tick stepping,
  // so every tick below really executes the whole hot path).
  auto config = scenarios::fig8_config({.with_faulty_process = false});
  config.telemetry.flight_recorder_capacity = 4096;
  config.telemetry.spans_capacity = 4096;
  config.telemetry.profiler_enabled = true;
  config.telemetry.profiler_stride = 1;
  system::Module module(std::move(config));

  // Warm-up: first occurrence of every label lands in the arena, window
  // caches and the span ring materialise, the payload pool fills.
  module.run(4 * scenarios::kFig8Mtf);

  const std::uint64_t heap_before = allocation_count();
  const std::size_t arena_before = module.arena().stats().bytes_used;
  const std::uint64_t pool_before = ipc::Payload::pool_stats().heap_allocs;

  module.run(4 * scenarios::kFig8Mtf);

  EXPECT_EQ(allocation_count(), heap_before)
      << "a steady-state tick allocated on the host heap";
  EXPECT_EQ(module.arena().stats().bytes_used, arena_before)
      << "steady-state labels must all be arena hits";
  EXPECT_EQ(ipc::Payload::pool_stats().heap_allocs, pool_before)
      << "steady-state payloads must all come from the pool";
  // And the flight did real work while not allocating. now() is the
  // timestamp of the last executed tick, so 8*MTF ticks end at 8*MTF - 1.
  EXPECT_EQ(module.now(), 8 * scenarios::kFig8Mtf - 1);
  EXPECT_GT(module.spans().recorded_spans(), 0u);
  EXPECT_GT(module.profiler().ticks(), 0u);
#endif
}

#ifndef AIR_ALLOC_COUNTING_DISABLED
// Heap allocations made by the Module constructor for `config` (the copy
// into the parameter happens before the count starts).
std::uint64_t construction_allocations(system::ModuleConfig config) {
  const std::uint64_t before = allocation_count();
  const system::Module module(std::move(config));
  return allocation_count() - before;
}
#endif

TEST(ZeroAlloc, AnEmptyPartitionCostsFewAllocations) {
#ifdef AIR_ALLOC_COUNTING_DISABLED
  GTEST_SKIP() << "allocation counting is owned by the sanitizer runtime";
#else
  // A partition's kernel keeps one ready queue per priority level; an
  // empty level must own no heap block (256 levels of std::deque cost two
  // blocks each, 512 in all).
  auto config = scenarios::fig8_config({.with_faulty_process = false});
  const std::uint64_t base = construction_allocations(config);
  system::PartitionConfig spare;
  spare.name = "SPARE";
  config.partitions.push_back(std::move(spare));
  const std::uint64_t with_spare = construction_allocations(config);
  ASSERT_GT(with_spare, base);
  EXPECT_LT(with_spare - base, 64u);
#endif
}

TEST(ZeroAlloc, ArenaHitsDoNotAllocate) {
#ifdef AIR_ALLOC_COUNTING_DISABLED
  GTEST_SKIP() << "allocation counting is owned by the sanitizer runtime";
#else
  util::StringArena arena;
  arena.intern("window");
  arena.intern("job");
  const std::uint64_t before = allocation_count();
  for (int i = 0; i < 10000; ++i) {
    arena.intern("window");
    arena.intern("job");
  }
  EXPECT_EQ(allocation_count(), before);
#endif
}

}  // namespace
}  // namespace air
