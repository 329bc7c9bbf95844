// Simulated flat physical memory.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>

namespace air::hal {

using PhysAddr = std::uint32_t;
using VirtAddr = std::uint32_t;

/// Byte-addressable physical memory of fixed size. All accesses are bounds
/// checked; out-of-range access is a bug in the caller (the MMU must have
/// produced a valid frame), hence asserts rather than recoverable errors.
///
/// The backing store is one anonymous private mapping: the host kernel's
/// demand-zero pages are the RAM's reset state, so memory reads 0 until
/// written and a module's resident footprint is the pages its partitions
/// touch, not the size it configures (DESIGN.md §2).
class PhysicalMemory {
 public:
  /// Throws std::bad_alloc when the host refuses the mapping.
  explicit PhysicalMemory(std::size_t bytes);

  [[nodiscard]] std::size_t size() const { return size_; }

  void write(PhysAddr addr, std::span<const std::byte> data);
  void read(PhysAddr addr, std::span<std::byte> out) const;

  [[nodiscard]] std::uint8_t read_u8(PhysAddr addr) const;
  void write_u8(PhysAddr addr, std::uint8_t value);

  [[nodiscard]] std::uint32_t read_u32(PhysAddr addr) const;
  void write_u32(PhysAddr addr, std::uint32_t value);

 private:
  struct Unmap {
    std::size_t bytes;
    void operator()(std::byte* base) const noexcept;
  };

  std::size_t size_;
  std::unique_ptr<std::byte[], Unmap> bytes_;
};

/// Simple bump allocator over physical memory, used at integration time to
/// carve per-partition regions (code/data/stack per execution level). There
/// is deliberately no free(): ARINC 653 memory layout is static.
class FrameAllocator {
 public:
  FrameAllocator(PhysAddr base, std::size_t size) : next_(base), end_(base + size) {}

  /// Allocate `size` bytes aligned to `align`; returns the base address.
  [[nodiscard]] PhysAddr allocate(std::size_t size, std::size_t align = 16);

  [[nodiscard]] std::size_t remaining() const { return end_ - next_; }

 private:
  PhysAddr next_;
  PhysAddr end_;
};

}  // namespace air::hal
