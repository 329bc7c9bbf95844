#include "hal/memory.hpp"

#include <sys/mman.h>

#include <cstring>
#include <new>

#include "util/assert.hpp"

namespace air::hal {

namespace {

std::byte* map_zeroed(std::size_t bytes) {
  if (bytes == 0) return nullptr;
  void* base = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                      MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (base == MAP_FAILED) throw std::bad_alloc{};
  return static_cast<std::byte*>(base);
}

}  // namespace

PhysicalMemory::PhysicalMemory(std::size_t bytes)
    : size_(bytes), bytes_(map_zeroed(bytes), Unmap{bytes}) {}

void PhysicalMemory::Unmap::operator()(std::byte* base) const noexcept {
  ::munmap(base, bytes);
}

void PhysicalMemory::write(PhysAddr addr, std::span<const std::byte> data) {
  AIR_ASSERT_MSG(addr + data.size() <= size_,
                 "physical write out of range");
  std::memcpy(bytes_.get() + addr, data.data(), data.size());
}

void PhysicalMemory::read(PhysAddr addr, std::span<std::byte> out) const {
  AIR_ASSERT_MSG(addr + out.size() <= size_,
                 "physical read out of range");
  std::memcpy(out.data(), bytes_.get() + addr, out.size());
}

std::uint8_t PhysicalMemory::read_u8(PhysAddr addr) const {
  AIR_ASSERT(addr < size_);
  return static_cast<std::uint8_t>(bytes_[addr]);
}

void PhysicalMemory::write_u8(PhysAddr addr, std::uint8_t value) {
  AIR_ASSERT(addr < size_);
  bytes_[addr] = static_cast<std::byte>(value);
}

std::uint32_t PhysicalMemory::read_u32(PhysAddr addr) const {
  std::uint32_t v = 0;
  read(addr, std::as_writable_bytes(std::span{&v, 1}));
  return v;
}

void PhysicalMemory::write_u32(PhysAddr addr, std::uint32_t value) {
  write(addr, std::as_bytes(std::span{&value, 1}));
}

PhysAddr FrameAllocator::allocate(std::size_t size, std::size_t align) {
  AIR_ASSERT(align > 0 && (align & (align - 1)) == 0);
  PhysAddr base = (next_ + static_cast<PhysAddr>(align) - 1) &
                  ~static_cast<PhysAddr>(align - 1);
  AIR_ASSERT_MSG(base + size <= end_, "physical memory exhausted");
  next_ = base + static_cast<PhysAddr>(size);
  return base;
}

}  // namespace air::hal
