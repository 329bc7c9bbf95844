#include "ipc/payload.hpp"

#include <vector>

namespace air::ipc {
namespace {

/// Free-list pool for heap payload blocks, bucketed by power-of-two
/// capacity. Thread-local: modules of independent simulations may run on
/// separate host threads, and an unsynchronized global pool would race
/// (blocks are plain bytes, so migrating between per-thread pools is
/// harmless).
struct Pool {
  static constexpr std::size_t kMinCapacity = 128;       // first bucket
  static constexpr std::size_t kMaxPooled = 1u << 20;    // beyond: plain new
  static constexpr std::size_t kBuckets = 14;            // 128 .. 1 MiB
  static constexpr std::size_t kMaxPerBucket = 64;       // parked-block cap

  std::vector<char*> free_lists[kBuckets];
  Payload::PoolStats stats;

  static std::size_t bucket_capacity(std::size_t bucket) {
    return kMinCapacity << bucket;
  }
  /// Smallest bucket whose capacity holds `n` bytes; kBuckets if unpooled.
  static std::size_t bucket_for(std::size_t n) {
    std::size_t bucket = 0;
    std::size_t cap = kMinCapacity;
    while (cap < n && bucket < kBuckets) {
      cap <<= 1;
      ++bucket;
    }
    return bucket;
  }

  char* acquire(std::size_t n, std::size_t& capacity_out) {
    const std::size_t bucket = bucket_for(n);
    if (bucket >= kBuckets) {
      capacity_out = n;
      ++stats.heap_allocs;
      return new char[n];
    }
    capacity_out = bucket_capacity(bucket);
    auto& list = free_lists[bucket];
    if (!list.empty()) {
      char* block = list.back();
      list.pop_back();
      --stats.free_blocks;
      ++stats.pool_reuses;
      return block;
    }
    ++stats.heap_allocs;
    return new char[capacity_out];
  }

  void recycle(char* block, std::size_t capacity) {
    const std::size_t bucket = bucket_for(capacity);
    if (bucket < kBuckets && bucket_capacity(bucket) == capacity) {
      auto& list = free_lists[bucket];
      if (list.size() < kMaxPerBucket) {
        list.push_back(block);
        ++stats.free_blocks;
        ++stats.pool_returns;
        return;
      }
    }
    delete[] block;
  }

  void trim() {
    for (auto& list : free_lists) {
      for (char* block : list) delete[] block;
      list.clear();
    }
    stats.free_blocks = 0;
  }

  ~Pool() { trim(); }
};

Pool& pool() {
  thread_local Pool instance;
  return instance;
}

}  // namespace

void Payload::assign(std::string_view bytes) {
  if (bytes.size() <= kInlineBytes) {
    // memmove: assign from a view into our own heap block must survive the
    // switch to inline storage.
    std::memmove(inline_.data(), bytes.data(), bytes.size());
    size_ = bytes.size();
    if (heap_ != nullptr) {
      pool().recycle(heap_, heap_capacity_);
      heap_ = nullptr;
      heap_capacity_ = 0;
    }
    return;
  }
  if (heap_ == nullptr || heap_capacity_ < bytes.size()) {
    std::size_t capacity = 0;
    char* block = pool().acquire(bytes.size(), capacity);
    std::memcpy(block, bytes.data(), bytes.size());
    if (heap_ != nullptr) pool().recycle(heap_, heap_capacity_);
    heap_ = block;
    heap_capacity_ = capacity;
  } else {
    std::memmove(heap_, bytes.data(), bytes.size());
  }
  size_ = bytes.size();
}

void Payload::release() {
  if (heap_ != nullptr) {
    pool().recycle(heap_, heap_capacity_);
    heap_ = nullptr;
    heap_capacity_ = 0;
  }
  size_ = 0;
}

Payload::PoolStats Payload::pool_stats() { return pool().stats; }

void Payload::trim_pool() { pool().trim(); }

}  // namespace air::ipc
