// Small-buffer / arena-backed message payload (hot-path flattening).
//
// ipc::Message used to carry its bytes in a std::string, which puts a heap
// allocation + deallocation on every copy a message makes through the stack
// (APEX service -> port slot -> router hop -> bus frame -> remote port).
// ARINC 653 ports bound their message size at configuration time and real
// missions overwhelmingly move small telemetry/command frames, so Payload
// stores up to kInlineBytes inline (copies are a memcpy, no allocator
// traffic) and services larger payloads from a power-of-two-bucketed
// free-list pool: a heap block released by a dying message is recycled by
// the next oversized message instead of round-tripping through the global
// allocator. The pool is thread-local, so independent simulations flown on
// separate host threads never share it unsynchronized (blocks may migrate
// between pools, which is safe -- they are plain byte arrays), and bounded
// per bucket.
//
// Determinism: where a payload's bytes live never influences simulation
// behaviour -- only the bytes themselves are observable (traces, digests,
// oracle fingerprints hash payload *contents*). The pool therefore needs no
// cross-run stability, and the fi bus fault hooks (drop/corrupt/delay)
// replay byte-identically on pooled and fresh blocks alike
// (tests/test_payload.cpp asserts it).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <ostream>
#include <string>
#include <string_view>

namespace air::ipc {

class Payload {
 public:
  /// Messages up to this size (covers every stock mission port) live
  /// inline; larger ones use a pooled heap block.
  static constexpr std::size_t kInlineBytes = 64;

  Payload() = default;
  Payload(const char* bytes) : Payload(std::string_view{bytes}) {}
  Payload(std::string_view bytes) { assign(bytes); }
  Payload(const std::string& bytes) { assign(bytes); }

  Payload(const Payload& other) { assign(other.view()); }
  Payload(Payload&& other) noexcept { steal(other); }
  Payload& operator=(const Payload& other) {
    if (this != &other) assign(other.view());
    return *this;
  }
  Payload& operator=(Payload&& other) noexcept {
    if (this != &other) {
      release();
      steal(other);
    }
    return *this;
  }
  Payload& operator=(std::string_view bytes) {
    assign(bytes);
    return *this;
  }
  ~Payload() { release(); }

  void assign(std::string_view bytes);

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] const char* data() const {
    return heap_ != nullptr ? heap_ : inline_.data();
  }
  [[nodiscard]] char* data() {
    return heap_ != nullptr ? heap_ : inline_.data();
  }
  [[nodiscard]] char& operator[](std::size_t i) { return data()[i]; }
  [[nodiscard]] const char& operator[](std::size_t i) const {
    return data()[i];
  }
  [[nodiscard]] std::string_view view() const { return {data(), size_}; }
  operator std::string_view() const { return view(); }
  [[nodiscard]] std::string str() const { return std::string{view()}; }
  /// True while the bytes fit the inline buffer (no pool block held).
  [[nodiscard]] bool inline_storage() const { return heap_ == nullptr; }

  friend bool operator==(const Payload& a, const Payload& b) {
    return a.view() == b.view();
  }
  friend bool operator==(const Payload& a, std::string_view b) {
    return a.view() == b;
  }
  // Exact-match overload for string literals: without it, `p == "x"` is
  // ambiguous between the string_view comparison and Payload's converting
  // constructor.
  friend bool operator==(const Payload& a, const char* b) {
    return a.view() == std::string_view{b};
  }
  friend std::ostream& operator<<(std::ostream& os, const Payload& p) {
    return os << p.view();
  }

  // --- pool observability (tests / EXPERIMENTS) ---
  struct PoolStats {
    std::uint64_t heap_allocs{0};   // blocks taken from the allocator
    std::uint64_t pool_reuses{0};   // blocks recycled from the free list
    std::uint64_t pool_returns{0};  // blocks returned to the free list
    std::size_t free_blocks{0};     // blocks currently parked
  };
  /// This thread's pool counters.
  [[nodiscard]] static PoolStats pool_stats();
  /// Drop every parked block of this thread's pool (tests isolate stats).
  static void trim_pool();

 private:
  void release();
  void steal(Payload& other) noexcept {
    size_ = other.size_;
    heap_ = other.heap_;
    heap_capacity_ = other.heap_capacity_;
    if (heap_ == nullptr && size_ > 0) {
      std::memcpy(inline_.data(), other.inline_.data(), size_);
    }
    other.heap_ = nullptr;
    other.heap_capacity_ = 0;
    other.size_ = 0;
  }

  std::size_t size_{0};
  char* heap_{nullptr};  // nullptr = inline storage
  std::size_t heap_capacity_{0};
  std::array<char, kInlineBytes> inline_;
};

}  // namespace air::ipc
