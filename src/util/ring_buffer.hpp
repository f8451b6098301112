// Single-producer/single-consumer lock-free ring buffer. Models the
// bounded queues between IDS pipeline stages (load balancer -> sensor ->
// analyzer -> monitor) when the harness runs stages on real threads, and
// provides the bounded-queue semantics (tail drop on full) that the
// zero-loss-throughput measurement depends on.
#pragma once

#include <atomic>
#include <cstddef>
#include <optional>
#include <utility>
#include <vector>

namespace idseval::util {

/// Cache-line size the producer and consumer indices are padded to. A
/// fixed constant rather than std::hardware_destructive_interference_size,
/// whose value may differ between compilers and tuning flags (GCC warns
/// that using it in a header makes the layout ABI-unstable).
inline constexpr std::size_t kCacheLine = 64;

/// Bounded SPSC queue. `try_push` fails (returns false) when full — the
/// caller decides whether that is back-pressure or a drop. Capacity is
/// rounded up to a power of two.
template <typename T>
class SpscRing {
 public:
  explicit SpscRing(std::size_t capacity) {
    std::size_t cap = 1;
    while (cap < capacity) cap <<= 1;
    mask_ = cap - 1;
    slots_.resize(cap);
  }

  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  std::size_t capacity() const noexcept { return slots_.size(); }

  bool try_push(T value) noexcept {
    const std::size_t head = head_.load(std::memory_order_relaxed);
    const std::size_t tail = tail_cache_;
    if (head - tail >= slots_.size()) {
      tail_cache_ = tail_.load(std::memory_order_acquire);
      if (head - tail_cache_ >= slots_.size()) return false;
    }
    slots_[head & mask_] = std::move(value);
    head_.store(head + 1, std::memory_order_release);
    return true;
  }

  std::optional<T> try_pop() noexcept {
    const std::size_t tail = tail_.load(std::memory_order_relaxed);
    const std::size_t head = head_cache_;
    if (tail >= head) {
      head_cache_ = head_.load(std::memory_order_acquire);
      if (tail >= head_cache_) return std::nullopt;
    }
    T value = std::move(slots_[tail & mask_]);
    tail_.store(tail + 1, std::memory_order_release);
    return value;
  }

  /// Approximate occupancy; exact only when quiescent.
  std::size_t size() const noexcept {
    const std::size_t head = head_.load(std::memory_order_acquire);
    const std::size_t tail = tail_.load(std::memory_order_acquire);
    return head - tail;
  }

  bool empty() const noexcept { return size() == 0; }

 private:
  std::vector<T> slots_;
  std::size_t mask_ = 0;

  alignas(kCacheLine) std::atomic<std::size_t> head_{0};
  alignas(kCacheLine) std::size_t tail_cache_ = 0;  // producer-side
  alignas(kCacheLine) std::atomic<std::size_t> tail_{0};
  alignas(kCacheLine) std::size_t head_cache_ = 0;  // consumer-side
};

}  // namespace idseval::util
