// Bounded lock-free single-producer/single-consumer ring: the core of
// InProcTransport's per-channel mailbox (DESIGN.md §12.2).
//
// Invariants (the only memory-ordering argument in the repo — keep it here):
//   * exactly one producer thread calls try_push(), exactly one consumer
//     thread calls try_pop();
//   * a slot's contents are published by the tail_ release-store and read
//     after the consumer's acquire-load of tail_, and are consumed before the
//     head_ release-store frees the slot for reuse — slot contents never
//     race;
//   * Capacity is a power of two; indices grow monotonically and are masked
//     on access, so head_ <= tail_ <= head_ + Capacity at all times.
//
// try_push()/try_pop() never block: callers layer their own overflow policy
// (InProcTransport spills to a mutexed deque).
#pragma once

#include <atomic>
#include <cstddef>
#include <utility>
#include <vector>

namespace fvn::net {

template <typename T, std::size_t Capacity>
class SpscRing {
  static_assert(Capacity != 0 && (Capacity & (Capacity - 1)) == 0,
                "SpscRing capacity must be a power of two");

 public:
  SpscRing() : slots_(Capacity) {}

  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  /// Producer thread only. False when the ring is full (caller's overflow
  /// policy decides what happens; `value` is untouched then).
  bool try_push(T& value) {
    const std::size_t t = tail_.load(std::memory_order_relaxed);
    if (t - head_.load(std::memory_order_acquire) >= Capacity) return false;
    slots_[t & (Capacity - 1)] = std::move(value);
    tail_.store(t + 1, std::memory_order_release);
    return true;
  }

  /// Consumer thread only. False when the ring is empty.
  bool try_pop(T& out) {
    const std::size_t h = head_.load(std::memory_order_relaxed);
    if (h == tail_.load(std::memory_order_acquire)) return false;
    out = std::move(slots_[h & (Capacity - 1)]);
    head_.store(h + 1, std::memory_order_release);
    return true;
  }

  /// Any thread: approximate emptiness (exact for the producer/consumer
  /// themselves; a momentarily-stale answer for observers).
  bool looks_empty() const {
    return head_.load(std::memory_order_acquire) ==
           tail_.load(std::memory_order_acquire);
  }

  static constexpr std::size_t capacity() noexcept { return Capacity; }

 private:
  std::vector<T> slots_;
  std::atomic<std::size_t> head_{0};  // consumer cursor
  std::atomic<std::size_t> tail_{0};  // producer cursor
};

}  // namespace fvn::net
