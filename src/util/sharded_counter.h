// A counter whose adds go to a per-thread cache-line cell: the
// padded-sequence idea of the Disruptor (§6.3) applied to a plain count.
// A thread adds only into its own cell and a read sums the cells, so
// threads that all count into one object stop bouncing one shared line.
// The table counters (core/stats.h) and the concurrent skip list's size
// (concurrent/skip_list_map.h) are ShardedCounters.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "util/cache_pad.h"

namespace jstar {

/// Cells per ShardedCounter.  More threads than this share cells, which
/// stays exact (cells are atomic) but contends again.
inline constexpr std::size_t kCounterSlots = 8;

namespace detail {
inline std::atomic<std::size_t> next_counter_slot{0};
// kCounterSlots until the thread's first add.  Constant-initialized, so
// reading it costs no TLS init guard.
inline constinit thread_local std::size_t tl_counter_slot = kCounterSlots;

/// This thread's cell index, handed out round-robin on first use.  Not
/// the pool's worker index: coordinators, helping joiners and shard and
/// generator threads add too, and every pool reuses indices 0..n-1.
inline std::size_t counter_slot() {
  if (tl_counter_slot == kCounterSlots) [[unlikely]] {
    tl_counter_slot =
        next_counter_slot.fetch_add(1, std::memory_order_relaxed) %
        kCounterSlots;
  }
  return tl_counter_slot;
}
}  // namespace detail

/// A counter with std::atomic's spelling (fetch_add/load) whose adds go
/// to a per-thread cache-line cell and whose load sums the cells.
class ShardedCounter {
 public:
  using Cell = CachePadded<std::atomic<std::int64_t>>;

  void fetch_add(std::int64_t d,
                 std::memory_order mo = std::memory_order_seq_cst) {
    cells_[detail::counter_slot()].value.fetch_add(d, mo);
  }

  std::int64_t load(std::memory_order mo = std::memory_order_seq_cst) const {
    std::int64_t sum = 0;
    for (const Cell& c : cells_) sum += c.value.load(mo);
    return sum;
  }

 private:
  Cell cells_[kCounterSlots];
};

}  // namespace jstar
