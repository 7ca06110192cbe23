// Tests for the per-table counter storage (core/stats.h): a ShardedCounter
// stays exact when more threads than cells add into it, a cell is one
// cache line, and TableStats::load() / snapshot() carry every counter of
// kCounterFields.
#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <vector>

#include "core/stats.h"

namespace jstar {
namespace {

static_assert(sizeof(ShardedCounter::Cell) == kCacheLine);
static_assert(alignof(ShardedCounter::Cell) == kCacheLine);
static_assert(sizeof(ShardedCounter) == kCounterSlots * kCacheLine);

TEST(ShardedCounter, MixedSignedAddsFromSharedSlotsAreExact) {
  // Twice as many threads as cells, so the round-robin slots are shared.
  constexpr int kThreads = 2 * static_cast<int>(kCounterSlots);
  constexpr std::int64_t kAdds = 20000;
  ShardedCounter c;
  std::vector<std::thread> threads;
  std::int64_t want = 0;
  for (int t = 0; t < kThreads; ++t) {
    // Thread t adds t+1 on even steps and -(t/2) on odd ones.
    const std::int64_t up = t + 1;
    const std::int64_t down = -(t / 2);
    want += (kAdds / 2) * (up + down);
    threads.emplace_back([&c, up, down] {
      for (std::int64_t i = 0; i < kAdds; ++i) {
        c.fetch_add(i % 2 == 0 ? up : down, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(c.load(), want);
  EXPECT_EQ(c.load(std::memory_order_relaxed), want);
}

TEST(ShardedCounter, StartsAtZero) {
  ShardedCounter c;
  EXPECT_EQ(c.load(), 0);
  c.fetch_add(-3);
  EXPECT_EQ(c.load(), -3);
}

/// Stands in for a table in snapshot(): anything with stats().
struct FakeTable {
  TableStats s;
  const TableStats& stats() const { return s; }
};

/// Gives counter i the value (i + 1) * scale, spread over several threads.
void fill(TableStats& stats, std::int64_t scale) {
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&stats, scale, t] {
      std::int64_t i = 0;
      for (const CounterField& f : kCounterFields) {
        const std::int64_t v = (i + 1) * scale;
        // Thread 0 adds v + 2, threads 1 and 2 each subtract 1.
        (stats.*f.live).fetch_add(t == 0 ? v + 2 : -1,
                                  std::memory_order_relaxed);
        ++i;
      }
    });
  }
  for (std::thread& th : threads) th.join();
}

TEST(TableStats, LoadAndSnapshotRoundTripEveryField) {
  auto a = std::make_unique<FakeTable>();
  auto b = std::make_unique<FakeTable>();
  fill(a->s, 1);
  fill(b->s, 100);

  const Counters loaded = a->s.load();
  std::int64_t i = 0;
  for (const CounterField& f : kCounterFields) {
    EXPECT_EQ(loaded.*f.value, i + 1) << f.name;
    EXPECT_EQ((a->s.*f.live).load(), i + 1) << f.name;
    ++i;
  }

  std::vector<std::unique_ptr<FakeTable>> tables;
  tables.push_back(std::move(a));
  tables.push_back(std::move(b));
  const Counters sum = snapshot(tables);
  i = 0;
  for (const CounterField& f : kCounterFields) {
    EXPECT_EQ(sum.*f.value, (i + 1) * 101) << f.name;
    ++i;
  }
  EXPECT_EQ(sum - tables[1]->s.load(), loaded);
}

}  // namespace
}  // namespace jstar
