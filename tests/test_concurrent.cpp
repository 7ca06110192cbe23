// Tests for the concurrent containers: the lazy skip-list map/set (the
// ConcurrentSkipListMap/Set stand-ins used by the Delta tree and Gamma)
// and the striped hash map/set (ConcurrentHashMap stand-in, §6.2).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "concurrent/skip_list_map.h"
#include "concurrent/skip_list_set.h"
#include "concurrent/striped_hash_map.h"
#include "core/key.h"
#include "core/striped_delta_tree.h"
#include "util/rng.h"

namespace jstar::concurrent {
namespace {

TEST(SkipListMap, InsertAndFind) {
  SkipListMap<int, int> m;
  EXPECT_TRUE(m.insert(5, 50));
  EXPECT_TRUE(m.insert(3, 30));
  EXPECT_FALSE(m.insert(5, 99));  // set semantics: duplicate key rejected
  EXPECT_TRUE(m.contains(5));
  EXPECT_TRUE(m.contains(3));
  EXPECT_FALSE(m.contains(4));
  ASSERT_NE(m.find_value(5), nullptr);
  EXPECT_EQ(*m.find_value(5), 50);  // first value wins
  EXPECT_EQ(m.find_value(4), nullptr);
  EXPECT_EQ(m.size(), 2u);
}

TEST(SkipListMap, GetOrInsertCallsFactoryOnce) {
  SkipListMap<int, int> m;
  int calls = 0;
  int& v1 = m.get_or_insert(7, [&] { ++calls; return 70; });
  int& v2 = m.get_or_insert(7, [&] { ++calls; return 71; });
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(&v1, &v2);
  EXPECT_EQ(v1, 70);
}

TEST(SkipListMap, OrderedTraversal) {
  SkipListMap<int, int> m;
  for (int k : {9, 1, 5, 3, 7}) m.insert(k, k * 10);
  std::vector<int> keys;
  m.for_each([&](const int& k, const int&) { keys.push_back(k); });
  EXPECT_EQ(keys, (std::vector<int>{1, 3, 5, 7, 9}));
}

TEST(SkipListMap, RangeScan) {
  SkipListMap<int, int> m;
  for (int k = 0; k < 20; ++k) m.insert(k, k);
  std::vector<int> keys;
  m.for_range(5, 12, [&](const int& k, const int&) { keys.push_back(k); });
  EXPECT_EQ(keys, (std::vector<int>{5, 6, 7, 8, 9, 10, 11}));
}

TEST(SkipListMap, RangeScanEmptyWindow) {
  SkipListMap<int, int> m;
  m.insert(1, 1);
  m.insert(10, 10);
  int count = 0;
  m.for_range(2, 9, [&](const int&, const int&) { ++count; });
  EXPECT_EQ(count, 0);
}

TEST(SkipListMap, EraseThenReinsert) {
  SkipListMap<int, int> m;
  m.insert(4, 40);
  EXPECT_TRUE(m.erase(4));
  EXPECT_FALSE(m.erase(4));
  EXPECT_FALSE(m.contains(4));
  EXPECT_TRUE(m.insert(4, 44));
  EXPECT_EQ(*m.find_value(4), 44);
  m.collect_garbage();
  EXPECT_TRUE(m.contains(4));
}

TEST(SkipListMap, PopMinDrainsInOrder) {
  SkipListMap<int, int> m;
  for (int k : {5, 2, 8, 1}) m.insert(k, k);
  int key, value;
  std::vector<int> order;
  while (m.pop_min(key, value)) order.push_back(key);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 5, 8}));
  EXPECT_TRUE(m.empty());
}

TEST(SkipListMap, PeekMin) {
  SkipListMap<int, int> m;
  EXPECT_EQ(m.peek_min(), nullptr);
  m.insert(9, 9);
  m.insert(2, 2);
  ASSERT_NE(m.peek_min(), nullptr);
  EXPECT_EQ(*m.peek_min(), 2);
}

TEST(SkipListMap, ConcurrentDistinctInserts) {
  SkipListMap<int, int> m;
  constexpr int kPerThread = 5000;
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        m.insert(t * kPerThread + i, i);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(m.size(), static_cast<std::size_t>(kPerThread * kThreads));
  // Order must be intact after the concurrent phase.
  int prev = -1, count = 0;
  m.for_each([&](const int& k, const int&) {
    EXPECT_GT(k, prev);
    prev = k;
    ++count;
  });
  EXPECT_EQ(count, kPerThread * kThreads);
}

TEST(SkipListMap, ConcurrentCollidingInsertsKeepSetSemantics) {
  SkipListMap<int, int> m;
  constexpr int kKeys = 500;
  std::atomic<int> wins{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kKeys; ++i) {
        if (m.insert(i, i)) wins.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(wins.load(), kKeys);  // each key inserted exactly once
  EXPECT_EQ(m.size(), static_cast<std::size_t>(kKeys));
}

TEST(SkipListMap, ConcurrentGetOrInsertSingleFactoryWinner) {
  SkipListMap<int, std::int64_t> m;
  std::atomic<int> factory_calls{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 200; ++i) {
        std::int64_t& v = m.get_or_insert(i, [&] {
          factory_calls.fetch_add(1);
          return static_cast<std::int64_t>(i) * 3;
        });
        EXPECT_EQ(v, static_cast<std::int64_t>(i) * 3);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(factory_calls.load(), 200);
}

TEST(SkipListMap, MixedInsertEraseStress) {
  SkipListMap<int, int> m;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      SplitMix64 rng(static_cast<std::uint64_t>(t) + 1);
      for (int i = 0; i < 3000; ++i) {
        const int k = static_cast<int>(rng.next_below(256));
        if (rng.next() & 1) {
          m.insert(k, k);
        } else {
          m.erase(k);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  // Whatever survived must still be a sorted set of distinct keys.
  std::vector<int> keys;
  m.for_each([&](const int& k, const int&) { keys.push_back(k); });
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
  EXPECT_EQ(std::adjacent_find(keys.begin(), keys.end()), keys.end());
  m.collect_garbage();
}

// Node lifetime with non-trivial keys and values: every node is one block
// (node plus tower), so a skipped destructor or a wrong block size at
// erase + GC, pop_min or destruction shows up as a leak or a bad free
// under the sanitizer build.
TEST(SkipListMap, NodeLifetimeWithStringKeys) {
  const auto key = [](int i) {
    return "key-" + std::to_string(i) + std::string(40, 'x');  // heap-held
  };
  SkipListMap<std::string, std::string> m;
  for (int i = 0; i < 300; ++i) {
    EXPECT_TRUE(m.insert(key(i), "value-" + std::to_string(i)));
  }
  for (int i = 0; i < 300; i += 3) EXPECT_TRUE(m.erase(key(i)));
  EXPECT_EQ(m.retired(), 100u);
  m.collect_garbage();
  EXPECT_EQ(m.retired(), 0u);
  EXPECT_EQ(m.size(), 200u);
  // Re-insert some erased keys, then drain part of the map from the front.
  for (int i = 0; i < 30; i += 3) EXPECT_TRUE(m.insert(key(i), "again"));
  std::string k, v;
  std::vector<std::string> popped;
  for (int i = 0; i < 50 && m.pop_min(k, v); ++i) popped.push_back(k);
  EXPECT_TRUE(std::is_sorted(popped.begin(), popped.end()));
  EXPECT_EQ(m.size(), 160u);
  ASSERT_NE(m.find_value(key(299)), nullptr);
  EXPECT_EQ(*m.find_value(key(299)), "value-299");
  // Leave some nodes retired and the rest live: the destructor frees both.
  for (int i = 200; i < 230; ++i) m.erase(key(i));
  EXPECT_GT(m.retired(), 0u);
}

// --- the per-thread insert finger -------------------------------------------
//
// get_or_insert starts from this thread's last insert when the key lands
// right after it.  These pin its results against a std::set oracle and
// its lifetime rule: a finger into nodes freed by collect_garbage or
// pop_min must never be followed (a use after free the ASan build sees).

std::set<int> contents(const SkipListMap<int, int>& m) {
  std::set<int> out;
  m.for_each([&](const int& k, const int&) { out.insert(k); });
  return out;
}

TEST(SkipListFinger, ParallelAscendingRunsMatchSetOracle) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 20000;
  // Disjoint: thread t owns [t * kPerThread, (t + 1) * kPerThread), so
  // each insert lands right after its own last one.  Interleaved: thread
  // t owns t, t + 4, t + 8, ..., so other threads' keys usually sit
  // between the finger and the next key.
  for (const bool interleaved : {false, true}) {
    SkipListMap<int, int> m;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (int i = 0; i < kPerThread; ++i) {
          const int k = interleaved ? i * kThreads + t : t * kPerThread + i;
          EXPECT_TRUE(m.insert(k, k));
        }
      });
    }
    for (auto& th : threads) th.join();
    std::set<int> oracle;
    for (int k = 0; k < kThreads * kPerThread; ++k) oracle.insert(k);
    EXPECT_EQ(contents(m), oracle) << (interleaved ? "interleaved" : "disjoint");
    EXPECT_EQ(m.size(), oracle.size());
    for (int k = 0; k < kThreads * kPerThread; k += 997) {
      ASSERT_NE(m.find_value(k), nullptr);
      EXPECT_EQ(*m.find_value(k), k);
    }
  }
}

TEST(SkipListFinger, NodesFreedByGarbageCollectionAreNotFollowed) {
  SkipListMap<int, int> m;
  for (int k = 0; k < 100; ++k) ASSERT_TRUE(m.insert(k, k));
  // The finger now holds node 99 at level 0 (and more nodes above).
  for (int k = 50; k < 100; ++k) ASSERT_TRUE(m.erase(k));
  m.collect_garbage();
  // 100 lands right after the freed node 99: the insert must search from
  // the head.
  ASSERT_TRUE(m.insert(100, 100));
  ASSERT_TRUE(m.insert(101, 101));
  std::set<int> oracle;
  for (int k = 0; k < 50; ++k) oracle.insert(k);
  oracle.insert({100, 101});
  EXPECT_EQ(contents(m), oracle);
  EXPECT_EQ(m.size(), oracle.size());
  // A finger node that is erased but not yet collected is marked, not
  // freed: the next insert may start from it and must still land right.
  ASSERT_TRUE(m.erase(101));
  ASSERT_TRUE(m.insert(102, 102));
  oracle.erase(101);
  oracle.insert(102);
  EXPECT_EQ(contents(m), oracle);
  EXPECT_EQ(m.size(), oracle.size());
}

TEST(SkipListFinger, NodesFreedByPopMinAreNotFollowed) {
  SkipListMap<int, int> m;
  for (int round = 0; round < 50; ++round) {
    ASSERT_TRUE(m.insert(round, round));  // the finger holds this node
    int k = -1, v = -1;
    ASSERT_TRUE(m.pop_min(k, v));         // ...which pop_min frees
    EXPECT_EQ(k, round);
    EXPECT_TRUE(m.empty());
  }
  for (int k = 100; k < 140; ++k) {
    ASSERT_TRUE(m.insert(k, k));
    int popped = -1, v = -1;
    if (k % 3 == 0) {
      ASSERT_TRUE(m.pop_min(popped, v));
    }
  }
  std::set<int> oracle;
  for (int k = 100; k < 140; ++k) oracle.insert(k);
  for (int i = 0; i < 13; ++i) oracle.erase(oracle.begin());
  EXPECT_EQ(contents(m), oracle);
  EXPECT_EQ(m.size(), oracle.size());
}

TEST(SkipListFinger, OneThreadAlternatingBetweenTwoMaps) {
  SkipListMap<int, int> a, b;
  std::set<int> oracle_a, oracle_b;
  // Key by key into each map in turn, then runs into each in turn, each
  // continuing where the last one ended.
  for (int k = 0; k < 2000; ++k) {
    ASSERT_TRUE(a.insert(2 * k, k));
    ASSERT_TRUE(b.insert(2 * k + 1, k));
    oracle_a.insert(2 * k);
    oracle_b.insert(2 * k + 1);
  }
  for (int run = 0; run < 20; ++run) {
    for (int k = 0; k < 50; ++k) {
      const int key = 4000 + run * 50 + k;
      ASSERT_TRUE((run % 2 == 0 ? a : b).insert(key, key));
      (run % 2 == 0 ? oracle_a : oracle_b).insert(key);
    }
  }
  EXPECT_EQ(contents(a), oracle_a);
  EXPECT_EQ(contents(b), oracle_b);
  EXPECT_EQ(a.size(), oracle_a.size());
  EXPECT_EQ(b.size(), oracle_b.size());
}

TEST(SkipListFinger, DuplicateRightAfterTheFingerIsRejected) {
  SkipListMap<int, int> m;
  ASSERT_TRUE(m.insert(20, 20));
  // 10 precedes the finger (node 20), so it is found from the head, and
  // the finger becomes node 10, whose successor is 20...
  ASSERT_TRUE(m.insert(10, 10));
  // ...so 20 fits right after the finger and is found there.
  EXPECT_FALSE(m.insert(20, 99));
  EXPECT_EQ(*m.find_value(20), 20);
  ASSERT_TRUE(m.insert(15, 15));
  EXPECT_FALSE(m.insert(20, 99));
  EXPECT_EQ(m.size(), 3u);
  EXPECT_EQ(contents(m), (std::set<int>{10, 15, 20}));
}

// The size is a ShardedCounter: inserts and erases from more threads than
// it has cells must still sum to the live count.
TEST(SkipListMap, SizeFromPerThreadCellsIsExact) {
  SkipListMap<int, int> m;
  constexpr int kThreads = 2 * static_cast<int>(kCounterSlots);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      SplitMix64 rng(static_cast<std::uint64_t>(t) * 31 + 7);
      for (int i = 0; i < 4000; ++i) {
        const int k = static_cast<int>(rng.next_below(1024));
        if (rng.next() % 3 != 0) {
          m.insert(k, k);
        } else {
          m.erase(k);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(m.size(), contents(m).size());
  m.collect_garbage();
  EXPECT_EQ(m.size(), contents(m).size());
}

TEST(SkipListSet, BasicSetOperations) {
  SkipListSet<int> s;
  EXPECT_TRUE(s.insert(3));
  EXPECT_FALSE(s.insert(3));
  EXPECT_TRUE(s.contains(3));
  EXPECT_TRUE(s.erase(3));
  EXPECT_FALSE(s.contains(3));
  EXPECT_TRUE(s.empty());
}

TEST(SkipListSet, PopMinAndRange) {
  SkipListSet<int> s;
  for (int v : {4, 1, 3, 2}) s.insert(v);
  std::vector<int> range;
  s.for_range(2, 4, [&](const int& v) { range.push_back(v); });
  EXPECT_EQ(range, (std::vector<int>{2, 3}));
  int out;
  ASSERT_TRUE(s.pop_min(out));
  EXPECT_EQ(out, 1);
  EXPECT_EQ(s.size(), 3u);
}

TEST(StripedHashMap, InsertLookupErase) {
  StripedHashMap<int, std::string> m;
  EXPECT_TRUE(m.insert(1, "one"));
  EXPECT_FALSE(m.insert(1, "uno"));
  std::string out;
  ASSERT_TRUE(m.lookup(1, out));
  EXPECT_EQ(out, "one");
  EXPECT_FALSE(m.lookup(2, out));
  EXPECT_TRUE(m.erase(1));
  EXPECT_FALSE(m.erase(1));
  EXPECT_EQ(m.size(), 0u);
}

TEST(StripedHashMap, GetOrInsertStableReference) {
  StripedHashMap<int, int> m;
  int& a = m.get_or_insert(9, [] { return 90; });
  int& b = m.get_or_insert(9, [] { return 91; });
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(a, 90);
}

TEST(StripedHashMap, UpdateUnderLock) {
  StripedHashMap<int, int> m;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 1000; ++i) {
        m.update(i % 10, [](int& v) { ++v; });
      }
    });
  }
  for (auto& th : threads) th.join();
  std::int64_t total = 0;
  m.for_each([&](const int&, const int& v) { total += v; });
  EXPECT_EQ(total, 4000);
}

TEST(StripedHashMap, ConcurrentInsertDistinct) {
  StripedHashMap<int, int> m(32);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 2000; ++i) m.insert(t * 2000 + i, i);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(m.size(), 8000u);
}

TEST(StripedHashSet, SetSemanticsUnderContention) {
  StripedHashSet<int> s(16);
  std::atomic<int> wins{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 1000; ++i) {
        if (s.insert(i)) wins.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(wins.load(), 1000);
  EXPECT_EQ(s.size(), 1000u);
  EXPECT_TRUE(s.contains(999));
  EXPECT_FALSE(s.contains(1000));
}

// StripedDeltaTree's maintenance entry points (batch_count,
// collect_garbage) take all stripe locks in one deterministic ascending
// order; interleave them from 8 threads against concurrent get_or_insert
// traffic — any ordering disagreement deadlocks, any size-counter skew
// trips collect_garbage's consistency check.
TEST(StripedDeltaTree, MaintenanceInterleavesWithInsertsAcross8Threads) {
  jstar::StripedDeltaTree tree(8);
  constexpr int kThreads = 8;
  constexpr int kOps = 4000;
  constexpr std::uint64_t kKeySpace = 512;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      SplitMix64 rng(static_cast<std::uint64_t>(t) * 977 + 1);
      for (int i = 0; i < kOps; ++i) {
        const std::uint64_t dice = rng.next_below(100);
        if (dice < 90) {
          jstar::DeltaKey k;
          k.push_back(static_cast<std::int64_t>(rng.next_below(kKeySpace)));
          tree.get_or_insert(k);
        } else if (dice < 95) {
          // Consistent snapshot under all stripe locks.
          EXPECT_LE(tree.batch_count(), static_cast<std::size_t>(kKeySpace));
        } else {
          tree.collect_garbage();  // validates the lock-free size cache
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  // Exclusive drain: keys come out in strict global causality order and
  // the lock-free emptiness flips exactly at the end.
  EXPECT_FALSE(tree.empty());
  jstar::DeltaKey key, prev;
  std::unique_ptr<jstar::BatchNode> node;
  std::size_t drained = 0;
  while (tree.pop_min(key, node)) {
    if (drained > 0) {
      EXPECT_EQ((prev <=> key), std::strong_ordering::less);
    }
    prev = key;
    ++drained;
  }
  EXPECT_GT(drained, 0u);
  EXPECT_LE(drained, static_cast<std::size_t>(kKeySpace));
  EXPECT_TRUE(tree.empty());
  EXPECT_EQ(tree.batch_count(), 0u);
}

}  // namespace
}  // namespace jstar::concurrent
