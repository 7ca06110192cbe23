// Unit tests for the util module: SmallVec (Delta keys), Statistics (the
// standard JStar reducer), SplitMix64 (parallel RNG), hashing.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "util/rng.h"
#include "util/small_vec.h"
#include "util/statistics.h"
#include "util/timer.h"

namespace jstar {
namespace {

using Key = SmallVec<std::int64_t, 4>;

TEST(SmallVec, StartsEmpty) {
  Key k;
  EXPECT_TRUE(k.empty());
  EXPECT_EQ(k.size(), 0u);
}

TEST(SmallVec, PushAndIndex) {
  Key k;
  for (std::int64_t i = 0; i < 3; ++i) k.push_back(i * 10);
  ASSERT_EQ(k.size(), 3u);
  EXPECT_EQ(k[0], 0);
  EXPECT_EQ(k[1], 10);
  EXPECT_EQ(k[2], 20);
}

TEST(SmallVec, GrowsPastInlineCapacity) {
  Key k;
  for (std::int64_t i = 0; i < 100; ++i) k.push_back(i);
  ASSERT_EQ(k.size(), 100u);
  for (std::int64_t i = 0; i < 100; ++i) EXPECT_EQ(k[static_cast<std::size_t>(i)], i);
}

TEST(SmallVec, CopySemantics) {
  Key a{1, 2, 3};
  Key b = a;
  b.push_back(4);
  EXPECT_EQ(a.size(), 3u);
  EXPECT_EQ(b.size(), 4u);
  EXPECT_EQ(a[2], 3);
}

TEST(SmallVec, CopyHeapBacked) {
  Key a;
  for (std::int64_t i = 0; i < 50; ++i) a.push_back(i);
  Key b = a;
  EXPECT_EQ(b.size(), 50u);
  EXPECT_TRUE(a == b);
  a = b;  // self-ish assignment through a copy
  EXPECT_TRUE(a == b);
}

TEST(SmallVec, MoveLeavesSourceEmpty) {
  Key a{7, 8};
  Key b = std::move(a);
  EXPECT_EQ(b.size(), 2u);
  EXPECT_TRUE(a.empty());  // NOLINT(bugprone-use-after-move): spec'd behaviour
}

TEST(SmallVec, LexicographicOrder) {
  EXPECT_TRUE((Key{1, 2} <=> Key{1, 3}) == std::strong_ordering::less);
  EXPECT_TRUE((Key{2} <=> Key{1, 9}) == std::strong_ordering::greater);
  EXPECT_TRUE((Key{1, 2} <=> Key{1, 2}) == std::strong_ordering::equal);
}

TEST(SmallVec, PrefixComparesLess) {
  EXPECT_TRUE((Key{1} <=> Key{1, 0}) == std::strong_ordering::less);
  EXPECT_TRUE((Key{} <=> Key{0}) == std::strong_ordering::less);
}

TEST(SmallVec, EqualityRequiresSameLength) {
  EXPECT_FALSE((Key{1} == Key{1, 1}));
  EXPECT_TRUE((Key{1, 1} == Key{1, 1}));
}

TEST(Statistics, EmptyIsZero) {
  Statistics s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(Statistics, BasicMoments) {
  Statistics s;
  for (double x : {2.0, 4.0, 6.0}) s.add(x);
  EXPECT_EQ(s.count(), 3u);
  EXPECT_DOUBLE_EQ(s.mean(), 4.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 6.0);
  EXPECT_NEAR(s.variance(), 8.0 / 3.0, 1e-12);
}

TEST(Statistics, OperatorPlusEquals) {
  Statistics s;
  s += 1.0;
  s += 3.0;
  EXPECT_DOUBLE_EQ(s.mean(), 2.0);
}

// Property: merging partial reductions equals one sequential reduction —
// this is what makes the reducer tree-combinable (§5.2).
TEST(Statistics, MergeEqualsSequential) {
  SplitMix64 rng(42);
  std::vector<double> xs(1000);
  for (auto& x : xs) x = rng.next_double() * 100 - 50;

  Statistics whole;
  for (double x : xs) whole.add(x);

  for (std::size_t parts : {2u, 3u, 7u, 10u}) {
    std::vector<Statistics> partial(parts);
    for (std::size_t i = 0; i < xs.size(); ++i) partial[i % parts].add(xs[i]);
    Statistics merged;
    for (const auto& p : partial) merged.merge(p);
    EXPECT_EQ(merged.count(), whole.count());
    EXPECT_NEAR(merged.mean(), whole.mean(), 1e-9);
    EXPECT_NEAR(merged.variance(), whole.variance(), 1e-6);
    EXPECT_DOUBLE_EQ(merged.min(), whole.min());
    EXPECT_DOUBLE_EQ(merged.max(), whole.max());
  }
}

TEST(Statistics, MergeWithEmpty) {
  Statistics a;
  a.add(5.0);
  Statistics empty;
  a.merge(empty);
  EXPECT_EQ(a.count(), 1u);
  empty.merge(a);
  EXPECT_EQ(empty.count(), 1u);
  EXPECT_DOUBLE_EQ(empty.mean(), 5.0);
}

TEST(SplitMix64, Deterministic) {
  SplitMix64 a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(SplitMix64, SplitStreamsDiffer) {
  SplitMix64 base(7);
  SplitMix64 s0 = base.split(0);
  SplitMix64 s1 = base.split(1);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (s0.next() == s1.next()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(SplitMix64, SplitIsStable) {
  SplitMix64 base(7);
  EXPECT_EQ(base.split(3).next(), SplitMix64(7).split(3).next());
}

TEST(SplitMix64, BoundsRespected) {
  SplitMix64 rng(99);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.next_below(10), 10u);
    const auto v = rng.next_in(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(SplitMix64, CoversRange) {
  SplitMix64 rng(5);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 200; ++i) seen.insert(rng.next_in(0, 9));
  EXPECT_EQ(seen.size(), 10u);
}

TEST(HashFields, DistinguishesFieldOrder) {
  EXPECT_NE(hash_fields(1, 2), hash_fields(2, 1));
  EXPECT_EQ(hash_fields(1, 2), hash_fields(1, 2));
}

// Every table that masks a hash to a power of two (the flat hash store,
// the batch dedup index) masks mix64(hash).  Consecutive (key, gen) rows
// — the shape bulk loads and derivations put — must then spread over the
// whole table: split a 2n-slot table into 256 equal regions and count the
// regions the rows land in.  The raw hash_fields value fails this (it
// reaches 42 of 256 regions for 64 keys × 256 gens and 30 for 161k rows
// of 797 keys), so linear probing walks one long cluster.
TEST(HashFields, MixedHashesSpreadOverThePowerOfTwoTable) {
  for (const auto& [keys, rows] :
       {std::pair<std::int64_t, std::int64_t>{64, 16384}, {797, 161072}}) {
    const std::size_t cap = std::bit_ceil(static_cast<std::size_t>(2 * rows));
    const int shift = std::countr_zero(cap) - 8;
    std::vector<bool> hit(256, false);
    for (std::int64_t i = 0; i < rows; ++i) {
      const std::uint64_t h = mix64(hash_fields(i % keys, i / keys));
      hit[(h & (cap - 1)) >> shift] = true;
    }
    EXPECT_GE(std::count(hit.begin(), hit.end(), true), 240)
        << keys << " keys, " << rows << " rows";
  }
}

TEST(FormatDuration, PicksUnits) {
  EXPECT_NE(format_duration(2e-9).find("ns"), std::string::npos);
  EXPECT_NE(format_duration(2e-6).find("us"), std::string::npos);
  EXPECT_NE(format_duration(2e-3).find("ms"), std::string::npos);
  EXPECT_NE(format_duration(2.0).find("s"), std::string::npos);
}

}  // namespace
}  // namespace jstar
